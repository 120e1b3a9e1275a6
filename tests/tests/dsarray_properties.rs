//! Property tests of the blocked distributed array against its dense
//! reference semantics, over arbitrary shapes and block sizes.

use dsarray::{tree_reduce, DsArray, DsLabels};
use linalg::Matrix;
use proptest::prelude::*;
use taskrt::Runtime;

fn arbitrary_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((r * 131 + c * 17) as u64)
            .wrapping_mul(0xBF58476D1CE4E5B9);
        ((h >> 16) % 1000) as f64 / 100.0 - 5.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_partition_collect_roundtrip(
        rows in 1usize..40,
        cols in 1usize..20,
        rb in 1usize..12,
        cb in 1usize..12,
        seed in 0u64..100,
    ) {
        let m = arbitrary_matrix(rows, cols, seed);
        let rt = Runtime::new();
        let ds = DsArray::from_matrix(&rt, &m, rb, cb);
        prop_assert_eq!(ds.shape(), (rows, cols));
        prop_assert_eq!(ds.n_row_blocks(), rows.div_ceil(rb));
        prop_assert_eq!(ds.n_col_blocks(), cols.div_ceil(cb));
        prop_assert_eq!(ds.collect(&rt), m);
    }

    #[test]
    fn prop_gram_matches_dense(
        rows in 2usize..25,
        cols in 1usize..10,
        rb in 1usize..8,
        seed in 0u64..100,
    ) {
        let m = arbitrary_matrix(rows, cols, seed);
        let rt = Runtime::new();
        let ds = DsArray::from_matrix(&rt, &m, rb, cols.div_ceil(2).max(1));
        let g = rt.peek(ds.gram(&rt));
        let expect = m.t_matmul(&m);
        prop_assert!(g.max_abs_diff(&expect) < 1e-9);
    }

    #[test]
    fn prop_colsums_match_dense(
        rows in 1usize..25,
        cols in 1usize..10,
        rb in 1usize..8,
        cb in 1usize..6,
        seed in 0u64..100,
    ) {
        let m = arbitrary_matrix(rows, cols, seed);
        let rt = Runtime::new();
        let ds = DsArray::from_matrix(&rt, &m, rb, cb);
        let got = rt.peek(ds.col_sums(&rt));
        for c in 0..cols {
            let expect: f64 = m.col(c).iter().sum();
            prop_assert!((got[c] - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn prop_tree_reduce_matches_fold(
        n in 1usize..50,
        seed in 0u64..100,
    ) {
        let rt = Runtime::new();
        let values: Vec<f64> =
            (0..n).map(|i| ((seed + i as u64) % 37) as f64 - 18.0).collect();
        let handles: Vec<_> = values.iter().map(|&v| rt.put(v)).collect();
        let total = tree_reduce(&rt, "sum", &handles, |a, b| a + b);
        let expect: f64 = values.iter().sum();
        prop_assert!((*rt.peek(total) - expect).abs() < 1e-9);
    }

    #[test]
    fn prop_labels_roundtrip(
        n in 1usize..60,
        rb in 1usize..10,
    ) {
        let rt = Runtime::new();
        let y: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let dl = DsLabels::from_slice(&rt, &y, rb);
        prop_assert_eq!(dl.len(), n);
        let mut collected = Vec::new();
        for i in 0..dl.n_parts() {
            collected.extend(rt.peek(dl.part(i)).iter().copied());
        }
        prop_assert_eq!(collected, y);
    }

    #[test]
    fn prop_matmul_dense_matches(
        rows in 1usize..20,
        inner in 1usize..8,
        k in 1usize..6,
        rb in 1usize..8,
        seed in 0u64..50,
    ) {
        let m = arbitrary_matrix(rows, inner, seed);
        let w = arbitrary_matrix(inner, k, seed + 1);
        let rt = Runtime::new();
        let ds = DsArray::from_matrix(&rt, &m, rb, inner);
        let wh = rt.put(w.clone());
        let got = ds.matmul_dense(&rt, wh).collect(&rt);
        prop_assert!(got.max_abs_diff(&m.matmul(&w)) < 1e-9);
    }
}
