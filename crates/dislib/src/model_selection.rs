//! Model selection: K-fold cross-validation (the paper evaluates every
//! algorithm "with an ensemble of runs, trained with K-fold (K=5)"),
//! plus [`cross_validate`], which does it for any estimator.

use crate::metrics::ConfusionMatrix;
use linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// K-fold splitter.
#[derive(Debug, Clone, Copy)]
pub struct KFold {
    /// Number of folds (paper: 5).
    pub k: usize,
    /// Shuffle sample order before splitting.
    pub shuffle: bool,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for KFold {
    fn default() -> Self {
        Self {
            k: 5,
            shuffle: true,
            seed: 0,
        }
    }
}

impl KFold {
    /// Produces `(train_idx, test_idx)` per fold over `n` samples.
    ///
    /// # Panics
    /// Panics unless `2 <= k <= n`.
    pub fn split(&self, n: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
        assert!(self.k >= 2, "k must be >= 2");
        assert!(self.k <= n, "k must not exceed the sample count");
        let mut order: Vec<usize> = (0..n).collect();
        if self.shuffle {
            let mut rng = StdRng::seed_from_u64(self.seed);
            order.shuffle(&mut rng);
        }
        // Fold sizes differ by at most one.
        let base = n / self.k;
        let extra = n % self.k;
        let mut folds = Vec::with_capacity(self.k);
        let mut start = 0;
        for f in 0..self.k {
            let size = base + usize::from(f < extra);
            let test: Vec<usize> = order[start..start + size].to_vec();
            let train: Vec<usize> = order[..start]
                .iter()
                .chain(&order[start + size..])
                .copied()
                .collect();
            folds.push((train, test));
            start += size;
        }
        folds
    }
}

/// Gathers `(x, y)` rows by index — the helper used to materialize each
/// fold before loading it into a ds-array.
pub fn take(x: &Matrix, y: &[u8], idx: &[usize]) -> (Matrix, Vec<u8>) {
    (x.take_rows(idx), idx.iter().map(|&i| y[i]).collect())
}

/// Cross-validates any estimator: `fit_predict(x_train, y_train,
/// x_test)` must return the test predictions. Returns one confusion
/// matrix per fold.
pub fn cross_validate<F>(
    x: &Matrix,
    y: &[u8],
    kf: &KFold,
    mut fit_predict: F,
) -> Vec<ConfusionMatrix>
where
    F: FnMut(&Matrix, &[u8], &Matrix) -> Vec<u8>,
{
    kf.split(x.rows())
        .into_iter()
        .map(|(tr, te)| {
            let (xtr, ytr) = take(x, y, &tr);
            let (xte, yte) = take(x, y, &te);
            let pred = fit_predict(&xtr, &ytr, &xte);
            ConfusionMatrix::from_labels(&yte, &pred)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn folds_partition_everything() {
        let kf = KFold {
            k: 5,
            shuffle: true,
            seed: 1,
        };
        let folds = kf.split(23);
        assert_eq!(folds.len(), 5);
        let mut all_test: Vec<usize> = folds.iter().flat_map(|(_, t)| t.clone()).collect();
        all_test.sort_unstable();
        assert_eq!(all_test, (0..23).collect::<Vec<_>>());
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 23);
            assert!(test.iter().all(|t| !train.contains(t)));
        }
    }

    #[test]
    fn unshuffled_folds_are_contiguous() {
        let kf = KFold {
            k: 2,
            shuffle: false,
            seed: 0,
        };
        let folds = kf.split(4);
        assert_eq!(folds[0].1, vec![0, 1]);
        assert_eq!(folds[1].1, vec![2, 3]);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = KFold {
            k: 3,
            shuffle: true,
            seed: 9,
        }
        .split(30);
        let b = KFold {
            k: 3,
            shuffle: true,
            seed: 9,
        }
        .split(30);
        assert_eq!(a, b);
        let c = KFold {
            k: 3,
            shuffle: true,
            seed: 10,
        }
        .split(30);
        assert_ne!(a, c);
    }

    #[test]
    fn take_gathers_rows_and_labels() {
        let x = Matrix::from_fn(4, 2, |r, _| r as f64);
        let y = vec![0, 1, 0, 1];
        let (xs, ys) = take(&x, &y, &[3, 0]);
        assert_eq!(xs.row(0), &[3.0, 3.0]);
        assert_eq!(ys, vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "k must not exceed")]
    fn rejects_more_folds_than_samples() {
        let _ = KFold {
            k: 10,
            shuffle: false,
            seed: 0,
        }
        .split(5);
    }

    #[test]
    fn cross_validate_counts_every_sample_once() {
        let x = Matrix::from_fn(20, 2, |r, _| r as f64);
        let y: Vec<u8> = (0..20).map(|i| (i % 2) as u8).collect();
        let kf = KFold {
            k: 4,
            shuffle: true,
            seed: 1,
        };
        // A majority-vote "estimator".
        let folds = cross_validate(&x, &y, &kf, |_xtr, ytr, xte| {
            let ones = ytr.iter().filter(|&&l| l == 1).count();
            let label = u8::from(ones * 2 > ytr.len());
            vec![label; xte.rows()]
        });
        assert_eq!(folds.len(), 4);
        let total: usize = folds.iter().map(|f| f.total()).sum();
        assert_eq!(total, 20);
    }

    proptest! {
        #[test]
        fn prop_fold_sizes_balanced(n in 4usize..200, k in 2usize..6) {
            prop_assume!(k <= n);
            let folds = KFold { k, shuffle: true, seed: 0 }.split(n);
            let sizes: Vec<usize> = folds.iter().map(|(_, t)| t.len()).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            prop_assert!(max - min <= 1);
            prop_assert_eq!(sizes.iter().sum::<usize>(), n);
        }
    }
}
