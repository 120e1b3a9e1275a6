//! Principal Component Analysis by the covariance method (paper
//! §III-B4).
//!
//! Faithful to the dislib implementation the paper describes: "centering
//! the features and estimating the covariance matrix are computed in two
//! successive map-reduce phases, partitioning the samples only by row
//! blocks. Hence, an unpartitioned covariance matrix of shape
//! `(n_features, n_features)` is obtained. This matrix is processed by a
//! single task which computes the eigendecomposition".
//!
//! Task kinds: `ds_colsum`/`ds_colsum_reduce` (phase 1), `ds_center`,
//! `ds_gram`/`ds_gram_reduce` (phase 2), `pca_eigh` (single task),
//! `ds_matmul` (projection).
//!
//! That single task is the fit's critical path on every executor, so
//! [`linalg::eigh_top`] finds every eigenvalue, lets [`Components`] pick
//! `k`, and forms just those `k` eigenvectors (DESIGN.md §5.19).

use dsarray::DsArray;
use linalg::{eigh_top, Matrix};
use taskrt::{Handle, Runtime};

/// How many components to keep.
#[derive(Debug, Clone, Copy)]
pub enum Components {
    /// Fixed count.
    Count(usize),
    /// Smallest count whose cumulative explained variance reaches the
    /// given fraction (paper: 0.95, keeping "95 % of the information").
    Variance(f64),
}

/// A fitted PCA transform.
pub struct Pca {
    /// Projection matrix, `n_features x k` (eigenvectors as columns,
    /// sorted by descending eigenvalue).
    pub components: Handle<Matrix>,
    /// Explained variance of each kept component (descending).
    pub explained_variance: Handle<Vec<f64>>,
    /// Column means used for centering.
    pub mean: Handle<Vec<f64>>,
}

impl Pca {
    /// Fits PCA on a blocked dataset.
    pub fn fit(rt: &Runtime, x: &DsArray, keep: Components) -> Pca {
        let (n, _d) = x.shape();
        assert!(n >= 2, "PCA needs at least two samples");

        // Phase 1 (map-reduce): column means.
        let sums = x.col_sums(rt);
        let mean = rt.task("pca_mean").run1(sums, move |s: &Vec<f64>| {
            s.iter().map(|v| v / n as f64).collect::<Vec<f64>>()
        });

        // Center, then phase 2 (map-reduce): X_c^T X_c.
        let centered = x.sub_row_vector(rt, mean);
        let gram = centered.gram(rt);
        // The gram handle has no other consumer, so the INOUT scale
        // steals it and rescales in place — no covariance-sized clone.
        let cov = rt
            .task("pca_cov_scale")
            .run1_inout(gram, move |g: &mut Matrix| {
                g.scale(1.0 / (n as f64 - 1.0));
            });

        // Single eigendecomposition task (as in dislib).
        let eig = rt.task("pca_eigh").run1(cov, move |c: &Matrix| {
            let (var, comp) = eigh_top(c, |descending| match keep {
                Components::Count(k) => k.clamp(1, descending.len()),
                Components::Variance(frac) => {
                    let total: f64 = descending.iter().map(|v| v.max(0.0)).sum();
                    let mut acc = 0.0;
                    let reached = descending.iter().position(|v| {
                        acc += v.max(0.0);
                        total > 0.0 && acc / total >= frac
                    });
                    reached.map_or(descending.len(), |i| i + 1)
                }
            });
            (comp, var)
        });
        let (components, explained_variance) = rt.split_pair(eig);
        Pca {
            components,
            explained_variance,
            mean,
        }
    }

    /// Projects a blocked dataset onto the kept components, returning a
    /// new (row-banded) ds-array of shape `n x k`.
    pub fn transform(&self, rt: &Runtime, x: &DsArray) -> DsArray {
        let centered = x.sub_row_vector(rt, self.mean);
        centered.matmul_dense(rt, self.components)
    }

    /// Number of kept components (synchronizes on the fit).
    pub fn n_components(&self, rt: &Runtime) -> usize {
        rt.peek(self.explained_variance).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::randn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Data with variance concentrated along one direction.
    fn anisotropic(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let big = randn(&mut rng) * 10.0;
                let small = randn(&mut rng) * 0.5;
                // Principal axis = (1, 1)/sqrt(2), secondary = (1, -1).
                vec![
                    (big + small) / 2f64.sqrt() + 3.0,
                    (big - small) / 2f64.sqrt() - 1.0,
                    randn(&mut rng) * 0.1,
                ]
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn finds_dominant_direction() {
        let rt = Runtime::new();
        let x = anisotropic(200, 1);
        let ds = DsArray::from_matrix(&rt, &x, 50, 3);
        let pca = Pca::fit(&rt, &ds, Components::Count(1));
        let comp = rt.peek(pca.components);
        assert_eq!(comp.shape(), (3, 1));
        // First component should be close to (1,1,0)/sqrt(2) up to sign.
        let c = comp.col(0);
        let target = 1.0 / 2f64.sqrt();
        assert!((c[0].abs() - target).abs() < 0.05, "c={c:?}");
        assert!((c[1].abs() - target).abs() < 0.05);
        assert!(c[2].abs() < 0.1);
    }

    #[test]
    fn variance_threshold_keeps_few_components() {
        let rt = Runtime::new();
        let x = anisotropic(200, 2);
        let ds = DsArray::from_matrix(&rt, &x, 64, 3);
        let pca = Pca::fit(&rt, &ds, Components::Variance(0.95));
        // One direction carries ~99% of the variance.
        assert_eq!(pca.n_components(&rt), 1);
        let pca_all = Pca::fit(&rt, &ds, Components::Variance(0.999999));
        assert!(pca_all.n_components(&rt) >= 2);
    }

    #[test]
    fn threaded_fit_matches_inline_bit_for_bit() {
        let x = anisotropic(200, 2);
        for keep in [Components::Variance(0.95), Components::Count(3)] {
            let fit = |rt: &Runtime| {
                let ds = DsArray::from_matrix(rt, &x, 64, 3);
                let pca = Pca::fit(rt, &ds, keep);
                let projected = pca.transform(rt, &ds).collect(rt);
                let ev = rt.peek(pca.explained_variance).to_vec();
                (Matrix::clone(&rt.peek(pca.components)), ev, projected)
            };
            assert!(fit(&Runtime::threaded(3)) == fit(&Runtime::new()));
        }
    }

    #[test]
    fn transform_shape_and_centering() {
        let rt = Runtime::new();
        let x = anisotropic(120, 3);
        let ds = DsArray::from_matrix(&rt, &x, 30, 3);
        let pca = Pca::fit(&rt, &ds, Components::Count(2));
        let projected = pca.transform(&rt, &ds);
        assert_eq!(projected.shape(), (120, 2));
        let p = projected.collect(&rt);
        // Projections of centered data have ~zero mean.
        for c in 0..2 {
            let mean: f64 = p.col(c).iter().sum::<f64>() / 120.0;
            assert!(mean.abs() < 1e-9, "mean={mean}");
        }
    }

    #[test]
    fn transform_records_the_driver_wait_on_the_components() {
        // The projection's width is read on the driver, which blocks it:
        // the trace shows that as a sync marker after the band tasks.
        let rt = Runtime::new();
        let ds = DsArray::from_matrix(&rt, &anisotropic(120, 3), 30, 3);
        let pca = Pca::fit(&rt, &ds, Components::Count(2));
        let from = rt.task_count();
        let _ = pca.transform(&rt, &ds);
        let trace = rt.trace();
        let names: Vec<&str> = trace.records[from..]
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        let last = names
            .iter()
            .rposition(|&n| n == "ds_matmul")
            .expect("band tasks");
        assert_eq!(names[last + 1..], ["__sync"]);
    }

    #[test]
    fn explained_variance_descending_and_positive() {
        let rt = Runtime::new();
        let x = anisotropic(100, 4);
        let ds = DsArray::from_matrix(&rt, &x, 25, 3);
        let pca = Pca::fit(&rt, &ds, Components::Count(3));
        let ev = rt.peek(pca.explained_variance);
        for w in ev.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(ev[0] > 0.0);
    }

    #[test]
    fn projection_preserves_pairwise_structure() {
        // With all components kept, pairwise distances are preserved
        // (orthogonal transform of centered data).
        let rt = Runtime::new();
        let x = anisotropic(40, 5);
        let ds = DsArray::from_matrix(&rt, &x, 10, 3);
        let pca = Pca::fit(&rt, &ds, Components::Count(3));
        let p = pca.transform(&rt, &ds).collect(&rt);
        for (i, j) in [(0usize, 1usize), (5, 20), (13, 39)] {
            let d_orig = linalg::euclidean_sq(x.row(i), x.row(j));
            let d_proj = linalg::euclidean_sq(p.row(i), p.row(j));
            assert!(
                (d_orig - d_proj).abs() < 1e-6 * d_orig.max(1.0),
                "distance changed: {d_orig} vs {d_proj}"
            );
        }
    }

    #[test]
    fn single_eigh_task_in_trace() {
        let rt = Runtime::new();
        let x = anisotropic(60, 6);
        let ds = DsArray::from_matrix(&rt, &x, 15, 2);
        let _pca = Pca::fit(&rt, &ds, Components::Count(2));
        let hist = rt.trace().task_histogram();
        assert_eq!(
            hist["pca_eigh"], 1,
            "paper: eigendecomposition is a single task"
        );
        assert!(hist["ds_gram"] >= 4);
    }
}
