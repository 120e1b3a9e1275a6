//! Pairwise distances and SVM kernel functions.
//!
//! Shared by the `dislib` estimators: squared Euclidean distance (KNN),
//! and the linear / RBF kernels used by the SMO-based SVC inside the
//! CascadeSVM.

use crate::matrix::{sq_dists_map, Matrix};
use crate::sgemm::PairSum;

/// Squared Euclidean distance between two equally-long slices.
///
/// # Panics
/// Panics on length mismatch (debug builds assert; release relies on the
/// zip semantics, so callers must pass equal lengths).
///
/// Four independent accumulators over `chunks_exact(4)` lanes (the
/// same shape as [`dot`]) keep the loop free of a serial dependency so
/// it autovectorizes; the fixed combine order keeps results
/// deterministic and bitwise symmetric in `a`/`b`.
#[inline]
pub fn euclidean_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (qa, qb) in ca.zip(cb) {
        let d0 = qa[0] - qb[0];
        let d1 = qa[1] - qb[1];
        let d2 = qa[2] - qb[2];
        let d3 = qa[3] - qb[3];
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in ra.iter().zip(rb) {
        s += (x - y) * (x - y);
    }
    s
}

/// SVM kernel functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `K(a, b) = a · b`
    Linear,
    /// `K(a, b) = exp(-gamma * |a - b|^2)`
    Rbf {
        /// Width parameter; scikit-learn's `"scale"` default is
        /// `1 / (n_features * var(X))`.
        gamma: f64,
    },
    /// `K(a, b) = (a · b + coef0)^degree`
    Poly {
        /// Polynomial degree.
        degree: u32,
        /// Additive constant.
        coef0: f64,
    },
}

impl Kernel {
    /// Evaluates the kernel on a pair of samples.
    #[inline]
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match *self {
            Kernel::Linear => dot(a, b),
            Kernel::Rbf { gamma } => (-gamma * euclidean_sq(a, b)).exp(),
            Kernel::Poly { degree, coef0 } => (dot(a, b) + coef0).powi(degree as i32),
        }
    }

    /// Full kernel (Gram) matrix between the rows of `x` and `y`.
    ///
    /// Built on the register-tiled [`Matrix::matmul_nt`] kernel rather
    /// than per-pair [`Kernel::eval`] calls: linear/poly kernels are one
    /// `x * y^T`, and the RBF kernel expands `|xi - yj|^2` as
    /// `|xi|^2 + |yj|^2 - 2 xi.yj` like [`pairwise_sq_dists`]. Because
    /// norms and cross terms share one summation order, `gram(x, x)` is
    /// exactly symmetric and the RBF diagonal is exactly `1.0` — which
    /// is what lets `gram(x, x)` (same matrix, by address) evaluate the
    /// dots *and* the `exp`/`powi` pass on the upper triangle only and
    /// mirror the rest, bit for bit.
    pub fn gram(&self, x: &Matrix, y: &Matrix) -> Matrix {
        assert_eq!(x.cols(), y.cols(), "gram feature mismatch");
        match *self {
            Kernel::Linear => x.matmul_nt(y),
            Kernel::Rbf { gamma } => sq_dists_map(x, y, |d| (-gamma * d).exp()),
            Kernel::Poly { degree, coef0 } => {
                x.pair_map(y, PairSum::Dot, |_, _, v| (v + coef0).powi(degree as i32))
            }
        }
    }

    /// Every [`Kernel::eval`]`(x.row(i), y.row(j))`, bit for bit, as one
    /// `x.rows() x y.rows()` matrix: the batched form of per-pair
    /// evaluation, on the pair tile of [`Matrix::matmul_nt`]. It equals
    /// [`Kernel::gram`] for the linear and polynomial kernels; the RBF
    /// kernel sums `(xi - yj)²` directly, as [`euclidean_sq`] does,
    /// instead of expanding it.
    ///
    /// # Panics
    /// Panics if `x` and `y` disagree on column count.
    pub fn eval_pairs(&self, x: &Matrix, y: &Matrix) -> Matrix {
        match *self {
            Kernel::Rbf { gamma } => x.pair_map(y, PairSum::DiffSq, |_, _, d| (-gamma * d).exp()),
            Kernel::Linear | Kernel::Poly { .. } => self.gram(x, y),
        }
    }
}

pub use crate::matrix::{dot, pairwise_sq_dists};

/// The `"scale"` gamma heuristic of scikit-learn:
/// `1 / (n_features * variance_of_all_entries)`.
pub fn gamma_scale(x: &Matrix) -> f64 {
    let n = (x.rows() * x.cols()) as f64;
    if n == 0.0 {
        return 1.0;
    }
    let mean: f64 = x.as_slice().iter().sum::<f64>() / n;
    let var: f64 = x
        .as_slice()
        .iter()
        .map(|v| (v - mean) * (v - mean))
        .sum::<f64>()
        / n;
    if var <= f64::EPSILON {
        1.0
    } else {
        1.0 / (x.cols() as f64 * var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn euclidean_known() {
        assert_eq!(euclidean_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean_sq(&[], &[]), 0.0);
    }

    #[test]
    fn linear_kernel_is_dot() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn rbf_kernel_identity_is_one() {
        let k = Kernel::Rbf { gamma: 0.5 };
        assert!((k.eval(&[1.0, -2.0], &[1.0, -2.0]) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn rbf_decays_with_distance() {
        let k = Kernel::Rbf { gamma: 1.0 };
        let near = k.eval(&[0.0], &[0.1]);
        let far = k.eval(&[0.0], &[2.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn poly_kernel_known() {
        let k = Kernel::Poly {
            degree: 2,
            coef0: 1.0,
        };
        // (1*1 + 1)^2 = 4
        assert_eq!(k.eval(&[1.0], &[1.0]), 4.0);
    }

    #[test]
    fn gram_is_symmetric_for_same_input() {
        let x = Matrix::from_fn(4, 3, |r, c| (r as f64 - c as f64) * 0.5);
        let g = Kernel::Rbf { gamma: 0.3 }.gram(&x, &x);
        for i in 0..4 {
            for j in 0..4 {
                assert!((g.get(i, j) - g.get(j, i)).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn gram_matches_per_pair_eval() {
        let x = Matrix::from_fn(7, 5, |r, c| ((r * 5 + c) as f64 * 0.37).sin());
        let y = Matrix::from_fn(4, 5, |r, c| ((r + c) as f64 * 0.61).cos());
        for k in [
            Kernel::Linear,
            Kernel::Rbf { gamma: 0.8 },
            Kernel::Poly {
                degree: 3,
                coef0: 0.5,
            },
        ] {
            let fast = k.gram(&x, &y);
            let naive = Matrix::from_fn(7, 4, |i, j| k.eval(x.row(i), y.row(j)));
            assert!(
                fast.max_abs_diff(&naive) < 1e-12,
                "{k:?} gram diverges from eval"
            );
        }
    }

    #[test]
    fn gram_with_itself_bitwise_matches_general_path() {
        // Shapes straddle the 2x4 dot tile, its 4-lane chunks and the
        // 8x8 mirror tile.
        for (rows, cols) in [(5, 3), (61, 161), (257, 386), (300, 7)] {
            let x = Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f64 * 0.37).sin());
            for k in [
                Kernel::Linear,
                Kernel::Rbf { gamma: 0.05 },
                Kernel::Poly {
                    degree: 3,
                    coef0: 0.5,
                },
            ] {
                assert_eq!(
                    k.gram(&x, &x),
                    k.gram(&x, &x.clone()),
                    "{k:?} at {rows}x{cols}"
                );
            }
        }
    }

    #[test]
    fn rbf_gram_diagonal_exactly_one() {
        let x = Matrix::from_fn(6, 9, |r, c| (r as f64 + 1.3) * (c as f64 - 4.1));
        let g = Kernel::Rbf { gamma: 2.5 }.gram(&x, &x);
        for i in 0..6 {
            assert_eq!(g.get(i, i), 1.0, "diagonal entry {i}");
        }
    }

    #[test]
    fn pairwise_sq_dists_matches_euclidean() {
        let x = Matrix::from_fn(5, 6, |r, c| ((r * 6 + c) as f64).sqrt() - 2.0);
        let y = Matrix::from_fn(3, 6, |r, c| (r as f64) * 0.25 - (c as f64) * 0.5);
        let d = pairwise_sq_dists(&x, &y);
        for i in 0..5 {
            for j in 0..3 {
                assert!((d.get(i, j) - euclidean_sq(x.row(i), y.row(j))).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gamma_scale_constant_matrix() {
        let x = Matrix::from_fn(3, 3, |_, _| 2.0);
        assert_eq!(gamma_scale(&x), 1.0); // zero variance fallback
    }

    proptest! {
        #[test]
        fn prop_rbf_in_unit_interval(
            a in proptest::collection::vec(-10.0f64..10.0, 4),
            b in proptest::collection::vec(-10.0f64..10.0, 4),
            gamma in 0.01f64..5.0,
        ) {
            let v = Kernel::Rbf { gamma }.eval(&a, &b);
            // exp can underflow to exactly 0.0 for very distant points
            prop_assert!((0.0..=1.0 + 1e-15).contains(&v));
        }

        #[test]
        fn prop_euclidean_symmetry(
            a in proptest::collection::vec(-10.0f64..10.0, 5),
            b in proptest::collection::vec(-10.0f64..10.0, 5),
        ) {
            prop_assert!((euclidean_sq(&a, &b) - euclidean_sq(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn prop_euclidean_triangle_like(
            a in proptest::collection::vec(-5.0f64..5.0, 3),
            b in proptest::collection::vec(-5.0f64..5.0, 3),
            c in proptest::collection::vec(-5.0f64..5.0, 3),
        ) {
            // sqrt of squared distance obeys the triangle inequality
            let ab = euclidean_sq(&a, &b).sqrt();
            let bc = euclidean_sq(&b, &c).sqrt();
            let ac = euclidean_sq(&a, &c).sqrt();
            prop_assert!(ac <= ab + bc + 1e-9);
        }
    }
}
