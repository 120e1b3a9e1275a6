//! C-Support Vector Classification via Sequential Minimal Optimization.
//!
//! This is the scikit-learn `SVC` stand-in used *inside* each
//! CascadeSVM task (paper §III-C1: "each of these tasks use
//! scikit-learn's SVC internally for training"). The solver is Platt's
//! simplified SMO with a full precomputed Gram matrix — appropriate
//! because cascade subsets are block-sized (≤ a few hundred samples).
//!
//! The sweeps run on an **error cache** `E[k] = f(k) - y[k]`: a KKT
//! check reads one entry and only an accepted step pays O(m), over two
//! contiguous Gram rows. The stopping point is tolerance-defined, so
//! coefficients are reproducible per build, not across changes to the
//! solver's rounding (DESIGN.md §5.19).

use linalg::{Kernel, Matrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Rows of a [`SvcModel::predict`] block: its kernel values against
/// every support vector are held at once, so this bounds that buffer.
const PREDICT_ROWS: usize = 256;

/// SVC hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct SvcParams {
    /// Soft-margin penalty.
    pub c: f64,
    /// Kernel function.
    pub kernel: Kernel,
    /// KKT violation tolerance.
    pub tol: f64,
    /// Number of consecutive zero-update sweeps before declaring
    /// convergence.
    pub max_passes: usize,
    /// Hard iteration cap (sweeps).
    pub max_sweeps: usize,
    /// RNG seed for the partner-choice heuristic.
    pub seed: u64,
}

impl Default for SvcParams {
    fn default() -> Self {
        Self {
            c: 1.0,
            kernel: Kernel::Rbf { gamma: 0.1 },
            tol: 1e-3,
            max_passes: 5,
            max_sweeps: 200,
            seed: 0,
        }
    }
}

/// A trained support-vector classifier.
#[derive(Debug, Clone)]
pub struct SvcModel {
    /// Support vectors (rows).
    pub support_vectors: Matrix,
    /// Original 0/1 labels of the support vectors.
    pub support_labels: Vec<u8>,
    /// Per-SV coefficient `alpha_i * y_i` with `y in {-1, +1}`.
    pub dual_coef: Vec<f64>,
    /// Intercept.
    pub intercept: f64,
    /// Kernel (needed at prediction time).
    pub kernel: Kernel,
}

impl taskrt::Payload for SvcModel {
    fn approx_bytes(&self) -> usize {
        self.support_vectors.approx_bytes()
            + self.support_labels.len()
            + self.dual_coef.len() * std::mem::size_of::<f64>()
            + std::mem::size_of::<Self>()
    }
}

impl SvcModel {
    /// Signed decision value for one sample (positive ⇒ class 1).
    pub fn decision(&self, x: &[f64]) -> f64 {
        let mut acc = self.intercept;
        for (i, &coef) in self.dual_coef.iter().enumerate() {
            acc += coef * self.kernel.eval(self.support_vectors.row(i), x);
        }
        acc
    }

    /// Predicted 0/1 label for one sample.
    pub fn predict_one(&self, x: &[f64]) -> u8 {
        u8::from(self.decision(x) > 0.0)
    }

    /// Predicted labels for every row of `x`, each the one
    /// [`SvcModel::predict_one`] gives its row.
    pub fn predict(&self, x: &Matrix) -> Vec<u8> {
        self.decisions(x)
            .into_iter()
            .map(|d| u8::from(d > 0.0))
            .collect()
    }

    /// [`SvcModel::decision`] of every row of `x`, bit for bit: one
    /// batched [`Kernel::eval_pairs`] per block of [`PREDICT_ROWS`] rows
    /// against all support vectors, summed per row in `decision`'s
    /// order.
    pub(crate) fn decisions(&self, x: &Matrix) -> Vec<f64> {
        let mut out = Vec::with_capacity(x.rows());
        for r0 in (0..x.rows()).step_by(PREDICT_ROWS) {
            let block = x.slice_rows(r0, (r0 + PREDICT_ROWS).min(x.rows()));
            let k = self.kernel.eval_pairs(&block, &self.support_vectors);
            for r in 0..k.rows() {
                let mut acc = self.intercept;
                for (&coef, &kv) in self.dual_coef.iter().zip(k.row(r)) {
                    acc += coef * kv;
                }
                out.push(acc);
            }
        }
        out
    }

    /// Number of support vectors.
    pub fn n_support(&self) -> usize {
        self.support_labels.len()
    }
}

/// Trains an SVC on `x` (rows = samples) with 0/1 labels `y`.
///
/// # Panics
/// Panics if `x` is empty, lengths mismatch, or only one class is
/// present (the cascade never produces such subsets for balanced data;
/// callers must guard degenerate folds).
pub fn fit_svc(x: &Matrix, y: &[u8], params: &SvcParams) -> SvcModel {
    let m = x.rows();
    assert_eq!(m, y.len(), "sample/label count mismatch");
    assert!(m >= 2, "need at least two samples");
    let ys: Vec<f64> = y.iter().map(|&l| if l == 1 { 1.0 } else { -1.0 }).collect();
    assert!(
        ys.iter().any(|&v| v > 0.0) && ys.iter().any(|&v| v < 0.0),
        "SVC requires both classes present"
    );

    // Precomputed Gram matrix.
    let k = params.kernel.gram(x, x);
    let (alpha, b, _) = smo(&k, &ys, params);

    // Extract support vectors (alpha > threshold).
    let sv_idx: Vec<usize> = (0..m).filter(|&i| alpha[i] > 1e-8).collect();
    // Degenerate guard: keep at least one sample of each class so the
    // cascade's merged sets stay trainable.
    let sv_idx = if sv_idx.is_empty() {
        vec![
            ys.iter().position(|&v| v > 0.0).unwrap(),
            ys.iter().position(|&v| v < 0.0).unwrap(),
        ]
    } else {
        sv_idx
    };

    let support_vectors = x.take_rows(&sv_idx);
    let support_labels: Vec<u8> = sv_idx.iter().map(|&i| y[i]).collect();
    let dual_coef: Vec<f64> = sv_idx.iter().map(|&i| alpha[i] * ys[i]).collect();
    SvcModel {
        support_vectors,
        support_labels,
        dual_coef,
        intercept: b,
        kernel: params.kernel,
    }
}

/// Platt's simplified SMO on a precomputed symmetric Gram matrix `k`
/// with labels `ys` in {-1, +1}: returns `(alpha, b, err)`, where
/// `err[k] = f(k) - ys[k]` is the error cache the sweeps ran on.
fn smo(k: &Matrix, ys: &[f64], params: &SvcParams) -> (Vec<f64>, f64, Vec<f64>) {
    let m = ys.len();
    let mut alpha = vec![0.0f64; m];
    let mut b = 0.0f64;
    // `f(k) = b + sum_j alpha_j y_j K(j, k)` is 0 at the start.
    let mut err: Vec<f64> = ys.iter().map(|&y| -y).collect();
    let mut rng = StdRng::seed_from_u64(params.seed);

    let mut passes = 0;
    let mut sweeps = 0;
    while passes < params.max_passes && sweeps < params.max_sweeps {
        sweeps += 1;
        let mut changed = 0;
        for i in 0..m {
            let ei = err[i];
            let r = ys[i] * ei;
            if (r < -params.tol && alpha[i] < params.c) || (r > params.tol && alpha[i] > 0.0) {
                // Random partner j != i.
                let mut j = rng.random_range(0..m - 1);
                if j >= i {
                    j += 1;
                }
                let ej = err[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if ys[i] != ys[j] {
                    (
                        (aj_old - ai_old).max(0.0),
                        (params.c + aj_old - ai_old).min(params.c),
                    )
                } else {
                    (
                        (ai_old + aj_old - params.c).max(0.0),
                        (ai_old + aj_old).min(params.c),
                    )
                };
                if (hi - lo).abs() < 1e-12 {
                    continue;
                }
                let eta = 2.0 * k.get(i, j) - k.get(i, i) - k.get(j, j);
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - ys[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-5 {
                    continue;
                }
                let ai = ai_old + ys[i] * ys[j] * (aj_old - aj);
                alpha[i] = ai;
                alpha[j] = aj;
                let (di, dj) = (ys[i] * (ai - ai_old), ys[j] * (aj - aj_old));
                let b1 = b - ei - di * k.get(i, i) - dj * k.get(i, j);
                let b2 = b - ej - di * k.get(i, j) - dj * k.get(j, j);
                let b_old = b;
                b = if ai > 0.0 && ai < params.c {
                    b1
                } else if aj > 0.0 && aj < params.c {
                    b2
                } else {
                    0.5 * (b1 + b2)
                };
                // Fold the step (two coefficients and the intercept)
                // into every cached error. `k` is symmetric, so rows
                // `i`, `j` hold the bits of the columns the formula names.
                let db = b - b_old;
                for ((e, &ki), &kj) in err.iter_mut().zip(k.row(i)).zip(k.row(j)) {
                    *e += di * ki + dj * kj + db;
                }
                changed += 1;
            }
        }
        if changed == 0 {
            passes += 1;
        } else {
            passes = 0;
        }
    }
    (alpha, b, err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::testutil::blobs;

    #[test]
    fn separates_blobs_linear() {
        let (x, y) = blobs(40, 2.0, 1);
        let params = SvcParams {
            kernel: Kernel::Linear,
            ..Default::default()
        };
        let model = fit_svc(&x, &y, &params);
        let pred = model.predict(&x);
        assert!(accuracy(&y, &pred) > 0.97, "acc={}", accuracy(&y, &pred));
    }

    #[test]
    fn separates_blobs_rbf() {
        let (x, y) = blobs(40, 2.0, 2);
        let params = SvcParams {
            kernel: Kernel::Rbf { gamma: 0.5 },
            ..Default::default()
        };
        let model = fit_svc(&x, &y, &params);
        assert!(accuracy(&y, &model.predict(&x)) > 0.97);
    }

    /// XOR is not linearly separable; RBF must handle it.
    fn xor_set() -> (Matrix, Vec<u8>, SvcParams) {
        let rows = vec![
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.1, 0.1],
            vec![0.9, 0.9],
            vec![0.1, 0.9],
            vec![0.9, 0.1],
        ];
        let y = vec![0, 0, 1, 1, 0, 0, 1, 1];
        let params = SvcParams {
            c: 10.0,
            kernel: Kernel::Rbf { gamma: 3.0 },
            ..Default::default()
        };
        (Matrix::from_rows(&rows), y, params)
    }

    #[test]
    fn rbf_solves_xor() {
        let (x, y, params) = xor_set();
        let model = fit_svc(&x, &y, &params);
        assert_eq!(model.predict(&x), y);
    }

    #[test]
    fn support_vectors_are_subset() {
        let (x, y) = blobs(30, 1.0, 3);
        let model = fit_svc(&x, &y, &SvcParams::default());
        assert!(model.n_support() >= 2);
        assert!(model.n_support() <= x.rows());
        assert_eq!(model.dual_coef.len(), model.n_support());
        // Margin-interior points of well-separated blobs are not SVs.
        let (x2, y2) = blobs(50, 3.0, 4);
        let m2 = fit_svc(
            &x2,
            &y2,
            &SvcParams {
                kernel: Kernel::Linear,
                ..Default::default()
            },
        );
        assert!(m2.n_support() < x2.rows() / 2, "n_sv={}", m2.n_support());
    }

    /// The solver this module shipped before the error cache: every KKT
    /// check recomputes the O(m) decision value. Kept as the oracle.
    fn smo_recompute(k: &Matrix, ys: &[f64], params: &SvcParams) -> (Vec<f64>, f64) {
        let m = ys.len();
        let mut alpha = vec![0.0f64; m];
        let mut b = 0.0f64;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let f = |alpha: &[f64], b: f64, i: usize| decision_on_gram(k, ys, alpha, b, i);
        let mut passes = 0;
        let mut sweeps = 0;
        while passes < params.max_passes && sweeps < params.max_sweeps {
            sweeps += 1;
            let mut changed = 0;
            for i in 0..m {
                let ei = f(&alpha, b, i) - ys[i];
                let r = ys[i] * ei;
                if (r < -params.tol && alpha[i] < params.c) || (r > params.tol && alpha[i] > 0.0) {
                    let mut j = rng.random_range(0..m - 1);
                    if j >= i {
                        j += 1;
                    }
                    let ej = f(&alpha, b, j) - ys[j];
                    let (ai_old, aj_old) = (alpha[i], alpha[j]);
                    let (lo, hi) = if ys[i] != ys[j] {
                        (
                            (aj_old - ai_old).max(0.0),
                            (params.c + aj_old - ai_old).min(params.c),
                        )
                    } else {
                        (
                            (ai_old + aj_old - params.c).max(0.0),
                            (ai_old + aj_old).min(params.c),
                        )
                    };
                    if (hi - lo).abs() < 1e-12 {
                        continue;
                    }
                    let eta = 2.0 * k.get(i, j) - k.get(i, i) - k.get(j, j);
                    if eta >= 0.0 {
                        continue;
                    }
                    let mut aj = aj_old - ys[j] * (ei - ej) / eta;
                    aj = aj.clamp(lo, hi);
                    if (aj - aj_old).abs() < 1e-5 {
                        continue;
                    }
                    let ai = ai_old + ys[i] * ys[j] * (aj_old - aj);
                    alpha[i] = ai;
                    alpha[j] = aj;
                    let b1 = b
                        - ei
                        - ys[i] * (ai - ai_old) * k.get(i, i)
                        - ys[j] * (aj - aj_old) * k.get(i, j);
                    let b2 = b
                        - ej
                        - ys[i] * (ai - ai_old) * k.get(i, j)
                        - ys[j] * (aj - aj_old) * k.get(j, j);
                    b = if ai > 0.0 && ai < params.c {
                        b1
                    } else if aj > 0.0 && aj < params.c {
                        b2
                    } else {
                        0.5 * (b1 + b2)
                    };
                    changed += 1;
                }
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }
        (alpha, b)
    }

    /// `b + sum_j alpha_j y_j K(j, i)` from scratch.
    fn decision_on_gram(k: &Matrix, ys: &[f64], alpha: &[f64], b: f64, i: usize) -> f64 {
        let mut acc = b;
        for ((&a, &y), &kij) in alpha.iter().zip(ys).zip(k.row(i)) {
            if a != 0.0 {
                acc += a * y * kij;
            }
        }
        acc
    }

    /// Dual objective `sum alpha - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij`.
    fn dual_objective(k: &Matrix, ys: &[f64], alpha: &[f64]) -> f64 {
        let quad: f64 = (0..ys.len())
            .map(|i| alpha[i] * ys[i] * (decision_on_gram(k, ys, alpha, 0.0, i)))
            .sum();
        alpha.iter().sum::<f64>() - 0.5 * quad
    }

    /// A 320 x 160 set at the benchmark's regime (gamma = 18 x scale,
    /// C = 0.5): nearly every row stays a support
    /// vector and SMO runs tens of sweeps.
    fn high_gamma_set() -> (Matrix, Vec<u8>, SvcParams) {
        let mut rng = StdRng::seed_from_u64(11);
        let y: Vec<u8> = (0..320).map(|r| (r % 2) as u8).collect();
        let x = Matrix::from_fn(320, 160, |r, _| {
            crate::testutil::randn(&mut rng) + if y[r] == 1 { 0.25 } else { -0.25 }
        });
        let params = SvcParams {
            c: 0.5,
            kernel: Kernel::Rbf {
                gamma: 18.0 * linalg::kernels::gamma_scale(&x),
            },
            ..Default::default()
        };
        (x, y, params)
    }

    #[test]
    fn error_cache_agrees_with_the_recompute_oracle() {
        let linear = SvcParams {
            kernel: Kernel::Linear,
            ..Default::default()
        };
        let rbf = SvcParams {
            kernel: Kernel::Rbf { gamma: 0.5 },
            ..Default::default()
        };
        let (bx, by) = blobs(40, 2.0, 1);
        let (xx, xy, xor) = xor_set();
        let (hx, hy, high) = high_gamma_set();
        // The stopping point is tolerance-defined (`tol`, the 1e-5 step
        // skip, five idle sweeps of random partners), so a last-bit
        // difference in one error re-routes the run: nudging the
        // oracle's own decision values by 2 ulp moves its objective by
        // 16 % on the separable linear set, 3e-5 on the RBF blobs and
        // 5e-7 at high gamma. Each bound sits above that noise.
        for (name, x, y, params, rel) in [
            ("blobs linear", &bx, &by, linear, 0.25),
            ("blobs rbf", &bx, &by, rbf, 1e-4),
            ("xor", &xx, &xy, xor, 1e-6),
            ("high gamma", &hx, &hy, high, 1e-5),
        ] {
            let ys: Vec<f64> = y.iter().map(|&l| f64::from(l) * 2.0 - 1.0).collect();
            let k = params.kernel.gram(x, x);
            let (alpha, b, err) = smo(&k, &ys, &params);
            for (i, e) in err.iter().enumerate() {
                let fresh = decision_on_gram(&k, &ys, &alpha, b, i) - ys[i];
                assert!((e - fresh).abs() <= 1e-9, "{name}: err[{i}] {e} vs {fresh}");
            }
            let (o_alpha, o_b) = smo_recompute(&k, &ys, &params);
            let (got, want) = (
                dual_objective(&k, &ys, &alpha),
                dual_objective(&k, &ys, &o_alpha),
            );
            assert!(
                (got - want).abs() <= rel * want.abs(),
                "{name}: dual objective {got} vs oracle {want}"
            );
            let agree = (0..ys.len())
                .filter(|&i| {
                    (decision_on_gram(&k, &ys, &alpha, b, i) > 0.0)
                        == (decision_on_gram(&k, &ys, &o_alpha, o_b, i) > 0.0)
                })
                .count();
            assert!(
                agree * 100 >= ys.len() * 99,
                "{name}: predictions agree on {agree}/{}",
                ys.len()
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs(20, 1.5, 5);
        let a = fit_svc(&x, &y, &SvcParams::default());
        let b = fit_svc(&x, &y, &SvcParams::default());
        assert_eq!(a.dual_coef, b.dual_coef);
        assert_eq!(a.intercept, b.intercept);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn rejects_single_class() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let _ = fit_svc(&x, &[1, 1], &SvcParams::default());
    }

    /// `predict`'s batched kernel evaluation gives every row the
    /// decision value `decision` computes for it alone, bit for bit, for
    /// each kernel: on the benchmark-regime set (stacked twice, so that
    /// it spans three predict blocks) and on the blobs.
    #[test]
    fn batched_decisions_match_per_row_decision_bit_for_bit() {
        let (bx, by) = blobs(40, 2.0, 3);
        let with = |kernel| SvcParams {
            kernel,
            ..Default::default()
        };
        let poly = Kernel::Poly {
            degree: 3,
            coef0: 0.5,
        };
        let cases = [
            high_gamma_set(),
            (bx.clone(), by.clone(), with(Kernel::Linear)),
            (bx.clone(), by.clone(), with(Kernel::Rbf { gamma: 0.5 })),
            (bx, by, with(poly)),
        ];
        for (x, y, params) in cases {
            let model = fit_svc(&x, &y, &params);
            let x = x.vstack(&x);
            let got = model.decisions(&x);
            assert_eq!(got.len(), x.rows());
            for (r, d) in got.iter().enumerate() {
                let want = model.decision(x.row(r));
                assert_eq!(d.to_bits(), want.to_bits(), "{:?} row {r}", params.kernel);
            }
            let labels: Vec<u8> = (0..x.rows()).map(|r| model.predict_one(x.row(r))).collect();
            assert_eq!(model.predict(&x), labels, "{:?}", params.kernel);
        }
    }

    #[test]
    fn decision_sign_matches_prediction() {
        let (x, y) = blobs(20, 2.0, 6);
        let model = fit_svc(&x, &y, &SvcParams::default());
        for r in 0..x.rows() {
            let d = model.decision(x.row(r));
            assert_eq!(u8::from(d > 0.0), model.predict_one(x.row(r)));
        }
        let _ = y;
    }
}
