//! StandardScaler (paper §IV-B).
//!
//! "This scaler removes the mean value of the features and divides the
//! data by its standard deviation in order to reduce the variance to a
//! unit. The StandardScaler is part of the dislib library, the
//! parallelism being based on the number of row blocks." Required by the
//! KNN pipeline so no feature dominates the distance metric.

use dsarray::DsArray;
use taskrt::{Handle, Runtime};

/// A fitted standard scaler.
pub struct StandardScaler {
    /// Per-column means.
    pub mean: Handle<Vec<f64>>,
    /// Per-column population standard deviations.
    pub std: Handle<Vec<f64>>,
}

impl StandardScaler {
    /// Computes per-column mean and standard deviation with one partial
    /// task per block plus reductions (`scaler_*` task kinds).
    pub fn fit(rt: &Runtime, x: &DsArray) -> Self {
        let (n, _) = x.shape();
        let sums = x.col_sums(rt);
        let mean = rt.task("scaler_mean").run1(sums, move |s: &Vec<f64>| {
            s.iter().map(|v| v / n as f64).collect::<Vec<f64>>()
        });
        // E[x^2] via squared blocks, then var = E[x^2] - mean^2.
        let squared = x.map_blocks(rt, "scaler_sq", |b| {
            let mut out = b.clone();
            for v in out.as_mut_slice() {
                *v *= *v;
            }
            out
        });
        let sq_sums = squared.col_sums(rt);
        let std =
            rt.task("scaler_std")
                .run2(sq_sums, mean, move |sq: &Vec<f64>, mean: &Vec<f64>| {
                    sq.iter()
                        .zip(mean)
                        .map(|(s, m)| (s / n as f64 - m * m).max(0.0).sqrt())
                        .collect::<Vec<f64>>()
                });
        StandardScaler { mean, std }
    }

    /// Applies `(x - mean) / std` block-wise; constant columns are left
    /// centered but unscaled.
    ///
    /// The centered intermediate is consumed by the scaling step with
    /// `direction=INOUT` — its blocks are single-consumer by
    /// construction, so the division always happens in place.
    pub fn transform(&self, rt: &Runtime, x: &DsArray) -> DsArray {
        x.sub_row_vector(rt, self.mean)
            .div_row_vector_inplace(rt, self.std)
    }

    /// Fit + transform in one call.
    pub fn fit_transform(rt: &Runtime, x: &DsArray) -> (Self, DsArray) {
        let scaler = Self::fit(rt, x);
        let out = scaler.transform(rt, x);
        (scaler, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::Matrix;

    fn skewed() -> Matrix {
        // Columns with very different ranges (the KNN motivation).
        Matrix::from_fn(40, 3, |r, c| match c {
            0 => r as f64 * 1000.0,
            1 => (r as f64 * 0.37).sin(),
            _ => 5.0, // constant column
        })
    }

    #[test]
    fn transform_yields_zero_mean_unit_var() {
        let rt = Runtime::new();
        let x = skewed();
        let ds = DsArray::from_matrix(&rt, &x, 13, 2);
        let (_, scaled) = StandardScaler::fit_transform(&rt, &ds);
        let m = scaled.collect(&rt);
        for c in 0..2 {
            let col = m.col(c);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 =
                col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-9, "col {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "col {c} var {var}");
        }
    }

    #[test]
    fn constant_column_is_centered_not_scaled() {
        let rt = Runtime::new();
        let ds = DsArray::from_matrix(&rt, &skewed(), 10, 3);
        let (_, scaled) = StandardScaler::fit_transform(&rt, &ds);
        let m = scaled.collect(&rt);
        assert!(m.col(2).iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn fitted_stats_match_dense() {
        let rt = Runtime::new();
        let x = skewed();
        let ds = DsArray::from_matrix(&rt, &x, 7, 2);
        let scaler = StandardScaler::fit(&rt, &ds);
        let mean = rt.peek(scaler.mean);
        let std = rt.peek(scaler.std);
        let dm = x.col_means();
        let dstd = x.col_stds(&dm);
        for c in 0..3 {
            assert!((mean[c] - dm[c]).abs() < 1e-9);
            assert!((std[c] - dstd[c]).abs() < 1e-9);
        }
    }

    #[test]
    fn parallelism_scales_with_blocks() {
        let rt = Runtime::new();
        let ds = DsArray::from_matrix(&rt, &skewed(), 5, 3);
        let _ = StandardScaler::fit(&rt, &ds);
        let hist = rt.trace().task_histogram();
        assert_eq!(hist["scaler_sq"], 8); // one per block
    }
}
