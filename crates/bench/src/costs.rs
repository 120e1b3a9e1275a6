//! Analytic duration scaling: lifting measured small-scale traces to the
//! paper's workload size.
//!
//! The shape of every scalability figure is produced by the *task graph*
//! (recorded at executable scale) plus the *relative task durations*.
//! To report paper-scale seconds, each task kind's measured duration is
//! multiplied by the work ratio between the paper's per-task workload
//! and ours, using standard complexity models:
//!
//! | kind | work model | paper / small workload |
//! |---|---|---|
//! | `csvm_fit`/`csvm_merge`/`csvm_final` (the root merge) | SMO ≈ `m^2 · d` | m: 500-row blocks vs ours; d: 3269 vs ours |
//! | `knn_query` | brute force ≈ `m · q · d` | 250-row blocks |
//! | `rf_build_tree` | CART ≈ `m · log m · sqrt(d) · depth` | full 8246-sample folds |
//! | `rf_presort` | one argsort per feature ≈ `d · m · log m` | once per forest |
//! | `cnn_train` | conv flops ∝ `samples · features` | plus multi-GPU sync overhead |
//! | `ds_*`, `scaler_*`, `pca_*` | linear in block elements | |
//!
//! Data sizes are scaled with the same element ratios so the simulator's
//! transfer model also operates at paper scale.

use std::collections::BTreeMap;
use std::sync::Arc;
use taskrt::sim::DurationFn;
use taskrt::TaskRecord;

/// Multiplicative per-kind duration scaling; kinds not listed fall back
/// to `default`.
#[derive(Debug, Clone)]
pub struct ScaleModel {
    /// Per-kind multipliers.
    pub factors: BTreeMap<String, f64>,
    /// Per-kind **absolute** durations in seconds; takes precedence over
    /// `factors`. Used when the paper-scale per-task cost is known
    /// structurally (e.g. "SMO on one 500×3269 block") and the measured
    /// small-scale duration would distort relative costs.
    pub fixed: BTreeMap<String, f64>,
    /// Fallback multiplier.
    pub default: f64,
    /// Extra seconds added per `cnn_train` task per additional GPU
    /// (models intra-node gradient exchange; the paper: "the
    /// communication between the GPUs is causing unnecessary overhead").
    pub gpu_comm_s: f64,
}

impl ScaleModel {
    /// Identity scaling.
    pub fn identity() -> Self {
        Self {
            factors: BTreeMap::new(),
            fixed: BTreeMap::new(),
            default: 1.0,
            gpu_comm_s: 0.0,
        }
    }

    /// Sets an absolute per-kind duration (seconds).
    pub fn with_fixed(mut self, kind: &str, seconds: f64) -> Self {
        self.fixed.insert(kind.to_string(), seconds);
        self
    }

    /// Builds the paper-scale model from the small/paper workload
    /// parameters.
    ///
    /// * `sample_ratio` — paper samples per task / small samples per task
    /// * `feature_ratio` — paper features / small features
    pub fn paper_scale(sample_ratio: f64, feature_ratio: f64) -> Self {
        let mut factors = BTreeMap::new();
        let linear = sample_ratio * feature_ratio;
        // SMO on a block: quadratic in rows, linear in features.
        factors.insert(
            "csvm_fit".into(),
            sample_ratio * sample_ratio * feature_ratio,
        );
        factors.insert(
            "csvm_merge".into(),
            sample_ratio * sample_ratio * feature_ratio,
        );
        factors.insert(
            "csvm_refit".into(),
            sample_ratio * sample_ratio * feature_ratio,
        );
        factors.insert(
            "csvm_final".into(),
            sample_ratio * sample_ratio * feature_ratio,
        );
        factors.insert("csvm_predict".into(), linear);
        factors.insert("csvm_score".into(), linear);
        // Brute-force KNN: rows x queries x features.
        factors.insert(
            "knn_query".into(),
            sample_ratio * sample_ratio * feature_ratio,
        );
        factors.insert("knn_fit".into(), linear);
        factors.insert("knn_merge".into(), sample_ratio);
        factors.insert("knn_vote".into(), sample_ratio);
        // CART: samples log samples x sqrt(features).
        let rf = sample_ratio * (1.0 + sample_ratio.ln().max(0.0)) * feature_ratio.sqrt();
        factors.insert("rf_build_tree".into(), rf);
        // The forest-wide presort argsorts every feature, not sqrt(d).
        factors.insert(
            "rf_presort".into(),
            sample_ratio * (1.0 + sample_ratio.ln().max(0.0)) * feature_ratio,
        );
        factors.insert("rf_top".into(), rf);
        factors.insert("rf_subtree".into(), rf);
        factors.insert("rf_join".into(), sample_ratio);
        factors.insert("rf_predict".into(), linear);
        // CNN epoch: linear in samples x features.
        factors.insert("cnn_train".into(), linear);
        factors.insert("cnn_merge".into(), feature_ratio);
        factors.insert("cnn_eval".into(), linear);
        factors.insert("cnn_fold".into(), linear);
        // Blocked data ops: linear in elements.
        for kind in [
            "ds_load",
            "ds_merge_band",
            "ds_gather",
            "ds_colsum",
            "ds_colsum_reduce",
            "ds_center",
            "ds_scale",
            "ds_gram",
            "ds_gram_reduce",
            "ds_matmul",
            "scaler_sq",
            "scaler_mean",
            "scaler_std",
            "pca_mean",
            "pca_cov_scale",
        ] {
            factors.insert(kind.into(), linear);
        }
        // Eigendecomposition: cubic in features.
        factors.insert("pca_eigh".into(), feature_ratio.powi(3));
        Self {
            factors,
            fixed: BTreeMap::new(),
            default: linear,
            gpu_comm_s: 0.0,
        }
    }

    /// Adds the per-GPU communication overhead used by the Fig. 12
    /// experiment.
    pub fn with_gpu_comm(mut self, seconds_per_extra_gpu: f64) -> Self {
        self.gpu_comm_s = seconds_per_extra_gpu;
        self
    }

    /// Converts the model to the simulator's [`DurationFn`] hook.
    pub fn duration_fn(&self) -> DurationFn {
        let model = self.clone();
        Arc::new(move |r: &TaskRecord| {
            if r.is_marker() {
                return None;
            }
            // Nested tasks must be costed by recursively simulating
            // their child trace (with this same model applied inside);
            // returning a value here would bypass that.
            if r.child.is_some() {
                return None;
            }
            let mut d = match model.fixed.get(&r.name) {
                Some(&abs) => abs,
                None => {
                    let factor = model.factors.get(&r.name).copied().unwrap_or(model.default);
                    r.duration_s * factor
                }
            };
            if r.name == "cnn_train" && r.gpus > 1 {
                // Multi-GPU tasks split the work but pay gradient
                // synchronization per extra GPU.
                d = d / r.gpus as f64 + model.gpu_comm_s * (r.gpus - 1) as f64;
            }
            Some(d)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskrt::{DataId, TaskId};

    fn rec(name: &str, dur: f64, gpus: u32) -> TaskRecord {
        TaskRecord {
            id: TaskId(0),
            name: name.into(),
            deps: vec![],
            duration_s: dur,
            inputs: vec![(DataId(0), 100)],
            outputs: vec![(DataId(1), 100)],
            cores: 1,
            gpus,
            ready_s: 0.0,
            start_s: 0.0,
            fetch_s: 0.0,
            fetch_bytes: 0,
            worker: -1,
            child: None,
            attempts: vec![],
        }
    }

    #[test]
    fn identity_keeps_measured_durations() {
        let f = ScaleModel::identity().duration_fn();
        assert_eq!(f(&rec("csvm_fit", 2.5, 0)), Some(2.5));
    }

    #[test]
    fn quadratic_kinds_scale_faster_than_linear() {
        let m = ScaleModel::paper_scale(8.0, 20.0);
        let f = m.duration_fn();
        let svm = f(&rec("csvm_fit", 1.0, 0)).unwrap();
        let load = f(&rec("ds_load", 1.0, 0)).unwrap();
        assert!(svm > load, "svm {svm} vs load {load}");
        assert_eq!(svm, 8.0 * 8.0 * 20.0);
        assert_eq!(load, 8.0 * 20.0);
    }

    #[test]
    fn markers_stay_zero() {
        let m = ScaleModel::paper_scale(8.0, 20.0);
        let f = m.duration_fn();
        let mut marker = rec(taskrt::trace::SYNC_TASK, 0.0, 0);
        marker.cores = 0;
        assert_eq!(f(&marker), None);
    }

    #[test]
    fn gpu_comm_penalizes_multi_gpu_tasks() {
        let m = ScaleModel::identity().with_gpu_comm(3.0);
        let f = m.duration_fn();
        let single = f(&rec("cnn_train", 8.0, 1)).unwrap();
        let quad = f(&rec("cnn_train", 8.0, 4)).unwrap();
        assert_eq!(single, 8.0);
        assert_eq!(quad, 8.0 / 4.0 + 3.0 * 3.0);
        // With this overhead, 4 GPUs is slower than 1 for small work —
        // the paper's observation.
        assert!(quad > single);
    }
}
