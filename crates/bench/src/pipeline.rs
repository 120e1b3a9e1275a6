//! The end-to-end AF-classification workflow at executable scale.
//!
//! One function per paper algorithm, each returning the 5-fold confusion
//! matrices *and* the recorded task trace, so the same run feeds both
//! Table I (quality) and Fig. 11/12 (scalability via DES replay).

use dislib::csvm::{CascadeSvm, CascadeSvmParams};
use dislib::knn::{KnnClassifier, KnnParams};
use dislib::model_selection::{take, KFold};
use dislib::pca::{Components, Pca};
use dislib::rf::{RandomForest, RfParams};
use dislib::scaler::StandardScaler;
use dislib::ConfusionMatrix;
use dsarray::{DsArray, DsLabels};
use ecg::{Dataset, DatasetSpec, Scale};
use linalg::Matrix;
use nnet::{FoldData, Network, ParallelConfig, TrainParams};
use taskrt::{Runtime, Trace};

/// Result of one algorithm's 5-fold cross-validated run.
pub struct AlgoResult {
    /// Algorithm name ("csvm" | "knn" | "rf" | "cnn").
    pub name: String,
    /// Per-fold confusion matrices.
    pub folds: Vec<ConfusionMatrix>,
    /// Recorded task trace of the whole run (all folds).
    pub trace: Trace,
}

impl AlgoResult {
    /// Confusion counts pooled over folds.
    pub fn pooled(&self) -> ConfusionMatrix {
        self.folds
            .iter()
            .fold(ConfusionMatrix::default(), |acc, f| acc.merged(f))
    }

    /// Pooled accuracy.
    pub fn accuracy(&self) -> f64 {
        self.pooled().accuracy()
    }
}

/// The preprocessed dataset: PCA-projected features ready for CV.
pub struct Prepared {
    /// Projected design matrix (`n x k`).
    pub xp: Matrix,
    /// Labels (1 = AF).
    pub y: Vec<u8>,
    /// Trace of the preprocessing (load + PCA) workflow.
    pub pca_trace: Trace,
    /// Number of raw STFT features before PCA.
    pub raw_features: usize,
}

/// Pipeline knobs shared by the harness binaries.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Dataset scale preset.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// PCA components kept (fixed count keeps the CNN input shape
    /// stable; the paper's 95 %-variance rule on its data kept 3269 of
    /// 18810 ≈ 17 %).
    pub n_components: usize,
    /// Row-block size for the ds-arrays (paper: 500; small scale uses a
    /// proportional value).
    pub block_rows: usize,
    /// Column-block size.
    pub block_cols: usize,
    /// Number of CV folds (paper: 5).
    pub k_folds: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            seed: 2017,
            n_components: 160,
            block_rows: 60,
            block_cols: 256,
            k_folds: 5,
        }
    }
}

/// Generates the dataset, extracts STFT features, and runs the
/// distributed PCA (paper §III-B); everything is recorded in a trace.
pub fn prepare(cfg: &PipelineConfig) -> Prepared {
    let ds = Dataset::build(&DatasetSpec::at_scale(cfg.scale).with_seed(cfg.seed));
    let raw_features = ds.x.cols();

    let rt = Runtime::new();
    // The dataset matrix is only needed as blocks: hand it over to the
    // ds-array (driver-side partition, no ds_load tasks, buffer
    // recycled) instead of cloning it into the data store.
    let dist = DsArray::from_matrix_owned(&rt, ds.x, cfg.block_rows, cfg.block_cols);
    let n_comp = cfg.n_components.min(raw_features);
    let pca = Pca::fit(&rt, &dist, Components::Count(n_comp));
    let projected = pca.transform(&rt, &dist);
    let xp = projected.collect(&rt);
    Prepared {
        xp,
        y: ds.y,
        pca_trace: rt.finish(),
        raw_features,
    }
}

/// CSVM: 5-fold CV over the projected features (paper Table Ia,
/// Fig. 11a).
pub fn run_csvm(prep: &Prepared, cfg: &PipelineConfig) -> AlgoResult {
    const GAMMA_MULT: f64 = 18.0;
    let rt = Runtime::new();
    let mut folds = Vec::new();
    // dislib's CascadeSVM defaults: C = 1, gamma = "auto" = 1/n_features
    // — on unstandardized PCA scores this under-scales the RBF kernel,
    // which is the plausible mechanism behind the paper's 74.9 %.
    let params = CascadeSvmParams {
        svc: dislib::SvcParams {
            c: 0.5,
            kernel: linalg::Kernel::Rbf {
                gamma: GAMMA_MULT * linalg::kernels::gamma_scale(&prep.xp),
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let kf = KFold {
        k: cfg.k_folds,
        shuffle: true,
        seed: cfg.seed,
    };
    for (train_idx, test_idx) in kf.split(prep.xp.rows()) {
        let (xtr, ytr) = take(&prep.xp, &prep.y, &train_idx);
        let (xte, yte) = take(&prep.xp, &prep.y, &test_idx);
        let (tr_cols, te_cols) = (xtr.cols(), xte.cols());
        let dtr = DsArray::from_matrix_owned(&rt, xtr, cfg.block_rows, tr_cols);
        let ltr = DsLabels::from_slice(&rt, &ytr, cfg.block_rows);
        let model = CascadeSvm::fit(&rt, &dtr, &ltr, params);
        let dte = DsArray::from_matrix_owned(&rt, xte, cfg.block_rows, te_cols);
        let preds = model.predict(&rt, &dte);
        let mut all_pred = Vec::new();
        for p in preds {
            all_pred.extend(rt.wait(p).iter().copied());
        }
        folds.push(ConfusionMatrix::from_labels(&yte, &all_pred));
    }
    AlgoResult {
        name: "csvm".into(),
        folds,
        trace: rt.finish(),
    }
}

/// KNN with StandardScaler (paper Table Ib, Fig. 11b). Block size is
/// halved relative to CSVM, as in the paper (250 vs 500).
pub fn run_knn(prep: &Prepared, cfg: &PipelineConfig) -> AlgoResult {
    let rt = Runtime::new();
    let rb = (cfg.block_rows / 2).max(4);
    let mut folds = Vec::new();
    let kf = KFold {
        k: cfg.k_folds,
        shuffle: true,
        seed: cfg.seed,
    };
    for (train_idx, test_idx) in kf.split(prep.xp.rows()) {
        let (xtr, ytr) = take(&prep.xp, &prep.y, &train_idx);
        let (xte, yte) = take(&prep.xp, &prep.y, &test_idx);
        let (tr_cols, te_cols) = (xtr.cols(), xte.cols());
        let dtr = DsArray::from_matrix_owned(&rt, xtr, rb, tr_cols);
        let ltr = DsLabels::from_slice(&rt, &ytr, rb);
        let (scaler, scaled_tr) = StandardScaler::fit_transform(&rt, &dtr);
        let model = KnnClassifier::fit(&rt, &scaled_tr, &ltr, KnnParams::default());
        let dte = DsArray::from_matrix_owned(&rt, xte, rb, te_cols);
        let scaled_te = scaler.transform(&rt, &dte);
        let preds = model.predict(&rt, &scaled_te);
        let mut all_pred = Vec::new();
        for p in preds {
            all_pred.extend(rt.wait(p).iter().copied());
        }
        folds.push(ConfusionMatrix::from_labels(&yte, &all_pred));
    }
    AlgoResult {
        name: "knn".into(),
        folds,
        trace: rt.finish(),
    }
}

/// Random Forest with 40 estimators (paper Table Ic, Fig. 11c).
pub fn run_rf(prep: &Prepared, cfg: &PipelineConfig) -> AlgoResult {
    let rt = Runtime::new();
    // dislib RF trains each estimator in a multi-core task; 4 cores per
    // task reproduces the paper's wave/packing behaviour on 48-core
    // nodes.
    let params = RfParams {
        n_estimators: 40,
        seed: cfg.seed,
        task_cores: 4,
        ..Default::default()
    };
    let mut folds = Vec::new();
    let kf = KFold {
        k: cfg.k_folds,
        shuffle: true,
        seed: cfg.seed,
    };
    for (train_idx, test_idx) in kf.split(prep.xp.rows()) {
        let (xtr, ytr) = take(&prep.xp, &prep.y, &train_idx);
        let (xte, yte) = take(&prep.xp, &prep.y, &test_idx);
        let xh = rt.put(xtr);
        let yh = rt.put(ytr);
        let forest = RandomForest::fit(&rt, xh, yh, params);
        let teh = rt.put(xte);
        let pred = forest.predict(&rt, teh);
        folds.push(ConfusionMatrix::from_labels(&yte, &rt.wait(pred)));
    }
    AlgoResult {
        name: "rf".into(),
        folds,
        trace: rt.finish(),
    }
}

/// Partitions the dataset into CV folds with one `cnn_partition` task
/// per fold, chained sequentially (the master reads and splits the
/// dataset serially — "the part of the workflow previous to the training
/// of the folds which includes the partitioning and distribution of the
/// dataset" that the paper blames for the nested version not reaching a
/// 5× speed-up).
fn partition_folds(
    rt: &Runtime,
    prep: &Prepared,
    cfg: &PipelineConfig,
) -> (Vec<taskrt::Handle<FoldData>>, Vec<Vec<u8>>) {
    // Standardize the PCA scores for the network: dominant components
    // have arbitrarily large variance, which stalls SGD.
    let means = prep.xp.col_means();
    let stds = prep.xp.col_stds(&means);
    let mut xn = prep.xp.clone();
    for r in 0..xn.rows() {
        for (c, v) in xn.row_mut(r).iter_mut().enumerate() {
            *v = (*v - means[c]) / stds[c].max(1e-9);
        }
    }
    let full = rt.put((xn, prep.y.clone()));
    let kf = KFold {
        k: cfg.k_folds,
        shuffle: true,
        seed: cfg.seed,
    };
    let mut handles = Vec::new();
    let mut truths = Vec::new();
    let mut prev: Option<taskrt::Handle<FoldData>> = None;
    for (train_idx, test_idx) in kf.split(prep.xp.rows()) {
        truths.push(test_idx.iter().map(|&i| prep.y[i]).collect());
        let make = move |d: &(Matrix, Vec<u8>)| {
            let (x_train, y_train) = take(&d.0, &d.1, &train_idx);
            let (x_test, y_test) = take(&d.0, &d.1, &test_idx);
            FoldData {
                x_train,
                y_train,
                x_test,
                y_test,
            }
        };
        let h = match prev {
            None => rt.task("cnn_partition").run1(full, make),
            Some(p) => rt
                .task("cnn_partition")
                .run2(full, p, move |d, _prev| make(d)),
        };
        prev = Some(h);
        handles.push(h);
    }
    (handles, truths)
}

fn cnn_cfg(cfg: &PipelineConfig, gpus_per_task: u32) -> ParallelConfig {
    ParallelConfig {
        epochs: 7,
        workers: 4,
        gpus_per_task,
        train: TrainParams {
            lr: 0.03,
            momentum: 0.9,
            batch_size: 4,
            seed: cfg.seed,
        },
    }
}

/// CNN trained data-parallel with nesting (paper Table Id, Fig. 12).
/// Set `gpus_per_task` to 1 or 4 to mirror the paper's configurations.
pub fn run_cnn(prep: &Prepared, cfg: &PipelineConfig, gpus_per_task: u32) -> AlgoResult {
    let rt = Runtime::new();
    let pcfg = cnn_cfg(cfg, gpus_per_task);
    let net0 = Network::afib_cnn(prep.xp.cols(), cfg.seed);
    let (handles, truths) = partition_folds(&rt, prep, cfg);
    let results = nnet::train_kfold_nested_handles(&rt, handles, &net0, &pcfg);
    let folds = results
        .into_iter()
        .zip(truths)
        .map(|(h, y_true)| {
            let res = rt.wait(h);
            ConfusionMatrix::from_labels(&y_true, &res.predictions)
        })
        .collect();
    AlgoResult {
        name: "cnn".into(),
        folds,
        trace: rt.finish(),
    }
}

/// Builds the un-nested CNN workflow (Fig. 9 / Fig. 12 baselines): the
/// driver waits per fold and per epoch.
pub fn run_cnn_flat(prep: &Prepared, cfg: &PipelineConfig, gpus_per_task: u32) -> AlgoResult {
    let rt = Runtime::new();
    let pcfg = cnn_cfg(cfg, gpus_per_task);
    let net0 = Network::afib_cnn(prep.xp.cols(), cfg.seed);
    let (handles, truths) = partition_folds(&rt, prep, cfg);
    let results = nnet::train_kfold_handles(&rt, handles, &net0, &pcfg);
    let folds = results
        .iter()
        .zip(truths)
        .map(|(r, y_true)| ConfusionMatrix::from_labels(&y_true, &r.predictions))
        .collect();
    AlgoResult {
        name: "cnn_flat".into(),
        folds,
        trace: rt.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> PipelineConfig {
        PipelineConfig {
            n_components: 48,
            block_rows: 16,
            block_cols: 128,
            k_folds: 3,
            ..Default::default()
        }
    }

    fn tiny_prep() -> &'static Prepared {
        // Shrink the dataset below the Small preset for unit-test speed,
        // and share one prepared dataset across the test binary.
        static PREP: std::sync::OnceLock<Prepared> = std::sync::OnceLock::new();
        PREP.get_or_init(|| {
            let cfg = tiny_cfg();
            let mut spec = DatasetSpec::at_scale(Scale::Small).with_seed(cfg.seed);
            spec.n_normal = 40;
            spec.n_af = 6;
            spec.ecg.max_duration_s = 11.0;
            let ds = Dataset::build(&spec);
            // Keep the feature count small: the covariance
            // eigendecomposition is cubic in it.
            let x = ds.x.slice_cols(0, ds.x.cols().min(320));
            let rt = Runtime::new();
            let dist = DsArray::from_matrix(&rt, &x, cfg.block_rows, cfg.block_cols);
            let pca = Pca::fit(&rt, &dist, Components::Count(cfg.n_components));
            let projected = pca.transform(&rt, &dist);
            let xp = projected.collect(&rt);
            Prepared {
                xp,
                y: ds.y,
                pca_trace: rt.finish(),
                raw_features: x.cols(),
            }
        })
    }

    #[test]
    fn prepared_shapes_are_consistent() {
        let p = tiny_prep();
        assert_eq!(p.xp.rows(), p.y.len());
        assert_eq!(p.xp.cols(), 48);
        assert!(p.raw_features > 48);
        assert!(p.pca_trace.task_histogram().contains_key("pca_eigh"));
    }

    #[test]
    fn csvm_pipeline_runs_and_beats_chance() {
        let p = tiny_prep();
        let res = run_csvm(p, &tiny_cfg());
        assert_eq!(res.folds.len(), 3);
        assert_eq!(res.pooled().total(), p.y.len());
        assert!(res.accuracy() > 0.5, "acc={}", res.accuracy());
    }

    #[test]
    fn rf_pipeline_runs() {
        let p = tiny_prep();
        let res = run_rf(p, &tiny_cfg());
        assert_eq!(res.pooled().total(), p.y.len());
        assert!(res.accuracy() > 0.5);
        assert_eq!(res.trace.task_histogram()["rf_build_tree"], 40 * 3);
    }

    #[test]
    fn knn_pipeline_runs() {
        let p = tiny_prep();
        let res = run_knn(p, &tiny_cfg());
        assert_eq!(res.pooled().total(), p.y.len());
    }

    #[test]
    fn cnn_pipeline_runs() {
        let p = tiny_prep();
        let res = run_cnn(p, &tiny_cfg(), 1);
        assert_eq!(res.pooled().total(), p.y.len());
        assert!(res.accuracy() > 0.5, "acc={}", res.accuracy());
        // Nested fold tasks present.
        assert_eq!(res.trace.task_histogram()["cnn_fold"], 3);
    }
}
