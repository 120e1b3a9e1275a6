//! Data-parallel CNN training over the task runtime (paper §III-D).
//!
//! Three training drivers reproduce the paper's three configurations
//! (Fig. 12):
//!
//! * [`train_data_parallel`] — one epoch = one `cnn_train` task per
//!   worker shard (each declaring 1 or 4 GPUs) + a `cnn_merge` weight
//!   average, followed by a **driver-side `wait`**. That wait is the
//!   synchronization the paper highlights in Fig. 9: "each
//!   synchronization stops the generation of tasks and prevents the
//!   possibility of executing the training of the 5 folds in parallel".
//! * [`train_kfold`] — runs the above once per CV fold, sequentially
//!   serialized by those syncs (the *no-nesting* workflow).
//! * [`train_kfold_nested`] — wraps each fold in a **nested** task
//!   (`cnn_fold`); the per-epoch syncs happen inside the child runtime,
//!   so folds proceed in parallel (the Fig. 10 workflow).

use crate::network::{average_networks, Network, TrainParams};
use linalg::Matrix;
use taskrt::{Handle, Payload, Runtime};

/// Configuration of the distributed training experiment.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Epochs per fold (paper: 7).
    pub epochs: usize,
    /// Training tasks per epoch (paper: 4).
    pub workers: usize,
    /// GPUs each training task occupies (paper: 1 or 4).
    pub gpus_per_task: u32,
    /// Local SGD settings inside each task.
    pub train: TrainParams,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            epochs: 7,
            workers: 4,
            gpus_per_task: 1,
            train: TrainParams::default(),
        }
    }
}

/// One cross-validation fold's data, shipped into fold tasks.
#[derive(Debug, Clone)]
pub struct FoldData {
    /// Training rows.
    pub x_train: Matrix,
    /// Training labels.
    pub y_train: Vec<u8>,
    /// Held-out rows.
    pub x_test: Matrix,
    /// Held-out labels.
    pub y_test: Vec<u8>,
}

impl Payload for FoldData {
    fn approx_bytes(&self) -> usize {
        self.x_train.approx_bytes()
            + self.x_test.approx_bytes()
            + self.y_train.len()
            + self.y_test.len()
    }
}

/// Outcome of training one fold.
#[derive(Debug, Clone)]
pub struct FoldResult {
    /// Final merged network.
    pub network: Network,
    /// `(correct, total)` on the fold's test split.
    pub test: (u64, u64),
    /// Predicted labels on the test split (for confusion matrices).
    pub predictions: Vec<u8>,
}

impl Payload for FoldResult {
    fn approx_bytes(&self) -> usize {
        self.network.approx_bytes() + self.predictions.len() + 16
    }
}

/// A fold's outcome: `network`'s predictions on the fold's test split
/// and how many of them are right.
fn evaluate(network: Network, f: &FoldData) -> FoldResult {
    let predictions = network.predict(&f.x_test);
    let correct = predictions
        .iter()
        .zip(&f.y_test)
        .filter(|(p, t)| p == t)
        .count() as u64;
    FoldResult {
        network,
        test: (correct, f.y_test.len() as u64),
        predictions,
    }
}

/// Splits `(x, y)` into `workers` contiguous shards.
fn shard(x: &Matrix, y: &[u8], workers: usize) -> Vec<(Matrix, Vec<u8>)> {
    let n = x.rows();
    let per = n.div_ceil(workers.max(1));
    (0..workers)
        .filter_map(|w| {
            let lo = w * per;
            let hi = ((w + 1) * per).min(n);
            (lo < hi).then(|| (x.slice_rows(lo, hi), y[lo..hi].to_vec()))
        })
        .collect()
}

/// Runs the per-epoch data-parallel training loop on `rt`, returning the
/// final merged network handle. Submits, per epoch, one `cnn_train`
/// task per shard and one `cnn_merge` task, then `wait`s (global sync).
pub fn train_data_parallel(
    rt: &Runtime,
    net0: Network,
    x: &Matrix,
    y: &[u8],
    cfg: &ParallelConfig,
) -> Handle<Network> {
    let shards: Vec<Handle<(Matrix, Vec<u8>)>> = shard(x, y, cfg.workers)
        .into_iter()
        .map(|s| rt.put(s))
        .collect();
    let mut model = rt.put(net0);
    for epoch in 0..cfg.epochs {
        // Step-decay learning-rate schedule (standard EDDL-style SGD).
        let tp = TrainParams {
            lr: cfg.train.lr * 0.85f32.powi(epoch as i32),
            ..cfg.train
        };
        let parts: Vec<Handle<Network>> = shards
            .iter()
            .map(|&s| {
                rt.task("cnn_train").gpus(cfg.gpus_per_task).run2(
                    model,
                    s,
                    move |net: &Network, shard: &(Matrix, Vec<u8>)| {
                        let mut local = net.clone();
                        local.train_epoch(&shard.0, &shard.1, &tp, epoch as u64);
                        local
                    },
                )
            })
            .collect();
        model = rt
            .task("cnn_merge")
            .run_many(&parts, |nets: &[&Network]| average_networks(nets));
        // The paper's per-epoch synchronization: retrieve the merged
        // weights on the driver before generating the next epoch's
        // tasks.
        let _ = rt.wait(model);
    }
    model
}

/// K-fold training **without** nesting: folds run one after another
/// because every epoch sync stalls the driver (Fig. 9).
pub fn train_kfold(
    rt: &Runtime,
    folds: Vec<FoldData>,
    net0: &Network,
    cfg: &ParallelConfig,
) -> Vec<FoldResult> {
    let handles = folds.into_iter().map(|f| rt.put(f)).collect();
    train_kfold_handles(rt, handles, net0, cfg)
}

/// [`train_kfold`] over fold *handles* (e.g. produced by partitioning
/// tasks): the driver `wait`s on each fold before training it — exactly
/// the PyCOMPSs main-script behaviour.
pub fn train_kfold_handles(
    rt: &Runtime,
    folds: Vec<Handle<FoldData>>,
    net0: &Network,
    cfg: &ParallelConfig,
) -> Vec<FoldResult> {
    folds
        .into_iter()
        .map(|fh| {
            let fold = rt.wait(fh);
            let model = train_data_parallel(rt, net0.clone(), &fold.x_train, &fold.y_train, cfg);
            let result = rt
                .task("cnn_eval")
                .run2(model, fh, |net: &Network, f: &FoldData| {
                    evaluate(net.clone(), f)
                });
            (*rt.wait(result)).clone()
        })
        .collect()
}

/// K-fold training **with** nesting: one `cnn_fold` nested task per
/// fold; epoch syncs are local to the child runtime, so the folds'
/// task groups can execute concurrently (Fig. 10; the paper reports
/// 2.24× over the baseline on five nodes).
pub fn train_kfold_nested(
    rt: &Runtime,
    folds: Vec<FoldData>,
    net0: &Network,
    cfg: &ParallelConfig,
) -> Vec<Handle<FoldResult>> {
    let handles = folds.into_iter().map(|f| rt.put(f)).collect();
    train_kfold_nested_handles(rt, handles, net0, cfg)
}

/// [`train_kfold_nested`] over fold *handles* produced by upstream
/// partitioning tasks; no driver-side sync is needed at all.
pub fn train_kfold_nested_handles(
    rt: &Runtime,
    folds: Vec<Handle<FoldData>>,
    net0: &Network,
    cfg: &ParallelConfig,
) -> Vec<Handle<FoldResult>> {
    let cfg = *cfg;
    folds
        .into_iter()
        .map(|fh| {
            let net0 = net0.clone();
            // The fold task owns enough resources for its inner epoch
            // tasks: workers × gpus_per_task GPUs (paper: 4×1 on one
            // node per fold).
            rt.task("cnn_fold")
                .gpus(cfg.gpus_per_task * cfg.workers as u32)
                .cores(cfg.workers as u32)
                .run_nested1(fh, move |child, f: &FoldData| {
                    let model =
                        train_data_parallel(child, net0.clone(), &f.x_train, &f.y_train, &cfg);
                    evaluate((*child.wait(model)).clone(), f)
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn toy_data(n: usize, len: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let cls = (i % 2) as u8;
            let row: Vec<f64> = (0..len)
                .map(|t| {
                    let active = if cls == 1 { t >= len / 2 } else { t < len / 2 };
                    (if active { 1.0 } else { 0.0 }) + (rng.random::<f64>() - 0.5) * 0.2
                })
                .collect();
            rows.push(row);
            y.push(cls);
        }
        (Matrix::from_rows(&rows), y)
    }

    fn folds_of(n_folds: usize, seed: u64) -> Vec<FoldData> {
        (0..n_folds)
            .map(|f| {
                let (xtr, ytr) = toy_data(24, 64, seed + f as u64);
                let (xte, yte) = toy_data(12, 64, seed + 100 + f as u64);
                FoldData {
                    x_train: xtr,
                    y_train: ytr,
                    x_test: xte,
                    y_test: yte,
                }
            })
            .collect()
    }

    fn quick_cfg() -> ParallelConfig {
        ParallelConfig {
            epochs: 3,
            workers: 2,
            gpus_per_task: 1,
            train: TrainParams {
                lr: 0.05,
                momentum: 0.9,
                batch_size: 8,
                seed: 1,
            },
        }
    }

    #[test]
    fn shard_covers_all_rows() {
        let (x, y) = toy_data(10, 16, 1);
        let shards = shard(&x, &y, 3);
        let total: usize = shards.iter().map(|(m, _)| m.rows()).sum();
        assert_eq!(total, 10);
        assert_eq!(shards.len(), 3);
    }

    #[test]
    fn shard_handles_more_workers_than_rows() {
        let (x, y) = toy_data(2, 16, 1);
        let shards = shard(&x, &y, 8);
        let total: usize = shards.iter().map(|(m, _)| m.rows()).sum();
        assert_eq!(total, 2);
        assert!(shards.len() <= 8);
    }

    #[test]
    fn data_parallel_training_learns() {
        let rt = Runtime::new();
        let (x, y) = toy_data(40, 64, 2);
        let net0 = Network::afib_cnn(64, 3);
        let model = train_data_parallel(&rt, net0, &x, &y, &quick_cfg());
        let net = rt.wait(model);
        let (c, t) = net.evaluate(&x, &y);
        assert!(c as f64 / t as f64 > 0.85, "acc={}", c as f64 / t as f64);
    }

    #[test]
    fn epoch_syncs_appear_in_trace() {
        let rt = Runtime::new();
        let (x, y) = toy_data(16, 64, 4);
        let net0 = Network::afib_cnn(64, 5);
        let cfg = quick_cfg();
        let _ = train_data_parallel(&rt, net0, &x, &y, &cfg);
        let hist = rt.trace().task_histogram();
        assert_eq!(hist["cnn_train"], cfg.epochs * cfg.workers);
        assert_eq!(hist["cnn_merge"], cfg.epochs);
        assert_eq!(hist[taskrt::trace::SYNC_TASK], cfg.epochs);
    }

    #[test]
    fn kfold_without_nesting_serializes() {
        let rt = Runtime::new();
        let net0 = Network::afib_cnn(64, 6);
        let results = train_kfold(&rt, folds_of(2, 10), &net0, &quick_cfg());
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.test.0 as f64 / r.test.1 as f64 > 0.7, "fold acc too low");
            assert_eq!(r.predictions.len(), r.test.1 as usize);
        }
        // No nested tasks in this variant.
        assert!(!rt.trace().records.iter().any(|t| t.name == "cnn_fold"));
    }

    #[test]
    fn kfold_nested_encapsulates_folds() {
        let rt = Runtime::new();
        let net0 = Network::afib_cnn(64, 7);
        let handles = train_kfold_nested(&rt, folds_of(3, 20), &net0, &quick_cfg());
        assert_eq!(handles.len(), 3);
        let results: Vec<_> = handles.iter().map(|&h| rt.wait(h)).collect();
        for r in &results {
            assert!(r.test.0 > 0);
        }
        let trace = rt.trace();
        let fold_recs: Vec<_> = trace
            .records
            .iter()
            .filter(|r| r.name == "cnn_fold")
            .collect();
        assert_eq!(fold_recs.len(), 3);
        // Each fold task carries a child trace with the epoch pipeline.
        for fr in fold_recs {
            let child = fr.child.as_ref().expect("nested fold has child trace");
            let hist = child.task_histogram();
            assert_eq!(hist["cnn_train"], 3 * 2);
            assert_eq!(hist["cnn_merge"], 3);
        }
        // Fold tasks at the top level are independent (no cross deps
        // besides data puts).
        let ids: Vec<_> = trace
            .records
            .iter()
            .filter(|r| r.name == "cnn_fold")
            .map(|r| r.id)
            .collect();
        for r in trace.records.iter().filter(|r| r.name == "cnn_fold") {
            for d in &r.deps {
                assert!(!ids.contains(d), "fold tasks must not depend on each other");
            }
        }
    }

    #[test]
    fn nested_and_flat_reach_similar_quality() {
        let rt = Runtime::new();
        let net0 = Network::afib_cnn(64, 8);
        let cfg = quick_cfg();
        let flat = train_kfold(&rt, folds_of(1, 30), &net0, &cfg);
        let rt2 = Runtime::new();
        let nested = train_kfold_nested(&rt2, folds_of(1, 30), &net0, &cfg);
        let nested_res = rt2.wait(nested[0]);
        let flat_acc = flat[0].test.0 as f64 / flat[0].test.1 as f64;
        let nested_acc = nested_res.test.0 as f64 / nested_res.test.1 as f64;
        assert!(
            (flat_acc - nested_acc).abs() < 0.25,
            "{flat_acc} vs {nested_acc}"
        );
    }
}
