//! `af_inline` / `af_threads`: the paper's pipeline — ECG recordings →
//! STFT design matrix → PCA → 5-fold CV of CSVM, scaler+KNN, RF and the
//! nested-fold CNN — on a runtime the benchmark constructs. Both
//! workloads share inputs and oracle; only the executor differs, so a
//! kernel gain moves both and a scheduling gain moves only the threaded
//! one.

use crate::gen::matrix_fingerprint;
use crate::harness::{Pass, Samples, SpanTable, Workload};
use crate::host;
use crate::span::Tracer;
use dislib::model_selection::{cross_validate, take};
use dislib::{
    CascadeSvm, CascadeSvmParams, Components, ConfusionMatrix, KFold, KnnClassifier, KnnParams,
    Pca, RandomForest, RfParams, StandardScaler, SvcParams,
};
use dsarray::{DsArray, DsLabels};
use ecg::features::{build_design_matrix, zero_pad};
use ecg::{Dataset, DatasetSpec, EcgConfig, Recording, Scale};
use linalg::stft::SpectrogramPlan;
use linalg::Matrix;
use nnet::{FoldData, Layer, Network, ParallelConfig, TrainParams};
use std::hint::black_box;
use std::time::Instant;
use taskrt::sim::{simulate, ClusterSpec, SimOptions};
use taskrt::{Handle, Runtime};

// Pipeline shape, as in the repo's own `bench::pipeline` defaults.
const N_COMPONENTS: usize = 160;
const BLOCK_ROWS: usize = 60;
const BLOCK_COLS: usize = 256;
const K_FOLDS: usize = 5;
const RF_TREES: usize = 40;
const CNN_EPOCHS: usize = 7;
const CNN_SHARDS: usize = 4;
/// The four algorithms, in the order their folds are checked.
const ACCURACY: [&str; 4] = [
    "dislib.csvm_accuracy",
    "dislib.knn_accuracy",
    "dislib.rf_accuracy",
    "nnet.cnn_accuracy",
];

/// 200 Normal + 30 AF recordings of 9–12 s, spectrogram cropped at
/// 30 Hz: 400 rows after balancing, 481 features. Chosen so that no
/// stage owns the pass — at the `Scale::Small` preset (16 s, 50 Hz,
/// 1078 features) the single `pca_eigh` task is three quarters of it.
fn dataset_spec(seed: u64) -> DatasetSpec {
    let mut spec = DatasetSpec::at_scale(Scale::Small).with_seed(seed);
    spec.ecg = EcgConfig {
        min_duration_s: 9.0,
        max_duration_s: 12.0,
        ..EcgConfig::default()
    };
    spec.max_freq_hz = Some(30.0);
    spec
}

/// Everything a pass produces that the oracle pins.
#[derive(PartialEq, Debug)]
struct Outputs {
    projection: u64,
    /// `ACCURACY.len() × K_FOLDS` confusion matrices.
    folds: Vec<ConfusionMatrix>,
}

struct PassInfo {
    out: Outputs,
    features: usize,
    blocks: usize,
}

pub struct Af {
    threaded: bool,
    seed: u64,
    spec: DatasetSpec,
    recordings: Vec<Recording>,
    oracle: Outputs,
    /// Wall-clock of the setup-time inline reference pass.
    inline_ref_s: f64,
}

fn kfold(seed: u64) -> KFold {
    KFold {
        k: K_FOLDS,
        shuffle: true,
        seed,
    }
}

/// One fold's train and test sets as ds-arrays of `rb`-row blocks.
fn partition(
    rt: &Runtime,
    tr: &Tracer,
    (xtr, ytr, xte): (&Matrix, &[u8], &Matrix),
    rb: usize,
    blocks: &mut usize,
) -> (DsArray, DsLabels, DsArray) {
    let cols = xtr.cols();
    let dtr = tr.span("dsarray.from_matrix_owned", || {
        DsArray::from_matrix_owned(rt, xtr.clone(), rb, cols)
    });
    let ltr = tr.span("dsarray.DsLabels::from_slice", || {
        DsLabels::from_slice(rt, ytr, rb)
    });
    let dte = tr.span("dsarray.from_matrix_owned", || {
        DsArray::from_matrix_owned(rt, xte.clone(), rb, cols)
    });
    for d in [&dtr, &dte] {
        *blocks += d.n_row_blocks() * d.n_col_blocks();
    }
    (dtr, ltr, dte)
}

fn gather(rt: &Runtime, tr: &Tracer, preds: Vec<Handle<Vec<u8>>>) -> Vec<u8> {
    let mut all = Vec::new();
    for p in preds {
        all.extend(tr.span("runtime.wait", || rt.wait(p)).iter().copied());
    }
    all
}

fn cv_csvm(
    rt: &Runtime,
    tr: &Tracer,
    xp: &Matrix,
    y: &[u8],
    seed: u64,
    blocks: &mut usize,
) -> Vec<ConfusionMatrix> {
    let params = CascadeSvmParams {
        svc: SvcParams {
            c: 0.5,
            kernel: linalg::Kernel::Rbf {
                gamma: 18.0 * linalg::kernels::gamma_scale(xp),
            },
            ..Default::default()
        },
        ..Default::default()
    };
    cross_validate(xp, y, &kfold(seed), |xtr, ytr, xte| {
        let (dtr, ltr, dte) = partition(rt, tr, (xtr, ytr, xte), BLOCK_ROWS, blocks);
        let model = tr.span("dislib.CascadeSvm::fit", || {
            CascadeSvm::fit(rt, &dtr, &ltr, params)
        });
        let preds = tr.span("dislib.CascadeSvm::predict", || model.predict(rt, &dte));
        gather(rt, tr, preds)
    })
}

fn cv_knn(
    rt: &Runtime,
    tr: &Tracer,
    xp: &Matrix,
    y: &[u8],
    seed: u64,
    blocks: &mut usize,
) -> Vec<ConfusionMatrix> {
    cross_validate(xp, y, &kfold(seed), |xtr, ytr, xte| {
        // Half the CSVM block size, as in the paper (250 vs 500).
        let (dtr, ltr, dte) = partition(rt, tr, (xtr, ytr, xte), BLOCK_ROWS / 2, blocks);
        let (scaler, scaled_tr) = tr.span("dislib.StandardScaler::fit_transform", || {
            StandardScaler::fit_transform(rt, &dtr)
        });
        let model = tr.span("dislib.KnnClassifier::fit", || {
            KnnClassifier::fit(rt, &scaled_tr, &ltr, KnnParams::default())
        });
        let scaled_te = tr.span("dislib.StandardScaler::transform", || {
            scaler.transform(rt, &dte)
        });
        let preds = tr.span("dislib.KnnClassifier::predict", || {
            model.predict(rt, &scaled_te)
        });
        gather(rt, tr, preds)
    })
}

fn cv_rf(rt: &Runtime, tr: &Tracer, xp: &Matrix, y: &[u8], seed: u64) -> Vec<ConfusionMatrix> {
    let params = RfParams {
        n_estimators: RF_TREES,
        distr_depth: 0,
        seed,
        task_cores: 4,
        ..Default::default()
    };
    cross_validate(xp, y, &kfold(seed), |xtr, ytr, xte| {
        let (xh, yh, teh) = tr.span("runtime.put", || {
            (
                rt.put(xtr.clone()),
                rt.put(ytr.to_vec()),
                rt.put(xte.clone()),
            )
        });
        let forest = tr.span("dislib.RandomForest::fit", || {
            RandomForest::fit(rt, xh, yh, params)
        });
        let pred = tr.span("dislib.RandomForest::predict", || forest.predict(rt, teh));
        tr.span("runtime.wait", || rt.wait(pred)).to_vec()
    })
}

fn cv_cnn(rt: &Runtime, tr: &Tracer, xp: &Matrix, y: &[u8], seed: u64) -> Vec<ConfusionMatrix> {
    // Standardize the PCA scores: dominant components have arbitrarily
    // large variance, which stalls SGD.
    let means = xp.col_means();
    let stds = xp.col_stds(&means);
    let mut xn = xp.clone();
    for r in 0..xn.rows() {
        for (c, v) in xn.row_mut(r).iter_mut().enumerate() {
            *v = (*v - means[c]) / stds[c].max(1e-9);
        }
    }
    // One partition task per fold, chained: the master splits the
    // dataset serially (paper §III-D).
    let (handles, truths) = tr.span("runtime.submit", || {
        let full = rt.put((xn, y.to_vec()));
        let mut handles: Vec<Handle<FoldData>> = Vec::new();
        let mut truths: Vec<Vec<u8>> = Vec::new();
        for (train_idx, test_idx) in kfold(seed).split(xp.rows()) {
            truths.push(test_idx.iter().map(|&i| y[i]).collect());
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
            handles.push(match handles.last() {
                None => rt.task("cnn_partition").run1(full, make),
                Some(&prev) => rt
                    .task("cnn_partition")
                    .run2(full, prev, move |d, _prev| make(d)),
            });
        }
        (handles, truths)
    });
    let pcfg = ParallelConfig {
        epochs: CNN_EPOCHS,
        workers: CNN_SHARDS,
        gpus_per_task: 1,
        train: TrainParams {
            lr: 0.03,
            momentum: 0.9,
            batch_size: 4,
            seed,
        },
    };
    let net0 = Network::afib_cnn(xp.cols(), seed);
    let results = tr.span("nnet.train_kfold_nested_handles", || {
        nnet::train_kfold_nested_handles(rt, handles, &net0, &pcfg)
    });
    results
        .into_iter()
        .zip(truths)
        .map(|(h, truth)| {
            let res = tr.span("runtime.wait", || rt.wait(h));
            ConfusionMatrix::from_labels(&truth, &res.predictions)
        })
        .collect()
}

fn pipeline(rt: &Runtime, tr: &Tracer, spec: &DatasetSpec, recordings: &[Recording]) -> PassInfo {
    let seed = spec.seed;
    let (x, y, _) = tr.span("ecg.build_design_matrix", || {
        build_design_matrix(recordings, &spec.stft, spec.max_freq_hz)
    });
    let features = x.cols();
    let mut blocks = 0;
    let xp = tr.span("dislib.pca", || {
        let dist = tr.span("dsarray.from_matrix_owned", || {
            DsArray::from_matrix_owned(rt, x, BLOCK_ROWS, BLOCK_COLS)
        });
        blocks += dist.n_row_blocks() * dist.n_col_blocks();
        let keep = Components::Count(N_COMPONENTS.min(features));
        let pca = tr.span("dislib.Pca::fit", || Pca::fit(rt, &dist, keep));
        let projected = tr.span("dislib.Pca::transform", || pca.transform(rt, &dist));
        tr.span("dsarray.collect", || projected.collect(rt))
    });
    let mut folds = tr.span("dislib.csvm", || {
        cv_csvm(rt, tr, &xp, &y, seed, &mut blocks)
    });
    folds.extend(tr.span("dislib.knn", || cv_knn(rt, tr, &xp, &y, seed, &mut blocks)));
    folds.extend(tr.span("dislib.rf", || cv_rf(rt, tr, &xp, &y, seed)));
    folds.extend(tr.span("nnet.cnn", || cv_cnn(rt, tr, &xp, &y, seed)));
    PassInfo {
        out: Outputs {
            projection: matrix_fingerprint(&xp),
            folds,
        },
        features,
        blocks,
    }
}

impl Af {
    pub fn setup(seed: u64, threaded: bool, samples: &mut Samples) -> Self {
        let spec = dataset_spec(seed);
        let t0 = Instant::now();
        let recordings = Dataset::build_recordings(&spec);
        samples.push("ecg.recordings_s", t0.elapsed().as_secs_f64());
        samples.push(
            "ecg.samples",
            recordings.iter().map(|r| r.samples.len()).sum::<usize>() as f64,
        );
        // The oracle is the plain inline run of the same inputs: the
        // repo's bit-identity invariant says every executor must match.
        let t0 = Instant::now();
        let oracle = pipeline(&Runtime::new(), &Tracer::new(), &spec, &recordings).out;
        let inline_ref_s = t0.elapsed().as_secs_f64();
        Af {
            threaded,
            seed,
            spec,
            recordings,
            oracle,
            inline_ref_s,
        }
    }

    fn runtime(&self) -> Runtime {
        if self.threaded {
            Runtime::threaded(host::workers())
        } else {
            Runtime::new()
        }
    }
}

fn pooled_accuracy(folds: &[ConfusionMatrix]) -> f64 {
    folds
        .iter()
        .fold(ConfusionMatrix::default(), |acc, f| acc.merged(f))
        .accuracy()
}

impl Workload for Af {
    fn corrupt_oracle(&mut self) {
        self.oracle.projection ^= 1;
    }

    fn pass(&mut self, tr: &Tracer, samples: &mut Samples) -> Pass {
        let rt = self.runtime();
        let pool0 = linalg::pool::global_stats();
        let t0 = Instant::now();
        let info = tr.span("bench.pass", || {
            let info = pipeline(&rt, tr, &self.spec, &self.recordings);
            tr.span("runtime.barrier", || rt.barrier());
            info
        });
        let ok = info.out == self.oracle;
        let makespan_s = t0.elapsed().as_secs_f64();

        let pool1 = linalg::pool::global_stats();
        let (hits, misses) = (pool1.0 - pool0.0, pool1.1 - pool0.1);
        samples.push(
            "linalg.pool_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        samples.push("ecg.features", info.features as f64);
        samples.push("dsarray.blocks", info.blocks as f64);
        for (name, folds) in ACCURACY.iter().zip(info.out.folds.chunks(K_FOLDS)) {
            samples.push(name, pooled_accuracy(folds));
        }
        samples.push("runtime.speedup_vs_inline", self.inline_ref_s / makespan_s);
        let stats = rt.stats();
        samples.push_runtime_stats(&stats);
        Pass {
            makespan_s,
            tasks: stats.total_tasks(),
            failed: u64::from(!ok) * stats.total_tasks()
                + stats.giveups
                + stats.poisoned
                + stats.cancelled,
        }
    }

    fn layer_metrics(&self, spans: &SpanTable, samples: &mut Samples) {
        for (metric, span) in [
            ("ecg.design_matrix_s", "ecg.build_design_matrix"),
            ("dislib.pca_s", "dislib.pca"),
            ("dislib.pca_fit_s", "dislib.Pca::fit"),
            ("dislib.pca_transform_s", "dislib.Pca::transform"),
            ("dislib.csvm_s", "dislib.csvm"),
            ("dislib.knn_s", "dislib.knn"),
            ("dislib.rf_s", "dislib.rf"),
            ("nnet.cnn_s", "nnet.cnn"),
            ("dsarray.collect_s", "dsarray.collect"),
        ] {
            samples.extend(metric, spans.durations(&[span]));
        }
        samples.extend(
            "dsarray.partition_s",
            spans.durations(&["dsarray.from_matrix_owned", "dsarray.DsLabels::from_slice"]),
        );
        let waits = spans.durations(&["runtime.wait", "runtime.barrier", "dsarray.collect"]);
        let passes = spans.durations(&["bench.pass"]);
        samples.extend(
            "runtime.driver_submit_s",
            passes.iter().zip(&waits).map(|(p, w)| p - w).collect(),
        );
        samples.extend("runtime.driver_wait_s", waits);
    }

    /// Single-threaded probes of the kernels at exactly this workload's
    /// shapes, so a layer's number can be read next to its share.
    fn probes(&mut self, samples: &mut Samples) {
        let (x, _, max_len) =
            build_design_matrix(&self.recordings, &self.spec.stft, self.spec.max_freq_hz);

        // STFT of one zero-padded recording.
        let mut plan = SpectrogramPlan::new(&self.spec.stft);
        let padded = zero_pad(&self.recordings[0].samples, max_len);
        samples.probe_rate("linalg.stft_signals_per_s", 1.0, 100, || {
            black_box(plan.compute(black_box(&padded)));
        });

        // eigh of the real covariance (the QL iteration count depends
        // on the spectrum, so a random matrix would not do).
        let means = x.col_means();
        let mut centered = x.clone();
        for r in 0..centered.rows() {
            for (v, m) in centered.row_mut(r).iter_mut().zip(&means) {
                *v -= m;
            }
        }
        let mut cov = centered.t_matmul(&centered);
        cov.scale(1.0 / (x.rows() as f64 - 1.0));
        for _ in 0..3 {
            let t0 = Instant::now();
            black_box(linalg::eigh(black_box(&cov)));
            samples.push("linalg.eigh_s", t0.elapsed().as_secs_f64());
        }

        // The two conv layers of the network at the PCA output length,
        // and the forward GEMMs they lower to.
        let in_len = N_COMPONENTS.min(x.cols());
        let net = Network::afib_cnn(in_len, self.seed);
        let mut convs = net.layers.iter().filter_map(|l| match l {
            Layer::Conv1d(c) => Some(c.clone()),
            _ => None,
        });
        let (mut c1, mut c2) = (
            convs.next().expect("first conv layer"),
            convs.next().expect("second conv layer"),
        );
        let len2 = c1.out_len(in_len) / 2; // after the first max-pool
        let x1: Vec<f32> = (0..in_len).map(|i| (i as f32 * 0.37).sin()).collect();
        let x2: Vec<f32> = (0..c2.in_ch * len2)
            .map(|i| (i as f32 * 0.11).cos())
            .collect();
        let (ol1, ol2) = (c1.out_len(in_len), c2.out_len(len2));
        samples.probe_rate("nnet.conv_fwd_samples_per_s", 1.0, 4000, || {
            black_box(c1.forward(black_box(&x1), in_len));
            black_box(c2.forward(black_box(&x2), len2));
        });
        let (d1, d2) = (
            vec![0.01f32; c1.out_ch * ol1],
            vec![0.01f32; c2.out_ch * ol2],
        );
        samples.probe_rate("nnet.conv_bwd_samples_per_s", 1.0, 4000, || {
            black_box(c1.backward(black_box(&x1), in_len, &d1));
            black_box(c2.backward(black_box(&x2), len2, &d2));
        });

        let shapes = [
            (c1.out_ch, c1.in_ch * c1.kernel, ol1),
            (c2.out_ch, c2.in_ch * c2.kernel, ol2),
        ];
        let mut bufs: Vec<_> = shapes
            .iter()
            .map(|&(m, k, n)| {
                (
                    vec![0.5f32; m * k],
                    vec![0.25f32; k * n],
                    vec![0.0f32; m * n],
                )
            })
            .collect();
        let gflop: f64 = shapes
            .iter()
            .map(|&(m, k, n)| (2 * m * k * n) as f64)
            .sum::<f64>()
            / 1e9;
        samples.probe_rate("linalg.sgemm_f32_gflops", gflop, 10_000, || {
            for (&(m, k, n), (a, b, out)) in shapes.iter().zip(&mut bufs) {
                linalg::sgemm_nn(m, k, n, black_box(a), b, out);
            }
        });

        // DES replay of one inline pass at 288 cores. Off the pipeline
        // path: listed so a DES change is not read as a pipeline gain.
        let rt = Runtime::new();
        pipeline(&rt, &Tracer::new(), &self.spec, &self.recordings);
        let trace = rt.finish();
        let t0 = Instant::now();
        let report = simulate(
            &trace,
            &ClusterSpec::marenostrum4(6),
            &SimOptions::default(),
        );
        samples.push(
            "sim.replay_events_per_s",
            report.tasks as f64 / t0.elapsed().as_secs_f64(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Fingerprint;

    fn recordings_fingerprint(recs: &[Recording]) -> u64 {
        let mut fp = Fingerprint::new();
        for r in recs {
            fp.f64s(&r.samples);
            fp.word(u64::from(r.class.label()));
        }
        fp.finish()
    }

    fn tiny(seed: u64) -> DatasetSpec {
        let mut spec = dataset_spec(seed);
        spec.n_normal = 6;
        spec.n_af = 2;
        spec
    }

    #[test]
    fn recordings_are_deterministic_per_seed() {
        let a = recordings_fingerprint(&Dataset::build_recordings(&tiny(1)));
        assert_eq!(
            a,
            recordings_fingerprint(&Dataset::build_recordings(&tiny(1)))
        );
        assert_ne!(
            a,
            recordings_fingerprint(&Dataset::build_recordings(&tiny(2)))
        );
    }

    #[test]
    fn spec_is_the_documented_size() {
        let spec = dataset_spec(1);
        assert_eq!((spec.n_normal, spec.n_af), (200, 30));
        assert_eq!(ecg::features::kept_bins(&spec.stft, spec.max_freq_hz), 13);
    }
}
