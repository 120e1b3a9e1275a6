//! Regenerates the paper's execution-graph figures as Graphviz DOT
//! files (Figs. 4, 6, 8, 9, 10).
//!
//! Like the paper, reduced workloads are used so the graphs stay
//! readable ("these graphs represent only a part of the actual tests").
//!
//! Usage: `cargo run -p bench --bin graphs --release`
//! Render with e.g. `dot -Tsvg out/graph_csvm.dot -o graph_csvm.svg`.

use bench::report::{write_artifact, Args};
use dislib::csvm::{CascadeSvm, CascadeSvmParams};
use dislib::knn::{KnnClassifier, KnnParams};
use dislib::rf::{RandomForest, RfParams};
use dsarray::{DsArray, DsLabels};
use ecg::{Dataset, DatasetSpec, Scale};
use linalg::Matrix;
use nnet::{train_kfold, train_kfold_nested, FoldData, Network, ParallelConfig, TrainParams};
use taskrt::{dot::to_dot, Runtime};

fn small_data() -> (Matrix, Vec<u8>) {
    let mut spec = DatasetSpec::at_scale(Scale::Small).with_seed(7);
    spec.n_normal = 24;
    spec.n_af = 4;
    spec.ecg.max_duration_s = 11.0;
    let ds = Dataset::build(&spec);
    // Compress features so the demo runs instantly.
    (ds.x.slice_cols(0, 64), ds.y)
}

fn main() {
    Args::capture(&[], &[]);
    let (x, y) = small_data();
    let rb = x.rows().div_ceil(4);

    // Fig. 4 — CSVM cascade.
    {
        let rt = Runtime::new();
        let ds = DsArray::from_matrix(&rt, &x, rb, x.cols());
        let dl = DsLabels::from_slice(&rt, &y, rb);
        let _ = CascadeSvm::fit(&rt, &ds, &dl, CascadeSvmParams::default());
        write_artifact(
            "out/graph_csvm.dot",
            &to_dot(&rt.finish(), "Fig. 4 — CSVM", 400),
        )
        .unwrap();
    }

    // Fig. 6 — KNN (fit + predict, K=5).
    {
        let rt = Runtime::new();
        let ds = DsArray::from_matrix(&rt, &x, rb, x.cols());
        let dl = DsLabels::from_slice(&rt, &y, rb);
        let model = KnnClassifier::fit(&rt, &ds, &dl, KnnParams::default());
        let _ = model.predict(&rt, &ds);
        write_artifact(
            "out/graph_knn.dot",
            &to_dot(&rt.finish(), "Fig. 6 — KNN", 400),
        )
        .unwrap();
    }

    // Fig. 8 — RF with 40 estimators.
    {
        let rt = Runtime::new();
        let xh = rt.put(x.clone());
        let yh = rt.put(y.clone());
        let _ = RandomForest::fit(
            &rt,
            xh,
            yh,
            RfParams {
                n_estimators: 40,
                ..Default::default()
            },
        );
        write_artifact(
            "out/graph_rf.dot",
            &to_dot(&rt.finish(), "Fig. 8 — RF", 400),
        )
        .unwrap();
    }

    // Figs. 9 / 10 — CNN without and with nesting.
    let folds: Vec<FoldData> = (0..5)
        .map(|i| {
            let lo = i * x.rows() / 5;
            let hi = ((i + 1) * x.rows() / 5).min(x.rows());
            FoldData {
                x_train: x.slice_rows(0, x.rows().min(16)),
                y_train: y[..x.rows().min(16)].to_vec(),
                x_test: x.slice_rows(lo, hi),
                y_test: y[lo..hi].to_vec(),
            }
        })
        .collect();
    let cfg = ParallelConfig {
        epochs: 7,
        workers: 4,
        gpus_per_task: 1,
        train: TrainParams {
            lr: 0.02,
            momentum: 0.9,
            batch_size: 8,
            seed: 0,
        },
    };
    let net0 = Network::afib_cnn(64, 0);
    {
        let rt = Runtime::new();
        let _ = train_kfold(&rt, folds.clone(), &net0, &cfg);
        write_artifact(
            "out/graph_cnn.dot",
            &to_dot(&rt.finish(), "Fig. 9 — CNN (no nesting)", 800),
        )
        .unwrap();
    }
    {
        let rt = Runtime::new();
        let handles = train_kfold_nested(&rt, folds, &net0, &cfg);
        for h in &handles {
            let _ = rt.wait(*h);
        }
        write_artifact(
            "out/graph_cnn_nested.dot",
            &to_dot(&rt.finish(), "Fig. 10 — CNN (nesting)", 800),
        )
        .unwrap();
    }

    println!("done; render with `dot -Tsvg out/graph_*.dot`");
}
