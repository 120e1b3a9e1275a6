//! End-to-end integration: the full paper pipeline, data to metrics,
//! spanning `ecg`, `dsarray`, `dislib`, `nnet` and `taskrt`.

use dislib::csvm::{CascadeSvm, CascadeSvmParams};
use dislib::knn::{KnnClassifier, KnnParams};
use dislib::model_selection::{take, KFold};
use dislib::pca::{Components, Pca};
use dislib::rf::{RandomForest, RfParams};
use dislib::scaler::StandardScaler;
use dislib::ConfusionMatrix;
use dsarray::{DsArray, DsLabels};
use integration_tests::tiny_dataset;
use linalg::Matrix;
use taskrt::Runtime;

/// Shared PCA projection for the classifier tests.
fn projected() -> (Matrix, Vec<u8>) {
    let (x, y) = tiny_dataset();
    let rt = Runtime::new();
    let ds = DsArray::from_matrix(&rt, x, 16, 120);
    let pca = Pca::fit(&rt, &ds, Components::Count(48));
    (pca.transform(&rt, &ds).collect(&rt), y.to_vec())
}

#[test]
fn pca_projection_shapes_and_finiteness() {
    let (xp, y) = projected();
    assert_eq!(xp.rows(), y.len());
    assert_eq!(xp.cols(), 48);
    assert!(xp.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn full_csvm_workflow_beats_chance() {
    let (xp, y) = projected();
    let rt = Runtime::new();
    let kf = KFold {
        k: 3,
        shuffle: true,
        seed: 5,
    };
    let mut pooled = ConfusionMatrix::default();
    for (tr, te) in kf.split(xp.rows()) {
        let (xtr, ytr) = take(&xp, &y, &tr);
        let (xte, yte) = take(&xp, &y, &te);
        let ds = DsArray::from_matrix(&rt, &xtr, 16, xtr.cols());
        let dl = DsLabels::from_slice(&rt, &ytr, 16);
        let model = CascadeSvm::fit(&rt, &ds, &dl, CascadeSvmParams::default());
        let dte = DsArray::from_matrix(&rt, &xte, 16, xte.cols());
        let mut preds = Vec::new();
        for p in model.predict(&rt, &dte) {
            preds.extend(rt.wait(p).iter().copied());
        }
        pooled = pooled.merged(&ConfusionMatrix::from_labels(&yte, &preds));
    }
    assert!(pooled.accuracy() > 0.55, "csvm acc {}", pooled.accuracy());
    // The whole workflow is recorded.
    let hist = rt.trace().task_histogram();
    assert!(hist["csvm_fit"] >= 3);
    assert!(hist.contains_key("csvm_merge"));
}

#[test]
fn full_rf_workflow_high_accuracy() {
    let (xp, y) = projected();
    let rt = Runtime::new();
    let params = RfParams {
        n_estimators: 20,
        task_cores: 4,
        ..Default::default()
    };
    let forest = RandomForest::fit(&rt, rt.put(xp.clone()), rt.put(y.clone()), params);
    let pred = rt.wait(forest.predict(&rt, rt.put(xp.clone())));
    let cm = ConfusionMatrix::from_labels(&y, &pred);
    assert!(cm.accuracy() > 0.9, "rf train acc {}", cm.accuracy());
}

#[test]
fn full_knn_with_scaler_workflow() {
    let (xp, y) = projected();
    let rt = Runtime::new();
    let ds = DsArray::from_matrix(&rt, &xp, 8, xp.cols());
    let dl = DsLabels::from_slice(&rt, &y, 8);
    let (_, scaled) = StandardScaler::fit_transform(&rt, &ds);
    let knn = KnnClassifier::fit(
        &rt,
        &scaled,
        &dl,
        KnnParams {
            k: 1,
            ..Default::default()
        },
    );
    // 1-NN on the training set must be perfect (each sample is its own
    // neighbour) — validates the distributed merge keeps exact nearest.
    let (c, t) = *rt.wait(knn.score(&rt, &scaled, &dl));
    assert_eq!(c, t, "1-NN self-score must be exact");
}

/// The PCA projection standardized for SGD.
fn standardized() -> (Matrix, Vec<u8>) {
    let (xp, y) = projected();
    let means = xp.col_means();
    let stds = xp.col_stds(&means);
    let mut xn = xp.clone();
    for r in 0..xn.rows() {
        for (c, v) in xn.row_mut(r).iter_mut().enumerate() {
            *v = (*v - means[c]) / stds[c].max(1e-9);
        }
    }
    (xn, y)
}

fn cnn_config(epochs: usize, batch_size: usize) -> nnet::ParallelConfig {
    nnet::ParallelConfig {
        epochs,
        workers: 2,
        gpus_per_task: 1,
        train: nnet::TrainParams {
            lr: 0.02,
            momentum: 0.9,
            batch_size,
            seed: 0,
        },
    }
}

#[test]
fn cnn_nested_training_integrates() {
    let (xn, y) = standardized();
    let rt = Runtime::new();
    let net0 = nnet::Network::afib_cnn(xn.cols(), 6);
    let folds = vec![nnet::FoldData {
        x_train: xn.clone(),
        y_train: y.clone(),
        x_test: xn.clone(),
        y_test: y.clone(),
    }];
    let cfg = cnn_config(6, 8);
    let handles = nnet::train_kfold_nested(&rt, folds, &net0, &cfg);
    let res = rt.wait(handles[0]);
    let acc = res.test.0 as f64 / res.test.1 as f64;
    assert!(acc > 0.8, "cnn train acc {acc}");
    // The nested fold recorded its child epochs.
    let trace = rt.trace();
    let fold = trace.records.iter().find(|r| r.name == "cnn_fold").unwrap();
    let child = fold.child.as_ref().unwrap();
    assert_eq!(child.task_histogram()["cnn_train"], 12);
}

#[test]
fn cnn_nested_training_is_bit_identical_on_inline_and_threaded_runtimes() {
    // Every executor runs the same kernels on the same batches in the
    // same order: two folds (even rows train / odd rows test, and the
    // reverse), with a mini-batch that leaves a ragged last batch.
    let (xn, y) = standardized();
    let (even, odd): (Vec<usize>, Vec<usize>) = (0..xn.rows()).partition(|r| r % 2 == 0);
    let fold = |train: &[usize], test: &[usize]| {
        let ((x_train, y_train), (x_test, y_test)) = (take(&xn, &y, train), take(&xn, &y, test));
        nnet::FoldData {
            x_train,
            y_train,
            x_test,
            y_test,
        }
    };
    let net0 = nnet::Network::afib_cnn(xn.cols(), 6);
    let run = |rt: Runtime| -> Vec<(Vec<u32>, Vec<u8>)> {
        let folds = vec![fold(&even, &odd), fold(&odd, &even)];
        nnet::train_kfold_nested(&rt, folds, &net0, &cnn_config(2, 4))
            .into_iter()
            .map(|h| {
                let res = rt.wait(h);
                let weights = res.network.get_weights();
                (
                    weights.iter().map(|w| w.to_bits()).collect(),
                    res.predictions.clone(),
                )
            })
            .collect()
    };
    let inline = run(Runtime::new());
    assert_ne!(
        inline[0].0, inline[1].0,
        "the folds trained on different rows"
    );
    assert_eq!(inline, run(Runtime::threaded(2)));
}

#[test]
fn augmentation_balances_and_preserves_signal_stats() {
    let mut spec = ecg::DatasetSpec::at_scale(ecg::Scale::Small).with_seed(123);
    spec.n_normal = 20;
    spec.n_af = 5;
    let recs = ecg::Dataset::build_recordings(&spec);
    let af: Vec<_> = recs.iter().filter(|r| r.class == ecg::Class::Af).collect();
    let normal = recs.len() - af.len();
    assert_eq!(af.len(), normal);
    // Augmented copies are permutations: every AF signal has finite,
    // bounded samples.
    for r in af {
        assert!(r.samples.iter().all(|v| v.is_finite()));
    }
}
