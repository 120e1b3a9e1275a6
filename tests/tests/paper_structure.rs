//! Structural assertions tying the implementation to the paper's claims
//! about each workflow's task graph.

use dislib::csvm::{CascadeSvm, CascadeSvmParams};
use dislib::knn::{KnnClassifier, KnnParams};
use dislib::rf::{RandomForest, RfParams};
use dsarray::{DsArray, DsLabels};
use integration_tests::tiny_dataset;
use taskrt::trace::SYNC_TASK;
use taskrt::Runtime;

/// Paper §III-C1: "the maximum amount of parallelism of the fitting
/// process is thus limited by the number of row blocks".
#[test]
fn csvm_parallelism_bounded_by_row_blocks() {
    let (x, y) = tiny_dataset();
    for rb in [12usize, 24] {
        let rt = Runtime::new();
        let ds = DsArray::from_matrix(&rt, x, rb, x.cols());
        let dl = DsLabels::from_slice(&rt, y, rb);
        let _ = CascadeSvm::fit(&rt, &ds, &dl, CascadeSvmParams::default());
        let trace = rt.finish();
        let hist = trace.task_histogram();
        assert_eq!(hist["csvm_fit"], ds.n_row_blocks());
        // The root of the pairwise reduction is the `csvm_final` task.
        assert_eq!(hist["csvm_merge"], ds.n_row_blocks() - 2);
        assert_eq!(hist["csvm_final"], 1);
    }
}

/// Paper §III-C3: RF "is the only algorithm in dislib in which the
/// number of blocks and their size does not have a direct impact on the
/// ... number of tasks created during its training".
#[test]
fn rf_task_count_depends_on_estimators_not_blocks() {
    let (x, y) = tiny_dataset();
    let mut counts = Vec::new();
    for _irrelevant_block_size in [10usize, 40] {
        let rt = Runtime::new();
        let params = RfParams {
            n_estimators: 8,
            ..Default::default()
        };
        let _ = RandomForest::fit(&rt, rt.put(x.clone()), rt.put(y.to_vec()), params);
        counts.push(rt.finish().task_histogram()["rf_build_tree"]);
    }
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[0], 8);
}

/// Paper §III-C3: parallelism grows with `distr_depth`.
#[test]
fn rf_distr_depth_multiplies_tasks() {
    let (x, y) = tiny_dataset();
    let rt = Runtime::new();
    let params = RfParams {
        n_estimators: 4,
        distr_depth: 2,
        ..Default::default()
    };
    let _ = RandomForest::fit(&rt, rt.put(x.clone()), rt.put(y.to_vec()), params);
    let hist = rt.finish().task_histogram();
    assert_eq!(hist["rf_top"], 4);
    assert_eq!(hist["rf_subtree"], 4 * 4);
    assert_eq!(hist["rf_join"], 4);
}

/// Paper §III-C2: KNN "launches a fit ... into each row block" and
/// "predict also makes a task per block in the row axis".
#[test]
fn knn_tasks_per_row_block() {
    let (x, y) = tiny_dataset();
    let rt = Runtime::new();
    let ds = DsArray::from_matrix(&rt, x, 12, x.cols());
    let dl = DsLabels::from_slice(&rt, y, 12);
    let model = KnnClassifier::fit(&rt, &ds, &dl, KnnParams::default());
    let n = ds.n_row_blocks();
    assert_eq!(rt.trace().task_histogram()["knn_fit"], n);
    let _ = model.predict(&rt, &ds);
    let hist = rt.finish().task_histogram();
    assert_eq!(hist["knn_query"], n * n);
    assert_eq!(hist["knn_vote"], n);
}

/// Paper §III-D + Fig. 9/10: without nesting the per-epoch syncs are
/// global (one `__sync` per epoch per fold in the parent trace); with
/// nesting they move inside the fold tasks.
#[test]
fn nesting_relocates_epoch_syncs() {
    let (x, y) = tiny_dataset();
    let fold = nnet::FoldData {
        x_train: x.clone(),
        y_train: y.to_vec(),
        x_test: x.clone(),
        y_test: y.to_vec(),
    };
    let cfg = nnet::ParallelConfig {
        epochs: 3,
        workers: 2,
        gpus_per_task: 1,
        train: nnet::TrainParams {
            lr: 0.01,
            momentum: 0.9,
            batch_size: 8,
            seed: 0,
        },
    };
    let net0 = nnet::Network::afib_cnn(x.cols(), 0);

    // Flat: 2 folds x 3 epochs global syncs (plus per-fold data waits).
    let rt = Runtime::new();
    let _ = nnet::train_kfold(&rt, vec![fold.clone(), fold.clone()], &net0, &cfg);
    let flat_trace = rt.finish();
    let flat_syncs = flat_trace
        .records
        .iter()
        .filter(|r| r.name == SYNC_TASK)
        .count();
    assert!(
        flat_syncs >= 6,
        "expected >= 6 global syncs, got {flat_syncs}"
    );

    // Nested: no training syncs in the parent; each child has 3.
    let rt = Runtime::new();
    let handles = nnet::train_kfold_nested(&rt, vec![fold.clone(), fold], &net0, &cfg);
    for h in &handles {
        let _ = rt.wait(*h);
    }
    let nested_trace = rt.trace();
    let parent_syncs_before_folds = nested_trace
        .records
        .iter()
        .take_while(|r| r.name != "cnn_fold")
        .filter(|r| r.name == SYNC_TASK)
        .count();
    assert_eq!(parent_syncs_before_folds, 0);
    let fold_rec = nested_trace
        .records
        .iter()
        .find(|r| r.name == "cnn_fold")
        .unwrap();
    let child = fold_rec.child.as_ref().unwrap();
    // One sync per epoch plus the final model retrieval.
    assert_eq!(child.task_histogram()[SYNC_TASK], 3 + 1);
}

/// The ds-array load stage mirrors dislib: one task per block of the
/// grid (paper: "the data is split by dislib in blocks of 500x500 thus
/// generating 631 tasks").
#[test]
fn ds_load_task_count_matches_grid() {
    let (x, _) = tiny_dataset();
    let rt = Runtime::new();
    let ds = DsArray::from_matrix(&rt, x, 10, 60);
    let hist = rt.finish().task_histogram();
    assert_eq!(hist["ds_load"], ds.n_row_blocks() * ds.n_col_blocks());
}
