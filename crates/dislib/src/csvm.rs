//! Cascade Support Vector Machine (paper §III-C1, Fig. 3).
//!
//! The CSVM estimator "parallelises training by using a cascade
//! structure. The algorithm splits the input data into N subsets, trains
//! each subset independently, merges the computed support vectors of
//! each subset two by two, and trains again each merged group". One
//! iteration ends when a single support-vector group remains; further
//! iterations feed the surviving support vectors back into every
//! original subset.
//!
//! Task structure (names appear in the execution graph of Fig. 4):
//!
//! * `csvm_fit` — one per row block of the input ds-array (the
//!   parallelism bound the paper calls out),
//! * `csvm_merge` — pairwise reduction tasks below the root,
//! * `csvm_final` — the root of the reduction: its [`SvcModel`] *is*
//!   the deployable model (as dislib's last `_train` returns it),
//! * `csvm_predict` / `csvm_score` — per-row-block inference.
//!
//! Every node keeps the model it trained (its support vectors are the
//! set handed upward), so `b` blocks train exactly `2b - 1` times.

use crate::svm::{fit_svc, SvcModel, SvcParams};
use dsarray::{tree_reduce, DsArray, DsLabels};
use linalg::Matrix;
use std::borrow::Cow;
use taskrt::{Handle, Payload, Runtime};

/// What a cascade node hands upward.
#[derive(Clone)]
enum Node {
    /// The model trained on the node's set; its support vectors survive.
    Trained(SvcModel),
    /// An untrainable set (single class, as in ragged tail blocks, or
    /// one row) passes through unchanged.
    Raw(Matrix, Vec<u8>),
}

impl Node {
    /// Trains on a borrowed block or an owned merge, copying neither.
    fn train(x: Cow<'_, Matrix>, y: Cow<'_, [u8]>, params: &SvcParams) -> Node {
        if y.contains(&1) && y.contains(&0) && x.rows() >= 2 {
            Node::Trained(fit_svc(&x, &y, params))
        } else {
            Node::Raw(x.into_owned(), y.into_owned())
        }
    }

    /// The root's training is the cascade's model.
    fn into_model(self) -> SvcModel {
        match self {
            Node::Trained(model) => model,
            Node::Raw(..) => panic!("cascade collapsed to a single class"),
        }
    }

    /// The surviving `(rows, labels)`.
    fn set(&self) -> (&Matrix, &[u8]) {
        match self {
            Node::Trained(m) => (&m.support_vectors, &m.support_labels),
            Node::Raw(x, y) => (x, y),
        }
    }
}

impl Payload for Node {
    fn approx_bytes(&self) -> usize {
        match self {
            Node::Trained(m) => m.approx_bytes(),
            Node::Raw(x, y) => x.approx_bytes() + y.len(),
        }
    }
}

/// CascadeSVM hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct CascadeSvmParams {
    /// Parameters of the per-subset SVC solver.
    pub svc: SvcParams,
    /// Maximum number of cascade iterations (paper: "a fixed number of
    /// iterations or until a convergence criterion is met").
    pub cascade_iterations: usize,
    /// Optional convergence criterion: stop iterating early when the
    /// surviving support-vector count changes by less than this
    /// fraction between iterations. `None` always runs
    /// `cascade_iterations` rounds. Checking convergence synchronizes
    /// the driver between iterations, exactly as dislib does.
    pub convergence_tol: Option<f64>,
    /// Cores each cascade task occupies in the simulator (paper
    /// configuration: 8 cores per task, 6 tasks per 48-core node).
    pub task_cores: u32,
}

impl Default for CascadeSvmParams {
    fn default() -> Self {
        Self {
            svc: SvcParams::default(),
            cascade_iterations: 1,
            convergence_tol: None,
            task_cores: 8,
        }
    }
}

/// A fitted CascadeSVM.
pub struct CascadeSvm {
    /// Handle of the final trained model.
    pub model: Handle<SvcModel>,
    params: CascadeSvmParams,
}

/// Trains on the concatenation of two labeled sets.
fn train_merged(a: (&Matrix, &[u8]), b: (&Matrix, &[u8]), params: &SvcParams) -> Node {
    let (x, y) = (a.0.vstack(b.0), [a.1, b.1].concat());
    Node::train(Cow::Owned(x), Cow::Owned(y), params)
}

impl CascadeSvm {
    /// Fits the cascade on a blocked dataset. Per iteration it submits
    /// one `csvm_fit` (`csvm_refit`) task per row block, `n_blocks - 2`
    /// `csvm_merge` tasks and the `csvm_final` root.
    pub fn fit(rt: &Runtime, x: &DsArray, y: &DsLabels, params: CascadeSvmParams) -> Self {
        assert_eq!(
            x.n_row_blocks(),
            y.n_parts(),
            "data and labels must be partitioned identically"
        );
        let svc = params.svc;
        let bands = x.row_bands(rt);

        // Layer 0: distill each subset to its support vectors.
        let leaves: Vec<Handle<Node>> = bands
            .iter()
            .enumerate()
            .map(|(i, &band)| {
                rt.task("csvm_fit").cores(params.task_cores).run2(
                    band,
                    y.part(i),
                    move |m: &Matrix, labels: &Vec<u8>| {
                        Node::train(Cow::Borrowed(m), Cow::Borrowed(labels), &svc)
                    },
                )
            })
            .collect();

        // Cascade reduction; optionally iterate feeding the winners back.
        let mut model = Self::reduce_layer(rt, leaves, params);
        let mut prev_sv_count = params.convergence_tol.map(|_| rt.wait(model).n_support());
        for _ in 1..params.cascade_iterations.max(1) {
            let leaves = bands
                .iter()
                .enumerate()
                .map(|(i, &band)| {
                    rt.task("csvm_refit").cores(params.task_cores).run3(
                        band,
                        y.part(i),
                        model,
                        move |m: &Matrix, labels: &Vec<u8>, winners: &SvcModel| {
                            let winners = (&winners.support_vectors, &winners.support_labels[..]);
                            train_merged((m, labels), winners, &svc)
                        },
                    )
                })
                .collect();
            model = Self::reduce_layer(rt, leaves, params);
            // Convergence check (synchronizes the driver, like dislib's
            // `check_convergence`): stop when the SV count stabilizes.
            if let (Some(tol), Some(prev)) = (params.convergence_tol, prev_sv_count) {
                let count = rt.wait(model).n_support();
                let rel = (count as f64 - prev as f64).abs() / prev.max(1) as f64;
                prev_sv_count = Some(count);
                if rel < tol {
                    break;
                }
            }
        }
        CascadeSvm { model, params }
    }

    /// Pairwise `csvm_merge` reduction down to two nodes, then the
    /// `csvm_final` root, whose training is the iteration's model (a
    /// lone leaf has already trained: the root only unwraps it).
    fn reduce_layer(
        rt: &Runtime,
        mut level: Vec<Handle<Node>>,
        params: CascadeSvmParams,
    ) -> Handle<SvcModel> {
        let svc = params.svc;
        let joined = move |a: &Node, b: &Node| train_merged(a.set(), b.set(), &svc);
        // NOTE: tree_reduce does not let us set per-task cores; replicate
        // its pairwise pattern through a named task with resources.
        while level.len() > 2 {
            level = level
                .chunks(2)
                .map(|pair| match *pair {
                    [a, b] => rt
                        .task("csvm_merge")
                        .cores(params.task_cores)
                        .run2(a, b, joined),
                    [a] => a,
                    _ => unreachable!("chunks(2)"),
                })
                .collect();
        }
        let last = rt.task("csvm_final").cores(params.task_cores);
        match level[..] {
            [a, b] => last.run2(a, b, move |a: &Node, b: &Node| joined(a, b).into_model()),
            [a] => last.run1(a, |a: &Node| a.clone().into_model()),
            _ => unreachable!("a ds-array has at least one row block"),
        }
    }

    /// Predicts labels for every row block of `x`; one `csvm_predict`
    /// task per block.
    pub fn predict(&self, rt: &Runtime, x: &DsArray) -> Vec<Handle<Vec<u8>>> {
        x.row_bands(rt)
            .into_iter()
            .map(|band| {
                rt.task("csvm_predict").cores(self.params.task_cores).run2(
                    self.model,
                    band,
                    |model: &SvcModel, m: &Matrix| model.predict(m),
                )
            })
            .collect()
    }

    /// Mean accuracy on a labeled blocked test set (the dislib `score`
    /// operator): per-block `csvm_score` tasks followed by a reduction.
    pub fn score(&self, rt: &Runtime, x: &DsArray, y: &DsLabels) -> Handle<(u64, u64)> {
        assert_eq!(x.n_row_blocks(), y.n_parts());
        let partials: Vec<Handle<(u64, u64)>> = x
            .row_bands(rt)
            .into_iter()
            .enumerate()
            .map(|(i, band)| {
                rt.task("csvm_score").cores(self.params.task_cores).run3(
                    self.model,
                    band,
                    y.part(i),
                    |model: &SvcModel, m: &Matrix, labels: &Vec<u8>| {
                        let pred = model.predict(m);
                        let correct =
                            pred.iter().zip(labels).filter(|(p, t)| p == t).count() as u64;
                        (correct, labels.len() as u64)
                    },
                )
            })
            .collect();
        tree_reduce(rt, "csvm_score_reduce", &partials, |a, b| {
            (a.0 + b.0, a.1 + b.1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::blobs;

    fn fit_demo(n: usize, blocks: usize) -> (Runtime, CascadeSvm, DsArray, DsLabels) {
        let rt = Runtime::new();
        let (x, y) = blobs(n, 2.0, 7);
        let rb = x.rows().div_ceil(blocks);
        let ds = DsArray::from_matrix(&rt, &x, rb, x.cols());
        let dl = DsLabels::from_slice(&rt, &y, rb);
        let model = CascadeSvm::fit(&rt, &ds, &dl, CascadeSvmParams::default());
        (rt, model, ds, dl)
    }

    #[test]
    fn cascade_learns_blobs() {
        let (rt, model, ds, dl) = fit_demo(60, 4);
        let (correct, total) = *rt.wait(model.score(&rt, &ds, &dl));
        assert!(total == 120);
        assert!(
            correct as f64 / total as f64 > 0.95,
            "acc={}",
            correct as f64 / total as f64
        );
    }

    #[test]
    fn task_structure_matches_cascade() {
        // b leaves, b - 2 merges below the root, and the root itself:
        // 2b - 1 trainings. At 4 blocks: 4 -> 2 -> root.
        for blocks in [2, 3, 4, 6] {
            let (rt, _model, ds, _dl) = fit_demo(42, blocks);
            assert_eq!(ds.n_row_blocks(), blocks);
            let hist = rt.trace().task_histogram();
            assert_eq!(hist["csvm_fit"], blocks);
            assert_eq!(hist.get("csvm_merge").copied().unwrap_or(0), blocks - 2);
            assert_eq!(hist["csvm_final"], 1);
        }
        // A single block has nothing to merge: its training is the model.
        let (rt, model, ds, _dl) = fit_demo(20, 1);
        let hist = rt.trace().task_histogram();
        assert_eq!((hist["csvm_fit"], hist["csvm_final"]), (1, 1));
        assert!(!hist.contains_key("csvm_merge"));
        let (x, y) = blobs(20, 2.0, 7);
        assert_eq!(ds.shape(), x.shape());
        assert_same_model(
            &rt.wait(model.model),
            &fit_svc(&x, &y, &SvcParams::default()),
        );
    }

    fn assert_same_model(a: &SvcModel, b: &SvcModel) {
        assert_eq!(a.support_vectors, b.support_vectors);
        assert_eq!(a.support_labels, b.support_labels);
        assert_eq!(a.dual_coef, b.dual_coef);
        assert_eq!(a.intercept, b.intercept);
    }

    #[test]
    fn root_model_is_fit_svc_on_its_childrens_support_vectors() {
        let (rt, model, _ds, _dl) = fit_demo(30, 2);
        let (x, y) = blobs(30, 2.0, 7);
        let svc = SvcParams::default();
        let lo = fit_svc(&x.slice_rows(0, 30), &y[..30], &svc);
        let hi = fit_svc(&x.slice_rows(30, 60), &y[30..], &svc);
        let labels = [&lo.support_labels[..], &hi.support_labels[..]].concat();
        let want = fit_svc(
            &lo.support_vectors.vstack(&hi.support_vectors),
            &labels,
            &svc,
        );
        assert_same_model(&rt.wait(model.model), &want);
    }

    #[test]
    fn threaded_cascade_matches_inline_bit_for_bit() {
        let (x, y) = blobs(45, 1.0, 13);
        let fit = |rt: &Runtime| {
            let ds = DsArray::from_matrix(rt, &x, 15, x.cols());
            let dl = DsLabels::from_slice(rt, &y, 15);
            let params = CascadeSvmParams {
                cascade_iterations: 2,
                ..Default::default()
            };
            SvcModel::clone(&rt.wait(CascadeSvm::fit(rt, &ds, &dl, params).model))
        };
        assert_same_model(&fit(&Runtime::threaded(3)), &fit(&Runtime::new()));
    }

    #[test]
    fn multiple_iterations_add_refit_layer() {
        let rt = Runtime::new();
        let (x, y) = blobs(40, 2.0, 8);
        let ds = DsArray::from_matrix(&rt, &x, 20, x.cols());
        let dl = DsLabels::from_slice(&rt, &y, 20);
        let params = CascadeSvmParams {
            cascade_iterations: 2,
            ..Default::default()
        };
        let model = CascadeSvm::fit(&rt, &ds, &dl, params);
        let hist = rt.trace().task_histogram();
        assert_eq!(hist["csvm_refit"], 4);
        let (c, t) = *rt.wait(model.score(&rt, &ds, &dl));
        assert!(c as f64 / t as f64 > 0.9);
    }

    #[test]
    fn convergence_criterion_stops_early() {
        let rt = Runtime::new();
        let (x, y) = blobs(40, 2.5, 12);
        let ds = DsArray::from_matrix(&rt, &x, 20, x.cols());
        let dl = DsLabels::from_slice(&rt, &y, 20);
        // Well-separated blobs: the SV set stabilizes immediately, so a
        // loose tolerance must cut the 5 requested iterations short.
        let params = CascadeSvmParams {
            cascade_iterations: 5,
            convergence_tol: Some(0.5),
            ..Default::default()
        };
        let model = CascadeSvm::fit(&rt, &ds, &dl, params);
        let _ = rt.wait(model.model);
        let with_conv = rt.trace().task_histogram()["csvm_refit"];

        let rt2 = Runtime::new();
        let ds2 = DsArray::from_matrix(&rt2, &x, 20, x.cols());
        let dl2 = DsLabels::from_slice(&rt2, &y, 20);
        let params = CascadeSvmParams {
            cascade_iterations: 5,
            convergence_tol: None,
            ..Default::default()
        };
        let _ = CascadeSvm::fit(&rt2, &ds2, &dl2, params);
        let without = rt2.trace().task_histogram()["csvm_refit"];
        assert!(
            with_conv < without,
            "expected early stop: {with_conv} vs {without} refit tasks"
        );
    }

    #[test]
    fn predictions_align_with_blocks() {
        let (rt, model, ds, _dl) = fit_demo(30, 3);
        let preds = model.predict(&rt, &ds);
        assert_eq!(preds.len(), ds.n_row_blocks());
        let total: usize = preds.iter().map(|&p| rt.wait(p).len()).sum();
        assert_eq!(total, 60);
    }

    #[test]
    fn single_class_block_passes_through() {
        // Craft labels so one block is all-positive; the cascade must
        // still converge because merges re-balance.
        let rt = Runtime::new();
        let (x, mut y) = blobs(20, 2.5, 9);
        // Sort labels so the first block is single-class.
        y.sort_unstable_by_key(|&l| l);
        let ds = DsArray::from_matrix(&rt, &x, 10, x.cols());
        let dl = DsLabels::from_slice(&rt, &y, 10);
        let model = CascadeSvm::fit(&rt, &ds, &dl, CascadeSvmParams::default());
        let _ = rt.wait(model.model); // must not panic
    }

    #[test]
    fn cores_recorded_for_simulator() {
        let (rt, _m, _ds, _dl) = fit_demo(20, 2);
        let trace = rt.trace();
        let fit_rec = trace.records.iter().find(|r| r.name == "csvm_fit").unwrap();
        assert_eq!(fit_rec.cores, 8);
    }
}
