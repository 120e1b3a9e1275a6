//! K-nearest-neighbours classification (paper §III-C2, Figs. 5–6).
//!
//! Mirrors the dislib structure: `fit` "launches a fit from the
//! scikit-learn NN into each row block" — here a `knn_fit` task per row
//! block that materializes the block as a searchable structure — and
//! `predict` "makes a task per block in the row axis": each test block
//! queries every model block (`knn_query`), candidate neighbour sets are
//! merged pairwise (`knn_merge`), and a final `knn_vote` task applies
//! the uniform- or distance-weighted vote.

use dsarray::{tree_reduce, DsArray, DsLabels};
use linalg::{pairwise_sq_dists, Matrix};
use taskrt::{Handle, Payload, Runtime};

/// Prediction weighting (the paper's parameter (2)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weights {
    /// All neighbours count equally.
    Uniform,
    /// Neighbours weighted by inverse distance.
    Distance,
}

/// KNN hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct KnnParams {
    /// Number of neighbours per query (the paper's parameter (1)).
    pub k: usize,
    /// Vote weighting.
    pub weights: Weights,
    /// Cores per task in the simulator (paper configuration: 4 cores,
    /// 12 tasks per node).
    pub task_cores: u32,
}

impl Default for KnnParams {
    fn default() -> Self {
        Self {
            k: 5,
            weights: Weights::Uniform,
            task_cores: 4,
        }
    }
}

/// Candidate neighbours for a block of query rows: for each query row,
/// up to `k` `(distance_sq, label)` pairs sorted ascending by distance.
#[derive(Debug, Clone)]
pub struct Neighbors {
    /// `cand[q]` = sorted candidate list for query row `q`.
    pub cand: Vec<Vec<(f64, u8)>>,
    /// k requested.
    pub k: usize,
}

impl Payload for Neighbors {
    fn approx_bytes(&self) -> usize {
        self.cand.iter().map(|c| c.len() * 9 + 24).sum::<usize>() + 16
    }
}

/// Merges two candidate sets keeping the `k` nearest per query row.
fn merge_neighbors(a: &Neighbors, b: &Neighbors) -> Neighbors {
    assert_eq!(a.cand.len(), b.cand.len(), "query count mismatch in merge");
    let k = a.k;
    let cand = a
        .cand
        .iter()
        .zip(&b.cand)
        .map(|(ca, cb)| {
            let mut merged = Vec::with_capacity(k);
            let (mut i, mut j) = (0, 0);
            while merged.len() < k && (i < ca.len() || j < cb.len()) {
                let take_a = match (ca.get(i), cb.get(j)) {
                    (Some(x), Some(y)) => x.0 <= y.0,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                if take_a {
                    merged.push(ca[i]);
                    i += 1;
                } else {
                    merged.push(cb[j]);
                    j += 1;
                }
            }
            merged
        })
        .collect();
    Neighbors { cand, k }
}

/// A fitted distributed KNN model.
pub struct KnnClassifier {
    parts: Vec<Handle<(Matrix, Vec<u8>)>>,
    params: KnnParams,
}

impl KnnClassifier {
    /// Fits the model: one `knn_fit` task per row block (parallelism
    /// bounded by the number of row blocks, as the paper notes).
    pub fn fit(rt: &Runtime, x: &DsArray, y: &DsLabels, params: KnnParams) -> Self {
        assert_eq!(x.n_row_blocks(), y.n_parts(), "partition mismatch");
        assert!(params.k >= 1, "k must be at least 1");
        let parts = x
            .row_bands(rt)
            .into_iter()
            .enumerate()
            .map(|(i, band)| {
                rt.task("knn_fit").cores(params.task_cores).run2(
                    band,
                    y.part(i),
                    |m: &Matrix, labels: &Vec<u8>| (m.clone(), labels.clone()),
                )
            })
            .collect();
        KnnClassifier { parts, params }
    }

    /// Predicts one label per row of the blocked query set; one task
    /// pipeline per query block.
    pub fn predict(&self, rt: &Runtime, x: &DsArray) -> Vec<Handle<Vec<u8>>> {
        x.row_bands(rt)
            .into_iter()
            .map(|qband| self.predict_band(rt, qband))
            .collect()
    }

    /// Prediction pipeline for one query band.
    fn predict_band(&self, rt: &Runtime, qband: Handle<Matrix>) -> Handle<Vec<u8>> {
        let k = self.params.k;
        let candidates: Vec<Handle<Neighbors>> = self
            .parts
            .iter()
            .map(|&part| {
                rt.task("knn_query").cores(self.params.task_cores).run2(
                    part,
                    qband,
                    move |model: &(Matrix, Vec<u8>), q: &Matrix| query_block(model, q, k),
                )
            })
            .collect();
        let merged = tree_reduce(rt, "knn_merge", &candidates, merge_neighbors);
        let weights = self.params.weights;
        rt.task("knn_vote")
            .cores(self.params.task_cores)
            .run1(merged, move |nb: &Neighbors| vote(nb, weights))
    }

    /// Accuracy over a labeled blocked test set, reduced to
    /// `(correct, total)`.
    pub fn score(&self, rt: &Runtime, x: &DsArray, y: &DsLabels) -> Handle<(u64, u64)> {
        assert_eq!(x.n_row_blocks(), y.n_parts());
        let partials: Vec<Handle<(u64, u64)>> = x
            .row_bands(rt)
            .into_iter()
            .enumerate()
            .map(|(i, qband)| {
                let pred = self.predict_band(rt, qband);
                rt.task("knn_score")
                    .run2(pred, y.part(i), |p: &Vec<u8>, t: &Vec<u8>| {
                        let correct = p.iter().zip(t).filter(|(a, b)| a == b).count() as u64;
                        (correct, t.len() as u64)
                    })
            })
            .collect();
        tree_reduce(rt, "knn_score_reduce", &partials, |a, b| {
            (a.0 + b.0, a.1 + b.1)
        })
    }
}

/// Brute-force k-nearest search of a query block against one model block.
///
/// Distances for the whole block come from one blocked GEMM
/// ([`pairwise_sq_dists`]) instead of a per-pair subtract-square pass;
/// a query row identical to a model row still scores exactly `0.0`.
fn query_block(model: &(Matrix, Vec<u8>), q: &Matrix, k: usize) -> Neighbors {
    let (mx, my) = model;
    let d2 = pairwise_sq_dists(q, mx);
    let cand = (0..q.rows())
        .map(|r| {
            let mut dists: Vec<(f64, u8)> = d2
                .row(r)
                .iter()
                .zip(my)
                .map(|(&d, &label)| (d, label))
                .collect();
            dists.sort_by(|a, b| a.0.total_cmp(&b.0));
            dists.truncate(k);
            dists
        })
        .collect();
    Neighbors { cand, k }
}

/// Applies the (weighted) majority vote per query row.
fn vote(nb: &Neighbors, weights: Weights) -> Vec<u8> {
    nb.cand
        .iter()
        .map(|c| {
            let mut w = [0.0f64; 2];
            for &(d, label) in c {
                let weight = match weights {
                    Weights::Uniform => 1.0,
                    Weights::Distance => 1.0 / (d.sqrt() + 1e-12),
                };
                w[label as usize] += weight;
            }
            u8::from(w[1] > w[0])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::blobs;

    fn setup(
        n: usize,
        blocks: usize,
        params: KnnParams,
    ) -> (Runtime, KnnClassifier, DsArray, DsLabels) {
        let rt = Runtime::new();
        let (x, y) = blobs(n, 2.0, 21);
        let rb = x.rows().div_ceil(blocks);
        let ds = DsArray::from_matrix(&rt, &x, rb, x.cols());
        let dl = DsLabels::from_slice(&rt, &y, rb);
        let model = KnnClassifier::fit(&rt, &ds, &dl, params);
        (rt, model, ds, dl)
    }

    #[test]
    fn classifies_blobs() {
        let (rt, model, ds, dl) = setup(40, 4, KnnParams::default());
        let (c, t) = *rt.wait(model.score(&rt, &ds, &dl));
        assert_eq!(t, 80);
        assert!(c as f64 / t as f64 > 0.95, "acc={}", c as f64 / t as f64);
    }

    #[test]
    fn single_neighbor_on_train_is_perfect() {
        let params = KnnParams {
            k: 1,
            ..Default::default()
        };
        let (rt, model, ds, dl) = setup(25, 3, params);
        let (c, t) = *rt.wait(model.score(&rt, &ds, &dl));
        assert_eq!(c, t, "1-NN on its own training set must be exact");
    }

    #[test]
    fn distance_weighting_beats_ties() {
        // k=2 with one close and one far neighbour of opposite classes:
        // distance weighting must pick the close one.
        let nb = Neighbors {
            cand: vec![vec![(0.01, 1), (4.0, 0)]],
            k: 2,
        };
        assert_eq!(vote(&nb, Weights::Distance), vec![1]);
        // Uniform vote ties at 1-1 and falls to class 0 by convention.
        assert_eq!(vote(&nb, Weights::Uniform), vec![0]);
    }

    #[test]
    fn merge_keeps_global_nearest() {
        let a = Neighbors {
            cand: vec![vec![(1.0, 0), (3.0, 0)]],
            k: 2,
        };
        let b = Neighbors {
            cand: vec![vec![(0.5, 1), (2.0, 1)]],
            k: 2,
        };
        let m = merge_neighbors(&a, &b);
        assert_eq!(m.cand[0], vec![(0.5, 1), (1.0, 0)]);
    }

    #[test]
    fn merge_handles_short_candidate_lists() {
        let a = Neighbors {
            cand: vec![vec![(1.0, 0)]],
            k: 3,
        };
        let b = Neighbors {
            cand: vec![vec![(0.5, 1)]],
            k: 3,
        };
        let m = merge_neighbors(&a, &b);
        assert_eq!(m.cand[0].len(), 2);
    }

    #[test]
    fn task_structure_per_band() {
        let (rt, model, ds, _dl) = setup(40, 4, KnnParams::default());
        let before = rt.trace().task_histogram();
        assert_eq!(before["knn_fit"], 4);
        let _pred = model.predict(&rt, &ds);
        let hist = rt.trace().task_histogram();
        // Each of the 4 query bands queries 4 model parts.
        assert_eq!(hist["knn_query"], 16);
        assert_eq!(hist["knn_merge"], 12); // 3 per band
        assert_eq!(hist["knn_vote"], 4);
    }

    #[test]
    fn works_when_k_exceeds_block_size() {
        let params = KnnParams {
            k: 7,
            ..Default::default()
        };
        let (rt, model, ds, dl) = setup(10, 5, params); // blocks of 4 rows
        let (c, t) = *rt.wait(model.score(&rt, &ds, &dl));
        assert_eq!(t, 20);
        assert!(c > 10);
    }
}
