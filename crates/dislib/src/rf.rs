//! Random Forest classification (paper §III-C3, Figs. 7–8).
//!
//! dislib's RF "is the only algorithm in dislib in which the number of
//! blocks and their size does not have a direct impact on the
//! computational time and number of tasks created during its training;
//! its parallelism is based on the number of estimators and the
//! parameter `distr_depth`". This module reproduces that structure:
//!
//! * `distr_depth == 0`: one `rf_build_tree` task per estimator.
//! * `distr_depth > 0`: per estimator, one `rf_top` task builds the tree
//!   down to `distr_depth` and emits `2^distr_depth` sample partitions;
//!   one `rf_subtree` task per partition grows the remainder; one
//!   `rf_join` task grafts the subtrees back. This is what lets a single
//!   tree span multiple workers — and also what produces the load
//!   imbalance the paper blames for RF's poor scalability ("the division
//!   of the data on the different decision trees can cause some tasks
//!   handle considerably more data than other").

use linalg::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use taskrt::{Handle, Payload, Runtime};

/// Sentinel: node is a leaf.
const LEAF: u32 = u32::MAX;
/// Sentinel: node is an unexpanded frontier slot (only inside the
/// partial trees produced by `rf_top`).
const FRONTIER: u32 = u32::MAX - 1;

/// One node of a CART decision tree (arena representation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// Split feature index; for `FRONTIER` nodes this is the partition
    /// slot index instead.
    pub feature: u32,
    /// Split threshold (`x[feature] <= threshold` goes left).
    pub threshold: f64,
    /// Arena index of the left child, or `LEAF` / `FRONTIER`.
    pub left: u32,
    /// Arena index of the right child (valid only for split nodes).
    pub right: u32,
    /// Class probability distribution at this node `[P(Normal), P(AF)]`.
    pub probs: [f64; 2],
}

/// A decision tree stored as a node arena; index 0 is the root.
#[derive(Debug, Clone, Default)]
pub struct Tree {
    /// Arena of nodes.
    pub nodes: Vec<Node>,
}

impl Payload for Tree {
    fn approx_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>() + std::mem::size_of::<Self>()
    }
}

impl Tree {
    /// Probability distribution predicted for one sample row.
    pub fn predict_probs(&self, row: &[f64]) -> [f64; 2] {
        let mut i = 0usize;
        loop {
            let n = &self.nodes[i];
            if n.left == LEAF {
                return n.probs;
            }
            debug_assert_ne!(n.left, FRONTIER, "predicting on a partial tree");
            i = if row[n.feature as usize] <= n.threshold {
                n.left as usize
            } else {
                n.right as usize
            };
        }
    }

    /// Hard label for one sample.
    pub fn predict_one(&self, row: &[f64]) -> u8 {
        let p = self.predict_probs(row);
        u8::from(p[1] > p[0])
    }

    /// Tree depth (longest root-to-leaf path; 0 for a lone leaf).
    pub fn depth(&self) -> usize {
        fn walk(t: &Tree, i: usize) -> usize {
            let n = &t.nodes[i];
            if n.left == LEAF || n.left == FRONTIER {
                0
            } else {
                1 + walk(t, n.left as usize).max(walk(t, n.right as usize))
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(self, 0)
        }
    }

    fn frontier_slots(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.left == FRONTIER)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Output of an `rf_top` task: a partial tree whose frontier leaves each
/// own a sample partition.
#[derive(Debug, Clone)]
pub struct TopSplit {
    /// Partial tree with `FRONTIER` leaves.
    pub tree: Tree,
    /// `partitions[slot]` = bootstrap sample indices reaching that slot.
    pub partitions: Vec<Vec<u32>>,
}

impl Payload for TopSplit {
    fn approx_bytes(&self) -> usize {
        self.tree.approx_bytes()
            + self
                .partitions
                .iter()
                .map(|p| p.len() * 4 + 24)
                .sum::<usize>()
    }
}

/// Random-forest hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct RfParams {
    /// Number of trees (paper: 40).
    pub n_estimators: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Depth down to which tree construction is split into separate
    /// tasks (dislib's `distr_depth`).
    pub distr_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// `sqrt` feature subsampling is always on (standard RF); this seed
    /// drives bootstrap + feature sampling.
    pub seed: u64,
    /// Cores per task in the simulator.
    pub task_cores: u32,
}

impl Default for RfParams {
    fn default() -> Self {
        Self {
            n_estimators: 40,
            max_depth: 12,
            distr_depth: 0,
            min_samples_split: 4,
            seed: 0,
            task_cores: 1,
        }
    }
}

/// Gini impurity of a label multiset given counts.
fn gini(counts: &[usize; 2]) -> f64 {
    let n = (counts[0] + counts[1]) as f64;
    if n == 0.0 {
        return 0.0;
    }
    let p0 = counts[0] as f64 / n;
    let p1 = counts[1] as f64 / n;
    1.0 - p0 * p0 - p1 * p1
}

fn leaf_probs(counts: &[usize; 2]) -> [f64; 2] {
    let n = (counts[0] + counts[1]).max(1) as f64;
    [counts[0] as f64 / n, counts[1] as f64 / n]
}

/// The forest-wide pre-sort: for every feature, the training rows in
/// ascending value order (stable, so ties keep row order). Computed
/// once per [`RandomForest::fit`] by the `rf_presort` task and shared
/// by every tree task — all trees sort the same matrix, only their
/// bootstraps differ, and a bootstrap's order falls out of this one in
/// O(rows) per feature (see [`SplitScratch::ensure_order`]).
#[derive(Debug, Clone)]
pub struct Presort {
    n_rows: usize,
    /// `order[f * n_rows..][..n_rows]`: row indices sorted by feature `f`.
    order: Vec<u32>,
}

impl Payload for Presort {
    fn approx_bytes(&self) -> usize {
        self.order.len() * 4 + std::mem::size_of::<Self>()
    }
}

impl Presort {
    /// Argsorts every column of `x`.
    pub fn new(x: &Matrix) -> Self {
        let n = x.rows();
        let mut order = Vec::with_capacity(n * x.cols());
        for f in 0..x.cols() {
            let col = x.col(f);
            let start = order.len();
            order.extend(0..n as u32);
            order[start..].sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
        }
        Self { n_rows: n, order }
    }

    fn feature(&self, f: usize) -> &[u32] {
        &self.order[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// Per-tree scratch for the pre-sorted split finder: the bootstrap
/// rows, a lazily-built per-feature value order of the bootstrap
/// *positions*, and an epoch-stamped membership mark that filters a
/// feature's tree-wide order down to the current node without sorting.
struct SplitScratch<'a> {
    /// The forest-wide row order the tree's own orders derive from.
    pre: &'a Presort,
    /// Bootstrap sample rows; all position indices index into this.
    rows: Vec<u32>,
    /// CSR map training row → the bootstrap positions holding it:
    /// `members[starts[r]..starts[r + 1]]`, ascending.
    starts: Vec<u32>,
    members: Vec<u32>,
    /// `order[f]`: positions `0..rows.len()` in ascending order of
    /// `x[rows[pos]][f]`, paired with the matching value sequence
    /// (`sorted_vals[i]` = value of `order[i]`, so the filter sweep
    /// reads both sequentially instead of re-gathering from the
    /// matrix); built on first use of feature `f` and reused by every
    /// later node of the tree that samples `f`.
    order: Vec<Option<(Vec<u32>, Vec<f64>)>>,
    /// `labels[pos]` = `y[rows[pos]]`, cached once per tree.
    labels: Vec<u8>,
    /// `mark[pos] == epoch` iff `pos` belongs to the node being split.
    mark: Vec<u32>,
    epoch: u32,
    /// Gather buffer for the local-sort fallback on small nodes.
    vals: Vec<(f64, u8)>,
}

impl<'a> SplitScratch<'a> {
    fn new(rows: Vec<u32>, y: &[u8], pre: &'a Presort, n_feat: usize) -> Self {
        let n = rows.len();
        let labels = rows.iter().map(|&r| y[r as usize]).collect();
        let mut starts = vec![0u32; pre.n_rows + 1];
        for &r in &rows {
            starts[r as usize + 1] += 1;
        }
        for r in 0..pre.n_rows {
            starts[r + 1] += starts[r];
        }
        let mut next = starts.clone();
        let mut members = vec![0u32; n];
        for (p, &r) in rows.iter().enumerate() {
            members[next[r as usize] as usize] = p as u32;
            next[r as usize] += 1;
        }
        Self {
            pre,
            rows,
            starts,
            members,
            order: vec![None; n_feat],
            labels,
            mark: vec![0; n],
            epoch: 0,
            vals: Vec::new(),
        }
    }

    /// Builds (once) the value order of feature `f` over the bootstrap
    /// positions without sorting: walk the forest-wide row order and
    /// emit each row's positions. Tied values come out grouped by row
    /// rather than by position; the sweep only aggregates label counts
    /// across a tie group, so within-tie order never affects the
    /// chosen split.
    fn ensure_order(&mut self, x: &Matrix, f: usize) {
        if self.order[f].is_none() {
            let n = self.rows.len();
            let (mut ord, mut sorted_vals) = (Vec::with_capacity(n), Vec::with_capacity(n));
            for &r in self.pre.feature(f) {
                let r = r as usize;
                let held = &self.members[self.starts[r] as usize..self.starts[r + 1] as usize];
                if !held.is_empty() {
                    ord.extend_from_slice(held);
                    sorted_vals.resize(ord.len(), x.get(r, f));
                }
            }
            self.order[f] = Some((ord, sorted_vals));
        }
    }
}

/// Streaming threshold sweep over `(value, label)` pairs arriving in
/// ascending value order: evaluates a candidate threshold at every
/// distinct-value boundary, exactly as the seed splitter's indexed loop
/// does (same counts, same `0.5 * (prev + next)` thresholds, same
/// strict-improvement tie-breaking), updating `best` in place.
fn sweep_sorted(
    iter: impl Iterator<Item = (f64, u8)>,
    total: &[usize; 2],
    f: u32,
    best: &mut Option<(f64, u32, f64)>,
) {
    let mut left = [0usize; 2];
    let mut prev: Option<f64> = None;
    for (v, lab) in iter {
        if let Some(pv) = prev {
            if v != pv {
                let right = [total[0] - left[0], total[1] - left[1]];
                let nl = (left[0] + left[1]) as f64;
                let nr = (right[0] + right[1]) as f64;
                let score = (nl * gini(&left) + nr * gini(&right)) / (nl + nr);
                let thr = 0.5 * (pv + v);
                if best.is_none_or(|(s, _, _)| score < s) {
                    *best = Some((score, f, thr));
                }
            }
        }
        left[lab as usize] += 1;
        prev = Some(v);
    }
}

fn class_counts_pos(y: &[u8], rows: &[u32], pos: &[u32]) -> [usize; 2] {
    let mut c = [0usize; 2];
    for &p in pos {
        c[y[rows[p as usize] as usize] as usize] += 1;
    }
    c
}

/// The split finder: same split decisions as the per-node re-sorting
/// splitter it replaced (identical scores, thresholds, and tie-breaks,
/// hence identical trees — the test-only `best_split` oracle), but
/// instead of re-sorting the node's samples per feature it filters the
/// tree-wide pre-sorted order through the node-membership mark — O(n)
/// per feature with no sort. Small nodes (where a full-bootstrap scan
/// would cost more than sorting the handful of samples) fall back to
/// the gather-and-sort sweep over a reused buffer. Operates on
/// *positions* into `sc.rows`; returns position partitions.
fn best_split_fast(
    x: &Matrix,
    y: &[u8],
    sc: &mut SplitScratch<'_>,
    pos: &[u32],
    rng: &mut StdRng,
) -> Option<(u32, f64, Vec<u32>, Vec<u32>)> {
    let n_feat = x.cols();
    let n_try = (n_feat as f64).sqrt().ceil() as usize;
    let parent_counts = class_counts_pos(y, &sc.rows, pos);
    let parent_gini = gini(&parent_counts);
    if parent_gini == 0.0 {
        return None;
    }

    // Filtering scans all `n` bootstrap positions; local sorting costs
    // ~`m log m` comparator calls for the node's `m` samples. A filter
    // step (sequential u32 compare) is several times cheaper than a
    // sort comparison, hence the factor on the `m log m` side. Filter
    // only while the node is a large enough fraction of the bootstrap
    // to win. A subtree's bootstrap is a partition of the forest's rows,
    // and building a feature's order walks all of those.
    let n = sc.rows.len().max(x.rows());
    let m = pos.len();
    let use_filter = 4 * m * (usize::BITS - m.leading_zeros()) as usize >= n;
    if use_filter {
        if sc.epoch == u32::MAX {
            sc.mark.fill(0);
            sc.epoch = 0;
        }
        sc.epoch += 1;
        for &p in pos {
            sc.mark[p as usize] = sc.epoch;
        }
    }

    let mut best: Option<(f64, u32, f64)> = None;
    for _ in 0..n_try {
        let f = rng.random_range(0..n_feat);
        if use_filter {
            sc.ensure_order(x, f);
            let (ord, sv) = sc.order[f].as_ref().expect("order just built");
            let (labels, mark, epoch) = (&sc.labels, &sc.mark, sc.epoch);
            let node_sorted = ord
                .iter()
                .zip(sv)
                .filter(|(&p, _)| mark[p as usize] == epoch)
                .map(|(&p, &v)| (v, labels[p as usize]));
            sweep_sorted(node_sorted, &parent_counts, f as u32, &mut best);
        } else {
            let (vals, rows) = (&mut sc.vals, &sc.rows);
            vals.clear();
            vals.extend(pos.iter().map(|&p| {
                let r = rows[p as usize] as usize;
                (x.get(r, f), y[r])
            }));
            vals.sort_by(|a, b| a.0.total_cmp(&b.0));
            sweep_sorted(vals.iter().copied(), &parent_counts, f as u32, &mut best);
        }
    }

    let (score, feature, threshold) = best?;
    if score >= parent_gini - 1e-12 {
        return None;
    }
    let (mut li, mut ri) = (Vec::new(), Vec::new());
    for &p in pos {
        if x.get(sc.rows[p as usize] as usize, feature as usize) <= threshold {
            li.push(p);
        } else {
            ri.push(p);
        }
    }
    if li.is_empty() || ri.is_empty() {
        return None;
    }
    Some((feature, threshold, li, ri))
}

/// Recursively grows a subtree into `arena` over bootstrap
/// *positions* with the pre-sorted splitter, returning its root index.
#[allow(clippy::too_many_arguments)]
fn grow_fast(
    arena: &mut Vec<Node>,
    x: &Matrix,
    y: &[u8],
    sc: &mut SplitScratch<'_>,
    pos: &[u32],
    depth: usize,
    params: &RfParams,
    rng: &mut StdRng,
    stop_depth: Option<usize>,
) -> u32 {
    let counts = class_counts_pos(y, &sc.rows, pos);
    let probs = leaf_probs(&counts);
    let me = arena.len() as u32;
    arena.push(Node {
        feature: 0,
        threshold: 0.0,
        left: LEAF,
        right: 0,
        probs,
    });

    if let Some(sd) = stop_depth {
        if depth == sd {
            arena[me as usize].left = FRONTIER;
            return me;
        }
    }
    if depth >= params.max_depth || pos.len() < params.min_samples_split {
        return me;
    }
    let Some((feature, threshold, li, ri)) = best_split_fast(x, y, sc, pos, rng) else {
        return me;
    };
    let l = grow_fast(arena, x, y, sc, &li, depth + 1, params, rng, stop_depth);
    let r = grow_fast(arena, x, y, sc, &ri, depth + 1, params, rng, stop_depth);
    let n = &mut arena[me as usize];
    n.feature = feature;
    n.threshold = threshold;
    n.left = l;
    n.right = r;
    me
}

/// Draws a bootstrap sample of `n` indices.
fn bootstrap(n: usize, rng: &mut StdRng) -> Vec<u32> {
    (0..n).map(|_| rng.random_range(0..n) as u32).collect()
}

/// Builds one full tree locally (the `distr_depth == 0` path), using
/// the pre-sorted split finder over the forest-wide `pre`sort of `x`.
pub fn build_tree(x: &Matrix, y: &[u8], pre: &Presort, params: &RfParams, est_seed: u64) -> Tree {
    let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(est_seed));
    let rows = bootstrap(x.rows(), &mut rng);
    let pos: Vec<u32> = (0..rows.len() as u32).collect();
    let mut sc = SplitScratch::new(rows, y, pre, x.cols());
    let mut arena = Vec::new();
    grow_fast(&mut arena, x, y, &mut sc, &pos, 0, params, &mut rng, None);
    Tree { nodes: arena }
}

/// Builds the top of a tree down to `distr_depth` and collects the
/// sample partition for each frontier slot.
pub fn build_top(
    x: &Matrix,
    y: &[u8],
    pre: &Presort,
    params: &RfParams,
    est_seed: u64,
) -> TopSplit {
    let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(est_seed));
    let rows = bootstrap(x.rows(), &mut rng);
    let pos: Vec<u32> = (0..rows.len() as u32).collect();
    let mut sc = SplitScratch::new(rows, y, pre, x.cols());
    let mut arena = Vec::new();
    grow_fast(
        &mut arena,
        x,
        y,
        &mut sc,
        &pos,
        0,
        params,
        &mut rng,
        Some(params.distr_depth),
    );
    route_to_frontier(Tree { nodes: arena }, x, &sc.rows)
}

/// Routes every bootstrap sample of a partial tree to its frontier
/// slot and tags each frontier node with its slot index.
fn route_to_frontier(mut tree: Tree, x: &Matrix, idx: &[u32]) -> TopSplit {
    let slots = tree.frontier_slots();
    let slot_of = |row: &[f64]| -> usize {
        let mut i = 0usize;
        loop {
            let n = &tree.nodes[i];
            if n.left == LEAF || n.left == FRONTIER {
                return i;
            }
            i = if row[n.feature as usize] <= n.threshold {
                n.left as usize
            } else {
                n.right as usize
            };
        }
    };
    let mut partitions: Vec<Vec<u32>> = vec![Vec::new(); slots.len()];
    for &i in idx {
        let node = slot_of(x.row(i as usize));
        if let Some(slot) = slots.iter().position(|&s| s == node) {
            partitions[slot].push(i);
        }
        // Samples ending in real leaves above the frontier need no
        // further growing.
    }
    for (slot, &node) in slots.iter().enumerate() {
        tree.nodes[node].feature = slot as u32;
    }
    TopSplit { tree, partitions }
}

/// Grows the subtree for frontier `slot` of a [`TopSplit`].
pub fn build_subtree(
    x: &Matrix,
    y: &[u8],
    pre: &Presort,
    top: &TopSplit,
    slot: usize,
    params: &RfParams,
    est_seed: u64,
) -> Tree {
    let mut rng = StdRng::seed_from_u64(
        params
            .seed
            .wrapping_add(est_seed)
            .wrapping_add(977 * slot as u64),
    );
    let idx = &top.partitions[slot];
    let mut arena = Vec::new();
    if idx.is_empty() {
        // Keep the parent's distribution.
        let slots = top.tree.frontier_slots();
        let probs = top.tree.nodes[slots[slot]].probs;
        arena.push(Node {
            feature: 0,
            threshold: 0.0,
            left: LEAF,
            right: 0,
            probs,
        });
    } else {
        let pos: Vec<u32> = (0..idx.len() as u32).collect();
        let mut sc = SplitScratch::new(idx.clone(), y, pre, x.cols());
        grow_fast(
            &mut arena,
            x,
            y,
            &mut sc,
            &pos,
            params.distr_depth,
            params,
            &mut rng,
            None,
        );
    }
    Tree { nodes: arena }
}

/// Grafts the subtrees into the partial tree, producing a complete tree.
pub fn join_tree(top: &TopSplit, subtrees: &[&Tree]) -> Tree {
    let mut tree = top.tree.clone();
    let slots = tree.frontier_slots();
    assert_eq!(slots.len(), subtrees.len(), "subtree count mismatch");
    for (&node, sub) in slots.iter().zip(subtrees) {
        let offset = tree.nodes.len() as u32;
        // Append subtree arena, fixing internal child indices.
        for n in &sub.nodes {
            let mut n = *n;
            if n.left != LEAF && n.left != FRONTIER {
                n.left += offset;
                n.right += offset;
            }
            tree.nodes.push(n);
        }
        // Replace the frontier node with the subtree root (copy root
        // into place so parent links stay valid).
        let mut root = tree.nodes[offset as usize];
        if root.left != LEAF && root.left == offset {
            // Root pointing at itself cannot happen; defensive.
            root.left = LEAF;
        }
        tree.nodes[node] = root;
    }
    tree
}

/// A fitted distributed random forest.
pub struct RandomForest {
    /// Trained trees.
    pub trees: Vec<Handle<Tree>>,
    params: RfParams,
}

impl RandomForest {
    /// Fits the forest on an (undistributed, as in dislib) dataset
    /// handle. Task structure depends on `distr_depth` (see module
    /// docs).
    pub fn fit(rt: &Runtime, x: Handle<Matrix>, y: Handle<Vec<u8>>, params: RfParams) -> Self {
        let pre = rt
            .task("rf_presort")
            .cores(params.task_cores)
            .run1(x, Presort::new);
        let trees = (0..params.n_estimators)
            .map(|est| {
                let est_seed = est as u64;
                if params.distr_depth == 0 {
                    rt.task("rf_build_tree").cores(params.task_cores).run3(
                        x,
                        y,
                        pre,
                        move |x: &Matrix, y: &Vec<u8>, pre: &Presort| {
                            build_tree(x, y, pre, &params, est_seed)
                        },
                    )
                } else {
                    let top = rt.task("rf_top").cores(params.task_cores).run3(
                        x,
                        y,
                        pre,
                        move |x: &Matrix, y: &Vec<u8>, pre: &Presort| {
                            build_top(x, y, pre, &params, est_seed)
                        },
                    );
                    let n_slots = 1usize << params.distr_depth;
                    let subtrees: Vec<Handle<Tree>> = (0..n_slots)
                        .map(|slot| {
                            rt.task("rf_subtree").cores(params.task_cores).run4(
                                x,
                                y,
                                pre,
                                top,
                                move |x: &Matrix, y: &Vec<u8>, pre: &Presort, top: &TopSplit| {
                                    if slot < top.partitions.len() {
                                        build_subtree(x, y, pre, top, slot, &params, est_seed)
                                    } else {
                                        // The top stopped early (pure
                                        // node); nothing to grow.
                                        Tree {
                                            nodes: vec![Node {
                                                feature: 0,
                                                threshold: 0.0,
                                                left: LEAF,
                                                right: 0,
                                                probs: [0.5, 0.5],
                                            }],
                                        }
                                    }
                                },
                            )
                        })
                        .collect();
                    rt.task("rf_join").cores(params.task_cores).run_with_many(
                        top,
                        &subtrees,
                        |top: &TopSplit, subs: &[&Tree]| {
                            join_tree(top, &subs[..top.partitions.len()])
                        },
                    )
                }
            })
            .collect();
        RandomForest { trees, params }
    }

    /// Averaged class probabilities over all trees for a query block:
    /// one `rf_predict` task per tree plus a reduction (the paper's
    /// Fig. 7: "the predictions of the composing estimators are
    /// averaged").
    pub fn predict_probs(&self, rt: &Runtime, x: Handle<Matrix>) -> Handle<Matrix> {
        let partials: Vec<Handle<Matrix>> = self
            .trees
            .iter()
            .map(|&t| {
                rt.task("rf_predict").cores(self.params.task_cores).run2(
                    t,
                    x,
                    |tree: &Tree, q: &Matrix| {
                        let mut out = Matrix::zeros(q.rows(), 2);
                        for r in 0..q.rows() {
                            out.row_mut(r)
                                .copy_from_slice(&tree.predict_probs(q.row(r)));
                        }
                        out
                    },
                )
            })
            .collect();
        let summed = dsarray::tree_reduce_inout(rt, "rf_reduce", &partials, Matrix::add_assign);
        let n = self.trees.len() as f64;
        rt.task("rf_average").run1(summed, move |m: &Matrix| {
            let mut out = m.clone();
            out.scale(1.0 / n);
            out
        })
    }

    /// Hard labels for a query block.
    pub fn predict(&self, rt: &Runtime, x: Handle<Matrix>) -> Handle<Vec<u8>> {
        let probs = self.predict_probs(rt, x);
        rt.task("rf_vote").run1(probs, |p: &Matrix| {
            (0..p.rows())
                .map(|r| u8::from(p.get(r, 1) > p.get(r, 0)))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::testutil::{blobs, blobs_nd};

    fn class_counts(y: &[u8], idx: &[u32]) -> [usize; 2] {
        let mut c = [0usize; 2];
        for &i in idx {
            c[y[i as usize] as usize] += 1;
        }
        c
    }

    /// Best (feature, threshold) among a random subset of `sqrt(n_features)`
    /// features, by weighted Gini; `None` if no split reduces impurity.
    ///
    /// The oracle splitter: it re-gathers and re-sorts the node's
    /// `(value, label)` pairs for every tried feature of every node.
    /// [`best_split_fast`] must make the same decisions.
    fn best_split(
        x: &Matrix,
        y: &[u8],
        idx: &[u32],
        rng: &mut StdRng,
    ) -> Option<(u32, f64, Vec<u32>, Vec<u32>)> {
        let n_feat = x.cols();
        let n_try = (n_feat as f64).sqrt().ceil() as usize;
        let parent_counts = class_counts(y, idx);
        let parent_gini = gini(&parent_counts);
        if parent_gini == 0.0 {
            return None;
        }

        let mut best: Option<(f64, u32, f64)> = None; // (score, feature, threshold)
        for _ in 0..n_try {
            let f = rng.random_range(0..n_feat);
            // Sort sample values along this feature.
            let mut vals: Vec<(f64, u8)> = idx
                .iter()
                .map(|&i| (x.get(i as usize, f), y[i as usize]))
                .collect();
            vals.sort_by(|a, b| a.0.total_cmp(&b.0));
            // Sweep thresholds between distinct consecutive values.
            let total = class_counts(y, idx);
            let mut left = [0usize; 2];
            for w in 0..vals.len() - 1 {
                left[vals[w].1 as usize] += 1;
                if vals[w].0 == vals[w + 1].0 {
                    continue;
                }
                let right = [total[0] - left[0], total[1] - left[1]];
                let nl = (left[0] + left[1]) as f64;
                let nr = (right[0] + right[1]) as f64;
                let score = (nl * gini(&left) + nr * gini(&right)) / (nl + nr);
                let thr = 0.5 * (vals[w].0 + vals[w + 1].0);
                if best.is_none_or(|(s, _, _)| score < s) {
                    best = Some((score, f as u32, thr));
                }
            }
        }

        let (score, feature, threshold) = best?;
        if score >= parent_gini - 1e-12 {
            return None;
        }
        let (mut li, mut ri) = (Vec::new(), Vec::new());
        for &i in idx {
            if x.get(i as usize, feature as usize) <= threshold {
                li.push(i);
            } else {
                ri.push(i);
            }
        }
        if li.is_empty() || ri.is_empty() {
            return None;
        }
        Some((feature, threshold, li, ri))
    }

    /// Recursively grows a subtree into `arena`, returning its root index.
    #[allow(clippy::too_many_arguments)]
    fn grow(
        arena: &mut Vec<Node>,
        x: &Matrix,
        y: &[u8],
        idx: &[u32],
        depth: usize,
        params: &RfParams,
        rng: &mut StdRng,
        stop_depth: Option<usize>,
    ) -> u32 {
        let counts = class_counts(y, idx);
        let probs = leaf_probs(&counts);
        let me = arena.len() as u32;
        arena.push(Node {
            feature: 0,
            threshold: 0.0,
            left: LEAF,
            right: 0,
            probs,
        });

        if let Some(sd) = stop_depth {
            if depth == sd {
                // Frontier slot: partition index assigned by the caller.
                arena[me as usize].left = FRONTIER;
                return me;
            }
        }
        if depth >= params.max_depth || idx.len() < params.min_samples_split {
            return me;
        }
        let Some((feature, threshold, li, ri)) = best_split(x, y, idx, rng) else {
            return me;
        };
        let l = grow(arena, x, y, &li, depth + 1, params, rng, stop_depth);
        let r = grow(arena, x, y, &ri, depth + 1, params, rng, stop_depth);
        let n = &mut arena[me as usize];
        n.feature = feature;
        n.threshold = threshold;
        n.left = l;
        n.right = r;
        me
    }

    /// [`build_tree`] via the per-node re-sorting splitter: the oracle
    /// [`build_tree`] must reproduce bit for bit.
    fn build_tree_legacy(x: &Matrix, y: &[u8], params: &RfParams, est_seed: u64) -> Tree {
        let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(est_seed));
        let idx = bootstrap(x.rows(), &mut rng);
        let mut arena = Vec::new();
        grow(&mut arena, x, y, &idx, 0, params, &mut rng, None);
        Tree { nodes: arena }
    }

    /// The `distr_depth > 0` path (top, subtrees, join) via the oracle
    /// splitter, with the seeds [`build_top`] / [`build_subtree`] use.
    fn build_distributed_legacy(x: &Matrix, y: &[u8], params: &RfParams, est_seed: u64) -> Tree {
        let seed = params.seed.wrapping_add(est_seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let idx = bootstrap(x.rows(), &mut rng);
        let mut arena = Vec::new();
        let stop = Some(params.distr_depth);
        grow(&mut arena, x, y, &idx, 0, params, &mut rng, stop);
        let top = route_to_frontier(Tree { nodes: arena }, x, &idx);
        let subs: Vec<Tree> = (0..top.partitions.len())
            .map(|slot| {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(977 * slot as u64));
                let mut arena = Vec::new();
                let part = &top.partitions[slot];
                assert!(!part.is_empty(), "a frontier slot holds its node's samples");
                grow(
                    &mut arena,
                    x,
                    y,
                    part,
                    params.distr_depth,
                    params,
                    &mut rng,
                    None,
                );
                Tree { nodes: arena }
            })
            .collect();
        join_tree(&top, &subs.iter().collect::<Vec<_>>())
    }

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[10, 0]), 0.0);
        assert!((gini(&[5, 5]) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[0, 0]), 0.0);
    }

    #[test]
    fn single_tree_fits_blobs() {
        let (x, y) = blobs(50, 2.0, 31);
        let params = RfParams {
            n_estimators: 1,
            ..Default::default()
        };
        let tree = build_tree(&x, &y, &Presort::new(&x), &params, 0);
        let pred: Vec<u8> = (0..x.rows()).map(|r| tree.predict_one(x.row(r))).collect();
        assert!(accuracy(&y, &pred) > 0.9);
        assert!(tree.depth() >= 1);
    }

    #[test]
    fn forest_beats_chance_on_noisy_data() {
        let rt = Runtime::new();
        let (x, y) = blobs_nd(60, 6, 1.0, 32);
        let xh = rt.put(x.clone());
        let yh = rt.put(y.clone());
        let params = RfParams {
            n_estimators: 15,
            ..Default::default()
        };
        let forest = RandomForest::fit(&rt, xh, yh, params);
        let pred = forest.predict(&rt, xh);
        let acc = accuracy(&y, &rt.wait(pred));
        assert!(acc > 0.85, "acc={acc}");
    }

    #[test]
    fn task_count_independent_of_blocks_depends_on_estimators() {
        let rt = Runtime::new();
        let (x, y) = blobs(20, 2.0, 33);
        let xh = rt.put(x);
        let yh = rt.put(y);
        let params = RfParams {
            n_estimators: 7,
            ..Default::default()
        };
        let _f = RandomForest::fit(&rt, xh, yh, params);
        let hist = rt.trace().task_histogram();
        assert_eq!(hist["rf_build_tree"], 7);
    }

    #[test]
    fn distr_depth_task_structure() {
        let rt = Runtime::new();
        let (x, y) = blobs(40, 2.0, 34);
        let xh = rt.put(x);
        let yh = rt.put(y);
        let params = RfParams {
            n_estimators: 3,
            distr_depth: 2,
            ..Default::default()
        };
        let _f = RandomForest::fit(&rt, xh, yh, params);
        let hist = rt.trace().task_histogram();
        assert_eq!(hist["rf_top"], 3);
        assert_eq!(hist["rf_subtree"], 3 * 4); // 2^2 per estimator
        assert_eq!(hist["rf_join"], 3);
    }

    #[test]
    fn distributed_tree_matches_quality_of_local() {
        let rt = Runtime::new();
        let (x, y) = blobs(60, 1.5, 35);
        let xh = rt.put(x.clone());
        let yh = rt.put(y.clone());
        let params = RfParams {
            n_estimators: 9,
            distr_depth: 2,
            ..Default::default()
        };
        let forest = RandomForest::fit(&rt, xh, yh, params);
        let pred = forest.predict(&rt, xh);
        let acc = accuracy(&y, &rt.wait(pred));
        assert!(acc > 0.9, "acc={acc}");
    }

    #[test]
    fn join_produces_complete_tree() {
        let (x, y) = blobs(40, 2.0, 36);
        let params = RfParams {
            distr_depth: 1,
            ..Default::default()
        };
        let pre = Presort::new(&x);
        let top = build_top(&x, &y, &pre, &params, 0);
        let n_slots = top.partitions.len();
        assert!(n_slots <= 2);
        let subs: Vec<Tree> = (0..n_slots)
            .map(|s| build_subtree(&x, &y, &pre, &top, s, &params, 0))
            .collect();
        let refs: Vec<&Tree> = subs.iter().collect();
        let tree = join_tree(&top, &refs);
        // No frontier slots remain.
        assert!(tree.frontier_slots().is_empty());
        // And it predicts sanely.
        let pred: Vec<u8> = (0..x.rows()).map(|r| tree.predict_one(x.row(r))).collect();
        assert!(accuracy(&y, &pred) > 0.8);
    }

    #[test]
    fn probs_are_distributions() {
        let rt = Runtime::new();
        let (x, y) = blobs(30, 2.0, 37);
        let xh = rt.put(x.clone());
        let yh = rt.put(y);
        let params = RfParams {
            n_estimators: 5,
            ..Default::default()
        };
        let forest = RandomForest::fit(&rt, xh, yh, params);
        let probs = rt.wait(forest.predict_probs(&rt, xh));
        for r in 0..probs.rows() {
            let s = probs.get(r, 0) + probs.get(r, 1);
            assert!((s - 1.0).abs() < 1e-9, "row {r} sums to {s}");
            assert!(probs.get(r, 0) >= 0.0 && probs.get(r, 1) >= 0.0);
        }
    }

    #[test]
    fn bootstrap_determinism() {
        let (x, y) = blobs(20, 2.0, 38);
        let params = RfParams::default();
        let a = build_tree(&x, &y, &Presort::new(&x), &params, 3);
        let b = build_tree(&x, &y, &Presort::new(&x), &params, 3);
        assert_eq!(a.nodes, b.nodes);
        let c = build_tree(&x, &y, &Presort::new(&x), &params, 4);
        assert_ne!(a.nodes, c.nodes);
    }

    #[test]
    fn fast_split_finder_matches_legacy_trees() {
        // Overlapping clusters force impure nodes at many depths, and
        // the high dimension exercises the lazy per-feature orders.
        for (n, d, spread, seed) in [
            (60usize, 2usize, 1.2, 40u64),
            (150, 8, 0.8, 41),
            (80, 5, 0.5, 42),
        ] {
            let (x, y) = blobs_nd(n, d, spread, seed);
            for est in 0..4u64 {
                let params = RfParams {
                    max_depth: 10,
                    min_samples_split: 2,
                    seed,
                    ..Default::default()
                };
                let fast = build_tree(&x, &y, &Presort::new(&x), &params, est);
                let legacy = build_tree_legacy(&x, &y, &params, est);
                assert_eq!(fast.nodes, legacy.nodes, "n={n} d={d} est={est}");
            }
        }
    }

    #[test]
    fn fast_split_finder_matches_legacy_with_duplicate_values() {
        // Quantized features create heavy value ties; the tie-group
        // aggregation of the streaming sweep must match the legacy
        // skip-equal-adjacent loop exactly.
        let (mut x, y) = blobs_nd(100, 4, 1.0, 43);
        for v in x.as_mut_slice() {
            *v = (*v * 4.0).round() / 4.0;
        }
        let params = RfParams {
            max_depth: 12,
            min_samples_split: 2,
            seed: 7,
            ..Default::default()
        };
        for est in 0..4u64 {
            let fast = build_tree(&x, &y, &Presort::new(&x), &params, est);
            let legacy = build_tree_legacy(&x, &y, &params, est);
            assert_eq!(fast.nodes, legacy.nodes, "est={est}");
        }
    }

    /// Features quantised to 8 levels: nearly every sweep step is
    /// inside a tie group, whose within-group order the shared presort
    /// changes (by row, not by bootstrap position).
    fn eight_level_blobs(n: usize, d: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let (mut x, y) = blobs_nd(n, d, 1.0, seed);
        for v in x.as_mut_slice() {
            *v = ((v.clamp(-2.0, 1.5) + 2.0) * 2.0).round();
        }
        (x, y)
    }

    #[test]
    fn shared_presort_trees_match_legacy_under_heavy_ties() {
        let (x, y) = eight_level_blobs(120, 6, 44);
        let levels: std::collections::BTreeSet<u64> =
            x.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(levels.len(), 8);
        let pre = Presort::new(&x);
        let params = RfParams {
            max_depth: 12,
            min_samples_split: 2,
            seed: 9,
            ..Default::default()
        };
        for est in 0..6u64 {
            let fast = build_tree(&x, &y, &pre, &params, est);
            let legacy = build_tree_legacy(&x, &y, &params, est);
            assert_eq!(fast.nodes, legacy.nodes, "est={est}");
        }
    }

    #[test]
    fn shared_presort_distributed_trees_match_legacy() {
        for (x, y) in [blobs_nd(150, 8, 0.8, 45), eight_level_blobs(150, 5, 46)] {
            let pre = Presort::new(&x);
            for distr_depth in 1..=3 {
                let params = RfParams {
                    max_depth: 10,
                    min_samples_split: 2,
                    distr_depth,
                    seed: 3,
                    ..Default::default()
                };
                for est in 0..3u64 {
                    let top = build_top(&x, &y, &pre, &params, est);
                    let subs: Vec<Tree> = (0..top.partitions.len())
                        .map(|s| build_subtree(&x, &y, &pre, &top, s, &params, est))
                        .collect();
                    let fast = join_tree(&top, &subs.iter().collect::<Vec<_>>());
                    let legacy = build_distributed_legacy(&x, &y, &params, est);
                    assert_eq!(fast.nodes, legacy.nodes, "depth={distr_depth} est={est}");
                }
            }
        }
    }

    #[test]
    fn threaded_forest_equals_inline_forest() {
        let (x, y) = eight_level_blobs(90, 6, 47);
        for distr_depth in [0usize, 2] {
            let params = RfParams {
                n_estimators: 8,
                distr_depth,
                seed: 5,
                ..Default::default()
            };
            let fit = |rt: &Runtime| {
                let (xh, yh) = (rt.put(x.clone()), rt.put(y.clone()));
                let forest = RandomForest::fit(rt, xh, yh, params);
                let trees: Vec<Vec<Node>> = forest
                    .trees
                    .iter()
                    .map(|&t| rt.wait(t).nodes.clone())
                    .collect();
                let probs = rt.wait(forest.predict_probs(rt, xh));
                (trees, probs.as_slice().to_vec())
            };
            let inline = fit(&Runtime::new());
            let threaded = fit(&Runtime::threaded(3));
            assert_eq!(inline, threaded, "distr_depth={distr_depth}");
            assert_eq!(
                inline.0[0],
                if distr_depth == 0 {
                    build_tree_legacy(&x, &y, &params, 0).nodes
                } else {
                    build_distributed_legacy(&x, &y, &params, 0).nodes
                }
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn prop_fast_trees_identical_to_legacy(
            n in 20usize..120,
            d in 1usize..7,
            seed in 0u64..1000,
            est in 0u64..8,
        ) {
            let spread = 0.4 + (seed % 5) as f64 * 0.4;
            let (mut x, y) = blobs_nd(n, d, spread, seed);
            if seed % 2 == 0 {
                for v in x.as_mut_slice() {
                    *v = (*v * 8.0).round() / 8.0;
                }
            }
            let params = RfParams {
                max_depth: 12,
                min_samples_split: 2,
                seed,
                ..Default::default()
            };
            let fast = build_tree(&x, &y, &Presort::new(&x), &params, est);
            let legacy = build_tree_legacy(&x, &y, &params, est);
            proptest::prop_assert_eq!(fast.nodes, legacy.nodes);
        }
    }
}
