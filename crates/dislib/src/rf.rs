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
//!
//! What the tasks share and what each owns: every fit starts with one
//! `rf_presort` task whose [`Presort`] — every row's rank in each
//! feature's value order — is the only sorted structure of the forest,
//! read by all of its tree tasks. A tree task (`rf_build_tree`,
//! `rf_top`, `rf_subtree`) owns its bootstrap as *weights* (how often
//! each row was drawn), the distinct in-bag rows, partitioned in place
//! so that a node is a sub-slice, and a few reused buffers. A candidate
//! split takes one path at any node size: the node's rows set their
//! ranks in a bitmap, draining it in ascending order yields the shared
//! order restricted to the node, and one vectorised loop scores every
//! threshold; no order is built per tree and nothing is allocated per
//! feature or node. The trees are bit-identical to the per-node
//! re-sorting CART the tests keep as their oracle.

use linalg::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::Range;
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
struct TopSplit {
    /// Partial tree with `FRONTIER` leaves.
    tree: Tree,
    /// `partitions[slot]` = bootstrap sample indices reaching that slot.
    partitions: Vec<Vec<u32>>,
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
    if counts[0] + counts[1] == 0 {
        return 0.0;
    }
    gini_of(counts.map(|c| c as f64))
}

/// [`gini`] of a non-empty multiset whose (weighted) counts are held as
/// `f64` — exact integers, so the same bits as the `usize` form — with
/// no branch, so that a loop of them vectorises.
#[inline(always)]
fn gini_of([c0, c1]: [f64; 2]) -> f64 {
    let n = c0 + c1;
    let (p0, p1) = (c0 / n, c1 / n);
    1.0 - p0 * p0 - p1 * p1
}

fn leaf_probs(counts: &[usize; 2]) -> [f64; 2] {
    let n = (counts[0] + counts[1]).max(1) as f64;
    [counts[0] as f64 / n, counts[1] as f64 / n]
}

/// The forest-wide pre-sort: for every feature, each training row's
/// rank in ascending value order (stable, so ties keep row order).
/// Computed once per [`RandomForest::fit`] by the `rf_presort` task and
/// shared, read-only, by every tree task of the fit — all trees sort the
/// same matrix and only their bootstraps differ, so this is the only
/// order any of them needs: a tree reads its own nodes out of it through
/// the ranks of their rows (see `RankSet`) and builds no order of its
/// own.
#[derive(Debug, Clone)]
pub struct Presort {
    n_rows: usize,
    /// `rank[f * n_rows + row]`: the position of `row` in feature `f`'s
    /// order.
    rank: Vec<u32>,
}

impl Payload for Presort {
    fn approx_bytes(&self) -> usize {
        self.rank.len() * 4 + std::mem::size_of::<Self>()
    }
}

impl Presort {
    /// Argsorts every column of `x`, each read as a contiguous row of
    /// one transposed copy.
    pub fn new(x: &Matrix) -> Self {
        let n = x.rows();
        let xt = x.transpose();
        let mut rank = vec![0u32; n * x.cols()];
        let mut order = Vec::with_capacity(n);
        for f in 0..x.cols() {
            let col = xt.row(f);
            order.clear();
            order.extend(0..n as u32);
            order.sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
            for (p, &r) in order.iter().enumerate() {
                rank[f * n + r as usize] = p as u32;
            }
        }
        Self { n_rows: n, rank }
    }

    /// The rank of every row in feature `f`'s order.
    fn ranks(&self, f: usize) -> &[u32] {
        &self.rank[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// A node's rows keyed by their rank in one feature's order: a bit per
/// occupied position (`⌈n_rows / 64⌉` words, all zero between walks) and
/// the row at each position (read only where a bit is set). Reused by
/// every feature and node of a tree.
struct RankSet {
    bits: Vec<u64>,
    row_at: Vec<u32>,
}

impl RankSet {
    fn new(n_rows: usize) -> Self {
        Self {
            bits: vec![0; n_rows.div_ceil(64)],
            row_at: vec![0; n_rows],
        }
    }

    /// Visits `rows` in ascending `rank`: sets each row's rank as a bit
    /// and drains the set bits word by word — the shared order
    /// restricted to the node, in O(rows + n_rows / 64) at any node
    /// size, with no sort. The bits are all zero again on return.
    fn walk(&mut self, rank: &[u32], rows: &[u32], mut visit: impl FnMut(u32)) {
        for &r in rows {
            let p = rank[r as usize] as usize;
            self.row_at[p] = r;
            self.bits[p / 64] |= 1 << (p % 64);
        }
        for (i, word) in self.bits.iter_mut().enumerate() {
            let mut b = std::mem::take(word);
            while b != 0 {
                visit(self.row_at[i * 64 + b.trailing_zeros() as usize]);
                b &= b - 1;
            }
        }
    }
}

/// Everything a tree task owns. A tree is its bootstrap *weights* over
/// the training rows, never a list of sample positions: a row drawn
/// `k` times is one entry counting `k`, which is all the split sweep
/// ever used of duplicates (it only adds label counts, and `k` equal
/// values never put a threshold between themselves).
struct SplitScratch<'a> {
    /// The forest-wide ranks, shared by every tree of the fit.
    pre: &'a Presort,
    /// Bootstrap multiplicity of each training row; 0 = out of bag.
    w: Vec<u32>,
    /// The distinct in-bag rows, partitioned in place as the tree
    /// grows: a node is a sub-slice, its children the two halves.
    rows: Vec<u32>,
    /// The node's rows in one feature's order.
    ranked: RankSet,
    /// Indexed by the node's rows in one feature's order: the value,
    /// the weighted class counts of the rows before it, and the score
    /// of the threshold just below it. `n_rows` long, reused by every
    /// feature and node.
    val: Vec<f64>,
    left: [Vec<f64>; 2],
    score: Vec<f64>,
}

impl<'a> SplitScratch<'a> {
    /// `samples` are training rows with repetition (a bootstrap, or the
    /// part of one that reached a frontier slot).
    fn new(samples: &[u32], pre: &'a Presort) -> Self {
        let n = pre.n_rows;
        let mut w = vec![0u32; n];
        for &r in samples {
            w[r as usize] += 1;
        }
        let rows = (0..n as u32).filter(|&r| w[r as usize] > 0).collect();
        Self {
            pre,
            w,
            rows,
            ranked: RankSet::new(n),
            val: vec![0.0; n],
            left: [vec![0.0; n], vec![0.0; n]],
            score: vec![0.0; n],
        }
    }

    /// Weighted class counts of the node `rows[node]`.
    fn class_counts(&self, y: &[u8], node: Range<usize>) -> [usize; 2] {
        let mut c = [0usize; 2];
        for &r in &self.rows[node] {
            c[y[r as usize] as usize] += self.w[r as usize] as usize;
        }
        c
    }
}

/// The split finder: same split decisions as the per-node re-sorting
/// splitter it replaced (identical scores, thresholds, and tie-breaks,
/// hence identical trees — the test-only `best_split` oracle). A tried
/// feature is one [`RankSet::walk`] of the node's rows, which lays out
/// their values and exclusive prefix class counts in value order. One
/// loop, which the compiler vectorises, then scores every position by
/// the seed splitter's expression (a weight adds what its duplicates
/// added one by one, and they never had a boundary between them) and
/// masks a position whose value equals its predecessor's to `+∞`; the
/// feature's first minimum replaces the running best only if strictly
/// below it, with threshold `0.5 * (prev + next)` — the position a
/// sweep taking every strict improvement would stop at. Partitions
/// `sc.rows[node]` in place and returns `(feature, threshold, mid)`:
/// rows `node.start..mid` go left.
fn best_split_fast(
    x: &Matrix,
    y: &[u8],
    sc: &mut SplitScratch<'_>,
    node: Range<usize>,
    counts: &[usize; 2],
    rng: &mut StdRng,
) -> Option<(u32, f64, usize)> {
    let n_feat = x.cols();
    let n_try = (n_feat as f64).sqrt().ceil() as usize;
    let parent_gini = gini(counts);
    if parent_gini == 0.0 {
        return None;
    }

    let SplitScratch {
        pre,
        w,
        rows,
        ranked,
        val,
        left,
        score,
    } = sc;
    let rows = &mut rows[node.clone()];
    let total = counts.map(|c| c as f64);
    // `(score, feature, threshold)`; a real score is finite.
    let mut best = (f64::INFINITY, 0u32, 0.0);
    for _ in 0..n_try {
        let f = rng.random_range(0..n_feat);
        // Running weight of all rows and of class 1 so far, in integer
        // registers: no add waits on a store.
        let (mut m, mut all, mut ones) = (0, 0u32, 0u32);
        ranked.walk(pre.ranks(f), rows, |r| {
            let r = r as usize;
            val[m] = x.get(r, f);
            left[0][m] = (all - ones) as f64;
            left[1][m] = ones as f64;
            all += w[r];
            ones += w[r] * u32::from(y[r]);
            m += 1;
        });
        // Every position past the first has rows on both sides, so
        // neither count is empty.
        let (v, s) = (&val[..m], &mut score[..m]);
        let (l0, l1) = (&left[0][..m], &left[1][..m]);
        for i in 1..m {
            let (a0, a1) = (l0[i], l1[i]);
            let (b0, b1) = (total[0] - a0, total[1] - a1);
            let (nl, nr) = (a0 + a1, b0 + b1);
            let at = (nl * gini_of([a0, a1]) + nr * gini_of([b0, b1])) / (nl + nr);
            s[i] = if v[i] == v[i - 1] { f64::INFINITY } else { at };
        }
        let low = s[1..].iter().fold(f64::INFINITY, |a, &b| a.min(b));
        if low < best.0 {
            let i = 1 + s[1..]
                .iter()
                .position(|&x| x == low)
                .expect("the minimum is a score");
            best = (low, f as u32, 0.5 * (v[i - 1] + v[i]));
        }
    }

    let (score, feature, threshold) = best;
    if score >= parent_gini - 1e-12 {
        return None;
    }
    let mut n_left = 0;
    for i in 0..rows.len() {
        if x.get(rows[i] as usize, feature as usize) <= threshold {
            rows.swap(i, n_left);
            n_left += 1;
        }
    }
    if n_left == 0 || n_left == rows.len() {
        return None;
    }
    Some((feature, threshold, node.start + n_left))
}

/// Recursively grows a subtree into `arena` over the node
/// `sc.rows[node]` with the pre-sorted splitter, returning its root
/// index.
#[allow(clippy::too_many_arguments)]
fn grow_fast(
    arena: &mut Vec<Node>,
    x: &Matrix,
    y: &[u8],
    sc: &mut SplitScratch<'_>,
    node: Range<usize>,
    depth: usize,
    params: &RfParams,
    rng: &mut StdRng,
    stop_depth: Option<usize>,
) -> u32 {
    let counts = sc.class_counts(y, node.clone());
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
    // `min_samples_split` counts samples, i.e. multiplicity.
    if depth >= params.max_depth || counts[0] + counts[1] < params.min_samples_split {
        return me;
    }
    let Some((feature, threshold, mid)) = best_split_fast(x, y, sc, node.clone(), &counts, rng)
    else {
        return me;
    };
    let (lo, hi) = (node.start..mid, mid..node.end);
    let l = grow_fast(arena, x, y, sc, lo, depth + 1, params, rng, stop_depth);
    let r = grow_fast(arena, x, y, sc, hi, depth + 1, params, rng, stop_depth);
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

/// Grows the tree of `samples` (training rows with repetition) from
/// `depth` on, over the forest-wide `pre`sort of `x`.
#[allow(clippy::too_many_arguments)]
fn grow_samples(
    x: &Matrix,
    y: &[u8],
    pre: &Presort,
    samples: &[u32],
    depth: usize,
    params: &RfParams,
    rng: &mut StdRng,
    stop_depth: Option<usize>,
) -> Tree {
    let mut sc = SplitScratch::new(samples, pre);
    let (mut arena, all) = (Vec::new(), 0..sc.rows.len());
    grow_fast(
        &mut arena, x, y, &mut sc, all, depth, params, rng, stop_depth,
    );
    Tree { nodes: arena }
}

/// Builds one full tree locally (the `distr_depth == 0` path), using
/// the pre-sorted split finder over the forest-wide `pre`sort of `x`.
fn build_tree(x: &Matrix, y: &[u8], pre: &Presort, params: &RfParams, est_seed: u64) -> Tree {
    let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(est_seed));
    let samples = bootstrap(x.rows(), &mut rng);
    grow_samples(x, y, pre, &samples, 0, params, &mut rng, None)
}

/// Builds the top of a tree down to `distr_depth` and collects the
/// sample partition for each frontier slot.
fn build_top(x: &Matrix, y: &[u8], pre: &Presort, params: &RfParams, est_seed: u64) -> TopSplit {
    let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(est_seed));
    let samples = bootstrap(x.rows(), &mut rng);
    let stop = Some(params.distr_depth);
    let tree = grow_samples(x, y, pre, &samples, 0, params, &mut rng, stop);
    route_to_frontier(tree, x, &samples)
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
fn build_subtree(
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
    if idx.is_empty() {
        // Keep the parent's distribution.
        let slots = top.tree.frontier_slots();
        let probs = top.tree.nodes[slots[slot]].probs;
        return Tree {
            nodes: vec![Node {
                feature: 0,
                threshold: 0.0,
                left: LEAF,
                right: 0,
                probs,
            }],
        };
    }
    // The partition's duplicated sample indices become this subtree's
    // row weights.
    let depth = params.distr_depth;
    grow_samples(x, y, pre, idx, depth, params, &mut rng, None)
}

/// Grafts the subtrees into the partial tree, producing a complete tree.
fn join_tree(top: &TopSplit, subtrees: &[&Tree]) -> Tree {
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
        // into place so parent links stay valid; the root's children
        // follow it, so its copy never points at itself).
        tree.nodes[node] = tree.nodes[offset as usize];
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
        rt.task("rf_average")
            .run1_inout(summed, move |m: &mut Matrix| m.scale(1.0 / n))
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

    #[test]
    fn out_of_bag_extreme_never_supplies_a_threshold() {
        // Row 0 holds the global maximum of every feature, so it ends
        // every presorted order — including in the trees whose
        // bootstrap never drew it.
        let (mut x, y) = blobs_nd(20, 3, 0.6, 48);
        for f in 0..x.cols() {
            x.set(0, f, 1e6);
        }
        let pre = Presort::new(&x);
        let params = RfParams {
            min_samples_split: 2,
            seed: 11,
            ..Default::default()
        };
        let mut out_of_bag = 0;
        for est in 0..24u64 {
            // `build_tree`'s own bootstrap for this estimator.
            let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(est));
            let samples = bootstrap(x.rows(), &mut rng);
            if samples.contains(&0) {
                continue;
            }
            out_of_bag += 1;
            let tree = build_tree(&x, &y, &pre, &params, est);
            assert_eq!(tree.nodes, build_tree_legacy(&x, &y, &params, est).nodes);
            // Every threshold is the midpoint of two in-bag values.
            let splits = tree.nodes.iter().filter(|n| n.left != LEAF);
            assert!(splits.clone().count() > 0);
            for n in splits {
                let f = n.feature as usize;
                let vals: Vec<f64> = samples.iter().map(|&r| x.get(r as usize, f)).collect();
                let between = |a: &f64| vals.iter().any(|b| 0.5 * (a + b) == n.threshold);
                assert!(
                    vals.iter().any(between),
                    "est={est}: threshold {} on feature {f} is not between in-bag values",
                    n.threshold
                );
            }
        }
        assert!(out_of_bag >= 4, "only {out_of_bag} trees left row 0 out");
    }

    #[test]
    fn min_samples_split_counts_multiplicity_not_distinct_rows() {
        // Two distinct rows drawn twice each: four samples.
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let y = vec![0u8, 1];
        let pre = Presort::new(&x);
        // (A non-empty partition never reads the top's partial tree.)
        let top = TopSplit {
            tree: Tree::default(),
            partitions: vec![vec![0, 1, 0, 1]],
        };
        for (min_samples_split, n_nodes) in [(4usize, 3usize), (5, 1)] {
            let params = RfParams {
                min_samples_split,
                ..Default::default()
            };
            let sub = build_subtree(&x, &y, &pre, &top, 0, &params, 0);
            assert_eq!(
                sub.nodes.len(),
                n_nodes,
                "min_samples_split={min_samples_split}"
            );
            let mut legacy = Vec::new();
            let mut rng = StdRng::seed_from_u64(0);
            let part = &top.partitions[0];
            grow(&mut legacy, &x, &y, part, 0, &params, &mut rng, None);
            assert_eq!(sub.nodes, legacy);
        }
    }

    /// The presort is what the forest shares: one payload that every
    /// tree task of a fit reads and that the DES ships to every node, so
    /// its size shapes Fig. 11c. Pinned here, at four bytes per (row,
    /// feature) rank, so that what the forest shares changes only on
    /// purpose (DESIGN §5.9).
    #[test]
    fn presort_payload_is_four_bytes_per_rank() {
        for (rows, features) in [(0, 0), (1, 3), (57, 9), (320, 160)] {
            let x = Matrix::from_fn(rows, features, |r, f| ((r * 7 + f * 3) % 11) as f64);
            let bytes = Presort::new(&x).approx_bytes();
            assert_eq!(
                bytes,
                4 * rows * features + std::mem::size_of::<Presort>(),
                "a {rows}x{features} presort now ships {bytes} bytes to every simulated node: \
                 rerun `cargo run --release -p bench --bin fig11 -- --algo rf --check`, whose \
                 Fig. 11c plateau gate allows 1 %, and decide the payload change on purpose"
            );
        }
    }

    #[test]
    fn candidates_walk_the_presort_order_of_the_node() {
        // 200 rows: the bitmap spans four words. Zeros alternate in
        // sign, which `total_cmp` ranks apart, and column 0 is constant.
        let (mut x, y) = eight_level_blobs(100, 5, 49);
        for r in 0..x.rows() {
            for f in 1..x.cols() {
                if x.get(r, f) == 0.0 && r % 2 == 1 {
                    x.set(r, f, -0.0);
                }
            }
            x.set(r, 0, 3.0);
        }
        let pre = Presort::new(&x);
        let samples = bootstrap(x.rows(), &mut StdRng::seed_from_u64(3));
        let mut sc = SplitScratch::new(&samples, &pre);
        let mut todo = Vec::new();
        todo.push(0..sc.rows.len());
        let mut nodes = 0;
        while let Some(node) = todo.pop() {
            nodes += 1;
            let in_node: std::collections::BTreeSet<u32> =
                sc.rows[node.clone()].iter().copied().collect();
            for f in 0..x.cols() {
                let mut walked = Vec::new();
                let SplitScratch { rows, ranked, .. } = &mut sc;
                ranked.walk(pre.ranks(f), &rows[node.clone()], |r| walked.push(r));
                assert!(
                    ranked.bits.iter().all(|&w| w == 0),
                    "the walk left bits set"
                );
                let mut order: Vec<u32> = (0..x.rows() as u32).collect();
                order.sort_by(|&a, &b| x.get(a as usize, f).total_cmp(&x.get(b as usize, f)));
                order.retain(|r| in_node.contains(r));
                assert_eq!(walked, order, "node {node:?} feature {f}");
            }
            let counts = sc.class_counts(&y, node.clone());
            let mut rng = StdRng::seed_from_u64(100 + node.start as u64);
            if let Some((_, _, mid)) =
                best_split_fast(&x, &y, &mut sc, node.clone(), &counts, &mut rng)
            {
                todo.extend([node.start..mid, mid..node.end]);
            }
        }
        assert!(nodes >= 15, "only {nodes} nodes walked");
    }

    #[test]
    fn one_presort_serves_forests_of_different_seeds() {
        let (x, y) = eight_level_blobs(70, 4, 50);
        let pre = Presort::new(&x);
        for est in 0..3u64 {
            for seed in [1u64, 99, 12345] {
                let params = RfParams {
                    min_samples_split: 2,
                    seed,
                    ..Default::default()
                };
                let fast = build_tree(&x, &y, &pre, &params, est);
                let legacy = build_tree_legacy(&x, &y, &params, est);
                assert_eq!(fast.nodes, legacy.nodes, "seed={seed} est={est}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn prop_fast_trees_identical_to_legacy(
            n in 20usize..200,
            d in 1usize..7,
            seed in 0u64..1000,
            est in 0u64..8,
        ) {
            let spread = 0.4 + (seed % 5) as f64 * 0.4;
            let (x, y) = blobs_nd(n, d, spread, seed);
            // One constant column, and zeros of both signs: `total_cmp`
            // ranks them apart, the sweep must see one value.
            let rows = x.rows();
            let mut x = Matrix::from_fn(rows, d + 1, |r, f| if f == d { 1.5 } else { x.get(r, f) });
            if seed % 2 == 0 {
                for v in x.as_mut_slice() {
                    *v = (*v * 8.0).round() / 8.0;
                }
            }
            for r in (0..rows).step_by(3) {
                x.set(r, 0, if r % 2 == 0 { 0.0 } else { -0.0 });
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Weights ≡ duplicates: on sets this small a bootstrap draws
        /// many rows 3–6 times, and the quantised features tie them
        /// with other rows too.
        #[test]
        fn prop_row_weights_equal_duplicated_samples(
            n in 2usize..40,
            d in 1usize..5,
            seed in 0u64..1000,
            est in 0u64..8,
        ) {
            let (x, y) = blobs_nd(20, d, 0.5, seed);
            let (mut x, y) = (x.slice_rows(0, n), &y[..n]);
            for v in x.as_mut_slice() {
                *v = (*v * 2.0).round() / 2.0;
            }
            let params = RfParams {
                min_samples_split: [2, 4, 9][(seed % 3) as usize],
                seed,
                ..Default::default()
            };
            let fast = build_tree(&x, y, &Presort::new(&x), &params, est);
            let legacy = build_tree_legacy(&x, y, &params, est);
            proptest::prop_assert_eq!(fast.nodes, legacy.nodes);
        }
    }
}
