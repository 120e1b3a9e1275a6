//! Discrete-event cluster simulator.
//!
//! Replays a recorded [`Trace`] on a parametric [`ClusterSpec`] —
//! the substitute for the paper's MareNostrum 4 and CTE-Power testbeds
//! (DESIGN.md §1). The simulator honours:
//!
//! * **task durations** measured during the real run (or supplied by an
//!   analytic cost model via [`SimOptions::duration_of`]),
//! * **resource shapes** — each task occupies `cores` cores and `gpus`
//!   GPUs on a single node (paper: 6×8-core CSVM tasks per 48-core node,
//!   12×4-core KNN tasks, 1- or 4-GPU CNN tasks),
//! * **data transfers** — an input produced on another node costs
//!   `latency + bytes / bandwidth` before compute starts, and leaves a
//!   replica behind (this mechanism produces the paper's RF 2-vs-3-node
//!   anomaly),
//! * **placement** — the rule of the executor being replayed
//!   ([`Policy`]): COMPSs' locality-aware master for the paper's
//!   figures, the `dist` driver's own owner-computes rule for a replay
//!   of a `dist` run,
//! * **sync markers** — zero-cost graph nodes that serialize
//!   driver-submitted work exactly as `compss_wait_on` does,
//! * **nesting** — a nested task's duration is the simulated makespan of
//!   its child trace on the resources granted to the parent.
//!
//! The schedule comes back as a [`Trace`] of the same [`TaskRecord`]s a
//! runtime writes ([`SimReport::trace`]), so every view in
//! [`crate::obs`] and [`crate::gantt`] reads a real run and its replay
//! alike, and the schedule is itself replayable.

use crate::dist::place::place;
use crate::trace::{TaskRecord, Trace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Description of a simulated cluster: every node is up for the whole
/// replay. Worker loss is recovered by the executor that has workers,
/// `dist` (its lineage rollback is `dist::state`'s).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of compute nodes.
    pub nodes: usize,
    /// Cores per node.
    pub cores_per_node: u32,
    /// GPUs per node.
    pub gpus_per_node: u32,
    /// Inter-node link bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// Per-transfer latency in seconds.
    pub latency_s: f64,
}

impl ClusterSpec {
    /// MareNostrum 4 general-purpose partition preset: 2×24-core Xeon
    /// Platinum 8160 per node, 10 GbE-class interconnect (the paper's
    /// §IV-A testbed for the classic ML algorithms).
    pub fn marenostrum4(nodes: usize) -> Self {
        Self {
            nodes,
            cores_per_node: 48,
            gpus_per_node: 0,
            bandwidth_bps: 1.25e9, // 10 Gbit/s
            latency_s: 50e-6,
        }
    }

    /// CTE-Power preset: 2×Power9 (40 cores) + 4×V100 per node (the
    /// paper's CNN testbed).
    pub fn cte_power(nodes: usize) -> Self {
        Self {
            nodes,
            cores_per_node: 40,
            gpus_per_node: 4,
            bandwidth_bps: 1.25e9,
            latency_s: 50e-6,
        }
    }

    /// Total cores across the cluster.
    pub fn total_cores(&self) -> u32 {
        self.cores_per_node * self.nodes as u32
    }
}

/// Where a ready task is placed: the rule of the executor a replay
/// stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// COMPSs' master (the paper's figures): external input data lives
    /// on node 0, and each ready task, in submission order, takes the
    /// free node it needs the fewest bytes moved to.
    LocalityAware,
    /// The `dist` driver's owner-computes rule, `dist::place` itself,
    /// fed the view the driver builds: the ready tasks in plan order
    /// with the bytes of their inputs each node holds, the tasks in
    /// flight per node, and which nodes are up. A task waits for the
    /// node holding most of its inputs, busy or not, and one task runs
    /// per node at a time (one `Run` in flight per worker). External
    /// input data is held by the driver, which is not a node, so every
    /// first touch of it is a transfer.
    OwnerComputes,
}

/// Cost-model hook: return `Some(seconds)` to override the measured
/// duration of a record (keyed by name / sizes), or `None` to keep it.
pub type DurationFn = Arc<dyn Fn(&TaskRecord) -> Option<f64> + Send + Sync>;

/// Simulation options.
#[derive(Clone)]
pub struct SimOptions {
    /// Placement policy.
    pub policy: Policy,
    /// Optional analytic duration override (see [`DurationFn`]).
    pub duration_of: Option<DurationFn>,
    /// Constant per-task master-side dispatch cost, in seconds. Each
    /// non-marker dispatch occupies the (serialized) master for this
    /// long before the task may start — the centralized-runtime
    /// overhead whose per-task constant flattens speedup curves at high
    /// core counts (arXiv 2010.11105). `0.0` (default) disables the
    /// model.
    pub dispatch_overhead_s: f64,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            policy: Policy::LocalityAware,
            duration_of: None,
            dispatch_overhead_s: 0.0,
        }
    }
}

/// Outcome of a simulation: the schedule. Every summary of it (bytes
/// moved, busy seconds per node or per kind) is a [`crate::obs`] view of
/// [`SimReport::trace`].
#[derive(Debug, Clone)]
pub struct SimReport {
    /// End-to-end makespan in seconds.
    pub makespan_s: f64,
    /// Number of scheduled records (markers included).
    pub tasks: usize,
    /// The schedule: one record per input record, in submission order,
    /// markers included. `worker` is the node (`-1` for markers),
    /// `start_s` the body start, `fetch_s`/`fetch_bytes` the input
    /// transfer that ends there, `cores`/`gpus` the granted resources
    /// (none for markers), and `duration_s` the effective duration,
    /// with a nested child already folded in (`child` is `None`).
    pub trace: Trace,
}

/// Tests whether datum `d` has a replica on node `nd`.
#[inline]
fn replica_has(bits: &[u64], words: usize, d: usize, nd: usize) -> bool {
    bits[d * words + nd / 64] >> (nd % 64) & 1 == 1
}

/// Records a replica of datum `d` on node `nd`.
#[inline]
fn replica_set(bits: &mut [u64], words: usize, d: usize, nd: usize) {
    bits[d * words + nd / 64] |= 1 << (nd % 64);
}

/// Merges the sorted `newly` list into the sorted `ready` list.
fn merge_ready(ready: &mut Vec<(u64, usize)>, newly: Vec<(u64, usize)>) {
    if newly.is_empty() {
        return;
    }
    if ready.is_empty() {
        *ready = newly;
        return;
    }
    let old = std::mem::replace(ready, Vec::with_capacity(ready.len() + newly.len()));
    let (mut a, mut b) = (old.into_iter().peekable(), newly.into_iter().peekable());
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => {
                if x <= y {
                    ready.push(a.next().unwrap());
                } else {
                    ready.push(b.next().unwrap());
                }
            }
            (Some(_), None) => ready.extend(a.by_ref()),
            (None, Some(_)) => ready.extend(b.by_ref()),
            (None, None) => break,
        }
    }
}

/// Simulates `trace` on `cluster` and returns the schedule.
///
/// The replay is fully indexed: task and data lookups are dense vector
/// accesses, data replica locations are flat bitsets, and equal-time
/// completion events are drained as one batch followed by a *single*
/// placement sweep (placing a task only consumes capacity, so one
/// id-ordered pass over the ready list is complete — nothing becomes
/// placeable mid-sweep).
///
/// # Panics
/// Panics if the trace contains a dependency cycle (impossible for
/// traces recorded by [`crate::Runtime`]).
pub fn simulate(trace: &Trace, cluster: &ClusterSpec, opts: &SimOptions) -> SimReport {
    assert!(
        cluster.nodes > 0 && cluster.cores_per_node > 0,
        "cluster must have resources"
    );
    let n = trace.records.len();
    let index = trace.index_by_id();

    // Effective durations (overrides, nesting) and resource demands. The
    // output records start as copies with the nested child folded into
    // the duration and the granted resources; placement stamps their
    // node and times.
    let mut out = Vec::with_capacity(n);
    let mut dur = vec![0.0f64; n];
    let mut cores = vec![0u32; n];
    let mut gpus = vec![0u32; n];
    for (i, r) in trace.records.iter().enumerate() {
        dur[i] = effective_duration(r, cluster, opts);
        if !r.is_marker() {
            cores[i] = r.cores.clamp(1, cluster.cores_per_node);
            gpus[i] = r.gpus.min(cluster.gpus_per_node);
        }
        out.push(TaskRecord {
            id: r.id,
            name: r.name.clone(),
            deps: r.deps.clone(),
            duration_s: dur[i],
            inputs: r.inputs.clone(),
            outputs: r.outputs.clone(),
            cores: cores[i],
            gpus: gpus[i],
            ready_s: 0.0,
            start_s: 0.0,
            fetch_s: 0.0,
            fetch_bytes: 0,
            worker: -1,
            child: None,
            attempts: Vec::new(),
        });
    }

    // Dependency bookkeeping.
    let mut indeg = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, r) in trace.records.iter().enumerate() {
        for d in &r.deps {
            if let Some(&j) = index.get(d) {
                indeg[i] += 1;
                dependents[j].push(i);
            }
        }
    }

    // A flat replica bitset (`words` u64 words per datum, one bit per
    // node). Data without a producing record is external input: COMPSs'
    // master is node 0, while the `dist` driver is no node at all.
    // Produced data gets its bit at completion, which happens before any
    // consumer is placed.
    let mut n_data = 0usize;
    for r in &trace.records {
        for (d, _) in r.inputs.iter().chain(r.outputs.iter()) {
            n_data = n_data.max(d.0 as usize + 1);
        }
    }
    let words = cluster.nodes.div_ceil(64);
    let mut replicas = vec![0u64; n_data * words];
    if opts.policy == Policy::LocalityAware {
        let mut produced = vec![false; n_data];
        for r in &trace.records {
            for (d, _) in &r.outputs {
                produced[d.0 as usize] = true;
            }
        }
        for (d, &p) in produced.iter().enumerate() {
            if !p {
                replica_set(&mut replicas, words, d, 0);
            }
        }
    }

    let mut free_cores: Vec<i64> = vec![cluster.cores_per_node as i64; cluster.nodes];
    let mut free_gpus: Vec<i64> = vec![cluster.gpus_per_node as i64; cluster.nodes];
    // Owner-computes is handed the driver's view of which nodes are up:
    // all of them, for the whole replay.
    let node_up = vec![true; cluster.nodes];
    // The node each placed record runs on, and the runs per node.
    let mut node_of = vec![0usize; n];
    let mut in_flight = vec![0usize; cluster.nodes];

    // Ready list ordered by task id, i.e. submission order.
    let mut ready: Vec<(u64, usize)> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(|i| (trace.records[i].id.0, i))
        .collect();
    ready.sort_unstable();

    // Completion events, ordered by (time, record index).
    #[derive(PartialEq)]
    struct Ev {
        time: f64,
        idx: usize,
    }
    impl Eq for Ev {}
    impl PartialOrd for Ev {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Ev {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.time
                .total_cmp(&other.time)
                .then(self.idx.cmp(&other.idx))
        }
    }

    let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
    let mut now = 0.0f64;
    let mut done = 0usize;
    // Serialized master cursor for the per-task dispatch-overhead model
    // (see [`SimOptions::dispatch_overhead_s`]): a centralized runtime
    // dispatches one task at a time, so concurrent placements queue.
    let mut master_free = 0.0f64;

    loop {
        // One placement sweep at the current time. Locality-aware picks
        // a node for each ready task in submission order (`None` below);
        // owner-computes starts what `place` ships, in its order, and
        // leaves the rest ready.
        let sweep: Vec<((u64, usize), Option<usize>)> = match opts.policy {
            Policy::LocalityAware => ready.drain(..).map(|k| (k, None)).collect(),
            Policy::OwnerComputes => {
                let view: Vec<(usize, Vec<u64>)> = ready
                    .iter()
                    .map(|&(_, i)| {
                        let mut held = vec![0u64; cluster.nodes];
                        for (d, bytes) in &trace.records[i].inputs {
                            for (nd, h) in held.iter_mut().enumerate() {
                                if replica_has(&replicas, words, d.0 as usize, nd) {
                                    *h += *bytes as u64;
                                }
                            }
                        }
                        (i, held)
                    })
                    .collect();
                let shipped = place(&view, &in_flight, &node_up);
                ready.retain(|&(_, i)| shipped.iter().all(|&(t, _)| t != i));
                let id = |i: usize| trace.records[i].id.0;
                shipped
                    .into_iter()
                    .map(|(i, nd)| ((id(i), i), Some(nd)))
                    .collect()
            }
        };
        let mut still_ready = std::mem::take(&mut ready);
        for ((key, i), pick) in sweep {
            let r = &trace.records[i];
            let fits =
                |nd: usize| free_cores[nd] >= cores[i] as i64 && free_gpus[nd] >= gpus[i] as i64;
            let Some(node) =
                pick.or_else(|| locality_node(r, cluster.nodes, fits, &replicas, words))
            else {
                still_ready.push((key, i));
                continue;
            };
            free_cores[node] -= cores[i] as i64;
            free_gpus[node] -= gpus[i] as i64;
            node_of[i] = node;
            in_flight[node] += 1;

            // Transfers for remote inputs (each leaves a replica behind).
            let mut xfer = 0.0;
            let mut xfer_bytes = 0u64;
            if !r.is_marker() {
                for (d, bytes) in &r.inputs {
                    let di = d.0 as usize;
                    if !replica_has(&replicas, words, di, node) {
                        xfer += cluster.latency_s + *bytes as f64 / cluster.bandwidth_bps;
                        xfer_bytes += *bytes as u64;
                        replica_set(&mut replicas, words, di, node);
                    }
                }
            }
            let mut dispatch = 0.0;
            if opts.dispatch_overhead_s > 0.0 && !r.is_marker() {
                let begin = now.max(master_free);
                master_free = begin + opts.dispatch_overhead_s;
                dispatch = master_free - now;
            }
            let body_start = now + dispatch + xfer;
            heap.push(Reverse(Ev {
                time: body_start + dur[i],
                idx: i,
            }));
            let o = &mut out[i];
            o.worker = if r.is_marker() { -1 } else { node as i64 };
            o.start_s = body_start;
            o.fetch_s = xfer;
            o.fetch_bytes = xfer_bytes;
        }
        ready = still_ready;

        if done == n {
            break;
        }

        let Reverse(ev) = heap
            .pop()
            .expect("simulation stalled: ready tasks cannot be placed and nothing is running");
        now = now.max(ev.time);
        // Drain the batch of completions sharing this time.
        let mut batch = vec![ev.idx];
        while let Some(Reverse(p)) = heap.peek() {
            if p.time != ev.time {
                break;
            }
            batch.push(heap.pop().unwrap().0.idx);
        }
        let mut newly: Vec<(u64, usize)> = Vec::new();
        for idx in batch {
            let node = node_of[idx];
            done += 1;
            in_flight[node] -= 1;
            free_cores[node] += cores[idx] as i64;
            free_gpus[node] += gpus[idx] as i64;
            for (d, _) in &trace.records[idx].outputs {
                replica_set(&mut replicas, words, d.0 as usize, node);
            }
            for &dep in &dependents[idx] {
                indeg[dep] -= 1;
                if indeg[dep] == 0 {
                    newly.push((trace.records[dep].id.0, dep));
                }
            }
        }
        newly.sort_unstable();
        merge_ready(&mut ready, newly);
    }

    SimReport {
        makespan_s: now,
        tasks: n,
        trace: Trace { records: out },
    }
}

/// Duration of a record under the given options: explicit override wins;
/// otherwise nested tasks cost their child's simulated makespan (on the
/// granted resources) plus the parent's own overhead; otherwise the
/// measured duration.
fn effective_duration(r: &TaskRecord, cluster: &ClusterSpec, opts: &SimOptions) -> f64 {
    if let Some(f) = &opts.duration_of {
        if let Some(d) = f(r) {
            return d;
        }
    }
    if let Some(child) = &r.child {
        let granted = ClusterSpec {
            nodes: 1,
            cores_per_node: r.cores.clamp(1, cluster.cores_per_node),
            gpus_per_node: r.gpus.min(cluster.gpus_per_node),
            bandwidth_bps: cluster.bandwidth_bps,
            latency_s: cluster.latency_s,
        };
        let child_rep = simulate(child, &granted, opts);
        // In inline recording the parent's measured duration includes
        // the serial execution of the whole child trace; the residual is
        // the parent's own overhead (partitioning, merging, ...).
        let overhead = (r.duration_s - child.total_work_s()).max(0.0);
        return child_rep.makespan_s + overhead;
    }
    r.duration_s
}

/// The free node (by `fits`) that needs the fewest bytes of `r`'s
/// inputs moved to it; the lowest index on a tie.
fn locality_node(
    r: &TaskRecord,
    nodes: usize,
    fits: impl Fn(usize) -> bool,
    replicas: &[u64],
    words: usize,
) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for nd in 0..nodes {
        if !fits(nd) {
            continue;
        }
        // Bytes that would need transferring to `nd`.
        let mut missing = 0.0;
        for (d, bytes) in &r.inputs {
            if !replica_has(replicas, words, d.0 as usize, nd) {
                missing += *bytes as f64;
            }
        }
        match best {
            Some((b, _)) if b <= missing => {}
            _ => best = Some((missing, nd)),
        }
    }
    best.map(|(_, nd)| nd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::{DataId, TaskId};
    use crate::obs::{Profile, Utilization};

    /// Bytes the schedule moved between `nodes` nodes.
    fn moved(rep: &SimReport, nodes: usize) -> u64 {
        Utilization::from_trace(&rep.trace, nodes).fetch_bytes
    }

    fn rec(id: u64, deps: &[u64], dur: f64, cores: u32) -> TaskRecord {
        TaskRecord {
            id: TaskId(id),
            name: format!("k{}", id % 3),
            deps: deps.iter().map(|&d| TaskId(d)).collect(),
            duration_s: dur,
            inputs: deps.iter().map(|&d| (DataId(d), 1000)).collect(),
            outputs: vec![(DataId(id), 1000)],
            cores,
            gpus: 0,
            ready_s: 0.0,
            start_s: 0.0,
            fetch_s: 0.0,
            fetch_bytes: 0,
            worker: -1,
            child: None,
            attempts: vec![],
        }
    }

    fn cluster(nodes: usize, cores: u32) -> ClusterSpec {
        ClusterSpec {
            nodes,
            cores_per_node: cores,
            gpus_per_node: 0,
            bandwidth_bps: 1e9,
            latency_s: 0.0,
        }
    }

    #[test]
    fn chain_makespan_is_sum() {
        let t = Trace {
            records: vec![
                rec(0, &[], 1.0, 1),
                rec(1, &[0], 2.0, 1),
                rec(2, &[1], 3.0, 1),
            ],
        };
        let rep = simulate(&t, &cluster(1, 4), &SimOptions::default());
        assert!((rep.makespan_s - 6.0).abs() < 1e-9);
    }

    #[test]
    fn independent_tasks_scale_with_cores() {
        let t = Trace {
            records: (0..8).map(|i| rec(i, &[], 1.0, 1)).collect(),
        };
        let r1 = simulate(&t, &cluster(1, 1), &SimOptions::default());
        let r4 = simulate(&t, &cluster(1, 4), &SimOptions::default());
        let r8 = simulate(&t, &cluster(1, 8), &SimOptions::default());
        assert!((r1.makespan_s - 8.0).abs() < 1e-9);
        assert!((r4.makespan_s - 2.0).abs() < 1e-9);
        assert!((r8.makespan_s - 1.0).abs() < 1e-9);
        // Every core of the node is busy for the whole makespan.
        let u = Utilization::from_trace(&r8.trace, 1);
        assert!((u.executors[0].task_s - 8.0 * r8.makespan_s).abs() < 1e-9);
    }

    #[test]
    fn resource_shapes_limit_packing() {
        // Four 8-core tasks on a 16-core node: two waves.
        let t = Trace {
            records: (0..4).map(|i| rec(i, &[], 1.0, 8)).collect(),
        };
        let rep = simulate(&t, &cluster(1, 16), &SimOptions::default());
        assert!((rep.makespan_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_bounded_by_critical_path_and_work() {
        let t = Trace {
            records: vec![
                rec(0, &[], 2.0, 1),
                rec(1, &[0], 1.0, 1),
                rec(2, &[0], 4.0, 1),
                rec(3, &[1, 2], 1.0, 1),
                rec(4, &[], 3.0, 1),
            ],
        };
        for nodes in [1usize, 2, 4] {
            let rep = simulate(&t, &cluster(nodes, 2), &SimOptions::default());
            assert!(rep.makespan_s + 1e-9 >= t.critical_path_s());
            assert!(rep.makespan_s + 1e-9 >= t.total_work_s() / (nodes as f64 * 2.0));
            assert!(rep.makespan_s <= t.total_work_s() + 1e-9);
        }
    }

    #[test]
    fn transfers_penalize_remote_placement() {
        // Producer then consumer with a huge intermediate: on one node,
        // and with locality on two, the consumer stays with its input.
        let mut producer = rec(0, &[], 1.0, 1);
        producer.outputs = vec![(DataId(0), 1_000_000_000)]; // 1 GB
        let mut consumer = rec(1, &[0], 1.0, 1);
        consumer.inputs = vec![(DataId(0), 1_000_000_000)];
        let mut t = Trace {
            records: vec![producer, consumer.clone()],
        };
        for c in [cluster(1, 2), cluster(2, 1)] {
            let local = simulate(&t, &c, &SimOptions::default());
            assert!((local.makespan_s - 2.0).abs() < 1e-9);
            assert_eq!(moved(&local, c.nodes), 0);
        }

        // A second consumer finds the producer's node busy and runs on
        // the other one, paying the 1 s fetch first.
        consumer.id = TaskId(2);
        t.records.push(consumer);
        let remote = simulate(&t, &cluster(2, 1), &SimOptions::default());
        assert!(remote.makespan_s > 2.5, "got {}", remote.makespan_s);
        assert_eq!(moved(&remote, 2), 1_000_000_000);
    }

    #[test]
    fn duration_override_applies() {
        let t = Trace {
            records: vec![rec(0, &[], 1.0, 1)],
        };
        let opts = SimOptions {
            duration_of: Some(Arc::new(
                |r: &TaskRecord| if r.name == "k0" { Some(10.0) } else { None },
            )),
            ..SimOptions::default()
        };
        let rep = simulate(&t, &cluster(1, 1), &opts);
        assert!((rep.makespan_s - 10.0).abs() < 1e-9);
    }

    #[test]
    fn nested_child_uses_granted_resources() {
        // Parent with 4 cores; child = 4 independent 1s tasks -> child
        // makespan 1s; parent overhead 0.
        let child = Trace {
            records: (0..4).map(|i| rec(i, &[], 1.0, 1)).collect(),
        };
        let mut parent = rec(0, &[], 4.0, 4);
        parent.child = Some(Box::new(child));
        let t = Trace {
            records: vec![parent],
        };
        let rep = simulate(&t, &cluster(1, 8), &SimOptions::default());
        assert!(
            (rep.makespan_s - 1.0).abs() < 1e-9,
            "got {}",
            rep.makespan_s
        );
    }

    #[test]
    fn gpu_capacity_respected() {
        // Two 1-GPU tasks on a 1-GPU node serialize.
        let mk = |id: u64| TaskRecord {
            gpus: 1,
            ..rec(id, &[], 1.0, 1)
        };
        let t = Trace {
            records: vec![mk(0), mk(1)],
        };
        let mut c = cluster(1, 8);
        c.gpus_per_node = 1;
        let rep = simulate(&t, &c, &SimOptions::default());
        assert!((rep.makespan_s - 2.0).abs() < 1e-9);

        c.gpus_per_node = 2;
        let rep = simulate(&t, &c, &SimOptions::default());
        assert!((rep.makespan_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn markers_cost_nothing() {
        let mut marker = rec(1, &[0], 0.0, 0);
        marker.name = crate::trace::SYNC_TASK.into();
        marker.inputs = vec![];
        marker.outputs = vec![];
        let t = Trace {
            records: vec![rec(0, &[], 1.5, 1), marker, rec(2, &[1], 1.5, 1)],
        };
        let rep = simulate(&t, &cluster(1, 1), &SimOptions::default());
        assert!((rep.makespan_s - 3.0).abs() < 1e-9);
    }

    const OWNER: SimOptions = SimOptions {
        policy: Policy::OwnerComputes,
        duration_of: None,
        dispatch_overhead_s: 0.0,
    };

    #[test]
    fn owner_computes_fetches_a_seed_even_on_node_zero() {
        // External data is held by the driver, not by node 0: the first
        // touch is a transfer wherever it runs.
        let mut r = rec(0, &[], 1.0, 1);
        r.inputs = vec![(DataId(99), 1000)];
        let t = Trace { records: vec![r] };
        let rep = simulate(&t, &cluster(1, 1), &OWNER);
        let r = &rep.trace.records[0];
        assert_eq!((r.worker, r.fetch_bytes), (0, 1000));
        assert_eq!(moved(&rep, 1), 1000);
        // COMPSs' master keeps it on node 0.
        let rep = simulate(&t, &cluster(1, 1), &SimOptions::default());
        assert_eq!(moved(&rep, 1), 0);
    }

    #[test]
    fn owner_computes_deals_first_touches_in_contiguous_runs() {
        // Six tasks, each on its own seed, over three nodes: plan order
        // is cut into three runs of two.
        let t = Trace {
            records: (0..6)
                .map(|i| TaskRecord {
                    inputs: vec![(DataId(100 + i), 8)],
                    ..rec(i, &[], 1.0, 1)
                })
                .collect(),
        };
        let rep = simulate(&t, &cluster(3, 1), &OWNER);
        let workers: Vec<i64> = rep.trace.records.iter().map(|r| r.worker).collect();
        assert_eq!(workers, [0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn owner_computes_waits_for_a_busy_owner() {
        // Node 0 produces D0; at t = 1 it runs task 2, and task 3, which
        // also reads D0, waits for it while node 1 runs its own task 4.
        let t = Trace {
            records: vec![
                rec(0, &[], 1.0, 1),
                rec(1, &[], 1.0, 1),
                rec(2, &[0], 1.0, 1),
                rec(3, &[0], 1.0, 1),
                rec(4, &[1], 1.0, 1),
            ],
        };
        let rep = simulate(&t, &cluster(2, 1), &OWNER);
        let r3 = &rep.trace.records[3];
        assert_eq!((r3.worker, r3.start_s, r3.fetch_bytes), (0, 2.0, 0));
        assert_eq!(moved(&rep, 2), 0);
        // Locality-aware takes the free node instead, and moves D0.
        let rep = simulate(&t, &cluster(2, 1), &SimOptions::default());
        let r3 = &rep.trace.records[3];
        assert_eq!((r3.worker, r3.fetch_bytes), (1, 1000));
    }

    #[test]
    fn owner_computes_steals_only_the_tail_of_the_longest_backlog() {
        // Node 0 produces D0, read by tasks 3, 4, 5; node 1 is busy
        // with a long task, and node 2 is idle with nothing of its own
        // at t = 1: it takes task 5, the last of node 0's backlog.
        let t = Trace {
            records: vec![
                rec(0, &[], 1.0, 1),
                rec(1, &[], 10.0, 1),
                rec(2, &[], 1.0, 1),
                rec(3, &[0], 1.0, 1),
                rec(4, &[0], 1.0, 1),
                rec(5, &[0], 1.0, 1),
            ],
        };
        let rep = simulate(&t, &cluster(3, 1), &OWNER);
        let placed: Vec<(i64, u64)> = rep.trace.records[3..]
            .iter()
            .map(|r| (r.worker, r.fetch_bytes))
            .collect();
        assert_eq!(placed, [(0, 0), (0, 0), (2, 1000)]);
    }

    #[test]
    fn busy_by_kind_accumulates() {
        let t = Trace {
            records: vec![rec(0, &[], 1.0, 1), rec(3, &[], 2.0, 1)],
        };
        let rep = simulate(&t, &cluster(1, 2), &SimOptions::default());
        let p = Profile::from_trace(&rep.trace);
        assert_eq!((p.kinds[0].name.as_str(), p.kinds[0].total_s), ("k0", 3.0));
    }
}
