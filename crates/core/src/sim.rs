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
//! * **sync markers** — zero-cost graph nodes that serialize
//!   driver-submitted work exactly as `compss_wait_on` does,
//! * **nesting** — a nested task's duration is the simulated makespan of
//!   its child trace on the resources granted to the parent.

use crate::trace::{TaskRecord, Trace};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// A scheduled node outage in a simulated cluster. At `fail_at_s` the
/// node vanishes: every task running on it is killed and requeued, and
/// every data replica it held is lost (external input data on node 0 is
/// durable master storage and survives). With `recover_at_s` the node
/// rejoins empty — capacity returns, memory does not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEvent {
    /// Node index that fails.
    pub node: usize,
    /// Simulated time of the failure, seconds.
    pub fail_at_s: f64,
    /// Optional time the node rejoins (with empty memory).
    pub recover_at_s: Option<f64>,
}

/// Description of a simulated cluster.
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
    /// Scheduled node failures (empty = perfectly healthy cluster,
    /// the pre-fault-model behaviour).
    pub failures: Vec<NodeEvent>,
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
            failures: Vec::new(),
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
            failures: Vec::new(),
        }
    }

    /// Same cluster with a different node count (for scalability sweeps).
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Adds a permanent node failure at `fail_at_s`.
    pub fn with_failure(mut self, node: usize, fail_at_s: f64) -> Self {
        self.failures.push(NodeEvent {
            node,
            fail_at_s,
            recover_at_s: None,
        });
        self
    }

    /// Adds a node failure at `fail_at_s` with the node rejoining
    /// (empty) at `recover_at_s`.
    pub fn with_failure_and_recovery(
        mut self,
        node: usize,
        fail_at_s: f64,
        recover_at_s: f64,
    ) -> Self {
        self.failures.push(NodeEvent {
            node,
            fail_at_s,
            recover_at_s: Some(recover_at_s),
        });
        self
    }

    /// Total cores across the cluster.
    pub fn total_cores(&self) -> u32 {
        self.cores_per_node * self.nodes as u32
    }

    /// Total GPUs across the cluster.
    pub fn total_gpus(&self) -> u32 {
        self.gpus_per_node * self.nodes as u32
    }
}

/// Where a ready task is placed when several nodes can host it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// First node (lowest index) with free capacity.
    Fifo,
    /// Rotate across nodes.
    RoundRobin,
    /// Node already holding the most input bytes (minimizes transfers).
    LocalityAware,
}

/// Cost-model hook: return `Some(seconds)` to override the measured
/// duration of a record (keyed by name / sizes), or `None` to keep it.
pub type DurationFn = Arc<dyn Fn(&TaskRecord) -> Option<f64> + Send + Sync>;

/// Per-node relative speed factor: task durations on node `i` are
/// divided by `f(i)`. `1.0` everywhere models a homogeneous cluster;
/// values `< 1.0` model slower (e.g. edge) nodes in a computing
/// continuum.
pub type NodeSpeedFn = Arc<dyn Fn(usize) -> f64 + Send + Sync>;

/// Simulation options.
#[derive(Clone)]
pub struct SimOptions {
    /// Placement policy.
    pub policy: Policy,
    /// Whether to model inter-node data transfers.
    pub model_transfers: bool,
    /// Optional analytic duration override (see [`DurationFn`]).
    pub duration_of: Option<DurationFn>,
    /// Optional heterogeneous node speeds (see [`NodeSpeedFn`]).
    pub node_speed: Option<NodeSpeedFn>,
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
            model_transfers: true,
            duration_of: None,
            node_speed: None,
            dispatch_overhead_s: 0.0,
        }
    }
}

impl SimOptions {
    /// Options with a specific policy and defaults otherwise.
    pub fn with_policy(policy: Policy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }
}

/// One placed task in a simulated schedule (for Gantt rendering and
/// schedule inspection — the PyCOMPSs ecosystem's Paraver-trace
/// equivalent).
#[derive(Debug, Clone)]
pub struct ScheduleEntry {
    /// Task id within the trace.
    pub task: crate::handle::TaskId,
    /// Task kind name.
    pub name: String,
    /// Node the task ran on.
    pub node: usize,
    /// Time the task started transferring inputs.
    pub start_s: f64,
    /// Seconds spent in input transfers before compute.
    pub transfer_s: f64,
    /// Bytes pulled from remote nodes for this task's inputs.
    pub transfer_bytes: u64,
    /// Time the task completed.
    pub end_s: f64,
    /// Cores occupied.
    pub cores: u32,
    /// GPUs occupied.
    pub gpus: u32,
    /// Execution attempt this entry records (1 = first run; higher
    /// after node-failure re-executions).
    pub attempt: u32,
    /// True when the run was killed by a node failure before finishing
    /// (`end_s` is then the failure time, not a completion).
    pub lost: bool,
}

impl ScheduleEntry {
    /// Encodes the entry as a JSON tree (see [`crate::gantt::schedule_json`]).
    pub fn to_value(&self) -> crate::json::Value {
        use crate::json::Value;
        Value::Object(vec![
            ("task".into(), Value::from(self.task.0)),
            ("name".into(), Value::from(self.name.as_str())),
            ("node".into(), Value::from(self.node)),
            ("start_s".into(), Value::from(self.start_s)),
            ("transfer_s".into(), Value::from(self.transfer_s)),
            ("transfer_bytes".into(), Value::from(self.transfer_bytes)),
            ("end_s".into(), Value::from(self.end_s)),
            ("cores".into(), Value::from(self.cores)),
            ("gpus".into(), Value::from(self.gpus)),
            ("attempt".into(), Value::from(self.attempt)),
            ("lost".into(), Value::from(self.lost)),
        ])
    }
}

/// Outcome of a simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// End-to-end makespan in seconds.
    pub makespan_s: f64,
    /// Total bytes moved between nodes.
    pub transferred_bytes: f64,
    /// Total time spent in transfers (sum over tasks), seconds.
    pub transfer_time_s: f64,
    /// Sum over tasks of `duration * cores`, in core-seconds.
    pub busy_core_s: f64,
    /// `busy_core_s / (makespan * total_cores)`.
    pub utilization: f64,
    /// Number of scheduled records (markers included).
    pub tasks: usize,
    /// Busy seconds per task kind.
    pub busy_by_kind: BTreeMap<String, f64>,
    /// In-flight task runs killed by a node failure.
    pub lost_tasks: usize,
    /// Completed tasks re-executed because a failure destroyed their
    /// only output replica (lineage rollback).
    pub reexecutions: usize,
    /// The full placement decisions, ordered by start time (markers
    /// excluded). With node failures a task can appear more than once —
    /// killed runs carry [`ScheduleEntry::lost`].
    pub schedule: Vec<ScheduleEntry>,
}

impl SimReport {
    /// Re-emits the simulated schedule as the telemetry event schema —
    /// the same `task_start`/`task_end` stream [`crate::Trace::events`]
    /// derives from a real run, with cluster node indices in the
    /// `worker` field. See
    /// [`crate::telemetry::events_from_schedule`].
    pub fn events(&self) -> Vec<crate::telemetry::Event> {
        crate::telemetry::events_from_schedule(self)
    }
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

/// Simulates `trace` on `cluster` and returns the schedule metrics.
///
/// The replay is fully indexed: task and data lookups are dense vector
/// accesses, data replica locations are flat bitsets, task kinds are
/// interned once, and equal-time completion events are drained as one
/// batch followed by a *single* placement sweep (placing a task only
/// consumes capacity, so one seq-ordered pass over the ready list is
/// complete — nothing becomes placeable mid-sweep).
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

    // Effective durations (overrides, nesting), resource demands, and
    // interned kind names (records of one kind share a name id).
    let mut dur = vec![0.0f64; n];
    let mut cores = vec![0u32; n];
    let mut gpus = vec![0u32; n];
    let mut kind_names: Vec<String> = Vec::new();
    let mut kind_of = vec![0usize; n];
    for (i, r) in trace.records.iter().enumerate() {
        dur[i] = effective_duration(r, cluster, opts);
        if !r.is_marker() {
            cores[i] = r.cores.clamp(1, cluster.cores_per_node);
            gpus[i] = r.gpus.min(cluster.gpus_per_node);
        }
        kind_of[i] = kind_names
            .iter()
            .position(|k| k == &r.name)
            .unwrap_or_else(|| {
                kind_names.push(r.name.clone());
                kind_names.len() - 1
            });
    }
    let mut busy_of_kind = vec![0.0f64; kind_names.len()];

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

    // Dense data tables: the producing record of each datum and a flat
    // replica bitset (`words` u64 words per datum, one bit per node).
    // Data without a producing record is external input living on the
    // master (node 0); produced data gets its bit at completion, which
    // happens before any consumer is placed.
    let mut n_data = 0usize;
    for r in &trace.records {
        for (d, _) in r.inputs.iter().chain(r.outputs.iter()) {
            n_data = n_data.max(d.0 as usize + 1);
        }
    }
    let words = cluster.nodes.div_ceil(64);
    let mut replicas = vec![0u64; n_data * words];
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

    // Producer record of each datum (for lineage rollback).
    let mut producer_of: Vec<Option<usize>> = vec![None; n_data];
    for (i, r) in trace.records.iter().enumerate() {
        for (d, _) in &r.outputs {
            producer_of[d.0 as usize] = Some(i);
        }
    }

    let mut free_cores: Vec<i64> = vec![cluster.cores_per_node as i64; cluster.nodes];
    let mut free_gpus: Vec<i64> = vec![cluster.gpus_per_node as i64; cluster.nodes];
    let mut node_up = vec![true; cluster.nodes];

    // Per-task scheduling state. `attempt` stamps completion events so
    // a failure that kills a run invalidates its pending event.
    #[derive(Clone, Copy, PartialEq)]
    enum Stat {
        Waiting,
        Ready,
        Running,
        Done,
    }
    struct RunInfo {
        node: usize,
        start_s: f64,
        xfer_s: f64,
        run_s: f64,
        sched: Option<usize>,
    }
    let mut state = vec![Stat::Waiting; n];
    let mut attempt = vec![0u32; n];
    let mut running: Vec<Option<RunInfo>> = (0..n).map(|_| None).collect();

    // Ready list ordered by submission sequence (FIFO task order).
    let mut ready: Vec<(u64, usize)> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(|i| (trace.records[i].seq, i))
        .collect();
    ready.sort_unstable();
    for &(_, i) in &ready {
        state[i] = Stat::Ready;
    }

    // Event ranks order equal-time events: completions first, then
    // failures, then recoveries.
    const DONE: u8 = 0;
    const FAIL: u8 = 1;
    const RECOVER: u8 = 2;
    #[derive(PartialEq)]
    struct Ev {
        time: f64,
        rank: u8,
        idx: usize,
        attempt: u32,
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
                .then(self.rank.cmp(&other.rank))
                .then(self.idx.cmp(&other.idx))
        }
    }

    let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
    for f in &cluster.failures {
        assert!(f.node < cluster.nodes, "failure event on nonexistent node");
        heap.push(Reverse(Ev {
            time: f.fail_at_s,
            rank: FAIL,
            idx: f.node,
            attempt: 0,
        }));
        if let Some(rt) = f.recover_at_s {
            assert!(rt >= f.fail_at_s, "recovery before failure");
            heap.push(Reverse(Ev {
                time: rt,
                rank: RECOVER,
                idx: f.node,
                attempt: 0,
            }));
        }
    }

    let mut now = 0.0f64;
    let mut done = 0usize;
    let mut rr_next = 0usize;
    // Serialized master cursor for the per-task dispatch-overhead model
    // (see [`SimOptions::dispatch_overhead_s`]): a centralized runtime
    // dispatches one task at a time, so concurrent placements queue.
    let mut master_free = 0.0f64;

    let mut report = SimReport {
        makespan_s: 0.0,
        transferred_bytes: 0.0,
        transfer_time_s: 0.0,
        busy_core_s: 0.0,
        utilization: 0.0,
        tasks: n,
        busy_by_kind: BTreeMap::new(),
        lost_tasks: 0,
        reexecutions: 0,
        schedule: Vec::new(),
    };

    loop {
        // One placement sweep over the ready list at the current time,
        // in submission order.
        let mut still_ready = Vec::new();
        for (key, i) in ready.drain(..) {
            let r = &trace.records[i];
            let node = match choose_node(
                r,
                cores[i],
                gpus[i],
                &free_cores,
                &free_gpus,
                &node_up,
                &replicas,
                words,
                opts.policy,
                &mut rr_next,
            ) {
                Some(nd) => nd,
                None => {
                    still_ready.push((key, i));
                    continue;
                }
            };
            state[i] = Stat::Running;
            free_cores[node] -= cores[i] as i64;
            free_gpus[node] -= gpus[i] as i64;

            // Transfers for remote inputs (each leaves a replica behind).
            let mut xfer = 0.0;
            let mut xfer_bytes = 0u64;
            if opts.model_transfers && !r.is_marker() {
                for (d, bytes) in &r.inputs {
                    let di = d.0 as usize;
                    if !replica_has(&replicas, words, di, node) {
                        xfer += cluster.latency_s + *bytes as f64 / cluster.bandwidth_bps;
                        report.transferred_bytes += *bytes as f64;
                        xfer_bytes += *bytes as u64;
                        replica_set(&mut replicas, words, di, node);
                    }
                }
            }
            report.transfer_time_s += xfer;
            let speed = opts.node_speed.as_ref().map_or(1.0, |f| f(node));
            assert!(speed > 0.0, "node speed must be positive");
            let run_s = dur[i] / speed;
            let mut dispatch = 0.0;
            if opts.dispatch_overhead_s > 0.0 && !r.is_marker() {
                let begin = now.max(master_free);
                master_free = begin + opts.dispatch_overhead_s;
                dispatch = master_free - now;
            }
            let finish = now + dispatch + xfer + run_s;
            heap.push(Reverse(Ev {
                time: finish,
                rank: DONE,
                idx: i,
                attempt: attempt[i],
            }));
            report.busy_core_s += run_s * cores[i] as f64;
            busy_of_kind[kind_of[i]] += run_s;
            let mut sched = None;
            if !r.is_marker() {
                sched = Some(report.schedule.len());
                report.schedule.push(ScheduleEntry {
                    task: r.id,
                    name: r.name.clone(),
                    node,
                    start_s: now + dispatch,
                    transfer_s: xfer,
                    transfer_bytes: xfer_bytes,
                    end_s: finish,
                    cores: cores[i],
                    gpus: gpus[i],
                    attempt: attempt[i] + 1,
                    lost: false,
                });
            }
            running[i] = Some(RunInfo {
                node,
                start_s: now + dispatch,
                xfer_s: xfer,
                run_s,
                sched,
            });
        }
        ready = still_ready;

        if done == n {
            break;
        }

        let Reverse(ev) = heap
            .pop()
            .expect("simulation stalled: ready tasks cannot be placed and nothing is running");
        now = now.max(ev.time);
        match ev.rank {
            DONE => {
                // Drain the batch of completions sharing this time.
                let mut batch = vec![(ev.idx, ev.attempt)];
                while let Some(Reverse(p)) = heap.peek() {
                    if p.time != ev.time || p.rank != DONE {
                        break;
                    }
                    let p = heap.pop().unwrap().0;
                    batch.push((p.idx, p.attempt));
                }
                let mut newly: Vec<(u64, usize)> = Vec::new();
                for (idx, att) in batch {
                    // A failure between dispatch and completion bumped
                    // the task's attempt: this event is stale.
                    if state[idx] != Stat::Running || attempt[idx] != att {
                        continue;
                    }
                    let info = running[idx].take().expect("running task has run info");
                    state[idx] = Stat::Done;
                    done += 1;
                    free_cores[info.node] += cores[idx] as i64;
                    free_gpus[info.node] += gpus[idx] as i64;
                    for (d, _) in &trace.records[idx].outputs {
                        replica_set(&mut replicas, words, d.0 as usize, info.node);
                    }
                    for &dep in &dependents[idx] {
                        if state[dep] != Stat::Waiting {
                            continue;
                        }
                        indeg[dep] -= 1;
                        if indeg[dep] == 0 {
                            state[dep] = Stat::Ready;
                            newly.push((trace.records[dep].seq, dep));
                        }
                    }
                }
                newly.sort_unstable();
                merge_ready(&mut ready, newly);
            }
            FAIL => {
                let nd = ev.idx;
                if !node_up[nd] {
                    continue;
                }
                node_up[nd] = false;

                // Kill the node's in-flight runs: requeue the task,
                // refund the unexecuted tail, truncate its timeline bar.
                for i in 0..n {
                    if state[i] != Stat::Running {
                        continue;
                    }
                    let on_nd = running[i].as_ref().map(|ri| ri.node) == Some(nd);
                    if !on_nd {
                        continue;
                    }
                    let info = running[i].take().unwrap();
                    state[i] = Stat::Waiting;
                    attempt[i] += 1;
                    free_cores[nd] += cores[i] as i64;
                    free_gpus[nd] += gpus[i] as i64;
                    let executed = (now - info.start_s - info.xfer_s).clamp(0.0, info.run_s);
                    report.busy_core_s -= (info.run_s - executed) * cores[i] as f64;
                    busy_of_kind[kind_of[i]] -= info.run_s - executed;
                    report.lost_tasks += 1;
                    if let Some(si) = info.sched {
                        report.schedule[si].end_s = now;
                        report.schedule[si].lost = true;
                    }
                }

                // The node's memory is gone: drop its replicas of
                // produced data. External inputs live on the master's
                // durable storage and survive a node-0 failure.
                for (d, &p) in produced.iter().enumerate() {
                    if p {
                        replicas[d * words + nd / 64] &= !(1u64 << (nd % 64));
                    }
                }

                // Lineage rollback: any datum still needed by a pending
                // task whose only replica died must be re-produced, and
                // the producer's own lost inputs recurse.
                let zero_replicas = |replicas: &[u64], d: usize| {
                    replicas[d * words..(d + 1) * words].iter().all(|&w| w == 0)
                };
                let mut redo: Vec<usize> = (0..n)
                    .filter(|&i| matches!(state[i], Stat::Waiting | Stat::Ready))
                    .collect();
                while let Some(i) = redo.pop() {
                    for (d, _) in &trace.records[i].inputs {
                        let di = d.0 as usize;
                        if !zero_replicas(&replicas, di) {
                            continue;
                        }
                        let Some(p) = producer_of[di] else { continue };
                        if state[p] != Stat::Done {
                            continue;
                        }
                        state[p] = Stat::Waiting;
                        attempt[p] += 1;
                        done -= 1;
                        report.reexecutions += 1;
                        redo.push(p);
                    }
                }

                // Re-derive the dependency frontier for every pending
                // task (O(V+E); failures are rare events).
                ready.clear();
                for i in 0..n {
                    if !matches!(state[i], Stat::Waiting | Stat::Ready) {
                        continue;
                    }
                    let mut k = 0usize;
                    for d in &trace.records[i].deps {
                        if let Some(&j) = index.get(d) {
                            if state[j] != Stat::Done {
                                k += 1;
                            }
                        }
                    }
                    indeg[i] = k;
                    if k == 0 {
                        state[i] = Stat::Ready;
                        ready.push((trace.records[i].seq, i));
                    } else {
                        state[i] = Stat::Waiting;
                    }
                }
                ready.sort_unstable();
            }
            _ => {
                // RECOVER: capacity was refunded when the node failed;
                // the node rejoins empty (its replicas stay cleared).
                node_up[ev.idx] = true;
            }
        }
    }

    report.makespan_s = now;
    report.busy_by_kind = kind_names.into_iter().zip(busy_of_kind).collect();
    report
        .schedule
        .sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.node.cmp(&b.node)));
    let denom = now * cluster.total_cores() as f64;
    report.utilization = if denom > 0.0 {
        report.busy_core_s / denom
    } else {
        0.0
    };
    report
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
            // Node failures hit the outer cluster, not nested replays.
            failures: Vec::new(),
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

#[allow(clippy::too_many_arguments)]
fn choose_node(
    r: &TaskRecord,
    cores: u32,
    gpus: u32,
    free_cores: &[i64],
    free_gpus: &[i64],
    node_up: &[bool],
    replicas: &[u64],
    words: usize,
    policy: Policy,
    rr_next: &mut usize,
) -> Option<usize> {
    let nodes = free_cores.len();
    let fits =
        |nd: usize| node_up[nd] && free_cores[nd] >= cores as i64 && free_gpus[nd] >= gpus as i64;

    match policy {
        Policy::Fifo => (0..nodes).find(|&nd| fits(nd)),
        Policy::RoundRobin => {
            for k in 0..nodes {
                let nd = (*rr_next + k) % nodes;
                if fits(nd) {
                    *rr_next = (nd + 1) % nodes;
                    return Some(nd);
                }
            }
            None
        }
        Policy::LocalityAware => {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::{DataId, TaskId};

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
            seq: id,
            ready_s: 0.0,
            start_s: 0.0,
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
            failures: Vec::new(),
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
        assert!((r8.utilization - 1.0).abs() < 1e-9);
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
        // Producer then consumer with a huge intermediate; on one node no
        // transfer, on round-robin two nodes the consumer pays.
        let mut producer = rec(0, &[], 1.0, 1);
        producer.outputs = vec![(DataId(0), 1_000_000_000)]; // 1 GB
        let mut consumer = rec(1, &[0], 1.0, 1);
        consumer.inputs = vec![(DataId(0), 1_000_000_000)];
        let t = Trace {
            records: vec![producer, consumer],
        };

        let local = simulate(&t, &cluster(1, 2), &SimOptions::with_policy(Policy::Fifo));
        assert!((local.makespan_s - 2.0).abs() < 1e-9);
        assert_eq!(local.transferred_bytes, 0.0);

        let remote = simulate(
            &t,
            &cluster(2, 1),
            &SimOptions::with_policy(Policy::RoundRobin),
        );
        assert!(remote.makespan_s > 2.5, "got {}", remote.makespan_s);
        assert!(remote.transferred_bytes > 0.0);

        // Locality-aware avoids the transfer even with two nodes.
        let smart = simulate(
            &t,
            &cluster(2, 1),
            &SimOptions::with_policy(Policy::LocalityAware),
        );
        assert!((smart.makespan_s - 2.0).abs() < 1e-9);
        assert_eq!(smart.transferred_bytes, 0.0);
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

    #[test]
    fn heterogeneous_node_speeds_slow_placed_tasks() {
        // Two independent tasks, two single-core nodes, node 1 at half
        // speed: the greedy scheduler uses both, and the makespan is set
        // by the slow node.
        let t = Trace {
            records: vec![rec(0, &[], 1.0, 1), rec(1, &[], 1.0, 1)],
        };
        let opts = SimOptions {
            node_speed: Some(Arc::new(|n| if n == 0 { 1.0 } else { 0.5 })),
            ..SimOptions::default()
        };
        let rep = simulate(&t, &cluster(2, 1), &opts);
        assert!(
            (rep.makespan_s - 2.0).abs() < 1e-9,
            "got {}",
            rep.makespan_s
        );

        // Homogeneous double-speed halves everything.
        let opts = SimOptions {
            node_speed: Some(Arc::new(|_| 2.0)),
            ..SimOptions::default()
        };
        let rep = simulate(&t, &cluster(2, 1), &opts);
        assert!((rep.makespan_s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn node_failure_strictly_increases_makespan() {
        // Eight independent 1s tasks on 2×2 cores: two waves, 2s healthy.
        let t = Trace {
            records: (0..8).map(|i| rec(i, &[], 1.0, 1)).collect(),
        };
        let healthy = simulate(&t, &cluster(2, 2), &SimOptions::default());
        assert!((healthy.makespan_s - 2.0).abs() < 1e-9);

        let c = cluster(2, 2).with_failure(1, 0.5);
        let faulty = simulate(&t, &c, &SimOptions::default());
        assert!(
            faulty.makespan_s > healthy.makespan_s,
            "failure must cost time: {} vs {}",
            faulty.makespan_s,
            healthy.makespan_s
        );
        assert_eq!(faulty.lost_tasks, 2, "two in-flight runs die with node 1");
        // Every task still completes exactly once.
        let completed = faulty.schedule.iter().filter(|e| !e.lost).count();
        assert_eq!(completed, 8);
        assert!(faulty.schedule.iter().any(|e| e.lost && e.attempt == 1));

        // Deterministic: same spec, same report.
        let again = simulate(&t, &c, &SimOptions::default());
        assert_eq!(again.makespan_s, faulty.makespan_s);
        assert_eq!(again.lost_tasks, faulty.lost_tasks);
        assert_eq!(again.reexecutions, faulty.reexecutions);
    }

    #[test]
    fn node_failure_triggers_lineage_rollback() {
        // producer -> consumer, both on node 0 (locality). Node 0 dies
        // while the consumer runs: the producer's only output replica is
        // lost, so it must re-execute on the survivor first.
        let t = Trace {
            records: vec![rec(0, &[], 1.0, 1), rec(1, &[0], 1.0, 1)],
        };
        let healthy = simulate(&t, &cluster(2, 1), &SimOptions::default());
        assert!((healthy.makespan_s - 2.0).abs() < 1e-9);

        let c = cluster(2, 1).with_failure(0, 1.5);
        let faulty = simulate(&t, &c, &SimOptions::default());
        assert_eq!(faulty.lost_tasks, 1, "consumer run dies");
        assert_eq!(faulty.reexecutions, 1, "producer output must be rebuilt");
        // 1.5 (failure) + 1.0 (producer redo) + 1.0 (consumer) = 3.5.
        assert!(
            (faulty.makespan_s - 3.5).abs() < 1e-9,
            "got {}",
            faulty.makespan_s
        );
        // The final consumer run happens on the surviving node 1.
        let last = faulty
            .schedule
            .iter()
            .rfind(|e| !e.lost && e.task == TaskId(1))
            .unwrap();
        assert_eq!(last.node, 1);
        assert_eq!(last.attempt, 2);
    }

    #[test]
    fn node_recovery_restores_capacity_without_memory() {
        // Single-node cluster: the failure kills the first task, and
        // nothing can run until the node rejoins at t=5.
        let t = Trace {
            records: vec![rec(0, &[], 1.0, 1), rec(1, &[], 1.0, 1)],
        };
        let c = cluster(1, 1).with_failure_and_recovery(0, 0.5, 5.0);
        let rep = simulate(&t, &c, &SimOptions::default());
        assert_eq!(rep.lost_tasks, 1);
        // 5.0 (rejoin) + 1.0 + 1.0 serial on one core.
        assert!(
            (rep.makespan_s - 7.0).abs() < 1e-9,
            "got {}",
            rep.makespan_s
        );
    }

    #[test]
    fn external_master_data_survives_node_zero_failure() {
        // Task consumes external (non-produced) data living on node 0.
        // Node 0 failing and recovering must not orphan that datum: it
        // is durable master storage, so the task re-runs successfully.
        let mut r = rec(0, &[], 1.0, 1);
        r.inputs = vec![(DataId(99), 1000)];
        let t = Trace { records: vec![r] };
        let c = cluster(2, 1).with_failure(0, 0.5);
        let rep = simulate(&t, &c, &SimOptions::default());
        let completed = rep.schedule.iter().filter(|e| !e.lost).count();
        assert_eq!(completed, 1);
        assert_eq!(rep.reexecutions, 0);
    }

    #[test]
    fn busy_by_kind_accumulates() {
        let t = Trace {
            records: vec![rec(0, &[], 1.0, 1), rec(3, &[], 2.0, 1)],
        };
        let rep = simulate(&t, &cluster(1, 2), &SimOptions::default());
        assert!((rep.busy_by_kind["k0"] - 3.0).abs() < 1e-9);
    }
}
