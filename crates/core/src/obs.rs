//! Observability: runtime statistics and the views derived from a
//! finished run.
//!
//! The paper's methodology rests on *measuring* workflows: PyCOMPSs
//! emits Extrae traces that are inspected in Paraver to explain every
//! scalability curve and anomaly. This module plays that role for
//! `taskrt`. Each task's [`crate::TaskRecord`] is the one per-task stamp
//! a runtime writes, and a simulated schedule's
//! [`crate::sim::ScheduleEntry`]s are the DES's; the views below are
//! computed from those after the run:
//!
//! * **[`RuntimeStats`]** — the scheduler's statistics (tasks per
//!   worker, steal attempts/successes, injector batches, wakeups,
//!   parks/idle time, driver stalls, queue-wait vs run time). The
//!   per-task fields are derived from the task rows when
//!   [`crate::Runtime::stats`] is called, and the handful of
//!   scheduler-internal counts are plain integers kept beside the locks
//!   their sites already hold. Nothing here is switched on or off.
//! * **[`chrome_trace`] / [`chrome_trace_schedule`]** — Chrome-trace
//!   format (`chrome://tracing` / [Perfetto](https://ui.perfetto.dev))
//!   JSON timelines: one track per executor (driver + workers) for a
//!   recorded [`Trace`], one track per cluster node for a simulated
//!   schedule. This is the Paraver-timeline equivalent.
//! * **[`Profile`]** — per-task-kind aggregation over a trace: count,
//!   total/mean/p50/p95 duration, p50/p95 queue wait, bytes in/out, and
//!   the share of the critical path each kind is responsible for.
//! * **[`SimProfile`]** — per-node breakdown of a [`SimReport`]: busy
//!   (wall and task-seconds), transfer time, idle time, link bytes
//!   received, plus cluster-wide *stall* time (instants where no node
//!   runs anything — the cost of `wait`/`barrier` serialization).
//! * **[`stragglers`]** — tasks slower than `k×` their kind's running
//!   median, attributed to worker and retries.
//! * **[`divergence`]** — a measured run against its DES replay:
//!   makespan and per-kind busy time.
//!
//! `cargo run --release -p bench --bin profile` exercises all of the
//! above on a real pipeline and writes `out/profile.json` plus two
//! `.trace.json` timelines.

use crate::json::Value;
use crate::sim::SimReport;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A point-in-time snapshot of the scheduler's statistics (see
/// [`crate::Runtime::stats`]). The per-task fields (tasks per executor,
/// queue wait, run time, retries, give-ups, poisoned, cancelled) are
/// derived from the task rows; the rest are scheduler-internal counts
/// kept beside the locks their sites hold.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeStats {
    /// Tasks executed by each pool worker (empty in inline mode).
    pub worker_tasks: Vec<u64>,
    /// Tasks executed on a driver thread (inline or cooperative wait).
    pub driver_tasks: u64,
    /// Steal probes into sibling deques.
    pub steal_attempts: u64,
    /// Steal probes that obtained work.
    pub steal_successes: u64,
    /// Tasks acquired via stealing.
    pub stolen_tasks: u64,
    /// Tasks executed on the worker their affinity hint named (the
    /// producer of their largest input). Zero on an inline runtime
    /// or when no worker-produced input existed.
    pub locality_hits: u64,
    /// Tasks with a worker affinity hint that executed elsewhere.
    pub locality_misses: u64,
    /// Staged-submission batches flushed to the injector.
    pub injector_flushes: u64,
    /// Total tasks that passed through the injector.
    pub injector_flushed_tasks: u64,
    /// Wake tokens granted (`notify_one` calls issued).
    pub wakeups: u64,
    /// INOUT parameters the runtime handed over by move: the executing
    /// task was the last live consumer, so its closure mutated the
    /// existing buffer instead of cloning it.
    pub inout_steals: u64,
    /// INOUT parameters that fell back to clone-on-shared (the input
    /// still had another live consumer at dispatch).
    pub inout_copies: u64,
    /// Failed attempts resubmitted under [`crate::OnFailure::Retry`].
    pub retries: u64,
    /// Tasks that exhausted their retry budget and failed for good.
    pub giveups: u64,
    /// Outputs poisoned by [`crate::OnFailure::Ignore`] tasks.
    pub poisoned: u64,
    /// Tasks cancelled because a failed predecessor's policy removed
    /// them from the schedule ([`crate::OnFailure::Ignore`] or
    /// [`crate::OnFailure::CancelSuccessors`]).
    pub cancelled: u64,
    /// Worker condvar sleeps.
    pub worker_parks: u64,
    /// Total seconds workers were parked.
    pub worker_idle_s: f64,
    /// Driver condvar sleeps inside `wait`/`barrier`.
    pub driver_parks: u64,
    /// Total seconds the driver was parked in `wait`/`barrier`.
    pub driver_stall_s: f64,
    /// Summed ready-to-start latency over tasks with a ready stamp
    /// (every task a threaded runtime queues; none an inline runtime
    /// runs at submission).
    pub queue_wait_s: f64,
    /// The divisor of [`RuntimeStats::mean_queue_wait_s`]: every
    /// executed task, since a task that never queued waited 0 s.
    pub queued_tasks: u64,
    /// Summed task-body execution seconds, over every attempt.
    pub run_s: f64,
}

impl RuntimeStats {
    /// Total tasks executed (workers + driver).
    pub fn total_tasks(&self) -> u64 {
        self.driver_tasks + self.worker_tasks.iter().sum::<u64>()
    }

    /// Mean seconds a task waited between release and start.
    pub fn mean_queue_wait_s(&self) -> f64 {
        if self.queued_tasks == 0 {
            0.0
        } else {
            self.queue_wait_s / self.queued_tasks as f64
        }
    }

    /// Fraction of steal probes that found work.
    pub fn steal_hit_rate(&self) -> f64 {
        if self.steal_attempts == 0 {
            0.0
        } else {
            self.steal_successes as f64 / self.steal_attempts as f64
        }
    }

    /// Fraction of affinity-hinted tasks that ran on the worker whose
    /// cache held their largest input (0.0 when nothing was hinted).
    pub fn locality_hit_rate(&self) -> f64 {
        let total = self.locality_hits + self.locality_misses;
        if total == 0 {
            0.0
        } else {
            self.locality_hits as f64 / total as f64
        }
    }

    /// Fraction of INOUT parameters handed over by move rather than
    /// clone (0.0 when no INOUT task ran).
    pub fn inout_steal_rate(&self) -> f64 {
        let total = self.inout_steals + self.inout_copies;
        if total == 0 {
            0.0
        } else {
            self.inout_steals as f64 / total as f64
        }
    }

    /// Encodes the snapshot as a JSON tree.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "worker_tasks".into(),
                Value::Array(self.worker_tasks.iter().map(|&n| Value::from(n)).collect()),
            ),
            ("driver_tasks".into(), Value::from(self.driver_tasks)),
            ("total_tasks".into(), Value::from(self.total_tasks())),
            ("steal_attempts".into(), Value::from(self.steal_attempts)),
            ("steal_successes".into(), Value::from(self.steal_successes)),
            ("stolen_tasks".into(), Value::from(self.stolen_tasks)),
            ("steal_hit_rate".into(), Value::from(self.steal_hit_rate())),
            ("locality_hits".into(), Value::from(self.locality_hits)),
            ("locality_misses".into(), Value::from(self.locality_misses)),
            (
                "locality_hit_rate".into(),
                Value::from(self.locality_hit_rate()),
            ),
            (
                "injector_flushes".into(),
                Value::from(self.injector_flushes),
            ),
            (
                "injector_flushed_tasks".into(),
                Value::from(self.injector_flushed_tasks),
            ),
            ("wakeups".into(), Value::from(self.wakeups)),
            ("inout_steals".into(), Value::from(self.inout_steals)),
            ("inout_copies".into(), Value::from(self.inout_copies)),
            (
                "inout_steal_rate".into(),
                Value::from(self.inout_steal_rate()),
            ),
            ("retries".into(), Value::from(self.retries)),
            ("giveups".into(), Value::from(self.giveups)),
            ("poisoned".into(), Value::from(self.poisoned)),
            ("cancelled".into(), Value::from(self.cancelled)),
            ("worker_parks".into(), Value::from(self.worker_parks)),
            ("worker_idle_s".into(), Value::from(self.worker_idle_s)),
            ("driver_parks".into(), Value::from(self.driver_parks)),
            ("driver_stall_s".into(), Value::from(self.driver_stall_s)),
            ("queue_wait_s".into(), Value::from(self.queue_wait_s)),
            ("queued_tasks".into(), Value::from(self.queued_tasks)),
            (
                "mean_queue_wait_s".into(),
                Value::from(self.mean_queue_wait_s()),
            ),
            ("run_s".into(), Value::from(self.run_s)),
        ])
    }

    /// Renders the snapshot as a small human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        writeln!(out, "scheduler counters").unwrap();
        writeln!(out, "  tasks executed     {:>12}", self.total_tasks()).unwrap();
        writeln!(out, "    by driver        {:>12}", self.driver_tasks).unwrap();
        for (i, n) in self.worker_tasks.iter().enumerate() {
            writeln!(out, "    by worker {i:<2}     {n:>12}").unwrap();
        }
        writeln!(
            out,
            "  steals             {:>12} ok / {} probes ({:.1}% hit, {} tasks)",
            self.steal_successes,
            self.steal_attempts,
            self.steal_hit_rate() * 100.0,
            self.stolen_tasks
        )
        .unwrap();
        if self.locality_hits + self.locality_misses > 0 {
            writeln!(
                out,
                "  locality           {:>12} hits / {} misses ({:.1}% hit rate)",
                self.locality_hits,
                self.locality_misses,
                self.locality_hit_rate() * 100.0
            )
            .unwrap();
        }
        writeln!(
            out,
            "  injector flushes   {:>12} ({} tasks)",
            self.injector_flushes, self.injector_flushed_tasks
        )
        .unwrap();
        writeln!(out, "  wakeups            {:>12}", self.wakeups).unwrap();
        writeln!(
            out,
            "  inout params       {:>12} stolen / {} copied ({:.1}% steal rate)",
            self.inout_steals,
            self.inout_copies,
            self.inout_steal_rate() * 100.0
        )
        .unwrap();
        if self.retries + self.giveups + self.poisoned + self.cancelled > 0 {
            writeln!(
                out,
                "  faults             {:>12} retries / {} giveups / {} poisoned / {} cancelled",
                self.retries, self.giveups, self.poisoned, self.cancelled
            )
            .unwrap();
        }
        writeln!(
            out,
            "  worker parks       {:>12} ({:.4}s idle)",
            self.worker_parks, self.worker_idle_s
        )
        .unwrap();
        writeln!(
            out,
            "  driver parks       {:>12} ({:.4}s stalled)",
            self.driver_parks, self.driver_stall_s
        )
        .unwrap();
        writeln!(
            out,
            "  queue wait         {:>12.6}s total, {:.2}us mean",
            self.queue_wait_s,
            self.mean_queue_wait_s() * 1e6
        )
        .unwrap();
        writeln!(out, "  run time           {:>12.6}s total", self.run_s).unwrap();
        out
    }
}

fn ev(fields: Vec<(String, Value)>) -> Value {
    Value::Object(fields)
}

fn thread_name_event(pid: u64, tid: u64, name: &str) -> Value {
    ev(vec![
        ("name".into(), Value::from("thread_name")),
        ("ph".into(), Value::from("M")),
        ("pid".into(), Value::from(pid)),
        ("tid".into(), Value::from(tid)),
        (
            "args".into(),
            Value::Object(vec![("name".into(), Value::from(name))]),
        ),
    ])
}

/// Exports a recorded [`Trace`] as Chrome-trace-format JSON (open in
/// `chrome://tracing` or <https://ui.perfetto.dev>) — the Paraver
/// timeline of a *real* run. One track per executor: the driver thread
/// plus each pool worker. Timestamps are the recorded
/// [`crate::TaskRecord::start_s`] offsets from the runtime epoch.
///
/// Only records whose body ran ([`crate::TaskRecord::ran`]) get a
/// slice: sync/barrier markers and tasks failed or cancelled before
/// running have no start to draw. Nested child traces run on their own
/// clock and are likewise not flattened in. Each of `stragglers` (see
/// [`stragglers`]) gets an `instant` marker (`ph:"i"`) at its task's
/// start on the same track, so Perfetto renders the verdicts as
/// droplets over the timeline; the marker's args carry the slowdown
/// factor and the kind's median at flag time.
pub fn chrome_trace(trace: &Trace, stragglers: &[Straggler]) -> String {
    let mut events = Vec::new();
    // One metadata record per executor track, driver first.
    let max_worker = trace
        .records
        .iter()
        .filter(|r| r.ran())
        .map(|r| r.worker)
        .max()
        .unwrap_or(-1);
    events.push(thread_name_event(0, 0, "driver"));
    for w in 0..=max_worker.max(-1) {
        if w >= 0 {
            events.push(thread_name_event(0, (w + 1) as u64, &format!("worker {w}")));
        }
    }
    for r in trace.records.iter().filter(|r| r.ran()) {
        let tid = (r.worker + 1).max(0) as u64;
        let bytes_in: usize = r.inputs.iter().map(|(_, b)| b).sum();
        let bytes_out: usize = r.outputs.iter().map(|(_, b)| b).sum();
        // Failed attempts render as their own slices ahead of the final
        // one, so retries are visible as repeated bars on the timeline.
        // (The record's own slice below covers the last attempt.)
        for (i, a) in r.attempts.iter().enumerate() {
            let Some(err) = &a.error else { continue };
            events.push(ev(vec![
                (
                    "name".into(),
                    Value::from(format!("{} (attempt {})", r.name, i + 1)),
                ),
                ("cat".into(), Value::from("attempt")),
                ("ph".into(), Value::from("X")),
                ("ts".into(), Value::from(a.start_s * 1e6)),
                ("dur".into(), Value::from(a.duration_s * 1e6)),
                ("pid".into(), Value::from(0u64)),
                ("tid".into(), Value::from(tid)),
                (
                    "args".into(),
                    Value::Object(vec![
                        ("task".into(), Value::from(r.id.0)),
                        ("attempt".into(), Value::from(i + 1)),
                        ("error".into(), Value::from(err.as_str())),
                    ]),
                ),
            ]));
        }
        events.push(ev(vec![
            ("name".into(), Value::from(r.name.as_str())),
            ("cat".into(), Value::from("task")),
            ("ph".into(), Value::from("X")),
            ("ts".into(), Value::from(r.start_s * 1e6)),
            ("dur".into(), Value::from(r.duration_s * 1e6)),
            ("pid".into(), Value::from(0u64)),
            ("tid".into(), Value::from(tid)),
            (
                "args".into(),
                Value::Object(vec![
                    ("task".into(), Value::from(r.id.0)),
                    ("bytes_in".into(), Value::from(bytes_in)),
                    ("bytes_out".into(), Value::from(bytes_out)),
                ]),
            ),
        ]));
    }
    for s in stragglers {
        let Some(r) = trace.records.iter().find(|r| r.id.0 == s.task) else {
            continue;
        };
        events.push(ev(vec![
            ("name".into(), Value::from(format!("straggler:{}", s.name))),
            ("cat".into(), Value::from("straggler")),
            ("ph".into(), Value::from("i")),
            ("s".into(), Value::from("t")), // thread-scoped droplet
            ("ts".into(), Value::from(r.start_s * 1e6)),
            ("pid".into(), Value::from(0u64)),
            ("tid".into(), Value::from((r.worker + 1).max(0) as u64)),
            (
                "args".into(),
                Value::Object(vec![
                    ("task".into(), Value::from(s.task)),
                    ("factor".into(), Value::Number(s.factor)),
                    ("median_s".into(), Value::Number(s.median_s)),
                    ("retried".into(), Value::from(s.retried)),
                ]),
            ),
        ]));
    }
    ev(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::from("ms")),
    ])
    .pretty()
}

/// Exports a simulated schedule as Chrome-trace-format JSON — the
/// Paraver timeline of a *what-if* run. One track per cluster node;
/// each placed task renders as a `transfer` slice (when inputs had to
/// move) followed by a `compute` slice.
pub fn chrome_trace_schedule(report: &SimReport) -> String {
    let mut events = Vec::new();
    let max_node = report.schedule.iter().map(|e| e.node).max().unwrap_or(0);
    for node in 0..=max_node {
        events.push(thread_name_event(0, node as u64, &format!("node {node}")));
    }
    for e in &report.schedule {
        if e.transfer_s > 0.0 {
            events.push(ev(vec![
                ("name".into(), Value::from(format!("xfer:{}", e.name))),
                ("cat".into(), Value::from("transfer")),
                ("ph".into(), Value::from("X")),
                ("ts".into(), Value::from(e.start_s * 1e6)),
                ("dur".into(), Value::from(e.transfer_s * 1e6)),
                ("pid".into(), Value::from(0u64)),
                ("tid".into(), Value::from(e.node)),
                (
                    "args".into(),
                    Value::Object(vec![
                        ("task".into(), Value::from(e.task.0)),
                        ("bytes".into(), Value::from(e.transfer_bytes)),
                    ]),
                ),
            ]));
        }
        events.push(ev(vec![
            ("name".into(), Value::from(e.name.as_str())),
            ("cat".into(), Value::from("compute")),
            ("ph".into(), Value::from("X")),
            ("ts".into(), Value::from((e.start_s + e.transfer_s) * 1e6)),
            (
                "dur".into(),
                Value::from((e.end_s - e.start_s - e.transfer_s).max(0.0) * 1e6),
            ),
            ("pid".into(), Value::from(0u64)),
            ("tid".into(), Value::from(e.node)),
            (
                "args".into(),
                Value::Object(vec![
                    ("task".into(), Value::from(e.task.0)),
                    ("cores".into(), Value::from(e.cores)),
                    ("gpus".into(), Value::from(e.gpus)),
                ]),
            ),
        ]));
    }
    ev(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::from("ms")),
    ])
    .pretty()
}

/// Aggregated statistics for one task kind (see [`Profile`]).
#[derive(Debug, Clone)]
pub struct KindStats {
    /// Task kind name.
    pub name: String,
    /// Number of executed tasks of this kind.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Mean duration, seconds.
    pub mean_s: f64,
    /// Median duration, seconds.
    pub p50_s: f64,
    /// 95th-percentile duration, seconds.
    pub p95_s: f64,
    /// Median queue wait, seconds: from [`crate::TaskRecord::ready_s`]
    /// to the first attempt's start, over the kind's tasks with a ready
    /// stamp (0 when none has one, as on an inline runtime).
    pub wait_p50_s: f64,
    /// 95th-percentile queue wait, seconds, over the same tasks.
    pub wait_p95_s: f64,
    /// Summed input bytes.
    pub bytes_in: u64,
    /// Summed output bytes.
    pub bytes_out: u64,
    /// Seconds this kind contributes to the trace's critical path.
    pub critical_path_s: f64,
}

/// Per-task-kind profile of a recorded [`Trace`] — the answer to
/// "where did the time go", including which kinds dominate the
/// critical path (and therefore bound any schedule's makespan).
#[derive(Debug, Clone)]
pub struct Profile {
    /// Per-kind rows, ordered by descending total duration.
    pub kinds: Vec<KindStats>,
    /// User tasks profiled (those whose body ran; markers excluded).
    pub task_count: usize,
    /// Summed user-task duration, seconds.
    pub total_work_s: f64,
    /// Critical-path length of the trace, seconds.
    pub critical_path_s: f64,
}

/// The `q`-quantile of an ascending-sorted slice: the element at index
/// `round(q·(n−1))`, so no interpolation (p50 of four values is the
/// third smallest). Every quantile this module reports uses it.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

impl Profile {
    /// Builds the profile of a trace. Only user tasks whose body ran
    /// ([`crate::TaskRecord::ran`]) enter the per-kind rows: markers
    /// and tasks failed or cancelled before running are excluded.
    /// Nested child traces are not folded in (the parent's duration
    /// already encloses them).
    pub fn from_trace(trace: &Trace) -> Profile {
        let profiled = || trace.records.iter().filter(|r| r.ran() && !r.is_marker());
        let mut durs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut waits: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut bytes: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for r in profiled() {
            durs.entry(&r.name).or_default().push(r.duration_s);
            if r.ready_s > 0.0 {
                let first_start = r.attempts.first().map_or(r.start_s, |a| a.start_s);
                let wait = (first_start - r.ready_s).max(0.0);
                waits.entry(&r.name).or_default().push(wait);
            }
            let e = bytes.entry(&r.name).or_insert((0, 0));
            e.0 += r.inputs.iter().map(|(_, b)| *b as u64).sum::<u64>();
            e.1 += r.outputs.iter().map(|(_, b)| *b as u64).sum::<u64>();
        }

        // Attribute the critical path's time to kinds.
        let (path, critical_path_s) = trace.critical_path();
        let index = trace.index_by_id();
        let mut cp_of: BTreeMap<&str, f64> = BTreeMap::new();
        for r in path.iter().map(|id| &trace.records[index[id]]) {
            if !r.is_marker() {
                *cp_of.entry(&r.name).or_insert(0.0) += r.duration_s;
            }
        }

        let mut kinds: Vec<KindStats> = durs
            .into_iter()
            .map(|(name, mut ds)| {
                ds.sort_by(f64::total_cmp);
                let total: f64 = ds.iter().sum();
                let mut ws = waits.remove(name).unwrap_or_default();
                ws.sort_by(f64::total_cmp);
                let (bin, bout) = bytes[name];
                KindStats {
                    name: name.to_string(),
                    count: ds.len(),
                    total_s: total,
                    mean_s: total / ds.len() as f64,
                    p50_s: percentile(&ds, 0.50),
                    p95_s: percentile(&ds, 0.95),
                    wait_p50_s: percentile(&ws, 0.50),
                    wait_p95_s: percentile(&ws, 0.95),
                    bytes_in: bin,
                    bytes_out: bout,
                    critical_path_s: cp_of.get(name).copied().unwrap_or(0.0),
                }
            })
            .collect();
        kinds.sort_by(|a, b| b.total_s.total_cmp(&a.total_s).then(a.name.cmp(&b.name)));
        Profile {
            kinds,
            task_count: profiled().count(),
            total_work_s: trace.total_work_s(),
            critical_path_s,
        }
    }

    /// Share of the critical path attributed to `kind` (0..=1).
    pub fn critical_share(&self, kind: &str) -> f64 {
        if self.critical_path_s <= 0.0 {
            return 0.0;
        }
        self.kinds
            .iter()
            .find(|k| k.name == kind)
            .map_or(0.0, |k| k.critical_path_s / self.critical_path_s)
    }

    /// Encodes the profile as a JSON tree.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("task_count".into(), Value::from(self.task_count)),
            ("total_work_s".into(), Value::from(self.total_work_s)),
            ("critical_path_s".into(), Value::from(self.critical_path_s)),
            (
                "kinds".into(),
                Value::Array(
                    self.kinds
                        .iter()
                        .map(|k| {
                            Value::Object(vec![
                                ("name".into(), Value::from(k.name.as_str())),
                                ("count".into(), Value::from(k.count)),
                                ("total_s".into(), Value::from(k.total_s)),
                                ("mean_s".into(), Value::from(k.mean_s)),
                                ("p50_s".into(), Value::from(k.p50_s)),
                                ("p95_s".into(), Value::from(k.p95_s)),
                                ("wait_p50_s".into(), Value::from(k.wait_p50_s)),
                                ("wait_p95_s".into(), Value::from(k.wait_p95_s)),
                                ("bytes_in".into(), Value::from(k.bytes_in)),
                                ("bytes_out".into(), Value::from(k.bytes_out)),
                                ("critical_path_s".into(), Value::from(k.critical_path_s)),
                                (
                                    "critical_share".into(),
                                    Value::from(self.critical_share(&k.name)),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the profile as a fixed-width table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "profile: {} tasks, {:.4}s work, {:.4}s critical path",
            self.task_count, self.total_work_s, self.critical_path_s
        )
        .unwrap();
        writeln!(
            out,
            "{:<18} {:>7} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12} {:>7}",
            "kind", "count", "total_s", "mean_s", "p50_s", "p95_s", "bytes_in", "bytes_out", "cp%"
        )
        .unwrap();
        for k in &self.kinds {
            writeln!(
                out,
                "{:<18} {:>7} {:>10.4} {:>10.6} {:>10.6} {:>10.6} {:>12} {:>12} {:>6.1}%",
                k.name,
                k.count,
                k.total_s,
                k.mean_s,
                k.p50_s,
                k.p95_s,
                k.bytes_in,
                k.bytes_out,
                self.critical_share(&k.name) * 100.0
            )
            .unwrap();
        }
        out
    }
}

/// Per-node statistics of a simulated schedule (see [`SimProfile`]).
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// Node index.
    pub node: usize,
    /// Wall seconds the node had at least one task in flight.
    pub busy_s: f64,
    /// Occupancy in task-seconds (sum of per-task compute durations —
    /// exceeds `busy_s` when tasks overlap on the node).
    pub task_s: f64,
    /// Seconds spent in input transfers (summed over tasks).
    pub transfer_s: f64,
    /// Wall seconds the node ran nothing (`makespan - busy_s`).
    pub idle_s: f64,
    /// Tasks placed on the node.
    pub tasks: usize,
    /// Bytes transferred *to* this node for task inputs.
    pub bytes_in: u64,
}

/// Per-node utilization breakdown of a [`SimReport`] — the summary
/// Paraver's node-level views give the paper (e.g. the idle stretches
/// that explain the RF 2-vs-3-node anomaly).
#[derive(Debug, Clone)]
pub struct SimProfile {
    /// Makespan of the schedule, seconds.
    pub makespan_s: f64,
    /// Per-node rows, indexed by node.
    pub nodes: Vec<NodeStats>,
    /// Wall seconds during which *no* node ran anything — time the
    /// whole cluster stalled behind `wait`/`barrier` serialization.
    pub stall_s: f64,
    /// Total bytes moved over inter-node links.
    pub link_bytes: u64,
    /// Cluster utilization carried over from the report.
    pub utilization: f64,
}

/// Wall-clock coverage of a set of `[start, end)` intervals.
fn coverage(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = ce.max(e),
            _ => {
                if let Some((cs, ce)) = cur.take() {
                    covered += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

impl SimProfile {
    /// Builds the per-node breakdown from a simulation report.
    /// `nodes` is the cluster's node count (idle nodes still get rows).
    pub fn from_report(report: &SimReport, nodes: usize) -> SimProfile {
        let mut rows: Vec<NodeStats> = (0..nodes)
            .map(|node| NodeStats {
                node,
                busy_s: 0.0,
                task_s: 0.0,
                transfer_s: 0.0,
                idle_s: 0.0,
                tasks: 0,
                bytes_in: 0,
            })
            .collect();
        let mut per_node_iv: Vec<Vec<(f64, f64)>> = vec![Vec::new(); nodes];
        let mut all_iv: Vec<(f64, f64)> = Vec::new();
        for e in &report.schedule {
            if e.node >= nodes {
                continue;
            }
            let row = &mut rows[e.node];
            row.task_s += (e.end_s - e.start_s - e.transfer_s).max(0.0);
            row.transfer_s += e.transfer_s;
            row.tasks += 1;
            row.bytes_in += e.transfer_bytes;
            per_node_iv[e.node].push((e.start_s, e.end_s));
            all_iv.push((e.start_s, e.end_s));
        }
        for (row, iv) in rows.iter_mut().zip(per_node_iv) {
            row.busy_s = coverage(iv);
            row.idle_s = (report.makespan_s - row.busy_s).max(0.0);
        }
        SimProfile {
            makespan_s: report.makespan_s,
            stall_s: (report.makespan_s - coverage(all_iv)).max(0.0),
            link_bytes: report.transferred_bytes as u64,
            utilization: report.utilization,
            nodes: rows,
        }
    }

    /// Encodes the breakdown as a JSON tree.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("makespan_s".into(), Value::from(self.makespan_s)),
            ("stall_s".into(), Value::from(self.stall_s)),
            ("link_bytes".into(), Value::from(self.link_bytes)),
            ("utilization".into(), Value::from(self.utilization)),
            (
                "nodes".into(),
                Value::Array(
                    self.nodes
                        .iter()
                        .map(|n| {
                            Value::Object(vec![
                                ("node".into(), Value::from(n.node)),
                                ("busy_s".into(), Value::from(n.busy_s)),
                                ("task_s".into(), Value::from(n.task_s)),
                                ("transfer_s".into(), Value::from(n.transfer_s)),
                                ("idle_s".into(), Value::from(n.idle_s)),
                                ("tasks".into(), Value::from(n.tasks)),
                                ("bytes_in".into(), Value::from(n.bytes_in)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the breakdown as a fixed-width table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "simulated schedule: makespan {:.4}s, stall {:.4}s, {} link bytes, {:.1}% utilization",
            self.makespan_s,
            self.stall_s,
            self.link_bytes,
            self.utilization * 100.0
        )
        .unwrap();
        writeln!(
            out,
            "{:<6} {:>7} {:>10} {:>10} {:>10} {:>10} {:>12}",
            "node", "tasks", "busy_s", "task_s", "xfer_s", "idle_s", "bytes_in"
        )
        .unwrap();
        for n in &self.nodes {
            writeln!(
                out,
                "{:<6} {:>7} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>12}",
                n.node, n.tasks, n.busy_s, n.task_s, n.transfer_s, n.idle_s, n.bytes_in
            )
            .unwrap();
        }
        out
    }
}

/// A task flagged as anomalously slow for its kind (see [`stragglers`]).
#[derive(Debug, Clone)]
pub struct Straggler {
    pub task: u64,
    pub name: String,
    pub worker: i64,
    pub duration_s: f64,
    /// Running median of the task's kind when it was flagged.
    pub median_s: f64,
    /// `duration_s / median_s`.
    pub factor: f64,
    /// The task went through at least one failed attempt.
    pub retried: bool,
}

impl Straggler {
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("task".into(), Value::from(self.task)),
            ("name".into(), Value::from(self.name.as_str())),
            ("worker".into(), Value::Number(self.worker as f64)),
            ("duration_s".into(), Value::Number(self.duration_s)),
            ("median_s".into(), Value::Number(self.median_s)),
            ("factor".into(), Value::Number(self.factor)),
            ("retried".into(), Value::from(self.retried)),
        ])
    }
}

/// Walks a finished [`Trace`] in completion order and flags every task
/// whose duration exceeds `k ×` the running median of the tasks of its
/// kind that completed before it, once the kind has at least
/// `min_samples` of them — the per-task-constant-cost analysis of the
/// Dask-overheads paper. Only user tasks whose body ran
/// ([`crate::TaskRecord::ran`]) enter the per-kind statistics: markers
/// and tasks failed or cancelled before running are not 0-second
/// executions.
pub fn stragglers(trace: &Trace, k: f64, min_samples: usize) -> Vec<Straggler> {
    let min_samples = min_samples.max(1);
    let mut order: Vec<&crate::trace::TaskRecord> = trace
        .records
        .iter()
        .filter(|r| r.ran() && !r.is_marker())
        .collect();
    order.sort_by(|a, b| (a.start_s + a.duration_s).total_cmp(&(b.start_s + b.duration_s)));
    // Sorted durations per kind: running median by bisection insert.
    let mut kinds: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut out = Vec::new();
    for r in order {
        let durs = kinds.entry(&r.name).or_default();
        let n = durs.len();
        if n >= min_samples {
            let median = durs[n / 2];
            if median > 0.0 && r.duration_s > k * median {
                out.push(Straggler {
                    task: r.id.0,
                    name: r.name.clone(),
                    worker: r.worker,
                    duration_s: r.duration_s,
                    median_s: median,
                    factor: r.duration_s / median,
                    retried: r.attempts.iter().any(|a| a.error.is_some()),
                });
            }
        }
        let at = durs.partition_point(|&d| d < r.duration_s);
        durs.insert(at, r.duration_s);
    }
    out
}

/// Per-kind real-vs-simulated busy time (see [`Divergence`]).
#[derive(Debug, Clone)]
pub struct KindDivergence {
    pub name: String,
    /// Total measured body seconds in the real trace.
    pub real_s: f64,
    /// Total simulated busy seconds ([`SimReport::busy_by_kind`]).
    pub sim_s: f64,
    /// `sim_s / real_s` (infinity when the kind never ran for real).
    pub ratio: f64,
}

/// Real-vs-DES divergence: how far the simulator's replay of a trace
/// drifts from the measured run. A divergence near 1.0 means the DES
/// can be trusted to predict scheduling changes.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub real_makespan_s: f64,
    pub sim_makespan_s: f64,
    /// `sim / real`.
    pub makespan_ratio: f64,
    pub kinds: Vec<KindDivergence>,
}

impl Divergence {
    pub fn to_value(&self) -> Value {
        let kind = |k: &KindDivergence| {
            Value::Object(vec![
                ("name".into(), Value::from(k.name.as_str())),
                ("real_s".into(), Value::Number(k.real_s)),
                ("sim_s".into(), Value::Number(k.sim_s)),
                ("ratio".into(), Value::Number(k.ratio)),
            ])
        };
        Value::Object(vec![
            (
                "real_makespan_s".into(),
                Value::Number(self.real_makespan_s),
            ),
            ("sim_makespan_s".into(), Value::Number(self.sim_makespan_s)),
            ("makespan_ratio".into(), Value::Number(self.makespan_ratio)),
            (
                "kinds".into(),
                Value::Array(self.kinds.iter().map(kind).collect()),
            ),
        ])
    }
}

/// Diffs a measured trace's records against the schedule of its
/// simulated replay: the span from the first body start to the last
/// body end against the DES makespan, and each kind's summed body time
/// against its simulated busy time.
pub fn divergence(trace: &Trace, report: &SimReport) -> Divergence {
    let mut start = f64::INFINITY;
    let mut end = 0.0f64;
    let mut real_by_kind: BTreeMap<String, f64> = BTreeMap::new();
    for r in trace.records.iter().filter(|r| r.ran() && !r.is_marker()) {
        start = start.min(r.start_s);
        end = end.max(r.start_s + r.duration_s);
        *real_by_kind.entry(r.name.clone()).or_default() += r.duration_s;
    }
    let real_makespan_s = if start.is_finite() {
        (end - start).max(0.0)
    } else {
        0.0
    };
    let mut names: Vec<String> = real_by_kind.keys().cloned().collect();
    for k in report.busy_by_kind.keys() {
        if !real_by_kind.contains_key(k) {
            names.push(k.clone());
        }
    }
    let ratio = |sim: f64, real: f64| {
        if real > 0.0 {
            sim / real
        } else {
            f64::INFINITY
        }
    };
    let kinds = names
        .into_iter()
        .map(|name| {
            let real_s = real_by_kind.get(&name).copied().unwrap_or(0.0);
            let sim_s = report.busy_by_kind.get(&name).copied().unwrap_or(0.0);
            KindDivergence {
                name,
                real_s,
                sim_s,
                ratio: ratio(sim_s, real_s),
            }
        })
        .collect();
    Divergence {
        real_makespan_s,
        sim_makespan_s: report.makespan_s,
        makespan_ratio: ratio(report.makespan_s, real_makespan_s),
        kinds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::{DataId, TaskId};
    use crate::sim::{simulate, ClusterSpec, SimOptions};
    use crate::trace::{AttemptRecord, TaskRecord};
    use crate::Runtime;

    fn rec(id: u64, deps: &[u64], dur: f64, name: &str) -> TaskRecord {
        TaskRecord {
            id: TaskId(id),
            name: name.to_string(),
            deps: deps.iter().map(|&d| TaskId(d)).collect(),
            duration_s: dur,
            inputs: deps.iter().map(|&d| (DataId(d), 100)).collect(),
            outputs: vec![(DataId(id), 100)],
            cores: 1,
            gpus: 0,
            seq: id,
            ready_s: 0.0,
            start_s: 0.0,
            worker: -1,
            child: None,
            attempts: vec![],
        }
    }

    fn diamond() -> Trace {
        Trace {
            records: vec![
                rec(0, &[], 1.0, "src"),
                rec(1, &[0], 5.0, "left"),
                rec(2, &[0], 2.0, "right"),
                rec(3, &[1, 2], 1.0, "join"),
            ],
        }
    }

    #[test]
    fn profile_aggregates_kinds_and_critical_path() {
        let p = Profile::from_trace(&diamond());
        assert_eq!(p.task_count, 4);
        assert!((p.critical_path_s - 7.0).abs() < 1e-12);
        let left = p.kinds.iter().find(|k| k.name == "left").unwrap();
        assert_eq!(left.count, 1);
        assert!((left.critical_path_s - 5.0).abs() < 1e-12);
        // src + left + join are on the critical path; right is not.
        let right = p.kinds.iter().find(|k| k.name == "right").unwrap();
        assert_eq!(right.critical_path_s, 0.0);
        assert!((p.critical_share("left") - 5.0 / 7.0).abs() < 1e-12);
        // Rows sorted by total time: "left" dominates.
        assert_eq!(p.kinds[0].name, "left");
    }

    #[test]
    fn profile_percentiles_on_repeated_kind() {
        let records: Vec<TaskRecord> = (0..100)
            .map(|i| rec(i, &[], (i + 1) as f64 / 100.0, "work"))
            .collect();
        let p = Profile::from_trace(&Trace { records });
        let w = &p.kinds[0];
        assert_eq!(w.count, 100);
        assert!((w.p50_s - 0.50).abs() < 0.02, "p50={}", w.p50_s);
        assert!((w.p95_s - 0.95).abs() < 0.02, "p95={}", w.p95_s);
    }

    #[test]
    fn percentile_takes_the_rounded_index_without_interpolating() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        // round(0.5 · 3) = 2: the third smallest, not a midpoint.
        assert_eq!(percentile(&sorted, 0.50), 3.0);
        assert_eq!(percentile(&sorted, 0.95), 4.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn profile_queue_waits_are_ordered_and_zero_inline() {
        let run = |rt: Runtime| {
            let a = rt.put(1u64);
            for i in 0..64u64 {
                let _ = rt
                    .task(if i % 2 == 0 { "even" } else { "odd" })
                    .run1(a, move |v| v + i);
            }
            Profile::from_trace(&rt.finish())
        };
        let threaded = run(Runtime::threaded(2));
        assert_eq!(threaded.kinds.len(), 2);
        for k in &threaded.kinds {
            assert!(k.wait_p95_s >= k.wait_p50_s && k.wait_p50_s >= 0.0, "{k:?}");
        }
        for k in &run(Runtime::new()).kinds {
            assert_eq!((k.wait_p50_s, k.wait_p95_s), (0.0, 0.0), "{k:?}");
        }
    }

    /// A record that ran on `worker` over `[start_s, start_s + dur)`.
    fn ran(id: u64, name: &str, deps: &[u64], worker: i64, start_s: f64, dur: f64) -> TaskRecord {
        TaskRecord {
            start_s,
            worker,
            ..rec(id, deps, dur, name)
        }
    }

    #[test]
    fn straggler_flagging_and_critical_path() {
        // A chain a(0) -> b(1) -> c(2) plus independent gemms, all
        // released by the load at t = 1; the straggler waits on 1 and 2.
        let mut slow = ran(5, "gemm", &[1, 2], 1, 2.1, 10.0);
        slow.attempts = vec![
            AttemptRecord {
                start_s: 2.1,
                duration_s: 0.0,
                error: Some("boom".into()),
            },
            AttemptRecord {
                start_s: 2.1,
                duration_s: 10.0,
                error: None,
            },
        ];
        let trace = Trace {
            records: vec![
                ran(0, "load", &[], 0, 0.0, 1.0),
                ran(1, "gemm", &[0], 0, 1.0, 1.0),
                ran(2, "gemm", &[0], 1, 1.0, 1.1),
                ran(3, "gemm", &[0], 0, 1.0, 0.9),
                ran(4, "gemm", &[0], 1, 1.0, 1.0),
                slow,
            ],
        };
        let found = stragglers(&trace, 3.0, 4);
        // 10s >> 3x median(~1.0): flagged and attributed.
        assert_eq!(found.len(), 1);
        let s = &found[0];
        assert_eq!((s.task, s.worker, s.retried), (5, 1, true));
        assert!(s.factor > 3.0);
        // It ends the critical path: load -> gemm(2, the slower dep) -> it.
        let (path, len) = trace.critical_path();
        assert_eq!(path, [0, 2, 5].map(TaskId));
        assert!((len - 12.1).abs() < 1e-9);
        // The timeline draws the verdict as a droplet on worker 1's track.
        let v = Value::parse(&chrome_trace(&trace, &found)).unwrap();
        let events = v.field("traceEvents").unwrap().as_array().unwrap();
        let droplet = events
            .iter()
            .find(|e| e.get("cat").and_then(|c| c.as_str()) == Some("straggler"))
            .expect("a straggler marker");
        assert_eq!(droplet.field("tid").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn straggler_needs_min_samples() {
        let records = (0..9)
            .map(|i| ran(i, "t", &[], 0, i as f64, if i == 8 { 100.0 } else { 1.0 }))
            .collect();
        assert!(stragglers(&Trace { records }, 2.0, 10).is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_events() {
        let rt = Runtime::new();
        let a = rt.put(1.0f64);
        let b = rt.task("scale").run1(a, |v| v * 2.0);
        let _ = rt.wait(b);
        let json = chrome_trace(&rt.trace(), &[]);
        let v = Value::parse(&json).expect("valid chrome trace JSON");
        let events = v.field("traceEvents").unwrap().as_array().unwrap();
        // At least the driver thread_name metadata and the task slice.
        assert!(events.len() >= 2);
        let slice = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("one complete event");
        assert_eq!(slice.field("name").unwrap().as_str(), Some("scale"));
        assert!(slice.field("dur").unwrap().as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn cancelled_tasks_are_not_zero_second_executions() {
        // `boom` fails under CancelSuccessors after a gate releases it,
        // so the `x` registered behind it is cancelled, never run; the
        // two other `x` run.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let rt = Runtime::threaded(1);
        let gate = rt.task("gate").run0(move || {
            rx.recv().expect("gate release");
            0u64
        }); // task 0
        let boom = rt
            .task("boom")
            .on_failure(crate::OnFailure::CancelSuccessors)
            .run1(gate, |_| -> u64 { panic!("kaboom") }); // task 1
        let _cancelled = rt.task("x").run1(boom, |v| v + 1); // task 2
        let _ = rt.task("x").run1(gate, |v| v + 1);
        let _ = rt.task("x").run1(gate, |v| v + 2);
        tx.send(()).expect("release gate");
        let trace = rt.finish();
        assert_eq!(trace.records[2].name, "x");

        let p = Profile::from_trace(&trace);
        let x = p.kinds.iter().find(|k| k.name == "x").expect("x row");
        assert_eq!(x.count, 2, "the cancelled x counted as an execution");

        let v = Value::parse(&chrome_trace(&trace, &[])).expect("valid chrome trace JSON");
        let events = v.field("traceEvents").unwrap().as_array().unwrap();
        let slices_of = |task: u64| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
                .filter(|e| e.get("args").and_then(|a| a.get("task")?.as_u64()) == Some(task))
                .count()
        };
        assert_eq!(slices_of(2), 0, "the cancelled task drawn as a slice");
        // The failed task ran: its record slice plus its failed attempt.
        assert_eq!(slices_of(1), 2);
    }

    #[test]
    fn chrome_trace_schedule_splits_transfer_and_compute() {
        let t = diamond();
        let cluster = ClusterSpec {
            nodes: 2,
            cores_per_node: 1,
            gpus_per_node: 0,
            bandwidth_bps: 1e3, // slow link: transfers are visible
            latency_s: 0.0,
            failures: vec![],
        };
        let rep = simulate(&t, &cluster, &SimOptions::default());
        let json = chrome_trace_schedule(&rep);
        let v = Value::parse(&json).expect("valid chrome trace JSON");
        let events = v.field("traceEvents").unwrap().as_array().unwrap();
        let cats: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("cat").and_then(|c| c.as_str()))
            .collect();
        assert!(cats.contains(&"compute"));
        assert!(cats.contains(&"transfer"));
    }

    #[test]
    fn sim_profile_accounts_for_the_whole_makespan() {
        let t = diamond();
        let cluster = ClusterSpec {
            nodes: 2,
            cores_per_node: 1,
            gpus_per_node: 0,
            bandwidth_bps: 1e9,
            latency_s: 0.0,
            failures: vec![],
        };
        let rep = simulate(&t, &cluster, &SimOptions::default());
        let sp = SimProfile::from_report(&rep, 2);
        assert_eq!(sp.nodes.len(), 2);
        for n in &sp.nodes {
            assert!((n.busy_s + n.idle_s - sp.makespan_s).abs() < 1e-9);
        }
        // The critical chain keeps at least one node busy throughout.
        assert!(sp.stall_s < 1e-9, "stall={}", sp.stall_s);
        let total_tasks: usize = sp.nodes.iter().map(|n| n.tasks).sum();
        assert_eq!(total_tasks, 4);
    }

    #[test]
    fn sim_profile_detects_serialization_stall() {
        // Two tasks separated by a zero-duration gap cannot stall; force
        // one by inserting an artificial schedule hole via sync-marker
        // style dependency and a duration override is overkill — instead
        // check coverage() directly.
        assert!((coverage(vec![(0.0, 1.0), (2.0, 3.0)]) - 2.0).abs() < 1e-12);
        assert!((coverage(vec![(0.0, 2.0), (1.0, 3.0)]) - 3.0).abs() < 1e-12);
        assert_eq!(coverage(vec![]), 0.0);
    }

    #[test]
    fn runtime_stats_snapshot_counts_tasks() {
        let rt = Runtime::threaded(2);
        let a = rt.put(0u64);
        for _ in 0..100 {
            let _ = rt.task("t").run1(a, |v| v + 1);
        }
        rt.barrier();
        let stats = rt.stats();
        assert_eq!(stats.total_tasks(), 100);
        assert_eq!(stats.worker_tasks.len(), 2);
        assert!(stats.run_s >= 0.0);
        assert!(stats.queued_tasks > 0);
    }

    #[test]
    fn stats_table_renders() {
        let rt = Runtime::new();
        let a = rt.put(1u64);
        let _ = rt.task("x").run1(a, |v| *v);
        rt.barrier();
        let table = rt.stats().render_table();
        assert!(table.contains("tasks executed"));
        let profile = Profile::from_trace(&rt.trace());
        assert!(profile.render_table().contains("kind"));
    }
}
