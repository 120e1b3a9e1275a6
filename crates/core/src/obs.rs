//! Observability: runtime statistics and the views derived from a
//! finished run.
//!
//! The paper's methodology rests on *measuring* workflows: PyCOMPSs
//! emits Extrae traces that are inspected in Paraver to explain every
//! scalability curve and anomaly. This module plays that role for
//! `taskrt`. Each task's [`crate::TaskRecord`] is the one per-task stamp
//! a runtime writes, and the DES writes the same records
//! ([`crate::sim::SimReport::trace`]); the views below are computed
//! from a [`Trace`] after the run, real or simulated alike:
//!
//! * **[`RuntimeStats`]** — the scheduler's statistics (tasks per
//!   worker, wakeups, parks/idle time, driver stalls, queue-wait vs
//!   run time). The per-task fields are derived from the task rows when
//!   [`crate::Runtime::stats`] is called, and the handful of
//!   scheduler-internal counts are plain integers kept beside the locks
//!   their sites already hold. Nothing here is switched on or off.
//! * **[`chrome_trace`]** — Chrome-trace format (`chrome://tracing` /
//!   [Perfetto](https://ui.perfetto.dev)) JSON timeline: one track per
//!   executor (driver + pool workers, or the nodes of a simulated
//!   cluster), with an input-fetch slice ahead of each body that had
//!   one. This is the Paraver-timeline equivalent.
//! * **[`Profile`]** — per-task-kind aggregation over a trace: count,
//!   total/mean/p50/p95 duration, p50/p95 queue wait, bytes in/out, and
//!   the share of the critical path each kind is responsible for.
//! * **[`Utilization`]** — per-executor breakdown: busy (wall and
//!   task-seconds), input fetch, idle, tasks, bytes fetched, plus the
//!   *stall* time where no executor runs anything (the cost of
//!   `wait`/`barrier` serialization).
//! * **[`stragglers`]** — tasks slower than `k×` their kind's running
//!   median, attributed to worker and retries.
//! * **[`divergence`]** — a measured run against its DES replay, both
//!   measured the same way: makespan, per-kind body time, tasks placed
//!   on another executor, and bytes fetched.
//!
//! `cargo run --release -p bench --bin profile` exercises all of the
//! above on a real pipeline and writes `out/profile.json` plus two
//! `.trace.json` timelines.

use crate::json::Value;
use crate::trace::{TaskRecord, Trace};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// A point-in-time snapshot of the scheduler's statistics (see
/// [`crate::Runtime::stats`]). The per-task fields (tasks per executor,
/// queue wait, run time, retries, give-ups) are derived from the task rows; the rest are scheduler-internal counts
/// kept beside the locks their sites hold.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeStats {
    /// Tasks executed by each pool worker (empty in inline mode).
    pub worker_tasks: Vec<u64>,
    /// Tasks executed on a driver thread (inline or cooperative wait).
    pub driver_tasks: u64,
    /// Wake tokens granted (`notify_one` calls issued).
    pub wakeups: u64,
    /// INOUT parameters the runtime handed over by move: the executing
    /// task was the last live consumer, so its closure mutated the
    /// existing buffer instead of cloning it.
    pub inout_steals: u64,
    /// INOUT parameters that fell back to clone-on-shared (the input
    /// still had another live consumer at dispatch).
    pub inout_copies: u64,
    /// Failed attempts run again under a [`crate::RetryPolicy`] of
    /// more than one attempt.
    pub retries: u64,
    /// Tasks that ran under a policy of more than one attempt,
    /// exhausted it and failed for good. A one-attempt (FAIL) task that
    /// fails is not a give-up.
    pub giveups: u64,
    /// Always 0: no policy poisons a failed task's outputs. Kept only
    /// because the frozen benchmark reads it; removal waits for the
    /// next change to the benchmark.
    pub poisoned: u64,
    /// Always 0, like [`RuntimeStats::poisoned`]: a task behind a
    /// failure fails with it, never cancelled. Kept for the same reason.
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

    /// Always 0.0: the threaded runtime has one ready queue, so there
    /// is nothing to steal. Kept only because the frozen benchmark
    /// calls it; removal waits for the next change to the benchmark.
    pub fn steal_hit_rate(&self) -> f64 {
        0.0
    }

    /// Always 0.0, like [`RuntimeStats::steal_hit_rate`]: no task
    /// carries a locality hint. Kept for the same reason.
    pub fn locality_hit_rate(&self) -> f64 {
        0.0
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
            ("wakeups".into(), Value::from(self.wakeups)),
            ("inout_steals".into(), Value::from(self.inout_steals)),
            ("inout_copies".into(), Value::from(self.inout_copies)),
            (
                "inout_steal_rate".into(),
                Value::from(self.inout_steal_rate()),
            ),
            ("retries".into(), Value::from(self.retries)),
            ("giveups".into(), Value::from(self.giveups)),
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
        writeln!(out, "  wakeups            {:>12}", self.wakeups).unwrap();
        writeln!(
            out,
            "  inout params       {:>12} stolen / {} copied ({:.1}% steal rate)",
            self.inout_steals,
            self.inout_copies,
            self.inout_steal_rate() * 100.0
        )
        .unwrap();
        if self.retries + self.giveups > 0 {
            writeln!(
                out,
                "  faults             {:>12} retries / {} giveups",
                self.retries, self.giveups
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

/// Exports a [`Trace`] as Chrome-trace-format JSON (open in
/// `chrome://tracing` or <https://ui.perfetto.dev>) — the Paraver
/// timeline of a real run or of its simulated replay. One track per
/// executor: the driver thread (and markers) plus each pool worker, or
/// each node of a simulated cluster. Timestamps are the records'
/// [`crate::TaskRecord::start_s`] offsets from the run's epoch; a
/// record with an input fetch ([`crate::TaskRecord::fetch_s`] `> 0`)
/// gets a `fetch` slice ending where its body starts.
///
/// Only records whose body ran ([`crate::TaskRecord::ran`]) get a
/// slice: sync/barrier markers and tasks failed with their producer
/// before running have no start to draw. Nested child traces run on their own
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
    for w in 0..=max_worker {
        events.push(thread_name_event(0, (w + 1) as u64, &format!("worker {w}")));
    }
    // A complete (`ph:"X"`) slice of record `r`'s track, times in seconds.
    let slice = |r: &TaskRecord, name: String, cat: &str, start_s: f64, dur_s: f64, args| {
        ev(vec![
            ("name".into(), Value::from(name)),
            ("cat".into(), Value::from(cat)),
            ("ph".into(), Value::from("X")),
            ("ts".into(), Value::from(start_s * 1e6)),
            ("dur".into(), Value::from(dur_s * 1e6)),
            ("pid".into(), Value::from(0u64)),
            ("tid".into(), Value::from((r.worker + 1).max(0) as u64)),
            ("args".into(), Value::Object(args)),
        ])
    };
    for r in trace.records.iter().filter(|r| r.ran()) {
        let task = || ("task".to_string(), Value::from(r.id.0));
        // Failed attempts render as their own slices ahead of the final
        // one, so retries are visible as repeated bars on the timeline.
        // (The record's own slice below covers the last attempt.)
        for (i, a) in r.attempts.iter().enumerate() {
            let Some(err) = &a.error else { continue };
            let name = format!("{} (attempt {})", r.name, i + 1);
            let args = vec![
                task(),
                ("attempt".into(), Value::from(i + 1)),
                ("error".into(), Value::from(err.as_str())),
            ];
            events.push(slice(r, name, "attempt", a.start_s, a.duration_s, args));
        }
        if r.fetch_s > 0.0 {
            let name = format!("fetch:{}", r.name);
            let args = vec![task(), ("bytes".into(), Value::from(r.fetch_bytes))];
            let from = r.start_s - r.fetch_s;
            events.push(slice(r, name, "fetch", from, r.fetch_s, args));
        }
        let bytes = |refs: &[(crate::DataId, usize)]| {
            Value::from(refs.iter().map(|(_, b)| b).sum::<usize>())
        };
        let args = vec![
            task(),
            ("bytes_in".into(), bytes(&r.inputs)),
            ("bytes_out".into(), bytes(&r.outputs)),
        ];
        events.push(slice(
            r,
            r.name.clone(),
            "task",
            r.start_s,
            r.duration_s,
            args,
        ));
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
    /// and tasks failed with their producer before running are excluded.
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
    fn critical_share(&self, kind: &str) -> f64 {
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

/// One executor's row of a [`Utilization`].
#[derive(Debug, Clone, Default)]
pub struct ExecutorStats {
    /// Executor index: a pool worker, or a node of a simulated cluster.
    pub executor: usize,
    /// Wall seconds the executor had at least one task (fetch or body)
    /// in flight.
    pub busy_s: f64,
    /// Body task-seconds (exceeds `busy_s` when tasks overlap, as on a
    /// multi-core node).
    pub task_s: f64,
    /// Seconds of input fetch, summed over tasks.
    pub fetch_s: f64,
    /// Wall seconds of the span the executor ran nothing
    /// (`span_s - busy_s`).
    pub idle_s: f64,
    /// Tasks the executor ran.
    pub tasks: usize,
    /// Bytes fetched to the executor for task inputs.
    pub bytes_in: u64,
}

/// Per-executor utilization of a [`Trace`] — the summary Paraver's
/// node-level views give the paper (e.g. the idle stretches that explain
/// the RF 2-vs-3-node anomaly). It reads the records that ran on
/// executors `0..executors` (markers and driver-run tasks have
/// `worker == -1` and are left out) over the span from their first fetch
/// or body start to their last end. The final run of each record
/// counts; failed attempts do not.
#[derive(Debug, Clone)]
pub struct Utilization {
    /// First fetch or body start to last end, seconds.
    pub span_s: f64,
    /// One row per executor, idle ones included.
    pub executors: Vec<ExecutorStats>,
    /// Wall seconds of the span during which *no* executor ran anything
    /// — time the whole run stalled behind `wait`/`barrier`
    /// serialization.
    pub stall_s: f64,
    /// Total bytes fetched across executors.
    pub fetch_bytes: u64,
}

/// The wall interval a record occupies: its input fetch, then its body.
fn interval(r: &TaskRecord) -> (f64, f64) {
    (r.start_s - r.fetch_s, r.start_s + r.duration_s)
}

/// First start to last end over `records`, seconds (0 when empty).
fn span<'a>(records: impl Iterator<Item = &'a TaskRecord>) -> f64 {
    let (start, end) = records
        .map(interval)
        .fold((f64::INFINITY, 0.0f64), |(s, e), (a, b)| {
            (s.min(a), e.max(b))
        });
    if start.is_finite() {
        (end - start).max(0.0)
    } else {
        0.0
    }
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

impl Utilization {
    /// Builds the per-executor breakdown of `trace` with `executors`
    /// rows (the cluster's node count, or a runtime's worker count).
    pub fn from_trace(trace: &Trace, executors: usize) -> Utilization {
        let counted: Vec<&TaskRecord> = trace.on_executors(executors).collect();
        let span_s = span(counted.iter().copied());
        let mut rows: Vec<ExecutorStats> = (0..executors)
            .map(|executor| ExecutorStats {
                executor,
                ..ExecutorStats::default()
            })
            .collect();
        let mut per_row: Vec<Vec<(f64, f64)>> = vec![Vec::new(); executors];
        for r in &counted {
            let w = r.worker as usize;
            let row = &mut rows[w];
            row.task_s += r.duration_s;
            row.fetch_s += r.fetch_s;
            row.tasks += 1;
            row.bytes_in += r.fetch_bytes;
            per_row[w].push(interval(r));
        }
        for (row, iv) in rows.iter_mut().zip(per_row) {
            row.busy_s = coverage(iv);
            row.idle_s = (span_s - row.busy_s).max(0.0);
        }
        Utilization {
            span_s,
            stall_s: (span_s - coverage(counted.iter().map(|r| interval(r)).collect())).max(0.0),
            fetch_bytes: rows.iter().map(|r| r.bytes_in).sum(),
            executors: rows,
        }
    }

    /// Encodes the breakdown as a JSON tree.
    pub fn to_value(&self) -> Value {
        let row = |n: &ExecutorStats| {
            Value::Object(vec![
                ("executor".into(), Value::from(n.executor)),
                ("busy_s".into(), Value::from(n.busy_s)),
                ("task_s".into(), Value::from(n.task_s)),
                ("fetch_s".into(), Value::from(n.fetch_s)),
                ("idle_s".into(), Value::from(n.idle_s)),
                ("tasks".into(), Value::from(n.tasks)),
                ("bytes_in".into(), Value::from(n.bytes_in)),
            ])
        };
        Value::Object(vec![
            ("span_s".into(), Value::from(self.span_s)),
            ("stall_s".into(), Value::from(self.stall_s)),
            ("fetch_bytes".into(), Value::from(self.fetch_bytes)),
            (
                "executors".into(),
                Value::Array(self.executors.iter().map(row).collect()),
            ),
        ])
    }

    /// Renders the breakdown as a fixed-width table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "utilization: span {:.4}s, stall {:.4}s, {} bytes fetched",
            self.span_s, self.stall_s, self.fetch_bytes
        )
        .unwrap();
        writeln!(
            out,
            "{:<8} {:>7} {:>10} {:>10} {:>10} {:>10} {:>12}",
            "executor", "tasks", "busy_s", "task_s", "fetch_s", "idle_s", "bytes_in"
        )
        .unwrap();
        for n in &self.executors {
            writeln!(
                out,
                "{:<8} {:>7} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>12}",
                n.executor, n.tasks, n.busy_s, n.task_s, n.fetch_s, n.idle_s, n.bytes_in
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
/// and tasks failed with their producer before running are not 0-second
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

/// Per-kind real-vs-simulated body time (see [`Divergence`]).
#[derive(Debug, Clone)]
pub struct KindDivergence {
    pub name: String,
    /// Total measured body seconds in the real trace.
    pub real_s: f64,
    /// Total body seconds in the simulated trace.
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
    /// Tasks that ran on both sides, on a different executor.
    pub placement_mismatch: usize,
    /// Bytes the run's records fetched (`dist` peer pulls and relays).
    /// A record keeps only its task's last run, so the bytes of runs
    /// lost with a worker are in `DistStats` alone.
    pub real_fetch_bytes: u64,
    /// Bytes the replay's records fetched (the DES's modelled transfers).
    pub sim_fetch_bytes: u64,
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
                "placement_mismatch".into(),
                Value::from(self.placement_mismatch),
            ),
            (
                "real_fetch_bytes".into(),
                Value::from(self.real_fetch_bytes),
            ),
            ("sim_fetch_bytes".into(), Value::from(self.sim_fetch_bytes)),
            (
                "kinds".into(),
                Value::Array(self.kinds.iter().map(kind).collect()),
            ),
        ])
    }
}

/// Diffs a measured trace against its simulated replay
/// ([`crate::sim::SimReport::trace`]), measuring both the same way over
/// the user tasks whose body ran: the span from the first fetch or body
/// start to the last end, each kind's summed body seconds (the two
/// [`Profile`]s' `total_s`), the tasks placed on another executor, and
/// the bytes each side fetched.
pub fn divergence(real: &Trace, sim: &Trace) -> Divergence {
    fn ran(t: &Trace) -> impl Iterator<Item = &TaskRecord> {
        t.records.iter().filter(|r| r.ran() && !r.is_marker())
    }
    let (real_profile, sim_profile) = (Profile::from_trace(real), Profile::from_trace(sim));
    let total_s = |p: &Profile, name: &str| {
        p.kinds
            .iter()
            .find(|k| k.name == name)
            .map_or(0.0, |k| k.total_s)
    };
    let ratio = |sim: f64, real: f64| {
        if real > 0.0 {
            sim / real
        } else {
            f64::INFINITY
        }
    };
    let mut names: Vec<&str> = real_profile.kinds.iter().map(|k| k.name.as_str()).collect();
    for k in &sim_profile.kinds {
        if !names.contains(&k.name.as_str()) {
            names.push(&k.name);
        }
    }
    let kinds = names
        .into_iter()
        .map(|name| {
            let real_s = total_s(&real_profile, name);
            let sim_s = total_s(&sim_profile, name);
            KindDivergence {
                name: name.to_string(),
                real_s,
                sim_s,
                ratio: ratio(sim_s, real_s),
            }
        })
        .collect();
    let sim_worker: HashMap<_, _> = ran(sim).map(|r| (r.id, r.worker)).collect();
    let placement_mismatch = ran(real)
        .filter(|r| sim_worker.get(&r.id).is_some_and(|&w| w != r.worker))
        .count();
    let fetch_bytes = |t: &Trace| t.records.iter().map(|r| r.fetch_bytes).sum();
    let (real_makespan_s, sim_makespan_s) = (span(ran(real)), span(ran(sim)));
    Divergence {
        real_makespan_s,
        sim_makespan_s,
        makespan_ratio: ratio(sim_makespan_s, real_makespan_s),
        kinds,
        placement_mismatch,
        real_fetch_bytes: fetch_bytes(real),
        sim_fetch_bytes: fetch_bytes(sim),
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
            ready_s: 0.0,
            start_s: 0.0,
            fetch_s: 0.0,
            fetch_bytes: 0,
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
        let events = v["traceEvents"].as_array().unwrap();
        let droplet = events
            .iter()
            .find(|e| e.get("cat").and_then(|c| c.as_str()) == Some("straggler"))
            .expect("a straggler marker");
        assert_eq!(droplet["tid"].as_u64(), Some(2));
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
        let events = v["traceEvents"].as_array().unwrap();
        // At least the driver thread_name metadata and the task slice.
        assert!(events.len() >= 2);
        let slice = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("one complete event");
        assert_eq!(slice["name"].as_str(), Some("scale"));
        assert!(slice["dur"].as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn cancelled_tasks_are_not_zero_second_executions() {
        // `boom` fails after a gate releases it, so the `x` registered
        // behind it fails with it and never runs; the two other `x`
        // run.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let rt = Runtime::threaded(1);
        let gate = rt.task("gate").run0(move || {
            rx.recv().expect("gate release");
            0u64
        }); // task 0
        let boom = rt.task("boom").run1(gate, |_| -> u64 { panic!("kaboom") }); // task 1
        let _never_ran = rt.task("x").run1(boom, |v| v + 1); // task 2
        let x3 = rt.task("x").run1(gate, |v| v + 1);
        let x4 = rt.task("x").run1(gate, |v| v + 2);
        tx.send(()).expect("release gate");
        // The barrier returns at the first failure it sees, so the two
        // `x` that run are awaited first (`peek` records no marker).
        assert_eq!((*rt.peek(x3), *rt.peek(x4)), (1, 2));
        let barrier = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.barrier()));
        assert!(barrier.is_err(), "the failure is fatal to the barrier");
        let trace = rt.trace();
        assert_eq!(trace.records[2].name, "x");

        let p = Profile::from_trace(&trace);
        let x = p.kinds.iter().find(|k| k.name == "x").expect("x row");
        assert_eq!(x.count, 2, "the x that never ran counted as an execution");

        let v = Value::parse(&chrome_trace(&trace, &[])).expect("valid chrome trace JSON");
        let events = v["traceEvents"].as_array().unwrap();
        let slices_of = |task: u64| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
                .filter(|e| e.get("args").and_then(|a| a.get("task")?.as_u64()) == Some(task))
                .count()
        };
        assert_eq!(slices_of(2), 0, "the task that never ran drawn as a slice");
        // The failed task ran: its record slice plus its failed attempt.
        assert_eq!(slices_of(1), 2);
    }

    fn two_nodes(bandwidth_bps: f64) -> ClusterSpec {
        ClusterSpec {
            nodes: 2,
            cores_per_node: 1,
            gpus_per_node: 0,
            bandwidth_bps,
            latency_s: 0.0,
        }
    }

    #[test]
    fn chrome_trace_splits_fetch_from_body_on_simulated_nodes() {
        // A slow link makes the replay's transfers visible.
        let rep = simulate(&diamond(), &two_nodes(1e3), &SimOptions::default());
        let v = Value::parse(&chrome_trace(&rep.trace, &[])).expect("valid chrome trace JSON");
        let events = v["traceEvents"].as_array().unwrap();
        let of = |cat: &'static str| {
            events
                .iter()
                .filter(move |e| e["cat"].as_str() == Some(cat))
        };
        let fetch = of("fetch").next().expect("a fetch slice");
        let body = of("task").find(|e| e["args"]["task"] == fetch["args"]["task"]);
        let body = body.expect("the fetching task's body slice");
        let num = |e: &Value, k: &str| e[k].as_f64().unwrap();
        assert!((num(fetch, "ts") + num(fetch, "dur") - num(body, "ts")).abs() < 1e-6);
        assert_eq!(fetch["tid"], body["tid"]);
    }

    #[test]
    fn sim_profile_accounts_for_the_whole_makespan() {
        let rep = simulate(&diamond(), &two_nodes(1e9), &SimOptions::default());
        let u = Utilization::from_trace(&rep.trace, 3);
        assert_eq!(u.executors.len(), 3, "an idle node still gets a row");
        assert_eq!(u.span_s, rep.makespan_s);
        for n in &u.executors {
            assert!((n.busy_s + n.idle_s - u.span_s).abs() < 1e-9);
        }
        // The critical chain keeps at least one node busy throughout.
        assert!(u.stall_s < 1e-9, "stall={}", u.stall_s);
        let total_tasks: usize = u.executors.iter().map(|n| n.tasks).sum();
        assert_eq!(total_tasks, 4);
        // `right` runs beside `left` on node 1 and fetches `src`'s 100
        // bytes; `join` then fetches one of the two branches.
        assert_eq!(u.fetch_bytes, 200);
    }

    #[test]
    fn divergence_counts_moved_tasks_and_fetched_bytes() {
        // The run put the whole diamond on worker 0, `right` pulling
        // 64 bytes; the two-node replay moves `right` to node 1.
        let mut right = ran(2, "right", &[0], 0, 6.0, 2.0);
        right.fetch_bytes = 64;
        let real = Trace {
            records: vec![
                ran(0, "src", &[], 0, 0.0, 1.0),
                ran(1, "left", &[0], 0, 1.0, 5.0),
                right,
                ran(3, "join", &[1, 2], 0, 8.0, 1.0),
            ],
        };
        let rep = simulate(&real, &two_nodes(1e9), &SimOptions::default());
        let div = divergence(&real, &rep.trace);
        assert_eq!(div.placement_mismatch, 1);
        assert_eq!((div.real_fetch_bytes, div.sim_fetch_bytes), (64, 200));
        assert_eq!(div.real_makespan_s, 9.0);
        let kinds: Vec<(&str, f64, f64)> = div
            .kinds
            .iter()
            .map(|k| (k.name.as_str(), k.real_s, k.sim_s))
            .collect();
        assert_eq!(
            kinds,
            [
                ("left", 5.0, 5.0),
                ("right", 2.0, 2.0),
                ("join", 1.0, 1.0),
                ("src", 1.0, 1.0)
            ]
        );
        // A replay of the replay places every task where it was.
        let again = simulate(&rep.trace, &two_nodes(1e9), &SimOptions::default());
        assert_eq!(divergence(&rep.trace, &again.trace).placement_mismatch, 0);
    }

    #[test]
    fn sim_profile_detects_serialization_stall() {
        // A 1 s split helper between two 1 s tasks runs on no node, so
        // the replay's nodes all idle through it.
        let mut split = rec(1, &[0], 1.0, crate::trace::SPLIT_TASK);
        split.outputs.clear();
        let t = Trace {
            records: vec![rec(0, &[], 1.0, "a"), split, rec(2, &[1], 1.0, "b")],
        };
        let rep = simulate(&t, &two_nodes(1e9), &SimOptions::default());
        assert_eq!(rep.trace.records[1].worker, -1, "a marker has no node");
        let u = Utilization::from_trace(&rep.trace, 2);
        assert!((u.span_s - 3.0).abs() < 1e-12);
        assert!((u.stall_s - 1.0).abs() < 1e-12, "stall={}", u.stall_s);
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
