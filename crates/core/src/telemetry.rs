//! Live telemetry: a lock-free event journal, latency histograms, a
//! metrics registry with JSON/Prometheus export, and online
//! straggler/critical-path analysis.
//!
//! This is the in-flight half of the observability story. [`crate::obs`]
//! reproduces the paper's *post-mortem* Extrae/Paraver workflow
//! (counters, Chrome traces, profiles over a finished [`Trace`]); this
//! module makes the same signals visible **while a run is executing**:
//!
//! - [`Journal`] — a per-executor bounded ring buffer of structured
//!   events (task start/end, injector flushes, steals, retry attempts,
//!   INOUT steal/clone, buffer-pool hit/miss).
//!   Writers never block and never allocate on the emit path; overflow
//!   overwrites the oldest events and counts drops.
//! - [`LogHistogram`] — log2-bucketed latency histograms (queue wait,
//!   run time, per-attempt latency) that are snapshotable at any time
//!   without stopping workers.
//! - [`Registry`] — a typed bag of counters/gauges/histograms rendered
//!   as JSON or Prometheus text exposition format.
//! - [`StragglerAnalyzer`] — flags tasks slower than `k×` their kind's
//!   running median, attributes them to worker/retries, and
//!   maintains the critical path incrementally.
//! - [`events_from_trace`] / [`events_from_schedule`] — the threaded
//!   runtime and the DES oracle emit the *same* event schema, so
//!   [`divergence`] can diff a real run against its simulated replay
//!   (makespan and per-kind busy time) — the oracle check the
//!   distributed executor work needs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Value;
use crate::sim::SimReport;
use crate::trace::Trace;

// ---------------------------------------------------------------------
// Event schema
// ---------------------------------------------------------------------

/// What a journal [`Event`] records. The JSON encoding of every kind
/// uses the same fixed key set (see [`Event::to_value`]), so streams
/// from the threaded runtime and the DES simulator are
/// schema-identical and can be diffed directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A task body started executing. `n`/`aux` unused.
    TaskStart,
    /// A task finished (success or terminal failure). `n` = body
    /// nanoseconds of the final attempt, `aux` = 0 on success, 1 on
    /// failure (or, for DES streams, 1 when the run was lost to a
    /// simulated node failure).
    TaskEnd,
    /// The driver flushed a staged batch to the injector. `n` = tasks
    /// in the batch.
    QueueFlush,
    /// A worker stole work from a sibling. `n` = tasks taken, `aux` =
    /// victim worker.
    Steal,
    /// A failed attempt will be retried. `n` = the attempt number that
    /// failed.
    Retry,
    /// An INOUT parameter was handed over by move (zero-copy).
    InoutSteal,
    /// An INOUT parameter fell back to clone-on-shared.
    InoutClone,
    /// The block buffer pool served an allocation from a retained
    /// buffer. `n` = bytes reused.
    PoolHit,
    /// The block buffer pool fell through to a fresh allocation. `n` =
    /// bytes allocated.
    PoolMiss,
    /// A steal batch was filtered by the locality heuristic (the
    /// affinity hint every threaded runtime computes): tasks whose hint
    /// named the victim were handed back instead of migrated. Emitted
    /// alongside the [`EventKind::Steal`] event only when the filter
    /// actually returned something. `n` = cold tasks kept by the
    /// thief, `aux` = hot tasks returned to the victim.
    StealCold,
}

/// Every kind, in encoding order (`u8` tags in the journal slots).
/// Tags never leave the process that wrote them; the stable wire
/// format is the [`EventKind::as_str`] name.
const EVENT_KINDS: [EventKind; 10] = [
    EventKind::TaskStart,
    EventKind::TaskEnd,
    EventKind::QueueFlush,
    EventKind::Steal,
    EventKind::Retry,
    EventKind::InoutSteal,
    EventKind::InoutClone,
    EventKind::PoolHit,
    EventKind::PoolMiss,
    EventKind::StealCold,
];

impl EventKind {
    /// Stable wire name used in the JSON schema.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::TaskStart => "task_start",
            EventKind::TaskEnd => "task_end",
            EventKind::QueueFlush => "queue_flush",
            EventKind::Steal => "steal",
            EventKind::Retry => "retry",
            EventKind::InoutSteal => "inout_steal",
            EventKind::InoutClone => "inout_clone",
            EventKind::PoolHit => "pool_hit",
            EventKind::PoolMiss => "pool_miss",
            EventKind::StealCold => "steal_cold",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(s: &str) -> Option<EventKind> {
        EVENT_KINDS.iter().copied().find(|k| k.as_str() == s)
    }

    fn tag(self) -> u64 {
        EVENT_KINDS.iter().position(|&k| k == self).unwrap() as u64
    }

    fn from_tag(t: u64) -> Option<EventKind> {
        EVENT_KINDS.get(t as usize).copied()
    }
}

/// One telemetry event. The same struct (and therefore the same JSON
/// schema) describes events from the live journal, from a finished
/// [`Trace`], and from a simulated [`SimReport`] schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Seconds since the runtime epoch (or simulated time zero).
    pub t_s: f64,
    pub kind: EventKind,
    /// Task this event concerns, when one is attributable.
    pub task: Option<u64>,
    /// Executor: worker index, [`DRIVER`] for driver threads,
    /// [`EXTERNAL`] for non-runtime threads (e.g. pool callbacks). In
    /// DES streams this is the cluster node index.
    pub worker: i64,
    /// Primary magnitude — meaning depends on `kind` (see
    /// [`EventKind`]).
    pub n: u64,
    /// Secondary payload — meaning depends on `kind`.
    pub aux: u64,
}

/// `worker` value for events emitted by a driver (user) thread.
pub const DRIVER: i64 = -1;
/// `worker` value for events emitted outside the runtime's executors
/// (e.g. the linalg buffer pool observed from an arbitrary thread).
pub const EXTERNAL: i64 = -2;

impl Event {
    /// Encodes the event with the stable key set
    /// `t_s, kind, task, worker, n, aux` — identical for every kind
    /// and every emitter.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("t_s".into(), Value::from(self.t_s)),
            ("kind".into(), Value::from(self.kind.as_str())),
            (
                "task".into(),
                match self.task {
                    Some(t) => Value::from(t),
                    None => Value::Null,
                },
            ),
            ("worker".into(), Value::Number(self.worker as f64)),
            ("n".into(), Value::from(self.n)),
            ("aux".into(), Value::from(self.aux)),
        ])
    }

    /// Decodes an event previously encoded with [`Event::to_value`].
    pub fn from_value(v: &Value) -> Option<Event> {
        Some(Event {
            t_s: v.get("t_s")?.as_f64()?,
            kind: EventKind::parse(v.get("kind")?.as_str()?)?,
            task: {
                let t = v.get("task")?;
                if t.is_null() {
                    None
                } else {
                    Some(t.as_u64()?)
                }
            },
            worker: v.get("worker")?.as_f64()? as i64,
            n: v.get("n")?.as_u64()?,
            aux: v.get("aux")?.as_u64()?,
        })
    }
}

// ---------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------

/// Sentinel stored in a slot's `task` field when the event has no
/// attributable task.
const NO_TASK: u64 = u64::MAX;

/// One journal slot: a sequence word plus the event payload, all plain
/// atomics (no unsafe). The sequence word holds `index + 1` once the
/// slot's write is published; readers reject slots whose sequence
/// doesn't match the index they expect (in-progress or lapped writes).
struct SlotCell {
    seq: AtomicU64,
    t_ns: AtomicU64,
    kind: AtomicU64,
    task: AtomicU64,
    n: AtomicU64,
    aux: AtomicU64,
}

/// Per-executor ring. `head` counts every claim ever made; slot `i`
/// lives at `i % capacity`, so `head.saturating_sub(capacity)` is the
/// number of overwritten (dropped) events. Slots are allocated lazily
/// on the shard's first emit, so idle executors (and the many inline
/// runtimes created by tests) cost nothing.
///
/// Cache-line aligned: shards live in one `Vec`, and without the
/// alignment three ~24-byte shards share a line — every worker's
/// per-emit `head.fetch_add` would ping-pong that line with its
/// neighbors, defeating the point of sharding.
#[repr(align(64))]
struct Shard {
    head: AtomicU64,
    slots: OnceLock<Box<[SlotCell]>>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            head: AtomicU64::new(0),
            slots: OnceLock::new(),
        }
    }

    fn slots(&self, cap: usize) -> &[SlotCell] {
        self.slots.get_or_init(|| {
            (0..cap)
                .map(|_| SlotCell {
                    seq: AtomicU64::new(0),
                    t_ns: AtomicU64::new(0),
                    kind: AtomicU64::new(0),
                    task: AtomicU64::new(0),
                    n: AtomicU64::new(0),
                    aux: AtomicU64::new(0),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice()
        })
    }
}

/// Floor for the auto-scaled per-shard capacity (see
/// [`Telemetry::new`]): the journal keeps the last `capacity` events
/// per executor and counts the rest as dropped. 512 slots × 48 bytes
/// ≈ 24 KiB keeps a ring L1-resident, but as a flat size it dropped
/// ~75% of a 10k-task run's events; `Telemetry::new` divides a fixed
/// event budget across the shards instead, trading ~2% of no-op
/// throughput (cold slot lines) for full-stream retention.
pub const DEFAULT_JOURNAL_CAP: usize = 512;

/// A bounded, lock-free event journal with one ring per executor
/// (driver, each worker, plus one shard for [`EXTERNAL`] emitters).
///
/// Writers claim a slot with one `fetch_add` and publish it with a
/// release store of the slot's sequence word — no locks, no blocking,
/// no allocation (after the shard's one-time lazy init). On overflow
/// the oldest events are overwritten and counted by [`Journal::dropped`].
///
/// [`Journal::snapshot`] can run at any time, concurrently with
/// writers: a slot whose sequence word doesn't match the expected
/// index (a write in progress, or a writer that lapped the ring) is
/// simply skipped. The sequence protocol is a seqlock-light: the
/// release store of `seq` publishes the payload stores before it, so a
/// validated slot read a full lap behind an active writer is the only
/// (vanishingly rare) way to observe a torn event — and the cost is
/// one bogus sample in a diagnostic stream, never unsoundness (all
/// fields are plain atomics).
pub struct Journal {
    shards: Vec<Shard>,
    capacity: usize,
    epoch: Instant,
}

impl Journal {
    /// A journal for a runtime with `n_workers` pool workers.
    /// `capacity` is rounded up to a power of two: the emit path maps a
    /// monotone claim counter to a slot with a mask instead of a
    /// hardware division (a measurable cost at no-op task rates).
    pub fn new(n_workers: usize, capacity: usize, epoch: Instant) -> Self {
        Journal {
            // driver + workers + external
            shards: (0..n_workers + 2).map(|_| Shard::new()).collect(),
            capacity: capacity.max(2).next_power_of_two(),
            epoch,
        }
    }

    /// Per-shard event capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn shard(&self, worker: i64) -> &Shard {
        let i = match worker {
            w if w >= 0 => (w as usize + 1).min(self.shards.len() - 2),
            DRIVER => 0,
            _ => self.shards.len() - 1,
        };
        &self.shards[i]
    }

    fn shard_worker(&self, i: usize) -> i64 {
        if i == 0 {
            DRIVER
        } else if i == self.shards.len() - 1 {
            EXTERNAL
        } else {
            (i - 1) as i64
        }
    }

    /// Records an event stamped `now`.
    pub fn emit(&self, worker: i64, kind: EventKind, task: Option<u64>, n: u64, aux: u64) {
        self.emit_at(worker, Instant::now(), kind, task, n, aux);
    }

    /// Records an event with an explicit timestamp — callers on the
    /// hot path reuse an `Instant` they already read.
    #[inline]
    pub fn emit_at(
        &self,
        worker: i64,
        at: Instant,
        kind: EventKind,
        task: Option<u64>,
        n: u64,
        aux: u64,
    ) {
        let t_ns = at.saturating_duration_since(self.epoch).as_nanos() as u64;
        let shard = self.shard(worker);
        let slots = shard.slots(self.capacity);
        // Worker shards are single-writer by construction (every emit
        // with `worker >= 0` comes from that worker's executor thread),
        // so the claim is a plain load+store: a `fetch_add` is a full
        // fence on x86 and drains the store buffer, which on the no-op
        // task hot path costs more than the rest of the emit combined.
        // Driver/external shards can be hit from any thread and keep
        // the atomic claim. A misuse (two threads claiming the same
        // worker shard) could lose or tear an event — a bogus
        // diagnostic sample, never unsoundness (all fields are plain
        // atomics, and readers validate `seq`).
        let i = if worker >= 0 {
            let i = shard.head.load(Ordering::Relaxed);
            shard.head.store(i + 1, Ordering::Relaxed);
            i
        } else {
            shard.head.fetch_add(1, Ordering::Relaxed)
        };
        // `capacity` is a power of two; mask instead of dividing.
        let slot = &slots[i as usize & (self.capacity - 1)];
        // Invalidate, fill, publish. The release store of `seq` is what
        // makes the payload visible to a reader that validates it.
        slot.seq.store(0, Ordering::Release);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.kind.store(kind.tag(), Ordering::Relaxed);
        slot.task.store(task.unwrap_or(NO_TASK), Ordering::Relaxed);
        slot.n.store(n, Ordering::Relaxed);
        slot.aux.store(aux, Ordering::Relaxed);
        slot.seq.store(i + 1, Ordering::Release);
    }

    /// Events overwritten before they could be snapshotted, across all
    /// shards.
    pub fn dropped(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.head
                    .load(Ordering::Relaxed)
                    .saturating_sub(self.capacity as u64)
            })
            .sum()
    }

    /// Total events ever emitted, across all shards.
    pub fn emitted(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.head.load(Ordering::Relaxed))
            .sum()
    }

    /// Collects the currently retained events, merged across shards and
    /// sorted by timestamp. Safe to call at any time; never blocks
    /// writers.
    ///
    /// For every retained [`EventKind::TaskEnd`] slot a matching
    /// [`EventKind::TaskStart`] is synthesized at `t_end - duration`:
    /// the runtime emits one slot per task (the hot path pays one ring
    /// write, not two) and the reader reconstructs the start. The only
    /// observable differences from emitting starts eagerly are that a
    /// task still executing at snapshot time has no start event yet,
    /// and a retried task's start is its *final* attempt's start (the
    /// earlier attempts are visible as [`EventKind::Retry`] events).
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            let Some(slots) = shard.slots.get() else {
                continue; // never emitted
            };
            let worker = self.shard_worker(si);
            let head = shard.head.load(Ordering::Acquire);
            let n = head.min(self.capacity as u64);
            for i in head - n..head {
                let slot = &slots[i as usize % self.capacity];
                if slot.seq.load(Ordering::Acquire) != i + 1 {
                    continue; // in progress or lapped
                }
                let t_ns = slot.t_ns.load(Ordering::Relaxed);
                let kind = slot.kind.load(Ordering::Relaxed);
                let task = slot.task.load(Ordering::Relaxed);
                let ev_n = slot.n.load(Ordering::Relaxed);
                let aux = slot.aux.load(Ordering::Relaxed);
                if slot.seq.load(Ordering::Acquire) != i + 1 {
                    continue; // overwritten while reading
                }
                let Some(kind) = EventKind::from_tag(kind) else {
                    continue;
                };
                let task = (task != NO_TASK).then_some(task);
                if kind == EventKind::TaskEnd {
                    out.push(Event {
                        t_s: (t_ns.saturating_sub(ev_n)) as f64 * 1e-9,
                        kind: EventKind::TaskStart,
                        task,
                        worker,
                        n: 0,
                        aux: 0,
                    });
                }
                out.push(Event {
                    t_s: t_ns as f64 * 1e-9,
                    kind,
                    task,
                    worker,
                    n: ev_n,
                    aux,
                });
            }
        }
        out.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
        out
    }
}

// ---------------------------------------------------------------------
// Log-bucketed histograms
// ---------------------------------------------------------------------

/// Number of buckets: one per possible bit length of a `u64` sample.
const HIST_BUCKETS: usize = 64;

/// Bucket index for a sample: its bit length, so bucket `i` covers
/// `[2^(i-1), 2^i)` (bucket 0 holds zeros). Upper bound of bucket `i`
/// is `2^i - 1`.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

/// Stripes per histogram. Workers recording similar latencies would
/// all hit the *same* bucket counter (same bit length) plus the shared
/// `sum` — two contended cache lines per record, which alone pushed
/// telemetry overhead on the no-op scheduler bench above 20%. Each
/// stripe is its own cache-line-aligned bucket array, so a worker
/// recording on its own stripe never ping-pongs a line with another.
/// 16 stripes keep every worker of typical pools (≤15) off stripe 0,
/// which is reserved for the multi-writer [`LogHistogram::record`].
const HIST_STRIPES: usize = 16;

#[repr(align(64))]
struct HistStripe {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

/// A log2-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, sizes in bytes, ...). Recording is two relaxed
/// `fetch_add`s on a caller-chosen stripe; snapshots merge the stripes
/// and read concurrently with writers. Quantile estimates are exact to
/// within one power-of-two bucket.
pub struct LogHistogram {
    stripes: Box<[HistStripe]>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram {
            stripes: (0..HIST_STRIPES)
                .map(|_| HistStripe {
                    buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                    sum: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Records one sample on stripe 0 with atomic read-modify-writes —
    /// safe from any number of threads, but each RMW is a full fence on
    /// x86. Hot single-writer paths use [`record_on`].
    ///
    /// [`record_on`]: LogHistogram::record_on
    pub fn record(&self, v: u64) {
        let s = &self.stripes[0];
        s.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records one sample on the given stripe (wrapped into range) with
    /// plain load+store updates. The stripe must have a **single
    /// writer** (each runtime worker passes its own index): two threads
    /// racing the same stripe can lose samples — a skewed diagnostic,
    /// never unsoundness. The payoff is skipping the locked RMW, which
    /// costs more than the rest of the record combined on the no-op
    /// task hot path.
    pub fn record_on(&self, stripe: usize, v: u64) {
        let s = &self.stripes[stripe % HIST_STRIPES];
        let b = &s.buckets[bucket_of(v)];
        b.store(b.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        s.sum.store(
            s.sum.load(Ordering::Relaxed).wrapping_add(v),
            Ordering::Relaxed,
        );
    }

    /// A point-in-time copy of the histogram, merged across stripes.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; HIST_BUCKETS];
        let mut sum = 0u64;
        for s in self.stripes.iter() {
            for (i, b) in s.buckets.iter().enumerate() {
                counts[i] += b.load(Ordering::Relaxed);
            }
            sum = sum.wrapping_add(s.sum.load(Ordering::Relaxed));
        }
        HistogramSnapshot { counts, sum }
    }
}

/// Immutable copy of a [`LogHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; bucket `i` covers values of bit
    /// length `i`.
    pub counts: [u64; HIST_BUCKETS],
    /// Sum of all recorded samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Upper bound of bucket `i` (inclusive).
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Quantile estimate (`0.0 < q <= 1.0`): the upper bound of the
    /// bucket containing the `ceil(q·count)`-th smallest sample.
    /// Within one log2 bucket of the exact order statistic.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(HIST_BUCKETS - 1)
    }

    /// JSON form with the standard quantiles; `scale` converts sample
    /// units to export units (e.g. `1e-9` for nanoseconds → seconds).
    pub fn to_value(&self, scale: f64) -> Value {
        Value::Object(vec![
            ("count".into(), Value::from(self.count())),
            ("sum".into(), Value::Number(self.sum as f64 * scale)),
            ("mean".into(), Value::Number(self.mean() * scale)),
            (
                "p50".into(),
                Value::Number(self.quantile(0.50) as f64 * scale),
            ),
            (
                "p95".into(),
                Value::Number(self.quantile(0.95) as f64 * scale),
            ),
            (
                "p99".into(),
                Value::Number(self.quantile(0.99) as f64 * scale),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

enum MetricValue {
    Counter(u64),
    Gauge(f64),
    // Boxed: a snapshot is ~0.5 KiB of bucket counts, which would
    // otherwise dominate the enum footprint for every counter too.
    Histogram {
        snap: Box<HistogramSnapshot>,
        /// Sample-unit → export-unit factor (`1e-9` for ns → s).
        scale: f64,
    },
}

struct Metric {
    name: String,
    help: String,
    value: MetricValue,
}

/// A typed bag of metrics, exportable as JSON ([`Registry::to_value`])
/// or Prometheus text exposition format
/// ([`Registry::to_prometheus`]). Built on demand from live runtime
/// state — see `Runtime::registry` — and extendable by callers (the
/// `profile` bin folds the linalg pool counters in).
#[derive(Default)]
pub struct Registry {
    metrics: Vec<Metric>,
}

/// Lowercases and maps every non-`[a-z0-9_:]` byte to `_`, yielding a
/// valid Prometheus metric name.
fn sanitize_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| match c {
            'a'..='z' | '0'..='9' | '_' | ':' => c,
            'A'..='Z' => c.to_ascii_lowercase(),
            _ => '_',
        })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a monotonic counter.
    pub fn counter(&mut self, name: &str, help: &str, v: u64) {
        self.put(name, help, MetricValue::Counter(v));
    }

    /// Registers (or replaces) a gauge.
    pub fn gauge(&mut self, name: &str, help: &str, v: f64) {
        self.put(name, help, MetricValue::Gauge(v));
    }

    /// Registers (or replaces) a histogram. `scale` converts recorded
    /// sample units into export units.
    pub fn histogram(&mut self, name: &str, help: &str, snap: HistogramSnapshot, scale: f64) {
        self.put(
            name,
            help,
            MetricValue::Histogram {
                snap: Box::new(snap),
                scale,
            },
        );
    }

    fn put(&mut self, name: &str, help: &str, value: MetricValue) {
        let name = sanitize_name(name);
        if let Some(m) = self.metrics.iter_mut().find(|m| m.name == name) {
            m.help = help.to_string();
            m.value = value;
        } else {
            self.metrics.push(Metric {
                name,
                help: help.to_string(),
                value,
            });
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// JSON form: one key per metric.
    pub fn to_value(&self) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|m| {
                    let v = match &m.value {
                        MetricValue::Counter(c) => Value::from(*c),
                        MetricValue::Gauge(g) => Value::Number(*g),
                        MetricValue::Histogram { snap, scale } => snap.to_value(*scale),
                    };
                    (m.name.clone(), v)
                })
                .collect(),
        )
    }

    /// Prometheus text exposition format (version 0.0.4): `# HELP` /
    /// `# TYPE` headers per family, log2 bucket bounds as `le` labels.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for m in &self.metrics {
            let name = &m.name;
            writeln!(out, "# HELP {name} {}", m.help.replace('\n', " ")).unwrap();
            match &m.value {
                MetricValue::Counter(c) => {
                    writeln!(out, "# TYPE {name} counter").unwrap();
                    writeln!(out, "{name} {c}").unwrap();
                }
                MetricValue::Gauge(g) => {
                    writeln!(out, "# TYPE {name} gauge").unwrap();
                    writeln!(out, "{name} {g}").unwrap();
                }
                MetricValue::Histogram { snap, scale } => {
                    writeln!(out, "# TYPE {name} histogram").unwrap();
                    let mut cum = 0u64;
                    for (i, &c) in snap.counts.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cum += c;
                        let le = HistogramSnapshot::bucket_bound(i) as f64 * scale;
                        writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}").unwrap();
                    }
                    writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}").unwrap();
                    writeln!(out, "{name}_sum {}", snap.sum as f64 * scale).unwrap();
                    writeln!(out, "{name}_count {cum}").unwrap();
                }
            }
        }
        out
    }
}

/// Validates Prometheus text exposition output: well-formed comment
/// and sample lines, legal metric names, parseable values, histogram
/// buckets cumulative with `+Inf` equal to `_count`. Returns the
/// number of sample lines. Used by the `profile` bin's `--check` so
/// CI catches a malformed exporter.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars().next().is_some_and(|c| !c.is_ascii_digit())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut samples = 0usize;
    // family → (last cumulative bucket, saw +Inf, inf value)
    let mut hist: BTreeMap<String, (u64, Option<u64>)> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut it = rest.splitn(3, ' ');
            let tag = it.next().unwrap_or("");
            let name = it.next().unwrap_or("");
            if (tag == "HELP" || tag == "TYPE") && !valid_name(name) {
                return Err(format!("line {}: bad metric name in '{line}'", ln + 1));
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(p) => p,
            None => return Err(format!("line {}: no value in '{line}'", ln + 1)),
        };
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {}: bad value '{value_part}'", ln + 1))?;
        let (name, labels) = match name_part.split_once('{') {
            Some((n, l)) => {
                let l = l
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated labels", ln + 1))?;
                (n, Some(l))
            }
            None => (name_part, None),
        };
        if !valid_name(name) {
            return Err(format!("line {}: bad metric name '{name}'", ln + 1));
        }
        samples += 1;
        if let Some(family) = name.strip_suffix("_bucket") {
            let le = labels
                .and_then(|l| l.strip_prefix("le=\""))
                .and_then(|l| l.strip_suffix('"'))
                .ok_or_else(|| format!("line {}: bucket without le label", ln + 1))?;
            let e = hist.entry(family.to_string()).or_insert((0, None));
            if (value as u64) < e.0 {
                return Err(format!("line {}: non-cumulative bucket", ln + 1));
            }
            e.0 = value as u64;
            if le == "+Inf" {
                e.1 = Some(value as u64);
            } else if le.parse::<f64>().is_err() {
                return Err(format!("line {}: bad le bound '{le}'", ln + 1));
            }
        } else if let Some(family) = name.strip_suffix("_count") {
            counts.insert(family.to_string(), value as u64);
        }
    }
    for (family, (_, inf)) in &hist {
        let inf = inf.ok_or_else(|| format!("histogram {family} missing +Inf bucket"))?;
        if let Some(&c) = counts.get(family) {
            if c != inf {
                return Err(format!(
                    "histogram {family}: +Inf bucket {inf} != count {c}"
                ));
            }
        } else {
            return Err(format!("histogram {family} missing _count"));
        }
    }
    Ok(samples)
}

// ---------------------------------------------------------------------
// Straggler / critical-path analysis
// ---------------------------------------------------------------------

/// A task flagged as anomalously slow for its kind.
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

/// Online straggler detection and incremental critical-path tracking.
///
/// Feed completed tasks in completion order (in a real run a task
/// always completes after its dependencies, so completion order is a
/// topological order). A task is flagged when its duration exceeds
/// `k ×` the running median of its kind and the kind has at least
/// `min_samples` observations — the per-task-constant-cost analysis of
/// the Dask-overheads paper, applied online.
pub struct StragglerAnalyzer {
    k: f64,
    min_samples: usize,
    /// Sorted durations per kind (running median by bisection insert).
    kinds: BTreeMap<String, Vec<f64>>,
    /// finish[t] = longest dependency chain ending at t, in seconds.
    finish: Vec<f64>,
    /// Predecessor realizing `finish[t]` (-1 = none).
    pred: Vec<i64>,
    /// Task with the largest finish so far (-1 = none).
    best: i64,
    flagged: Vec<Straggler>,
}

impl StragglerAnalyzer {
    /// `k` — flag threshold multiple over the running median;
    /// `min_samples` — observations of a kind required before flagging.
    pub fn new(k: f64, min_samples: usize) -> Self {
        StragglerAnalyzer {
            k,
            min_samples: min_samples.max(1),
            kinds: BTreeMap::new(),
            finish: Vec::new(),
            pred: Vec::new(),
            best: -1,
            flagged: Vec::new(),
        }
    }

    /// Observes one completed task. `deps` are the task ids it waited
    /// on. Returns whether the task was flagged as a straggler.
    pub fn observe(
        &mut self,
        task: u64,
        name: &str,
        worker: i64,
        duration_s: f64,
        deps: &[u64],
        retried: bool,
    ) -> bool {
        let ti = task as usize;
        if self.finish.len() <= ti {
            self.finish.resize(ti + 1, 0.0);
            self.pred.resize(ti + 1, -1);
        }
        let mut base = 0.0f64;
        let mut pred = -1i64;
        for &d in deps {
            let f = self.finish.get(d as usize).copied().unwrap_or(0.0);
            if f > base {
                base = f;
                pred = d as i64;
            }
        }
        self.finish[ti] = base + duration_s;
        self.pred[ti] = pred;
        if self.best < 0 || self.finish[ti] > self.finish[self.best as usize] {
            self.best = ti as i64;
        }

        // Pseudo sync/barrier markers shape the critical path but have
        // no body — they never enter the per-kind duration stats.
        if name.starts_with("__") {
            return false;
        }
        let durs = self.kinds.entry(name.to_string()).or_default();
        let n = durs.len();
        let flagged = if n >= self.min_samples {
            let median = durs[n / 2];
            median > 0.0 && duration_s > self.k * median
        } else {
            false
        };
        let median = if n > 0 { durs[n / 2] } else { duration_s };
        let at = durs.partition_point(|&d| d < duration_s);
        durs.insert(at, duration_s);
        if flagged {
            self.flagged.push(Straggler {
                task,
                name: name.to_string(),
                worker,
                duration_s,
                median_s: median,
                factor: if median > 0.0 {
                    duration_s / median
                } else {
                    f64::INFINITY
                },
                retried,
            });
        }
        flagged
    }

    /// Stragglers flagged so far, in observation order.
    pub fn stragglers(&self) -> &[Straggler] {
        &self.flagged
    }

    /// The current critical path, producer-first.
    pub fn critical_path(&self) -> Vec<u64> {
        let mut path = Vec::new();
        let mut t = self.best;
        while t >= 0 {
            path.push(t as u64);
            t = self.pred[t as usize];
        }
        path.reverse();
        path
    }

    /// Length of the current critical path in seconds.
    pub fn critical_path_s(&self) -> f64 {
        if self.best < 0 {
            0.0
        } else {
            self.finish[self.best as usize]
        }
    }

    /// Freezes the analyzer state into a report.
    pub fn report(&self) -> StragglerReport {
        StragglerReport {
            k: self.k,
            stragglers: self.flagged.clone(),
            critical_path: self.critical_path(),
            critical_path_s: self.critical_path_s(),
        }
    }
}

/// Frozen output of a [`StragglerAnalyzer`].
#[derive(Debug, Clone)]
pub struct StragglerReport {
    pub k: f64,
    pub stragglers: Vec<Straggler>,
    /// Critical path as task ids, producer-first.
    pub critical_path: Vec<u64>,
    pub critical_path_s: f64,
}

impl StragglerReport {
    /// Replays a finished [`Trace`] through the analyzer in completion
    /// order — the batch form of the online path, used by the bins.
    pub fn from_trace(trace: &Trace, k: f64, min_samples: usize) -> StragglerReport {
        let mut an = StragglerAnalyzer::new(k, min_samples);
        let mut order: Vec<&crate::trace::TaskRecord> = trace.records.iter().collect();
        order.sort_by(|a, b| (a.start_s + a.duration_s).total_cmp(&(b.start_s + b.duration_s)));
        for r in order {
            let deps: Vec<u64> = r.deps.iter().map(|d| d.0).collect();
            an.observe(
                r.id.0,
                &r.name,
                r.worker,
                r.duration_s,
                &deps,
                r.attempts.iter().any(|a| a.error.is_some()),
            );
        }
        an.report()
    }

    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("k".into(), Value::Number(self.k)),
            (
                "stragglers".into(),
                Value::Array(self.stragglers.iter().map(|s| s.to_value()).collect()),
            ),
            (
                "critical_path".into(),
                Value::Array(self.critical_path.iter().map(|&t| Value::from(t)).collect()),
            ),
            (
                "critical_path_s".into(),
                Value::Number(self.critical_path_s),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// Threaded / DES event emitters and divergence
// ---------------------------------------------------------------------

/// Re-emits a finished real run as the journal event schema: one
/// `task_start`/`task_end` pair per executed task. Pseudo sync/barrier
/// markers are skipped (no body ran).
pub fn events_from_trace(trace: &Trace) -> Vec<Event> {
    let mut out = Vec::new();
    for r in &trace.records {
        if r.name.starts_with("__") || r.duration_s <= 0.0 && r.worker < 0 {
            continue;
        }
        out.push(Event {
            t_s: r.start_s,
            kind: EventKind::TaskStart,
            task: Some(r.id.0),
            worker: r.worker,
            n: 0,
            aux: 0,
        });
        out.push(Event {
            t_s: r.start_s + r.duration_s,
            kind: EventKind::TaskEnd,
            task: Some(r.id.0),
            worker: r.worker,
            n: (r.duration_s * 1e9) as u64,
            aux: 0,
        });
    }
    out.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
    out
}

/// Re-emits a simulated schedule as the same event schema the threaded
/// runtime produces: `worker` carries the cluster node index, and runs
/// killed by an injected node failure set `aux = 1` on their
/// `task_end`. Schema-identical to [`events_from_trace`] output by
/// construction (both encode through [`Event::to_value`]).
pub fn events_from_schedule(report: &SimReport) -> Vec<Event> {
    let mut out = Vec::new();
    for e in &report.schedule {
        let compute_start = e.start_s + e.transfer_s;
        out.push(Event {
            t_s: compute_start,
            kind: EventKind::TaskStart,
            task: Some(e.task.0),
            worker: e.node as i64,
            n: 0,
            aux: 0,
        });
        out.push(Event {
            t_s: e.end_s,
            kind: EventKind::TaskEnd,
            task: Some(e.task.0),
            worker: e.node as i64,
            n: ((e.end_s - compute_start).max(0.0) * 1e9) as u64,
            aux: e.lost as u64,
        });
    }
    out.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
    out
}

/// Per-kind real-vs-simulated busy time.
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
/// drifts from the measured run. This is the oracle check for the
/// distributed-executor roadmap item — a divergence near 1.0 means the
/// DES can be trusted to predict scheduling changes.
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
        Value::Object(vec![
            (
                "real_makespan_s".into(),
                Value::Number(self.real_makespan_s),
            ),
            ("sim_makespan_s".into(), Value::Number(self.sim_makespan_s)),
            ("makespan_ratio".into(), Value::Number(self.makespan_ratio)),
            (
                "kinds".into(),
                Value::Array(
                    self.kinds
                        .iter()
                        .map(|k| {
                            Value::Object(vec![
                                ("name".into(), Value::from(k.name.as_str())),
                                ("real_s".into(), Value::Number(k.real_s)),
                                ("sim_s".into(), Value::Number(k.sim_s)),
                                ("ratio".into(), Value::Number(k.ratio)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Diffs a measured trace against its simulated replay.
pub fn divergence(trace: &Trace, report: &SimReport) -> Divergence {
    let mut start = f64::INFINITY;
    let mut end = 0.0f64;
    let mut real_by_kind: BTreeMap<String, f64> = BTreeMap::new();
    for r in &trace.records {
        if r.name.starts_with("__") || (r.duration_s <= 0.0 && r.worker < 0) {
            continue;
        }
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
    let kinds = names
        .into_iter()
        .map(|name| {
            let real_s = real_by_kind.get(&name).copied().unwrap_or(0.0);
            let sim_s = report.busy_by_kind.get(&name).copied().unwrap_or(0.0);
            KindDivergence {
                name,
                real_s,
                sim_s,
                ratio: if real_s > 0.0 {
                    sim_s / real_s
                } else {
                    f64::INFINITY
                },
            }
        })
        .collect();
    Divergence {
        real_makespan_s,
        sim_makespan_s: report.makespan_s,
        makespan_ratio: if real_makespan_s > 0.0 {
            report.makespan_s / real_makespan_s
        } else {
            f64::INFINITY
        },
        kinds,
    }
}

// ---------------------------------------------------------------------
// Runtime-side aggregate
// ---------------------------------------------------------------------

/// The live telemetry state a runtime carries when metrics are on: the
/// event journal plus the three scheduler latency histograms. Shared
/// (`Arc`) so task contexts can emit from inside bodies.
pub struct Telemetry {
    journal: Journal,
    /// Ready-to-start latency per task, nanoseconds.
    pub queue_wait: LogHistogram,
    /// Body run time of each task's final attempt, nanoseconds.
    pub run_time: LogHistogram,
    /// Per-attempt body latency (every attempt, including failed
    /// ones), nanoseconds.
    pub attempt: LogHistogram,
}

impl Telemetry {
    /// Sizes the journal from the worker count: each shard gets a
    /// share of a fixed overall event budget, so wide pools don't
    /// multiply the journal's footprint while small pools stop
    /// dropping the bulk of a 10k-task run (flat 512-slot rings lost
    /// ~75% of events there).
    pub fn new(n_workers: usize, epoch: Instant) -> Self {
        // Overall budget: 32768 events split across the shards
        // (driver + workers + external), clamped so one shard never
        // drops below the floor or balloons past 16k slots.
        let cap = (32768 / (n_workers + 2))
            .next_power_of_two()
            .clamp(DEFAULT_JOURNAL_CAP, 16384);
        Telemetry {
            journal: Journal::new(n_workers, cap, epoch),
            queue_wait: LogHistogram::new(),
            run_time: LogHistogram::new(),
            attempt: LogHistogram::new(),
        }
    }

    pub fn journal(&self) -> &Journal {
        &self.journal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overflow_sets_drop_counter_and_keeps_last_window() {
        let j = Journal::new(0, 16, Instant::now());
        for i in 0..40u64 {
            j.emit(DRIVER, EventKind::TaskStart, Some(i), 0, 0);
        }
        assert_eq!(j.dropped(), 40 - 16);
        assert_eq!(j.emitted(), 40);
        let snap = j.snapshot();
        assert_eq!(snap.len(), 16);
        // The retained window is the most recent events.
        let ids: Vec<u64> = snap.iter().map(|e| e.task.unwrap()).collect();
        assert_eq!(ids, (24..40).collect::<Vec<u64>>());
    }

    #[test]
    fn journal_emit_never_blocks_under_concurrency() {
        use std::sync::Arc;
        let j = Arc::new(Journal::new(4, 32, Instant::now()));
        let threads: Vec<_> = (0..4)
            .map(|w| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        j.emit(w, EventKind::TaskEnd, Some(i), i, 0);
                    }
                })
            })
            .collect();
        // Snapshot concurrently with the writers; must never block or
        // panic, and every validated event must be well formed (the
        // ends retained in the ring, plus their synthesized starts).
        for _ in 0..50 {
            for e in j.snapshot() {
                assert!(matches!(e.kind, EventKind::TaskEnd | EventKind::TaskStart));
            }
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(j.emitted(), 40_000);
        assert_eq!(j.dropped(), 40_000 - 4 * 32);
        // Each retained TaskEnd slot snapshots as end + synthesized start.
        assert_eq!(j.snapshot().len(), 2 * 4 * 32);
    }

    #[test]
    fn journal_routes_shards_and_recovers_worker() {
        let j = Journal::new(2, 8, Instant::now());
        j.emit(DRIVER, EventKind::QueueFlush, None, 3, 0);
        j.emit(0, EventKind::TaskStart, Some(1), 0, 0);
        j.emit(1, EventKind::TaskStart, Some(2), 0, 0);
        j.emit(EXTERNAL, EventKind::PoolHit, None, 4096, 0);
        let mut workers: Vec<i64> = j.snapshot().iter().map(|e| e.worker).collect();
        workers.sort_unstable();
        assert_eq!(workers, vec![EXTERNAL, DRIVER, 0, 1]);
    }

    #[test]
    fn histogram_quantiles_within_one_bucket_of_exact() {
        // Distributions with known exact quantiles.
        let cases: Vec<Vec<u64>> = vec![
            (1..=1000).collect(), // uniform
            vec![700; 500],       // constant
            (0..500)
                .map(|i| 10 + i % 5)
                .chain((0..50).map(|_| 100_000))
                .collect(), // bimodal
        ];
        for values in cases {
            let h = LogHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let snap = h.snapshot();
            assert_eq!(snap.count(), values.len() as u64);
            assert_eq!(snap.sum, values.iter().sum::<u64>());
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for q in [0.5, 0.95, 0.99] {
                let exact =
                    sorted[((q * sorted.len() as f64).ceil() as usize - 1).min(sorted.len() - 1)];
                let est = snap.quantile(q);
                let (be, bx) = (bucket_of(est), bucket_of(exact));
                assert!(
                    be.abs_diff(bx) <= 1,
                    "q={q}: estimate {est} (bucket {be}) vs exact {exact} (bucket {bx})"
                );
            }
        }
    }

    #[test]
    fn histogram_snapshot_concurrent_with_writer() {
        use std::sync::Arc;
        let h = Arc::new(LogHistogram::new());
        let w = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                for i in 0..100_000u64 {
                    h.record(i % 1000);
                }
            })
        };
        for _ in 0..100 {
            let s = h.snapshot();
            assert!(s.count() <= 100_000);
        }
        w.join().unwrap();
        assert_eq!(h.snapshot().count(), 100_000);
    }

    #[test]
    fn histogram_stripes_merge_in_snapshot() {
        use std::sync::Arc;
        let h = Arc::new(LogHistogram::new());
        // One writer per stripe (the single-writer contract of
        // `record_on`); the snapshot must see the union.
        let writers: Vec<_> = (0..4)
            .map(|stripe| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_on(stripe, 100 + i % 10);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 40_000);
        assert_eq!(s.sum, (0..10_000u64).map(|i| 100 + i % 10).sum::<u64>() * 4);
    }

    #[test]
    fn event_json_roundtrip_all_kinds() {
        for (i, &kind) in EVENT_KINDS.iter().enumerate() {
            let ev = Event {
                t_s: 0.125 * i as f64,
                kind,
                task: (i % 2 == 0).then_some(i as u64 * 7),
                worker: i as i64 - 2,
                n: i as u64 * 1000,
                aux: i as u64,
            };
            let v = ev.to_value();
            let back = Event::from_value(&Value::parse(&v.compact()).unwrap()).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn registry_prometheus_roundtrip_validates() {
        let mut reg = Registry::new();
        reg.counter("taskrt_tasks_total", "tasks executed", 42);
        reg.gauge("taskrt_utilization", "worker busy fraction", 0.75);
        let h = LogHistogram::new();
        for v in [100u64, 200, 400, 800, 100_000] {
            h.record(v);
        }
        reg.histogram("taskrt_run_seconds", "body run time", h.snapshot(), 1e-9);
        let text = reg.to_prometheus();
        let n = validate_prometheus(&text).expect("valid exposition");
        assert!(
            n >= 2 + 3,
            "expected counter+gauge+histogram samples, got {n}"
        );
        // JSON side parses and carries quantiles.
        let v = Value::parse(&reg.to_value().compact()).unwrap();
        assert!(v.get("taskrt_run_seconds").unwrap().get("p95").is_some());
        assert_eq!(v.get("taskrt_tasks_total").unwrap().as_u64(), Some(42));
    }

    #[test]
    fn validate_prometheus_rejects_malformed() {
        assert!(validate_prometheus("1bad_name 3\n").is_err());
        assert!(validate_prometheus("no_value\n").is_err());
        assert!(validate_prometheus("m_bucket{le=\"1\"} 5\nm_bucket{le=\"2\"} 3\n").is_err());
        // Histogram without +Inf.
        assert!(validate_prometheus("m_bucket{le=\"1\"} 1\nm_count 1\n").is_err());
    }

    #[test]
    fn sanitize_prometheus_names() {
        assert_eq!(sanitize_name("Pool Hit-Rate"), "pool_hit_rate");
        assert_eq!(sanitize_name("9lives"), "_9lives");
    }

    #[test]
    fn straggler_flagging_and_critical_path() {
        let mut an = StragglerAnalyzer::new(3.0, 4);
        // A chain a(0) -> b(1) -> c(2) plus independent gemms.
        an.observe(0, "load", 0, 1.0, &[], false);
        an.observe(1, "gemm", 0, 1.0, &[0], false);
        an.observe(2, "gemm", 1, 1.1, &[0], false);
        an.observe(3, "gemm", 0, 0.9, &[0], false);
        an.observe(4, "gemm", 1, 1.0, &[0], false);
        assert!(an.stragglers().is_empty());
        // 10s >> 3x median(~1.0): flagged and attributed.
        assert!(an.observe(5, "gemm", 1, 10.0, &[1, 2], true));
        let rep = an.report();
        assert_eq!(rep.stragglers.len(), 1);
        let s = &rep.stragglers[0];
        assert_eq!((s.task, s.worker, s.retried), (5, 1, true));
        assert!(s.factor > 3.0);
        // Critical path: load -> gemm(2, the slower dep) -> straggler.
        assert_eq!(rep.critical_path, vec![0, 2, 5]);
        assert!((rep.critical_path_s - 12.1).abs() < 1e-9);
    }

    #[test]
    fn straggler_needs_min_samples() {
        let mut an = StragglerAnalyzer::new(2.0, 10);
        for i in 0..9 {
            assert!(!an.observe(i, "t", 0, if i == 8 { 100.0 } else { 1.0 }, &[], false));
        }
    }
}

#[cfg(test)]
mod emit_bench {
    use super::*;

    #[test]
    #[ignore = "manual perf diagnostic"]
    fn emit_cost() {
        let epoch = Instant::now();
        let j = Journal::new(4, 512, epoch);
        let n = 5_000_000u64;
        let t0 = Instant::now();
        for i in 0..n {
            let now = Instant::now();
            j.emit_at(0, now, EventKind::TaskStart, Some(i), 0, 0);
        }
        println!(
            "emit_at + Instant::now: {:.1} ns/emit",
            t0.elapsed().as_secs_f64() / n as f64 * 1e9
        );
        let now = Instant::now();
        let t0 = Instant::now();
        for i in 0..n {
            j.emit_at(0, now, EventKind::TaskStart, Some(i), 0, 0);
        }
        println!(
            "emit_at reused stamp:  {:.1} ns/emit",
            t0.elapsed().as_secs_f64() / n as f64 * 1e9
        );
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..n {
            acc = acc.wrapping_add(Instant::now().elapsed().subsec_nanos() as u64);
        }
        println!(
            "Instant::now x2:       {:.1} ns/iter (acc {acc})",
            t0.elapsed().as_secs_f64() / n as f64 * 1e9
        );
        assert_eq!(j.emitted(), 2 * n);
    }
}
