//! Observability views derived from a finished [`Trace`]: the event
//! stream, latency histograms, a metrics registry with JSON/Prometheus
//! export, straggler reports and real-vs-DES divergence.
//!
//! Nothing in this module is written while a run executes. The one
//! per-task stamp is the [`crate::TaskRecord`] the executor fills under
//! its commit lock (`ready_s`, `start_s`, `duration_s`, `worker`,
//! `attempts`), beside the `obs::Counters` sums; every view here is
//! computed from those records on demand, after the run — the paper's
//! post-mortem Extrae → Paraver workflow:
//!
//! - [`events_from_trace`] / [`events_from_schedule`] — one event
//!   schema for a real run and for its DES replay, so [`divergence`]
//!   can diff the two (makespan and per-kind busy time).
//! - [`HistogramSnapshot`] — log2-bucketed latency histograms (queue
//!   wait, run time, per-attempt latency; see `Runtime::registry`).
//! - [`Registry`] — a typed bag of counters/gauges/histograms rendered
//!   as JSON or Prometheus text exposition format.
//! - [`StragglerReport`] — tasks slower than `k×` their kind's running
//!   median, attributed to worker/retries, plus the critical path.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::sim::SimReport;
use crate::trace::Trace;

// ---------------------------------------------------------------------
// Event schema
// ---------------------------------------------------------------------

/// What an [`Event`] records. The JSON encoding of every kind uses the
/// same fixed key set (see [`Event::to_value`]), so streams derived
/// from a real run and from a DES schedule are schema-identical and can
/// be diffed directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A task body started executing (its final attempt). `n`/`aux`
    /// unused.
    TaskStart,
    /// A task finished (success or terminal failure). `n` = body
    /// nanoseconds of the final attempt, `aux` = 0 on success, 1 on
    /// failure (or, for DES streams, 1 when the run was lost to a
    /// simulated node failure).
    TaskEnd,
    /// A failed attempt was followed by another attempt. Stamped at
    /// the end of the failed attempt; `n` = the attempt number that
    /// failed.
    Retry,
}

/// Every kind, in encoding order.
const EVENT_KINDS: [EventKind; 3] = [EventKind::TaskStart, EventKind::TaskEnd, EventKind::Retry];

impl EventKind {
    /// Stable wire name used in the JSON schema.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::TaskStart => "task_start",
            EventKind::TaskEnd => "task_end",
            EventKind::Retry => "retry",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(s: &str) -> Option<EventKind> {
        EVENT_KINDS.iter().copied().find(|k| k.as_str() == s)
    }
}

/// One observability event. The same struct (and therefore the same
/// JSON schema) describes events derived from a finished [`Trace`] and
/// from a simulated [`SimReport`] schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Seconds since the runtime epoch (or simulated time zero).
    pub t_s: f64,
    pub kind: EventKind,
    /// Task this event concerns, when one is attributable.
    pub task: Option<u64>,
    /// Executor: worker index, or `-1` for a driver thread (the
    /// record's [`crate::TaskRecord::worker`]). In DES streams this is
    /// the cluster node index.
    pub worker: i64,
    /// Primary magnitude — meaning depends on `kind` (see
    /// [`EventKind`]).
    pub n: u64,
    /// Secondary payload — meaning depends on `kind`.
    pub aux: u64,
}

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

/// A log2-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, sizes in bytes, ...), built in one pass over the
/// samples by [`HistogramSnapshot::from_samples`]. Quantile estimates
/// are exact to within one power-of-two bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; bucket `i` covers values of bit
    /// length `i`.
    pub counts: [u64; HIST_BUCKETS],
    /// Sum of all recorded samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Buckets `samples`.
    pub fn from_samples(samples: impl IntoIterator<Item = u64>) -> HistogramSnapshot {
        let mut counts = [0u64; HIST_BUCKETS];
        let mut sum = 0u64;
        for v in samples {
            counts[bucket_of(v)] += 1;
            sum = sum.wrapping_add(v);
        }
        HistogramSnapshot { counts, sum }
    }

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
/// ([`Registry::to_prometheus`]). Built on demand from a runtime's
/// counters and records — see `Runtime::registry` — and extendable by
/// callers (the `profile` bin folds the linalg pool counters in).
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

/// Stragglers and the critical path of a finished run.
#[derive(Debug, Clone)]
pub struct StragglerReport {
    pub k: f64,
    pub stragglers: Vec<Straggler>,
    /// Critical path as task ids, producer-first.
    pub critical_path: Vec<u64>,
    pub critical_path_s: f64,
}

impl StragglerReport {
    /// Walks a finished [`Trace`] in completion order and flags every
    /// task whose duration exceeds `k ×` the running median of the
    /// tasks of its kind that completed before it, once the kind has
    /// at least `min_samples` of them — the per-task-constant-cost
    /// analysis of the Dask-overheads paper. Only user tasks whose body
    /// ran ([`crate::TaskRecord::ran`]) enter the per-kind statistics:
    /// markers and tasks failed or cancelled before running are not
    /// 0-second executions.
    pub fn from_trace(trace: &Trace, k: f64, min_samples: usize) -> StragglerReport {
        let min_samples = min_samples.max(1);
        let mut order: Vec<&crate::trace::TaskRecord> = trace
            .records
            .iter()
            .filter(|r| r.ran() && !r.is_marker())
            .collect();
        order.sort_by(|a, b| (a.start_s + a.duration_s).total_cmp(&(b.start_s + b.duration_s)));
        // Sorted durations per kind: running median by bisection insert.
        let mut kinds: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut stragglers = Vec::new();
        for r in order {
            let durs = kinds.entry(&r.name).or_default();
            let n = durs.len();
            if n >= min_samples {
                let median = durs[n / 2];
                if median > 0.0 && r.duration_s > k * median {
                    stragglers.push(Straggler {
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
        let (path, critical_path_s) = trace.critical_path();
        StragglerReport {
            k,
            stragglers,
            critical_path: path.iter().map(|t| t.0).collect(),
            critical_path_s,
        }
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
// Real / DES event streams and divergence
// ---------------------------------------------------------------------

/// The event stream of a finished real run, derived from its records:
/// one `task_start`/`task_end` pair per task whose body ran (its final
/// attempt; `aux = 1` on the end when it failed for good), plus one
/// `retry` per failed attempt that was followed by another attempt.
/// Sorted by time.
pub fn events_from_trace(trace: &Trace) -> Vec<Event> {
    let mut out = Vec::new();
    for r in trace.records.iter().filter(|r| r.ran()) {
        let ev = |t_s: f64, kind: EventKind, n: u64, aux: u64| Event {
            t_s,
            kind,
            task: Some(r.id.0),
            worker: r.worker,
            n,
            aux,
        };
        let retried = &r.attempts[..r.attempts.len().saturating_sub(1)];
        for (i, a) in retried
            .iter()
            .enumerate()
            .filter(|(_, a)| a.error.is_some())
        {
            let end = a.start_s + a.duration_s;
            out.push(ev(end, EventKind::Retry, i as u64 + 1, 0));
        }
        let failed = r.attempts.last().is_some_and(|a| a.error.is_some());
        out.push(ev(r.start_s, EventKind::TaskStart, 0, 0));
        out.push(ev(
            r.start_s + r.duration_s,
            EventKind::TaskEnd,
            (r.duration_s * 1e9) as u64,
            u64::from(failed),
        ));
    }
    out.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
    out
}

/// Re-emits a simulated schedule as the same event schema a real run
/// derives: `worker` carries the cluster node index, and runs killed by
/// an injected node failure set `aux = 1` on their `task_end`.
/// Schema-identical to [`events_from_trace`] output by construction
/// (both encode through [`Event::to_value`]).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::TaskId;
    use crate::trace::{AttemptRecord, TaskRecord};

    /// A record that ran on `worker` over `[start_s, start_s + dur)`.
    fn ran(id: u64, name: &str, deps: &[u64], worker: i64, start_s: f64, dur: f64) -> TaskRecord {
        TaskRecord {
            id: TaskId(id),
            name: name.to_string(),
            deps: deps.iter().map(|&d| TaskId(d)).collect(),
            duration_s: dur,
            inputs: vec![],
            outputs: vec![],
            cores: 1,
            gpus: 0,
            seq: id,
            ready_s: 0.0,
            start_s,
            worker,
            child: None,
            attempts: vec![],
        }
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
            let snap = HistogramSnapshot::from_samples(values.iter().copied());
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
    fn event_json_roundtrip_all_kinds() {
        for (i, &kind) in EVENT_KINDS.iter().enumerate() {
            let ev = Event {
                t_s: 0.125 * i as f64,
                kind,
                task: (i % 2 == 0).then_some(i as u64 * 7),
                worker: i as i64 - 1,
                n: i as u64 * 1000,
                aux: i as u64,
            };
            let v = ev.to_value();
            let back = Event::from_value(&Value::parse(&v.compact()).unwrap()).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn events_derive_retries_and_terminal_failures() {
        let failed = |start_s: f64| AttemptRecord {
            start_s,
            duration_s: 0.5,
            error: Some("boom".into()),
        };
        // Task 0 fails once, then succeeds; task 1 fails for good after
        // two attempts; task 2 never ran; task 3 is a sync marker.
        let mut a = ran(0, "a", &[], 0, 2.0, 1.0);
        a.attempts = vec![
            failed(1.0),
            AttemptRecord {
                start_s: 2.0,
                duration_s: 1.0,
                error: None,
            },
        ];
        let mut b = ran(1, "b", &[], 1, 5.0, 0.5);
        b.attempts = vec![failed(4.0), failed(5.0)];
        let never = ran(2, "c", &[1], -1, 0.0, 0.0);
        let mut marker = ran(3, crate::trace::SYNC_TASK, &[0], -1, 0.0, 0.0);
        marker.duration_s = 0.0;
        let events = events_from_trace(&Trace {
            records: vec![a, b, never, marker],
        });
        let summary: Vec<(f64, EventKind, u64, u64, u64)> = events
            .iter()
            .map(|e| (e.t_s, e.kind, e.task.unwrap(), e.n, e.aux))
            .collect();
        use EventKind::*;
        assert_eq!(
            summary,
            vec![
                (1.5, Retry, 0, 1, 0),
                (2.0, TaskStart, 0, 0, 0),
                (3.0, TaskEnd, 0, 1_000_000_000, 0),
                (4.5, Retry, 1, 1, 0),
                (5.0, TaskStart, 1, 0, 0),
                (5.5, TaskEnd, 1, 500_000_000, 1),
            ]
        );
    }

    #[test]
    fn registry_prometheus_roundtrip_validates() {
        let mut reg = Registry::new();
        reg.counter("taskrt_tasks_total", "tasks executed", 42);
        reg.gauge("taskrt_utilization", "worker busy fraction", 0.75);
        let h = HistogramSnapshot::from_samples([100u64, 200, 400, 800, 100_000]);
        reg.histogram("taskrt_run_seconds", "body run time", h, 1e-9);
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
        let rep = StragglerReport::from_trace(&trace, 3.0, 4);
        // 10s >> 3x median(~1.0): flagged and attributed.
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
        let records = (0..9)
            .map(|i| ran(i, "t", &[], 0, i as f64, if i == 8 { 100.0 } else { 1.0 }))
            .collect();
        let rep = StragglerReport::from_trace(&Trace { records }, 2.0, 10);
        assert!(rep.stragglers.is_empty());
    }
}
