//! The closed loop every workload runs in, and the report it prints.
//!
//! One driver: the next pass starts when the previous one has returned
//! and been checked. Set-up (inputs + oracle) is rebuilt several times
//! and timed on its own; the first pass is discarded as warm-up; passes
//! then repeat for `--seconds`. With `--trace 1` every other pass
//! records spans, so the same run also yields the tracing overhead.

use crate::host::{self, Calibrator};
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::span::{self, Span, Tracer};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use taskrt::json::Value;
use taskrt::RuntimeStats;

/// The switches of one run, as given on the command line.
#[derive(Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `--smoke`: one set-up and two timed passes, for CI.
    pub smoke: bool,
    /// Test-only: flip a bit of the oracle so every pass must fail.
    pub corrupt_oracle: bool,
}

/// Every artifact goes here, relative to the repository root.
pub const OUT_DIR: &str = "benchmark/out";

/// What one pass reports back to the loop.
pub struct Pass {
    pub makespan_s: f64,
    /// One op = one submitted task.
    pub tasks: u64,
    /// Every task of a pass that fails its oracle, plus what the layer
    /// itself reported as given up, poisoned, cancelled, retried or lost.
    pub failed: u64,
}

/// Samples per metric name, in the order they were measured.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn extend(&mut self, name: &'static str, values: Vec<f64>) {
        self.0.entry(name).or_default().extend(values);
    }

    /// The scheduler's own counters after a pass on a fresh runtime.
    pub fn push_runtime_stats(&mut self, s: &RuntimeStats) {
        self.push("runtime.tasks", s.total_tasks() as f64);
        self.push("runtime.body_s", s.run_s);
        self.push("runtime.driver_stall_s", s.driver_stall_s);
        self.push("runtime.worker_idle_s", s.worker_idle_s);
        self.push("runtime.queue_wait_us_mean", s.mean_queue_wait_s() * 1e6);
        self.push("runtime.steal_hit_rate", s.steal_hit_rate());
        self.push("runtime.locality_hit_rate", s.locality_hit_rate());
        self.push("runtime.inout_steal_rate", s.inout_steal_rate());
    }

    /// Times `f` in five chunks of `reps` calls and records `units` per
    /// second for each, so a host hiccup costs one sample, not the probe.
    pub fn probe_rate(
        &mut self,
        name: &'static str,
        units_per_call: f64,
        reps: usize,
        mut f: impl FnMut(),
    ) {
        for _ in 0..5 {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            self.push(
                name,
                units_per_call * reps as f64 / t0.elapsed().as_secs_f64(),
            );
        }
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| stats::median(v))
    }
}

/// Seconds per span name, one entry per traced pass.
pub struct SpanTable {
    per_name: BTreeMap<&'static str, Vec<f64>>,
    passes: usize,
}

impl SpanTable {
    fn new(spans: &[Span]) -> Self {
        let durations: Vec<f64> = spans.iter().map(|s| s.end_s - s.start_s).collect();
        let per_name = span::sum_per_pass(spans, &durations, |n| n);
        let passes = per_name.values().next().map_or(0, Vec::len);
        SpanTable { per_name, passes }
    }

    /// Per traced pass, the summed duration of the spans named `names`.
    pub fn durations(&self, names: &[&str]) -> Vec<f64> {
        let rows: Vec<_> = names.iter().filter_map(|n| self.per_name.get(n)).collect();
        (0..self.passes)
            .map(|pass| rows.iter().map(|row| row[pass]).sum())
            .collect()
    }
}

pub trait Workload {
    /// One pass of the closed loop, checked against the oracle.
    fn pass(&mut self, tr: &Tracer, samples: &mut Samples) -> Pass;
    /// Test-only: make the oracle wrong.
    fn corrupt_oracle(&mut self);
    /// Per-layer metrics that come from the traced passes' spans.
    fn layer_metrics(&self, _spans: &SpanTable, _samples: &mut Samples) {}
    /// Traced run only: single-threaded probes of the layers' public
    /// functions at exactly the shapes this workload uses.
    fn probes(&mut self, samples: &mut Samples);
}

fn metric_row(m: &metrics::Metric, values: &[f64]) -> Value {
    let (q1, q3) = stats::quartiles(values);
    let mut row = vec![
        ("name".into(), Value::from(m.name)),
        ("unit".into(), Value::from(m.unit)),
        ("better".into(), Value::from(m.better)),
        ("n".into(), Value::from(values.len())),
        ("median".into(), Value::from(stats::median(values))),
        ("q1".into(), Value::from(q1)),
        ("q3".into(), Value::from(q3)),
    ];
    if let Some((p, v)) = stats::tail(values) {
        row.push(("tail_percentile".into(), Value::from(p)));
        row.push(("tail".into(), Value::from(v)));
    }
    let raw = values.iter().map(|&v| Value::from(v)).collect();
    row.push(("samples".into(), Value::Array(raw)));
    Value::Object(row)
}

fn print_table(rows: &[Value]) {
    println!(
        "{:<34} {:>8} {:>5} {:>14} {:>14} {:>14}  tail",
        "metric", "unit", "n", "median", "q1", "q3"
    );
    for r in rows {
        let num = |k: &str| r[k].as_f64().unwrap_or(f64::NAN);
        let tail = match r.get("tail") {
            Some(t) => format!(
                "p{}={:.6}",
                num("tail_percentile"),
                t.as_f64().unwrap_or(f64::NAN)
            ),
            None => "-".into(),
        };
        println!(
            "{:<34} {:>8} {:>5} {:>14.6} {:>14.6} {:>14.6}  {}",
            r["name"].as_str().unwrap_or("?"),
            r["unit"].as_str().unwrap_or("?"),
            num("n"),
            num("median"),
            num("q1"),
            num("q3"),
            tail
        );
    }
}

/// Per layer and per span name: median self seconds per traced pass.
fn layers_report(spans: &[Span], traced_makespan_s: f64) -> Value {
    let median_rows = |per: BTreeMap<&str, Vec<f64>>| -> Vec<(String, f64)> {
        let mut rows: Vec<_> = per
            .into_iter()
            .map(|(k, v)| (k.to_string(), stats::median(&v)))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    };
    let selfs = span::self_times(spans);
    let layers = median_rows(span::sum_per_pass(spans, &selfs, span::layer_of));
    let names = median_rows(span::sum_per_pass(spans, &selfs, |n| n));
    // `bench` is the harness's own glue between calls; everything else
    // is time inside a layer's public functions.
    let attributed: f64 = layers
        .iter()
        .filter(|(l, _)| l != "bench")
        .map(|(_, s)| s)
        .sum();
    let row = |(name, self_s): &(String, f64)| {
        Value::Object(vec![
            ("name".into(), Value::from(name.as_str())),
            ("self_s".into(), Value::from(*self_s)),
            ("share".into(), Value::from(self_s / traced_makespan_s)),
        ])
    };
    Value::Object(vec![
        ("traced_makespan_s".into(), Value::from(traced_makespan_s)),
        (
            "attributed_share".into(),
            Value::from(attributed / traced_makespan_s),
        ),
        (
            "layers".into(),
            Value::Array(layers.iter().map(row).collect()),
        ),
        (
            "spans".into(),
            Value::Array(names.iter().map(row).collect()),
        ),
    ])
}

pub fn write_json(file: &str, v: &Value) {
    let path = Path::new(OUT_DIR).join(file);
    std::fs::write(&path, v.pretty() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// Runs one workload and prints its report; the last line of standard
/// output is the result object. Returns whether every pass was correct.
pub fn run<W: Workload>(
    workload: &str,
    opts: &Opts,
    rebuilds: usize,
    setup: impl Fn(&mut Samples) -> W,
) -> bool {
    let mut samples = Samples::default();
    let load_before = host::loadavg_1m();

    let rebuilds = if opts.smoke { 1 } else { rebuilds };
    let mut w = None;
    for _ in 0..rebuilds {
        drop(w.take()); // one input set resident at a time
        let t0 = Instant::now();
        w = Some(setup(&mut samples));
        samples.push("setup_s", t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    if opts.corrupt_oracle {
        w.corrupt_oracle();
    }

    let tracer = Tracer::new();
    let mut calib = Calibrator::load(Path::new(OUT_DIR));
    if !opts.smoke {
        w.pass(&tracer, &mut Samples::default()); // warm-up, discarded
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut traced_makespans = Vec::new();
    let cpu0 = host::cpu_seconds();
    let loop_t0 = Instant::now();
    let mut passes = 0usize;
    // At least two passes, so a traced run has one pass of each kind.
    while passes < 2 || (!opts.smoke && loop_t0.elapsed().as_secs_f64() < opts.seconds) {
        calib.probe();
        let traced = opts.trace && passes % 2 == 1;
        tracer.begin_pass(passes, traced);
        let p = w.pass(&tracer, &mut samples);
        attempted += p.tasks;
        failed += p.failed;
        if traced {
            traced_makespans.push(p.makespan_s);
        } else {
            samples.push("makespan_s", p.makespan_s);
        }
        passes += 1;
    }
    samples.push(
        "cpu_s_per_pass",
        (host::cpu_seconds() - cpu0) / passes as f64,
    );
    samples.extend("bench.host_slowdown", calib.finish());

    let spans = tracer.into_spans();
    if opts.trace {
        let traced_s = stats::median(&traced_makespans);
        let untraced_s = samples.median("makespan_s").expect("untraced passes ran");
        samples.push("bench.trace_overhead_frac", traced_s / untraced_s - 1.0);
        w.layer_metrics(&SpanTable::new(&spans), &mut samples);
        if !opts.smoke {
            w.probes(&mut samples);
        }
        write_json(
            &format!("{workload}.trace.json"),
            &span::chrome_trace(&spans),
        );
        write_json(
            &format!("{workload}.layers.json"),
            &layers_report(&spans, traced_s),
        );
    }
    // Last, so it covers the probes' allocations too.
    samples.push("peak_rss_mb", host::peak_rss_mib());

    // Never silent: a slowed or busy host is named in the output.
    let slowdown = samples.median("bench.host_slowdown").unwrap_or(1.0);
    // Load from before the run: afterwards it is mostly this run's own.
    let noisy = slowdown > 1.15 || load_before > host::nproc() as f64;
    if noisy {
        println!(
            "NOISY RUN: host_slowdown {slowdown:.3} (limit 1.15), loadavg before the run {load_before:.2} (limit {})",
            host::nproc()
        );
    }

    for name in samples.0.keys() {
        assert!(
            metrics::find(name).is_some(),
            "metric '{name}' is not in the catalog"
        );
    }
    let rows_of = |defs: &[metrics::Metric]| -> Vec<Value> {
        defs.iter()
            .filter_map(|m| Some(metric_row(m, samples.0.get(m.name)?)))
            .collect()
    };
    let (e2e_rows, layer_rows) = (rows_of(&END_TO_END), rows_of(&PER_LAYER));
    let correct = failed == 0;
    println!(
        "workload {workload} seed {} trace {} passes {passes} ops {attempted} failed {failed}",
        opts.seed, opts.trace as u8
    );
    print_table(&e2e_rows);
    print_table(&layer_rows);

    let detail = Value::Object(vec![
        ("workload".into(), Value::from(workload)),
        ("seed".into(), Value::from(opts.seed)),
        ("seconds".into(), Value::from(opts.seconds)),
        ("trace".into(), Value::from(opts.trace)),
        ("host".into(), host::host_block()),
        ("noisy".into(), Value::from(noisy)),
        ("passes".into(), Value::from(passes)),
        ("ops_attempted".into(), Value::from(attempted)),
        ("ops_failed".into(), Value::from(failed)),
        ("correct".into(), Value::from(correct)),
        ("end_to_end".into(), Value::Array(e2e_rows)),
        ("per_layer".into(), Value::Array(layer_rows)),
    ]);
    let suffix = if opts.trace { "traced.json" } else { "json" };
    write_json(&format!("{workload}.{suffix}"), &detail);

    // The result object: end-to-end metrics from an untraced run, every
    // per-layer metric from a traced one (0 = not on this workload's path).
    let listed: &[metrics::Metric] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let result_metrics = listed
        .iter()
        .map(|m| {
            let value = samples.median(m.name).unwrap_or(0.0);
            assert!(value.is_finite(), "metric '{}' is not finite", m.name);
            let v = Value::Object(vec![
                ("value".into(), Value::from(value)),
                ("unit".into(), Value::from(m.unit)),
            ]);
            (m.name.to_string(), v)
        })
        .collect();
    let result = Value::Object(vec![
        ("correct".into(), Value::from(correct)),
        ("attempted".into(), Value::from(attempted)),
        ("failed".into(), Value::from(failed)),
        ("metrics".into(), Value::Object(result_metrics)),
    ]);
    println!("{}", result.compact());
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_table_sums_names_per_traced_pass() {
        let sp = |name, start_s: f64, end_s: f64, pass| Span {
            name,
            start_s,
            end_s,
            parent: None,
            pass,
        };
        let table = SpanTable::new(&[
            sp("runtime.wait", 0.0, 1.0, 1),
            sp("runtime.wait", 2.0, 2.5, 1),
            sp("dsarray.collect", 3.0, 4.0, 1),
            sp("runtime.wait", 9.0, 9.25, 3),
        ]);
        assert_eq!(table.durations(&["runtime.wait"]), vec![1.5, 0.25]);
        assert_eq!(
            table.durations(&["runtime.wait", "dsarray.collect", "absent"]),
            vec![2.5, 0.25]
        );
    }

    #[test]
    fn layers_report_separates_harness_glue() {
        let sp = |name, start_s: f64, end_s: f64, parent| Span {
            name,
            start_s,
            end_s,
            parent,
            pass: 1,
        };
        let report = layers_report(
            &[
                sp("bench.pass", 0.0, 10.0, None),
                sp("dislib.fit", 0.0, 6.0, Some(0)),
                sp("runtime.wait", 6.0, 9.0, Some(0)),
            ],
            10.0,
        );
        assert_eq!(report["attributed_share"].as_f64(), Some(0.9));
        assert_eq!(report["layers"][0]["name"].as_str(), Some("dislib"));
        assert_eq!(report["layers"][0]["share"].as_f64(), Some(0.6));
    }
}
