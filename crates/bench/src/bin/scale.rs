//! Million-task streaming benchmark: bounded-memory submission and
//! slot recycling.
//!
//! Where `perf` measures hot-path throughput on a 10k-task DAG that
//! fits comfortably in the task tables, this bin measures the regime
//! the streaming runtime exists for: DAGs one to two orders of
//! magnitude larger than the live window, submitted from a driver
//! loop that releases handles as it goes. Two sections:
//!
//! * **throughput** — the same sliding-window random DAG driven at
//!   10k tasks and at 1M tasks (`--scale small` shrinks the large run
//!   to 250k) through a streaming runtime. Reported as tasks/second;
//!   `ratio_large` is large-vs-10k on identical configuration. A default
//!   (retire-nothing) runtime degrades here as its tables grow without bound; the
//!   streaming runtime must hold ≥ 0.5× its 10k rate.
//! * **residency** — [`taskrt::Runtime::table_stats`] after the large
//!   run: every task was allocated, but the peak *live* slot count
//!   must stay proportional to the backpressure window (high
//!   watermark + release-window + scheduler slack), not the DAG.
//!
//! Results are merged into `out/perf.json` as the `"scale"` section
//! (run after `perf`, which rewrites the file whole). Usage:
//! `cargo run --release -p bench --bin scale -- [--scale small|full]
//! [--workers N] [--check]`; `--check` exits non-zero if the large-DAG
//! throughput ratio or the residency bound fails.

use bench::report::{write_artifact, Args};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;
use taskrt::json::Value;
use taskrt::runtime::AnyArc;
use taskrt::{DataId, ExecMode, Runtime, RuntimeConfig, StreamConfig};

/// Dependency look-back of the sliding-window DAG: task `i` may read
/// any output still inside the driver's retention ring.
const WINDOW: usize = 64;

/// One shared output value for every no-op task (cloning an `Arc` is a
/// refcount bump): keeps the measured work scheduler-only.
fn unit() -> Arc<u8> {
    static UNIT: std::sync::OnceLock<Arc<u8>> = std::sync::OnceLock::new();
    UNIT.get_or_init(|| Arc::new(0u8)).clone()
}

type NoopFn = Box<dyn FnMut(&taskrt::TaskCtx, &mut Vec<AnyArc>) -> Vec<(AnyArc, usize)> + Send>;

fn noop_body() -> NoopFn {
    Box::new(|_ctx, _ins| vec![(unit() as AnyArc, 1)])
}

fn streaming_rt(workers: usize, high: usize, low: usize) -> Runtime {
    Runtime::with_config(RuntimeConfig {
        mode: ExecMode::Threads(workers),
        stream: Some(StreamConfig { high, low }),
        ..RuntimeConfig::default()
    })
}

/// Drives `n` tasks of the sliding-window random DAG: each task reads
/// up to 3 outputs from the retention ring, and the driver releases
/// each output as it slides out of the window — the streaming
/// submission idiom. Dependency shape is identical at every `n`, so
/// throughput at different sizes is directly comparable. Returns
/// elapsed seconds.
fn drive_windowed(rt: &Runtime, n: usize, seed: u64) -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let start = Instant::now();
    let mut ring: VecDeque<DataId> = VecDeque::with_capacity(WINDOW + 1);
    for _ in 0..n {
        let r = next();
        let ndeps = (r % 4) as usize;
        let mut inputs = Vec::with_capacity(ndeps);
        if !ring.is_empty() {
            for k in 0..ndeps {
                let j = ((r >> (8 + 8 * k)) as usize) % ring.len();
                inputs.push(ring[j]);
            }
        }
        let ids = rt.submit_raw("noop".to_string(), 0, 0, inputs, 1, noop_body());
        ring.push_back(ids[0]);
        if ring.len() > WINDOW {
            // The driver is done with this output: its slot may be
            // recycled once in-flight readers finish.
            rt.release_id(ring.pop_front().expect("non-empty ring"));
        }
    }
    for id in ring.drain(..) {
        rt.release_id(id);
    }
    rt.barrier();
    start.elapsed().as_secs_f64()
}

fn main() {
    let args = Args::capture();
    let small = args.scale_small(false);
    let scale = if small { "small" } else { "full" };
    let default_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(4, 8);
    let workers: usize = args.get_or("workers", default_workers);
    let n_base = 10_000usize;
    let n_large: usize = args.get_or("tasks", if small { 250_000 } else { 1_000_000 });
    let (high, low) = (4096usize, 2048usize);
    println!(
        "scale: scale={scale} base={n_base} large={n_large} workers={workers} watermarks={high}/{low}"
    );

    // -- throughput: 10k vs large on identical streaming config -------
    // The base rate takes best-of-3 (10k drives are noise-prone); the
    // large run is long enough to be its own average.
    let mut t_base = f64::INFINITY;
    for rep in 0..3 {
        t_base = t_base.min(drive_windowed(
            &streaming_rt(workers, high, low),
            n_base,
            7 + rep,
        ));
    }
    let rt_large = streaming_rt(workers, high, low);
    let t_large = drive_windowed(&rt_large, n_large, 7);
    let base_tps = n_base as f64 / t_base;
    let large_tps = n_large as f64 / t_large;
    let ratio = large_tps / base_tps;
    println!(
        "throughput: 10k {base_tps:.0} tasks/s | {n_large} tasks {large_tps:.0} tasks/s | ratio {ratio:.2}"
    );

    // -- residency: the large DAG must not live in memory -------------
    let stats = rt_large.table_stats();
    // Live slots: the in-flight window (≤ high watermark), plus
    // completed producers pinned by in-flight readers (each in-flight
    // task can hold at most one older producer live here — ≤ high
    // again), plus the driver's retention ring and scheduler slack.
    let task_bound = (2 * high + WINDOW + 64 * workers) as u64;
    let inflight_bound = (high + 16) as u64;
    println!(
        "residency: {} tasks allocated, peak live {} (bound {task_bound}) | data peak live {} | peak in-flight {} (bound {inflight_bound})",
        stats.tasks.allocated, stats.tasks.peak_live, stats.data.peak_live, stats.peak_in_flight
    );

    // -- artifact: merge the "scale" section into out/perf.json -------
    let section = Value::Object(vec![
        ("setting".into(), Value::from(scale)),
        ("workers".into(), Value::from(workers)),
        ("watermark_high".into(), Value::from(high)),
        ("watermark_low".into(), Value::from(low)),
        ("window".into(), Value::from(WINDOW)),
        ("base_tasks".into(), Value::from(n_base)),
        ("large_tasks".into(), Value::from(n_large)),
        ("base_tasks_per_s".into(), Value::Number(base_tps)),
        ("large_tasks_per_s".into(), Value::Number(large_tps)),
        ("ratio_large".into(), Value::Number(ratio)),
        ("tasks_allocated".into(), Value::from(stats.tasks.allocated)),
        ("tasks_peak_live".into(), Value::from(stats.tasks.peak_live)),
        ("tasks_peak_live_bound".into(), Value::from(task_bound)),
        ("data_peak_live".into(), Value::from(stats.data.peak_live)),
        ("peak_in_flight".into(), Value::from(stats.peak_in_flight)),
        ("peak_in_flight_bound".into(), Value::from(inflight_bound)),
    ]);
    let merged = match std::fs::read_to_string("out/perf.json")
        .ok()
        .and_then(|s| Value::parse(&s).ok())
    {
        Some(Value::Object(mut fields)) => {
            // `perf` writes its bench-scale setting under "scale"; this
            // section replaces it (the setting survives inside).
            fields.retain(|(k, _)| k != "scale");
            fields.push(("scale".into(), section));
            Value::Object(fields)
        }
        _ => Value::Object(vec![("scale".into(), section)]),
    };
    write_artifact("out/perf.json", &merged.pretty()).expect("write out/perf.json");

    // -- gate (--check) -----------------------------------------------
    if args.has("check") {
        let mut ok = true;
        if ratio < 0.5 || !ratio.is_finite() {
            eprintln!("check FAILED: scale.ratio_large = {ratio:.3} < 0.5");
            ok = false;
        }
        if stats.tasks.peak_live > task_bound {
            eprintln!(
                "check FAILED: scale.tasks_peak_live = {} > {task_bound} (resident set not bounded)",
                stats.tasks.peak_live
            );
            ok = false;
        }
        if stats.peak_in_flight > inflight_bound {
            eprintln!(
                "check FAILED: scale.peak_in_flight = {} > {inflight_bound} (backpressure breached)",
                stats.peak_in_flight
            );
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "check: {n_large}-task rate {:.2}x the 10k rate, peak live {} <= {task_bound}",
            ratio, stats.tasks.peak_live
        );
    }
}
