//! Million-task streaming benchmark: bounded-memory submission, slot
//! recycling, and fair-share multi-tenant dispatch under an
//! adversarial load mix.
//!
//! Where `perf` measures hot-path throughput on a 10k-task DAG that
//! fits comfortably in the task tables, this bin measures the regime
//! the streaming runtime exists for: DAGs one to two orders of
//! magnitude larger than the live window, submitted from a driver
//! loop that releases handles as it goes. Three sections:
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
//! * **fairness** — two tenants with equal weights submit an
//!   adversarial 10:1 task mix from concurrent driver threads. At the
//!   instant the small tenant's backlog drains, the deficit-round-
//!   robin dispatcher must have given the large tenant its weighted
//!   share of completions — within 15% — rather than letting the
//!   flood starve the small tenant (or vice versa).
//!
//! Results are merged into `out/perf.json` as the `"scale"` section
//! (run after `perf`, which rewrites the file whole). Usage:
//! `cargo run --release -p bench --bin scale -- [--scale small|full]
//! [--workers N] [--check]`; `--check` exits non-zero if the large-DAG
//! throughput ratio, the residency bound, or the fairness share fails.

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

/// Scheduler-visible busy work (~10us): long enough that dispatch
/// order, not submission order, decides who finishes first.
fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9u64;
    for i in 0..iters {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(x)
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

    // -- fairness: adversarial 10:1 mix, equal weights ----------------
    // Tenant A floods its entire backlog (10x tenant B's task count)
    // before B submits a single task — the adversarial case: by the
    // time B shows up the injector already holds thousands of A's
    // tasks. From the moment B's backlog is queued, deficit-round-
    // robin dispatch must interleave 1:1 (equal weights): while B
    // drains, A completes one task per B task, not a flood's worth.
    // The experiment runs on a default runtime — fairness is orthogonal
    // to streaming, and pre-queuing the full flood is exactly what
    // backpressure would forbid.
    let (nb, spin_iters) = if small {
        (3_000u64, 50_000u64)
    } else {
        (10_000, 50_000)
    };
    let na = 10 * nb;
    let frt = Runtime::with_config(RuntimeConfig {
        mode: ExecMode::Threads(workers),
        ..RuntimeConfig::default()
    });
    let tenant_a = frt.tenant("bulk", 1);
    let tenant_b = frt.tenant("interactive", 1);
    let fair_start = Instant::now();
    for _ in 0..na {
        let h = tenant_a.task("spin").run0(move || spin(spin_iters));
        frt.release(h);
    }
    for _ in 0..nb {
        let h = tenant_b.task("spin").run0(move || spin(spin_iters));
        frt.release(h);
    }
    // Contention baseline: B's backlog is fully queued, A's flood is
    // ahead by whatever executed during submission.
    let ts0 = frt.tenant_stats();
    let (a0, b0) = (ts0[0].completed, ts0[1].completed);
    let remaining_b = nb - b0;
    // Watch for the moment B's backlog drains; everything A completed
    // since the baseline was won through the DRR dispatcher under
    // contention with B.
    let a_at_drain = loop {
        let ts = frt.tenant_stats();
        if ts[1].completed >= nb {
            break ts[0].completed;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    };
    let t_b_done = fair_start.elapsed().as_secs_f64();
    frt.barrier();
    let t_fair = fair_start.elapsed().as_secs_f64();
    let ts = frt.tenant_stats();
    let a_delta = a_at_drain - a0;
    let share_err = (a_delta as f64 - remaining_b as f64).abs() / remaining_b as f64;
    let a_tps = ts[0].completed as f64 / t_fair;
    let b_tps = nb as f64 / t_b_done;
    println!(
        "fairness ({na}:{nb} tasks, weights 1:1): while B drained {remaining_b}, A completed {a_delta} (err {:.1}%)",
        share_err * 100.0
    );
    println!(
        "fairness throughput: A {a_tps:.0} tasks/s over full run | B {b_tps:.0} tasks/s to drain | queue-wait p95 A {:.1}ms B {:.1}ms",
        ts[0].queue_wait.quantile(0.95) as f64 * 1e-6,
        ts[1].queue_wait.quantile(0.95) as f64 * 1e-6,
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
        ("fair_tasks_a".into(), Value::from(na)),
        ("fair_tasks_b".into(), Value::from(nb)),
        ("fair_b_drained".into(), Value::from(remaining_b)),
        ("fair_a_done_while_b_drained".into(), Value::from(a_delta)),
        ("fair_share_err".into(), Value::Number(share_err)),
        ("fair_a_tasks_per_s".into(), Value::Number(a_tps)),
        ("fair_b_tasks_per_s".into(), Value::Number(b_tps)),
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
        if share_err > 0.15 || !share_err.is_finite() {
            eprintln!("check FAILED: scale.fair_share_err = {share_err:.3} > 0.15");
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "check: {n_large}-task rate {:.2}x the 10k rate, peak live {} <= {task_bound}, fairness within {:.1}%",
            ratio, stats.tasks.peak_live, share_err * 100.0
        );
    }
}
