//! Live-telemetry harness: run the PCA pipeline on the threaded
//! scheduler with the full `taskrt::telemetry` layer on, and export
//! every live-observability artifact.
//!
//! Where `profile` reproduces the paper's *post-mortem* Extrae/Paraver
//! workflow, this bin exercises the *in-flight* half: the lock-free
//! event journal, the latency histograms and metrics registry
//! (Prometheus + JSON export), the online straggler/critical-path
//! analyzer, and the real-vs-DES divergence report. Produces, under
//! `out/`:
//!
//! * `telemetry.json` — registry snapshot (with linalg pool counters
//!   folded in), journal events, straggler report, divergence report,
//!   and the event-schema identity check.
//! * `telemetry.prom` — the same registry in Prometheus text
//!   exposition format (validated by `--check`).
//! * `telemetry.trace.json` — Chrome-trace timeline with the
//!   analyzer's straggler verdicts as `instant` markers (Perfetto
//!   droplets).
//!
//! Usage: `cargo run --release -p bench --bin telemetry --
//! [--scale small|full] [--workers N] [--nodes N] [--straggler-k K]
//! [--watch] [--interval-ms MS] [--check]`
//!
//! `--watch` prints periodic registry snapshots while the pipeline is
//! running (the live-monitoring mode). `--check` re-parses the written
//! artifacts and asserts the CI invariants: the Prometheus snapshot
//! validates, the divergence report is present, and the DES-emitted
//! events are schema-identical to the threaded runtime's.

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Duration;

use bench::report::{write_artifact, Args};
use dislib::pca::{Components, Pca};
use dsarray::DsArray;
use ecg::{Dataset, DatasetSpec, Scale};
use taskrt::json::Value;
use taskrt::obs::chrome_trace_stragglers;
use taskrt::sim::{simulate, ClusterSpec, SimOptions};
use taskrt::telemetry::{divergence, validate_prometheus, EventKind, StragglerReport, EXTERNAL};
use taskrt::Runtime;

fn main() {
    let args = Args::capture();
    let small = args.scale_small(true);
    let scale = if small { "small" } else { "full" };
    let default_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8);
    let workers: usize = args.get_or("workers", default_workers);
    let nodes: usize = args.get_or("nodes", 4);
    let straggler_k: f64 = args.get_or("straggler-k", 3.0);
    let watch = args.has("watch");
    let interval_ms: u64 = args.get_or("interval-ms", 250);
    let check = args.has("check");

    // -- workload: dataset load + distributed PCA (paper §III-B) ------
    let mut spec = DatasetSpec::at_scale(Scale::Small).with_seed(2017);
    if small {
        spec.n_normal = 40;
        spec.n_af = 6;
        spec.ecg.max_duration_s = 11.0;
    }
    let ds = Dataset::build(&spec);
    let x = if small {
        ds.x.slice_cols(0, ds.x.cols().min(320))
    } else {
        ds.x
    };
    let (block_rows, block_cols, n_comp) = if small { (16, 128, 48) } else { (60, 256, 160) };
    println!(
        "telemetry: scale={scale} samples={} features={} workers={workers} sim_nodes={nodes}",
        x.rows(),
        x.cols()
    );

    let rt = Runtime::threaded(workers);

    // Forward linalg buffer-pool events into the journal's external
    // shard: pool hits/misses happen on worker threads inside kernel
    // bodies, outside the scheduler's own instrumentation points.
    {
        let rt = rt.clone();
        linalg::pool::set_observer(Some(Box::new(move |hit, bytes| {
            if let Some(t) = rt.telemetry() {
                let kind = if hit {
                    EventKind::PoolHit
                } else {
                    EventKind::PoolMiss
                };
                t.journal().emit(EXTERNAL, kind, None, bytes, 0);
            }
        })));
    }
    let (pool_hits0, pool_misses0, pool_bytes0) = linalg::pool::global_stats();

    // The pipeline runs on its own thread so `--watch` can print live
    // registry snapshots from the driver — the "snapshotable at any
    // time without stopping workers" property, demonstrated.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let pipeline = {
        let rt = rt.clone();
        let x = x.clone();
        std::thread::spawn(move || {
            let dist = DsArray::from_matrix(&rt, &x, block_rows, block_cols);
            let pca = Pca::fit(&rt, &dist, Components::Count(n_comp.min(x.cols())));
            let projected = pca.transform(&rt, &dist);
            let _xp = projected.collect(&rt);
            rt.barrier();
            let _ = done_tx.send(());
        })
    };
    loop {
        match done_rx.recv_timeout(Duration::from_millis(interval_ms)) {
            Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if watch {
                    print_watch_line(&rt);
                }
            }
        }
    }
    pipeline.join().expect("pipeline thread");
    linalg::pool::set_observer(None);

    let stats = rt.stats();
    let (queue_wait, run_time, attempt) = rt.latency_histograms().expect("metrics on");
    let journal_events = rt.journal_events();
    let journal_dropped = rt.journal_dropped();
    let journal_emitted = rt.telemetry().expect("metrics on").journal().emitted();
    let mut registry = rt.registry();
    let trace = rt.finish();

    // -- satellite: pool counters through the registry ----------------
    let (pool_hits, pool_misses, pool_bytes) = linalg::pool::global_stats();
    registry.counter(
        "taskrt_pool_hits_total",
        "linalg buffer-pool acquisitions served from a retained buffer",
        pool_hits - pool_hits0,
    );
    registry.counter(
        "taskrt_pool_misses_total",
        "linalg buffer-pool acquisitions that fell through to the allocator",
        pool_misses - pool_misses0,
    );
    registry.counter(
        "taskrt_pool_reused_bytes_total",
        "bytes served from retained buffers instead of fresh allocations",
        pool_bytes - pool_bytes0,
    );

    // -- straggler / critical-path analysis ---------------------------
    let stragglers = StragglerReport::from_trace(&trace, straggler_k, 8);
    registry.counter(
        "taskrt_stragglers_total",
        "tasks flagged slower than k x their kind's running median",
        stragglers.stragglers.len() as u64,
    );

    // -- DES replay + divergence --------------------------------------
    let cluster = ClusterSpec::marenostrum4(nodes);
    let report = simulate(&trace, &cluster, &SimOptions::default());
    let real_events = trace.events();
    let sim_events = report.events();
    let div = divergence(&trace, &report);

    // Schema identity: both emitters must produce objects with the
    // exact same key set — the property that makes real and simulated
    // streams diffable.
    let key_set = |events: &[taskrt::Event]| -> BTreeSet<String> {
        events
            .iter()
            .flat_map(|e| match e.to_value() {
                Value::Object(fields) => fields.into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
                _ => vec![],
            })
            .collect()
    };
    let real_keys = key_set(&real_events);
    let sim_keys = key_set(&sim_events);
    let schema_identical = !real_keys.is_empty() && real_keys == sim_keys;

    // -- console summary ----------------------------------------------
    println!();
    print!("{}", stats.render_table());
    println!();
    let journal_drop_rate = if journal_emitted + journal_dropped == 0 {
        0.0
    } else {
        journal_dropped as f64 / (journal_emitted + journal_dropped) as f64
    };
    println!(
        "journal: {journal_emitted} events emitted, {} retained, {journal_dropped} dropped ({:.1}% drop rate, ring capacity auto-scaled to worker count)",
        journal_events.len(),
        journal_drop_rate * 100.0
    );
    println!(
        "latency: queue p50 {:.3}ms p95 {:.3}ms | run p50 {:.3}ms p95 {:.3}ms | attempts {}",
        queue_wait.quantile(0.5) as f64 * 1e-6,
        queue_wait.quantile(0.95) as f64 * 1e-6,
        run_time.quantile(0.5) as f64 * 1e-6,
        run_time.quantile(0.95) as f64 * 1e-6,
        attempt.count(),
    );
    println!(
        "pool: {} hits / {} misses ({:.1}% hit rate), {:.1} MiB reused",
        pool_hits - pool_hits0,
        pool_misses - pool_misses0,
        hit_rate(pool_hits - pool_hits0, pool_misses - pool_misses0) * 100.0,
        (pool_bytes - pool_bytes0) as f64 / (1 << 20) as f64,
    );
    println!(
        "stragglers (k={straggler_k}): {} flagged; critical path {} tasks, {:.3}s",
        stragglers.stragglers.len(),
        stragglers.critical_path.len(),
        stragglers.critical_path_s,
    );
    for s in stragglers.stragglers.iter().take(5) {
        println!(
            "  task {} '{}' on worker {}: {:.3}ms = {:.1}x median{}",
            s.task,
            s.name,
            s.worker,
            s.duration_s * 1e3,
            s.factor,
            if s.retried { " [retried]" } else { "" },
        );
    }
    println!(
        "divergence: real {:.3}s vs sim {:.3}s (ratio {:.2}); schema identical: {schema_identical}",
        div.real_makespan_s, div.sim_makespan_s, div.makespan_ratio,
    );

    // -- artifacts ----------------------------------------------------
    let sample = |events: &[taskrt::Event], n: usize| {
        Value::Array(events.iter().take(n).map(|e| e.to_value()).collect())
    };
    let doc = Value::Object(vec![
        ("workload".into(), Value::from("ecg_pca")),
        ("scale".into(), Value::from(scale)),
        ("workers".into(), Value::from(workers)),
        ("sim_nodes".into(), Value::from(nodes)),
        ("runtime".into(), stats.to_value()),
        ("registry".into(), registry.to_value()),
        (
            "journal".into(),
            Value::Object(vec![
                ("emitted".into(), Value::from(journal_emitted)),
                ("dropped".into(), Value::from(journal_dropped)),
                ("drop_rate".into(), Value::Number(journal_drop_rate)),
                (
                    "events".into(),
                    Value::Array(journal_events.iter().map(|e| e.to_value()).collect()),
                ),
            ]),
        ),
        ("stragglers".into(), stragglers.to_value()),
        ("divergence".into(), div.to_value()),
        (
            "schema".into(),
            Value::Object(vec![
                (
                    "real_keys".into(),
                    Value::Array(real_keys.iter().map(|k| Value::from(k.as_str())).collect()),
                ),
                (
                    "sim_keys".into(),
                    Value::Array(sim_keys.iter().map(|k| Value::from(k.as_str())).collect()),
                ),
                ("identical".into(), Value::from(schema_identical)),
                ("real_sample".into(), sample(&real_events, 4)),
                ("sim_sample".into(), sample(&sim_events, 4)),
            ]),
        ),
    ]);
    write_artifact("out/telemetry.json", &doc.pretty()).expect("write out/telemetry.json");
    write_artifact("out/telemetry.prom", &registry.to_prometheus())
        .expect("write out/telemetry.prom");
    write_artifact(
        "out/telemetry.trace.json",
        &chrome_trace_stragglers(&trace, &stragglers),
    )
    .expect("write out/telemetry.trace.json");

    if check {
        self_check();
        println!("telemetry: self-check ok");
    }
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// One `--watch` snapshot line, read live off the running scheduler.
fn print_watch_line(rt: &Runtime) {
    let Some(t) = rt.telemetry() else { return };
    let run = t.run_time.snapshot();
    let queue = t.queue_wait.snapshot();
    println!(
        "watch: tasks={} queue_p95={:.3}ms run_p95={:.3}ms events={} dropped={}",
        run.count(),
        queue.quantile(0.95) as f64 * 1e-6,
        run.quantile(0.95) as f64 * 1e-6,
        t.journal().emitted(),
        t.journal().dropped(),
    );
}

/// Re-reads the written artifacts and asserts the CI invariants: the
/// Prometheus snapshot validates and carries samples, the JSON parses
/// with a populated journal and non-trivial histograms, the divergence
/// report is present, and real/DES event streams are schema-identical.
fn self_check() {
    let prom = std::fs::read_to_string("out/telemetry.prom").expect("read out/telemetry.prom");
    let samples = validate_prometheus(&prom).expect("out/telemetry.prom is valid exposition text");
    assert!(
        samples > 10,
        "expected >10 Prometheus samples, got {samples}"
    );
    assert!(
        prom.contains("taskrt_pool_hits_total") && prom.contains("taskrt_run_seconds_bucket"),
        "pool counters or run-time histogram missing from Prometheus snapshot"
    );

    let doc = std::fs::read_to_string("out/telemetry.json").expect("read out/telemetry.json");
    let v = Value::parse(&doc).expect("out/telemetry.json parses");
    assert!(
        v["runtime"]["total_tasks"].as_f64().unwrap_or(0.0) > 0.0,
        "scheduler executed no tasks"
    );
    let events = v["journal"]["events"].as_array().expect("journal.events");
    assert!(!events.is_empty(), "journal captured no events");
    // `Telemetry::new` sizes the rings from the worker count; a high
    // drop rate means that rule regressed to losing most of the run.
    let drop_rate = v["journal"]["drop_rate"]
        .as_f64()
        .expect("journal.drop_rate");
    println!("journal drop rate: {:.1}%", drop_rate * 100.0);
    assert!(
        drop_rate < 0.25,
        "journal dropped {:.1}% of events — ring under-sized for this worker count",
        drop_rate * 100.0
    );
    for need in ["task_start", "task_end", "queue_flush"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("kind").and_then(Value::as_str) == Some(need)),
            "journal has no {need} events"
        );
    }
    assert!(
        events.iter().any(|e| matches!(
            e.get("kind").and_then(Value::as_str),
            Some("pool_hit" | "pool_miss")
        )),
        "journal has no buffer-pool events (observer not wired?)"
    );
    let hist = &v["registry"]["taskrt_run_seconds"];
    assert!(
        hist["count"].as_f64().unwrap_or(0.0) > 0.0 && hist["p95"].as_f64().is_some(),
        "run-time histogram empty in registry"
    );
    let div = &v["divergence"];
    assert!(
        div["real_makespan_s"].as_f64().unwrap_or(0.0) > 0.0
            && div["sim_makespan_s"].as_f64().unwrap_or(0.0) > 0.0,
        "divergence report missing or empty"
    );
    assert!(
        !div["kinds"]
            .as_array()
            .expect("divergence.kinds")
            .is_empty(),
        "divergence has no per-kind rows"
    );
    assert_eq!(
        v["schema"]["identical"].as_bool(),
        Some(true),
        "threaded and DES emitters are not schema-identical"
    );

    let s = std::fs::read_to_string("out/telemetry.trace.json").expect("read telemetry.trace.json");
    let t = Value::parse(&s).expect("telemetry.trace.json parses");
    let tev = t["traceEvents"].as_array().expect("traceEvents");
    assert!(
        tev.iter()
            .any(|e| e.get("ph").and_then(Value::as_str) == Some("X")),
        "straggler trace has no timeline slices"
    );
}
