//! Observability exporter: run the ECG → PCA stage once on the threaded
//! scheduler and export every `taskrt::obs` / `taskrt::telemetry`
//! artifact of that one run — the role Extrae + Paraver play in the
//! paper, plus the in-flight half (event journal, latency histograms,
//! straggler analyzer, real-vs-DES divergence). Writes, under `out/`:
//!
//! * `profile.json` — scheduler counters ([`taskrt::RuntimeStats`]),
//!   per-kind profile ([`taskrt::Profile`]), simulated per-node
//!   breakdown ([`taskrt::SimProfile`]), registry snapshot (linalg pool
//!   counters folded in), journal summary, straggler and divergence
//!   reports, event-schema identity check.
//! * `profile.prom` — the registry in Prometheus text exposition format.
//! * `profile.trace.json` — Chrome-trace timeline of the *real* run (one
//!   track per driver/worker, straggler verdicts as `instant` markers);
//!   open in <https://ui.perfetto.dev>.
//! * `profile_sim.trace.json` — the same DAG replayed on a simulated
//!   MareNostrum 4 partition (one track per node).
//!
//! Usage: `cargo run --release -p bench --bin profile -- [--scale small|full]
//! [--workers N] [--nodes N] [--straggler-k K] [--check]`; `--check`
//! re-parses the artifacts and exits non-zero if any is unusable.

use std::collections::{BTreeMap, BTreeSet};

use bench::report::{write_artifact, Args};
use dislib::pca::{Components, Pca};
use dsarray::DsArray;
use ecg::{Dataset, DatasetSpec, Scale};
use taskrt::json::Value;
use taskrt::obs::{chrome_trace_schedule, chrome_trace_stragglers};
use taskrt::sim::{simulate, ClusterSpec, SimOptions};
use taskrt::telemetry::{divergence, validate_prometheus, EventKind, StragglerReport, EXTERNAL};
use taskrt::{Profile, Runtime, SimProfile};

fn main() {
    let args = Args::capture();
    let small = args.scale_small();
    let scale = if small { "small" } else { "full" };
    let default_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8);
    let workers: usize = args.get_or("workers", default_workers);
    let nodes: usize = args.get_or("nodes", 4);
    let straggler_k: f64 = args.get_or("straggler-k", 3.0);

    // -- workload: dataset load + distributed PCA (paper §III-B) ------
    // Runs on the threaded scheduler so the steal/wakeup/queue counters
    // exercise the same paths as a production run.
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
        "profile: scale={scale} samples={} features={} workers={workers} sim_nodes={nodes}",
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
                let kind = [EventKind::PoolMiss, EventKind::PoolHit][hit as usize];
                t.journal().emit(EXTERNAL, kind, None, bytes, 0);
            }
        })));
    }
    let pool0 = linalg::pool::global_stats();
    let dist = DsArray::from_matrix(&rt, &x, block_rows, block_cols);
    let pca = Pca::fit(&rt, &dist, Components::Count(n_comp.min(x.cols())));
    let _xp = pca.transform(&rt, &dist).collect(&rt);
    rt.barrier();
    linalg::pool::set_observer(None);
    let pool1 = linalg::pool::global_stats();
    let (pool_hits, pool_misses, pool_bytes) =
        (pool1.0 - pool0.0, pool1.1 - pool0.1, pool1.2 - pool0.2);

    let stats = rt.stats();
    let journal_events = rt.journal_events();
    let journal_dropped = rt.journal_dropped();
    let journal_emitted = rt.telemetry().expect("metrics on").journal().emitted();
    let mut registry = rt.registry();
    let trace = rt.finish();

    // -- aggregate, analyze, replay -----------------------------------
    registry.counter(
        "taskrt_pool_hits_total",
        "linalg buffer-pool acquisitions served from a retained buffer",
        pool_hits,
    );
    registry.counter(
        "taskrt_pool_misses_total",
        "linalg buffer-pool acquisitions that fell through to the allocator",
        pool_misses,
    );
    registry.counter(
        "taskrt_pool_reused_bytes_total",
        "bytes served from retained buffers instead of fresh allocations",
        pool_bytes,
    );
    let stragglers = StragglerReport::from_trace(&trace, straggler_k, 8);
    registry.counter(
        "taskrt_stragglers_total",
        "tasks flagged slower than k x their kind's running median",
        stragglers.stragglers.len() as u64,
    );
    let profile = Profile::from_trace(&trace);
    let cluster = ClusterSpec::marenostrum4(nodes);
    let report = simulate(&trace, &cluster, &SimOptions::default());
    let sim_profile = SimProfile::from_report(&report, nodes);
    let div = divergence(&trace, &report);

    // Schema identity: the threaded runtime and the DES must emit
    // events with the exact same key set — the property that makes
    // real and simulated streams diffable.
    let (real_events, sim_events) = (trace.events(), report.events());
    let key_set = |events: &[taskrt::Event]| -> BTreeSet<String> {
        events
            .iter()
            .flat_map(|e| match e.to_value() {
                Value::Object(fields) => fields.into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
                _ => vec![],
            })
            .collect()
    };
    let (real_keys, sim_keys) = (key_set(&real_events), key_set(&sim_events));
    let schema_identical = !real_keys.is_empty() && real_keys == sim_keys;

    let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
    for e in &journal_events {
        *by_kind.entry(e.kind.as_str().to_string()).or_default() += 1;
    }
    let by_kind = by_kind.into_iter().map(|(k, n)| (k, Value::from(n)));
    let journal_drop_rate =
        journal_dropped as f64 / ((journal_emitted + journal_dropped).max(1)) as f64;

    // -- console summary ----------------------------------------------
    for table in [
        stats.render_table(),
        profile.render_table(),
        sim_profile.render_table(),
    ] {
        print!("\n{table}");
    }
    println!();
    println!(
        "journal: {journal_emitted} events emitted, {} retained, {journal_dropped} dropped ({:.1}% drop rate); pool: {pool_hits} hits / {pool_misses} misses",
        journal_events.len(),
        journal_drop_rate * 100.0
    );
    println!(
        "stragglers (k={straggler_k}): {} flagged; critical path {} tasks, {:.3}s",
        stragglers.stragglers.len(),
        stragglers.critical_path.len(),
        stragglers.critical_path_s,
    );
    println!(
        "divergence: real {:.3}s vs sim {:.3}s (ratio {:.2}); schema identical: {schema_identical}",
        div.real_makespan_s, div.sim_makespan_s, div.makespan_ratio,
    );

    // -- artifacts ----------------------------------------------------
    let keys =
        |k: &BTreeSet<String>| Value::Array(k.iter().map(|k| Value::from(k.as_str())).collect());
    let doc = Value::Object(vec![
        ("workload".into(), Value::from("ecg_pca")),
        ("scale".into(), Value::from(scale)),
        ("workers".into(), Value::from(workers)),
        ("sim_nodes".into(), Value::from(nodes)),
        ("runtime".into(), stats.to_value()),
        ("profile".into(), profile.to_value()),
        ("sim".into(), sim_profile.to_value()),
        ("registry".into(), registry.to_value()),
        (
            "journal".into(),
            Value::Object(vec![
                ("emitted".into(), Value::from(journal_emitted)),
                ("retained".into(), Value::from(journal_events.len())),
                ("dropped".into(), Value::from(journal_dropped)),
                ("drop_rate".into(), Value::Number(journal_drop_rate)),
                ("by_kind".into(), Value::Object(by_kind.collect())),
            ]),
        ),
        ("stragglers".into(), stragglers.to_value()),
        ("divergence".into(), div.to_value()),
        (
            "schema".into(),
            Value::Object(vec![
                ("real_keys".into(), keys(&real_keys)),
                ("sim_keys".into(), keys(&sim_keys)),
                ("identical".into(), Value::from(schema_identical)),
            ]),
        ),
    ]);
    let timeline = chrome_trace_stragglers(&trace, &stragglers);
    for (path, contents) in [
        ("out/profile.json", doc.pretty()),
        ("out/profile.prom", registry.to_prometheus()),
        ("out/profile.trace.json", timeline),
        ("out/profile_sim.trace.json", chrome_trace_schedule(&report)),
    ] {
        write_artifact(path, &contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
    if args.has("check") {
        self_check(nodes);
        println!("profile: self-check ok");
    }
}

/// Re-reads the written artifacts and asserts they are usable. CI runs
/// `--check` so a silent regression (counters gated off, pool observer
/// unwired, under-sized journal, DES schema drift, empty timeline,
/// malformed exporter) fails the build.
fn self_check(nodes: usize) {
    let read =
        |path: &str| std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let parse =
        |path: &str| Value::parse(&read(path)).unwrap_or_else(|e| panic!("{path} parses: {e:?}"));
    let num = |v: &Value| v.as_f64().unwrap_or(0.0);

    let prom = read("out/profile.prom");
    let samples = validate_prometheus(&prom).expect("out/profile.prom is valid exposition text");
    assert!(
        samples > 10,
        "expected >10 Prometheus samples, got {samples}"
    );
    assert!(
        prom.contains("taskrt_pool_hits_total") && prom.contains("taskrt_run_seconds_bucket"),
        "pool counters or run-time histogram missing from Prometheus snapshot"
    );

    let v = parse("out/profile.json");
    for path in [
        "runtime.total_tasks",
        "runtime.queued_tasks",
        "journal.retained",
        "journal.by_kind.task_start",
        "journal.by_kind.task_end",
        "journal.by_kind.queue_flush",
        "registry.taskrt_run_seconds.count",
        "divergence.real_makespan_s",
        "divergence.sim_makespan_s",
    ] {
        let x = path.split('.').fold(&v, |v, key| &v[key]);
        assert!(num(x) > 0.0, "out/profile.json: {path} missing or zero");
    }
    let kinds = v["profile"]["kinds"].as_array().expect("profile.kinds");
    assert!(!kinds.is_empty(), "profile has no task kinds");
    for k in kinds {
        assert!(k["p50_s"].as_f64().is_some() && k["p95_s"].as_f64().is_some());
    }
    let rows = v["sim"]["nodes"].as_array().expect("sim.nodes");
    assert_eq!(rows.len(), nodes, "one utilization row per node");
    let by_kind = &v["journal"]["by_kind"];
    assert!(
        num(&by_kind["pool_hit"]) + num(&by_kind["pool_miss"]) > 0.0,
        "journal has no buffer-pool events (observer not wired?)"
    );
    // `Telemetry::new` sizes the rings from the worker count; a high
    // drop rate means that rule regressed to losing most of the run.
    let drop_rate = v["journal"]["drop_rate"].as_f64();
    assert!(
        drop_rate.is_some_and(|r| r < 0.25),
        "journal drop rate {drop_rate:?} — ring under-sized for this worker count"
    );
    let run_p95 = &v["registry"]["taskrt_run_seconds"]["p95"];
    assert!(run_p95.as_f64().is_some(), "run-time histogram has no p95");
    let div_kinds = v["divergence"]["kinds"]
        .as_array()
        .expect("divergence.kinds");
    assert!(!div_kinds.is_empty(), "divergence has no per-kind rows");
    assert_eq!(
        v["schema"]["identical"].as_bool(),
        Some(true),
        "threaded and DES emitters are not schema-identical"
    );

    for path in ["out/profile.trace.json", "out/profile_sim.trace.json"] {
        let t = parse(path);
        let events = t["traceEvents"].as_array().expect("traceEvents");
        assert!(
            events.iter().any(|e| e["ph"].as_str() == Some("X")),
            "{path} has no timeline slices"
        );
    }
}
