//! Observability exporter: run the ECG → PCA stage once on the threaded
//! scheduler and export every `taskrt::obs` artifact of that one run —
//! the role Extrae + Paraver play in the paper: scheduler statistics,
//! then views derived from the finished trace (per-kind durations and
//! queue waits, per-executor utilization, stragglers, real-vs-DES
//! divergence). The DES replay writes the same records as the run, so
//! each view is one function applied to both traces.
//! Writes, under `out/`:
//!
//! * `profile.json` — scheduler statistics ([`taskrt::RuntimeStats`]),
//!   the linalg buffer-pool counters, per-kind profile
//!   ([`taskrt::Profile`]), per-executor utilization
//!   ([`taskrt::Utilization`]) of the run (`utilization`, one row per
//!   worker) and of its replay (`sim`, one row per node), stragglers and
//!   the divergence report.
//! * `profile.trace.json` — Chrome-trace timeline of the *real* run (one
//!   track per driver/worker, straggler verdicts as `instant` markers);
//!   open in <https://ui.perfetto.dev>.
//! * `profile_sim.trace.json` — the same DAG replayed on a simulated
//!   MareNostrum 4 partition (one track per node, input fetches as
//!   slices ahead of the bodies).
//!
//! Usage: `cargo run --release -p bench --bin profile -- [--scale small|full]
//! [--workers N] [--nodes N] [--straggler-k K] [--check]`; `--check`
//! re-parses the artifacts and exits non-zero if any is unusable.

use bench::report::{write_artifact, Args};
use dislib::pca::{Components, Pca};
use dsarray::DsArray;
use ecg::{Dataset, DatasetSpec, Scale};
use taskrt::json::Value;
use taskrt::obs::{chrome_trace, divergence, stragglers};
use taskrt::sim::{simulate, ClusterSpec, SimOptions};
use taskrt::{Profile, Runtime, Utilization};

fn main() {
    let args = Args::capture(&["scale", "workers", "nodes", "straggler-k"], &["check"]);
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
    // Runs on the threaded scheduler so the flush/wakeup/queue counters
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
    let pool0 = linalg::pool::global_stats();
    let dist = DsArray::from_matrix(&rt, &x, block_rows, block_cols);
    let pca = Pca::fit(&rt, &dist, Components::Count(n_comp.min(x.cols())));
    let _xp = pca.transform(&rt, &dist).collect(&rt);
    rt.barrier();
    let pool1 = linalg::pool::global_stats();
    let (pool_hits, pool_misses, pool_bytes) =
        (pool1.0 - pool0.0, pool1.1 - pool0.1, pool1.2 - pool0.2);

    let stats = rt.stats();
    let trace = rt.finish();

    // -- aggregate, analyze, replay -----------------------------------
    let flagged = stragglers(&trace, straggler_k, 8);
    let profile = Profile::from_trace(&trace);
    let cluster = ClusterSpec::marenostrum4(nodes);
    let sim = simulate(&trace, &cluster, &SimOptions::default()).trace;
    let utilization = Utilization::from_trace(&trace, workers);
    let sim_utilization = Utilization::from_trace(&sim, nodes);
    let div = divergence(&trace, &sim);

    // -- console summary ----------------------------------------------
    for table in [
        stats.render_table(),
        profile.render_table(),
        utilization.render_table(),
        format!("simulated, {}", sim_utilization.render_table()),
    ] {
        print!("\n{table}");
    }
    println!();
    println!("pool: {pool_hits} hits / {pool_misses} misses, {pool_bytes} bytes reused");
    println!("stragglers (k={straggler_k}): {} flagged", flagged.len());
    println!(
        "divergence: real {:.3}s vs sim {:.3}s (ratio {:.2})",
        div.real_makespan_s, div.sim_makespan_s, div.makespan_ratio,
    );

    // -- artifacts ----------------------------------------------------
    // The linalg buffer pool: acquisitions served from a retained
    // buffer, those that fell through to the allocator, and the bytes
    // served without a fresh allocation.
    let pool = Value::Object(vec![
        ("hits".into(), Value::from(pool_hits)),
        ("misses".into(), Value::from(pool_misses)),
        ("reused_bytes".into(), Value::from(pool_bytes)),
    ]);
    let doc = Value::Object(vec![
        ("workload".into(), Value::from("ecg_pca")),
        ("scale".into(), Value::from(scale)),
        ("workers".into(), Value::from(workers)),
        ("sim_nodes".into(), Value::from(nodes)),
        ("runtime".into(), stats.to_value()),
        ("pool".into(), pool),
        ("profile".into(), profile.to_value()),
        ("utilization".into(), utilization.to_value()),
        ("sim".into(), sim_utilization.to_value()),
        ("straggler_k".into(), Value::from(straggler_k)),
        (
            "stragglers".into(),
            Value::Array(flagged.iter().map(|s| s.to_value()).collect()),
        ),
        ("divergence".into(), div.to_value()),
    ]);
    let timeline = chrome_trace(&trace, &flagged);
    for (path, contents) in [
        ("out/profile.json", doc.pretty()),
        ("out/profile.trace.json", timeline),
        ("out/profile_sim.trace.json", chrome_trace(&sim, &[])),
    ] {
        write_artifact(path, &contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
    if args.has("check") {
        self_check(workers, nodes);
        println!("profile: self-check ok");
    }
}

/// Re-reads the written artifacts and asserts they are usable. CI runs
/// `--check` so a silent regression (statistics or ready stamps
/// missing, pool counters absent, empty timeline) fails the build.
fn self_check(workers: usize, nodes: usize) {
    let read =
        |path: &str| std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let parse =
        |path: &str| Value::parse(&read(path)).unwrap_or_else(|e| panic!("{path} parses: {e:?}"));
    let num = |v: &Value| v.as_f64().unwrap_or(0.0);

    let v = parse("out/profile.json");
    for key in ["hits", "misses", "reused_bytes"] {
        assert!(v["pool"][key].as_u64().is_some(), "pool.{key} missing");
    }
    for path in [
        "runtime.total_tasks",
        "runtime.queued_tasks",
        "runtime.queue_wait_s",
        "runtime.run_s",
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
        // Per-kind queue-wait quantiles: present, ordered, non-negative.
        let (w50, w95) = (num(&k["wait_p50_s"]), num(&k["wait_p95_s"]));
        assert!(
            k["wait_p95_s"].as_f64().is_some() && w95 >= w50 && w50 >= 0.0,
            "kind {}: queue-wait quantiles missing or out of order",
            k["name"].as_str().unwrap_or("?")
        );
    }
    assert!(
        kinds.iter().any(|k| num(&k["wait_p95_s"]) > 0.0),
        "no kind has a queue wait: ready stamps missing"
    );
    for (view, rows) in [("utilization", workers), ("sim", nodes)] {
        let got = v[view]["executors"].as_array().expect("utilization rows");
        assert_eq!(got.len(), rows, "{view}: one utilization row per executor");
    }
    let div_kinds = v["divergence"]["kinds"]
        .as_array()
        .expect("divergence.kinds");
    assert!(!div_kinds.is_empty(), "divergence has no per-kind rows");
    assert!(v["stragglers"].as_array().is_some(), "stragglers missing");

    for path in ["out/profile.trace.json", "out/profile_sim.trace.json"] {
        let t = parse(path);
        let events = t["traceEvents"].as_array().expect("traceEvents");
        assert!(
            events.iter().any(|e| e["ph"].as_str() == Some("X")),
            "{path} has no timeline slices"
        );
    }
}
