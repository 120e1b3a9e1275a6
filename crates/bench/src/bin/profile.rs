//! Observability harness: run a real pipeline stage on the threaded
//! scheduler and export every `taskrt::obs` artifact.
//!
//! Plays the role Extrae + Paraver play in the paper: one command that
//! records an execution, aggregates it, and writes timelines you can
//! open in a viewer. Produces, under `out/`:
//!
//! * `profile.json` — scheduler counters ([`taskrt::RuntimeStats`]),
//!   per-kind profile ([`taskrt::Profile`]: count, total/mean/p50/p95,
//!   bytes, critical-path share) and the simulated per-node breakdown
//!   ([`taskrt::SimProfile`]).
//! * `profile.trace.json` — Chrome-trace timeline of the *real* run
//!   (one track per driver/worker); open in <https://ui.perfetto.dev>.
//! * `profile_sim.trace.json` — Chrome-trace timeline of the same DAG
//!   replayed on a simulated MareNostrum 4 partition (one track per
//!   node, transfer and compute slices split).
//!
//! The same tables are printed to stdout.
//!
//! Usage: `cargo run --release -p bench --bin profile -- [--scale small|full]
//! [--workers N] [--nodes N] [--check]`
//!
//! `--check` re-parses the written JSON and asserts the key counters
//! are non-zero (the CI smoke assertion); the process exits non-zero on
//! any violation.

use bench::report::{write_artifact, Args};
use dislib::pca::{Components, Pca};
use dsarray::DsArray;
use ecg::{Dataset, DatasetSpec, Scale};
use taskrt::json::Value;
use taskrt::obs::{chrome_trace, chrome_trace_schedule};
use taskrt::sim::{simulate, ClusterSpec, SimOptions};
use taskrt::{Profile, Runtime, SimProfile};

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
    let check = args.has("check");

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
    let dist = DsArray::from_matrix(&rt, &x, block_rows, block_cols);
    let pca = Pca::fit(&rt, &dist, Components::Count(n_comp.min(x.cols())));
    let projected = pca.transform(&rt, &dist);
    let _xp = projected.collect(&rt);
    rt.barrier();
    let stats = rt.stats();
    let trace = rt.finish();

    // -- aggregate + replay -------------------------------------------
    let profile = Profile::from_trace(&trace);
    let cluster = ClusterSpec::marenostrum4(nodes);
    let report = simulate(&trace, &cluster, &SimOptions::default());
    let sim_profile = SimProfile::from_report(&report, nodes);

    println!();
    print!("{}", stats.render_table());
    println!();
    print!("{}", profile.render_table());
    println!();
    print!("{}", sim_profile.render_table());

    // -- artifacts ----------------------------------------------------
    let doc = Value::Object(vec![
        ("workload".into(), Value::from("ecg_pca")),
        ("scale".into(), Value::from(scale)),
        ("workers".into(), Value::from(workers)),
        ("sim_nodes".into(), Value::from(nodes)),
        ("runtime".into(), stats.to_value()),
        ("profile".into(), profile.to_value()),
        ("sim".into(), sim_profile.to_value()),
    ]);
    write_artifact("out/profile.json", &doc.pretty()).expect("write out/profile.json");
    write_artifact("out/profile.trace.json", &chrome_trace(&trace))
        .expect("write out/profile.trace.json");
    write_artifact(
        "out/profile_sim.trace.json",
        &chrome_trace_schedule(&report),
    )
    .expect("write out/profile_sim.trace.json");

    if check {
        self_check(nodes);
        println!("profile: self-check ok");
    }
}

/// Re-reads the written artifacts and asserts they are usable: valid
/// JSON, non-zero task counters, per-kind percentiles present, one
/// utilization row per simulated node, and timeline events on both
/// traces. CI runs `--check` so a silent regression (e.g. counters
/// gated off, empty timeline) fails the build.
fn self_check(nodes: usize) {
    let profile = std::fs::read_to_string("out/profile.json").expect("read out/profile.json");
    let v = Value::parse(&profile).expect("out/profile.json parses");
    let total = v["runtime"]["total_tasks"].as_f64().expect("total_tasks");
    assert!(total > 0.0, "scheduler executed no tasks");
    let queued = v["runtime"]["queued_tasks"].as_f64().expect("queued_tasks");
    assert!(queued > 0.0, "no queue-wait samples recorded");
    let kinds = v["profile"]["kinds"].as_array().expect("profile.kinds");
    assert!(!kinds.is_empty(), "profile has no task kinds");
    for k in kinds {
        assert!(k.get("p50_s").and_then(Value::as_f64).is_some());
        assert!(k.get("p95_s").and_then(Value::as_f64).is_some());
    }
    let rows = v["sim"]["nodes"].as_array().expect("sim.nodes");
    assert_eq!(rows.len(), nodes, "one utilization row per node");

    for path in ["out/profile.trace.json", "out/profile_sim.trace.json"] {
        let s = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let t = Value::parse(&s).unwrap_or_else(|e| panic!("{path} parses: {e:?}"));
        let events = t["traceEvents"].as_array().expect("traceEvents");
        let slices = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .count();
        assert!(slices > 0, "{path} has no timeline slices");
    }
}
