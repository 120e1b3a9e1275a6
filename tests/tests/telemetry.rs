//! Integration tests of the observability views derived from a finished
//! run: the event stream a threaded run's trace yields, its schema
//! identity with DES-emitted event streams, the metrics registry
//! export, and the real-vs-simulated divergence report — the
//! tracing/analysis workflow the paper drives through Extrae + Paraver.

use dislib::pca::{Components, Pca};
use dsarray::DsArray;
use integration_tests::tiny_dataset;
use taskrt::sim::{simulate, ClusterSpec, SimOptions};
use taskrt::telemetry::divergence;
use taskrt::{Event, EventKind, FaultPlan, OnFailure, Runtime, Trace};

/// A small mixed workload: blocked column sums + an explicit task
/// cascade, enough to exercise queueing, stealing, and driver help.
fn small_run() -> (Runtime, u64) {
    let (x, _) = tiny_dataset();
    let rt = Runtime::threaded(3);
    let ds = DsArray::from_matrix(&rt, x, 8, 120);
    let sums = ds.col_sums(&rt);
    let _ = rt.wait(sums);
    rt.barrier();
    let tasks = rt.stats().total_tasks();
    (rt, tasks)
}

fn count(events: &[Event], kind: EventKind) -> u64 {
    events.iter().filter(|e| e.kind == kind).count() as u64
}

#[test]
fn trace_events_record_task_lifecycle() {
    let (rt, tasks) = small_run();
    assert!(tasks > 0);
    let events = rt.trace().events();
    assert_eq!(
        count(&events, EventKind::TaskStart),
        tasks,
        "one start per task"
    );
    assert_eq!(
        count(&events, EventKind::TaskEnd),
        tasks,
        "one end per task"
    );
    assert_eq!(count(&events, EventKind::Retry), 0);
    // Time-ordered, and every event is attributed to its task.
    assert!(events.windows(2).all(|w| w[0].t_s <= w[1].t_s));
    assert!(events.iter().all(|e| e.task.is_some()));
}

/// Every failed attempt is journaled in its record's `attempts`, and
/// the derived stream turns each retried one into a `retry` event.
#[test]
fn retries_are_journaled() {
    let rt = Runtime::threaded(2);
    rt.set_fault_plan(Some(FaultPlan::new(7).panic_kind("flaky", 1)));
    let x = rt.put(2.0f64);
    let h = rt
        .task("flaky")
        .retry(taskrt::RetryPolicy::new(3).backoff(1e-6, 2.0))
        .run1(x, |v| v * 3.0);
    let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.wait(h)));
    rt.barrier();
    assert_eq!(got.ok().map(|v| *v), Some(6.0));
    let retries = count(&rt.trace().events(), EventKind::Retry);
    assert_eq!(retries, rt.stats().retries);
    assert!(retries >= 1, "the injected first-attempt fault must retry");
}

#[test]
fn failed_task_ends_with_aux_and_cancelled_successors_emit_nothing() {
    let rt = Runtime::threaded(2);
    let x = rt.put(1u64);
    let bad = rt
        .task("bad")
        .on_failure(OnFailure::CancelSuccessors)
        .run1(x, |_| -> u64 { panic!("boom") });
    let _ = rt.task("after").run1(bad, |v| v + 1);
    let ok = rt.task("ok").run1(x, |v| v + 1);
    assert_eq!(*rt.wait(ok), 2);
    rt.barrier();
    let trace = rt.trace();
    let name = |e: &Event| {
        let id = e.task.expect("task events are attributed");
        let r = trace.records.iter().find(|r| r.id.0 == id).unwrap();
        r.name.clone()
    };
    let mut ends: Vec<(String, u64)> = trace
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::TaskEnd)
        .map(|e| (name(e), e.aux))
        .collect();
    ends.sort();
    // `after` was cancelled before it could run: no events at all.
    assert_eq!(ends, [("bad".to_string(), 1), ("ok".to_string(), 0)]);
    assert_eq!(count(&trace.events(), EventKind::Retry), 0);
}

#[test]
fn histogram_counts_match_task_counts() {
    let (rt, tasks) = small_run();
    let reg = rt.registry().to_value();
    let hist = |name: &str| &reg[name];
    let retries = rt.stats().retries;
    assert_eq!(hist("taskrt_run_seconds")["count"].as_u64(), Some(tasks));
    assert_eq!(
        hist("taskrt_attempt_seconds")["count"].as_u64(),
        Some(tasks + retries)
    );
    // Threaded: every task gets a ready stamp.
    assert_eq!(
        hist("taskrt_queue_wait_seconds")["count"].as_u64(),
        Some(tasks)
    );
    assert!(hist("taskrt_run_seconds")["sum"].as_f64().unwrap() > 0.0);
}

#[test]
fn event_json_roundtrip_preserves_every_field() {
    let (rt, _) = small_run();
    let events = rt.trace().events();
    assert!(!events.is_empty());
    for e in &events {
        let back = Event::from_value(&e.to_value()).expect("decode");
        assert_eq!(&back, e, "JSON round-trip must be lossless");
    }
}

/// The DES must speak the real run's exact event schema — same JSON
/// keys, same kind vocabulary — so divergence analysis can diff the two
/// streams without translation (the role shared Paraver semantics play
/// for Extrae traces).
#[test]
fn threaded_and_des_event_streams_are_schema_identical() {
    let (x, _) = tiny_dataset();
    let rt = Runtime::threaded(3);
    let ds = DsArray::from_matrix(&rt, x, 16, 120);
    let pca = Pca::fit(&rt, &ds, Components::Count(8));
    let _ = pca.transform(&rt, &ds).collect(&rt);
    let trace: Trace = rt.finish();

    let replayed = trace.events();
    let report = simulate(
        &trace,
        &ClusterSpec::marenostrum4(3),
        &SimOptions::default(),
    );
    let simulated = report.events();
    assert!(!replayed.is_empty() && !simulated.is_empty());

    let keys = |e: &Event| -> Vec<String> {
        match e.to_value() {
            taskrt::json::Value::Object(fields) => fields.into_iter().map(|(k, _)| k).collect(),
            _ => panic!("events encode as objects"),
        }
    };
    let schema = keys(&replayed[0]);
    for e in replayed.iter().chain(simulated.iter()) {
        assert_eq!(keys(e), schema, "one schema across both streams");
        let back = Event::from_value(&e.to_value()).expect("decode");
        assert_eq!(&back, e);
    }
    // Both streams carry one start+end pair per real task.
    let pairs = |evs: &[Event]| count(evs, EventKind::TaskEnd) == count(evs, EventKind::TaskStart);
    assert!(pairs(&replayed) && pairs(&simulated));
}

#[test]
fn registry_exports_validate() {
    let (rt, tasks) = small_run();
    let reg = rt.registry();
    let json = reg.to_value().pretty();
    let parsed = taskrt::json::Value::parse(&json).expect("registry JSON parses");
    assert_eq!(
        parsed.get("taskrt_tasks_total").and_then(|v| v.as_u64()),
        Some(tasks)
    );
}

#[test]
fn divergence_report_compares_real_and_simulated_runs() {
    let (x, _) = tiny_dataset();
    let rt = Runtime::threaded(3);
    let ds = DsArray::from_matrix(&rt, x, 16, 120);
    let sums = ds.col_sums(&rt);
    let _ = rt.wait(sums);
    let trace = rt.finish();

    let report = simulate(
        &trace,
        &ClusterSpec::marenostrum4(2),
        &SimOptions::default(),
    );
    let div = divergence(&trace, &report);
    assert!(div.real_makespan_s > 0.0);
    assert!(div.sim_makespan_s > 0.0);
    assert!(div.makespan_ratio.is_finite() && div.makespan_ratio > 0.0);
    assert!(!div.kinds.is_empty(), "per-kind breakdown present");
    for k in &div.kinds {
        assert!(k.real_s >= 0.0 && k.sim_s >= 0.0, "kind {}", k.name);
    }
}
