//! Integration tests of what a finished threaded run's records tell:
//! each task's life (ready, start, end, executor), its retried and
//! failed attempts, and the real-vs-simulated divergence report — the
//! tracing/analysis workflow the paper drives through Extrae + Paraver.

use dsarray::DsArray;
use integration_tests::tiny_dataset;
use taskrt::obs::divergence;
use taskrt::sim::{simulate, ClusterSpec, SimOptions};
use taskrt::{FaultPlan, Runtime, Trace, Utilization};

/// A small mixed workload: blocked column sums + an explicit task
/// cascade, enough to exercise queueing, continuations and driver help.
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

/// A retried attempt: a failed one that another attempt followed.
fn retried_attempts(trace: &Trace) -> u64 {
    trace
        .records
        .iter()
        .flat_map(|r| r.attempts.windows(2))
        .filter(|w| w[0].error.is_some())
        .count() as u64
}

#[test]
fn trace_events_record_task_lifecycle() {
    let (rt, tasks) = small_run();
    assert!(tasks > 0);
    let trace = rt.trace();
    let ran: Vec<_> = trace.records.iter().filter(|r| r.ran()).collect();
    assert_eq!(ran.len() as u64, tasks, "one ran record per task");
    for r in ran {
        // Threaded: released, then started, then ended, on a known
        // executor, in one clean attempt.
        assert!(r.ready_s > 0.0 && r.ready_s <= r.start_s, "task {:?}", r.id);
        assert!(r.duration_s >= 0.0);
        assert!(
            (-1..3).contains(&r.worker),
            "task {:?} on {}",
            r.id,
            r.worker
        );
        assert!(r.attempts.is_empty(), "task {:?} retried", r.id);
    }
    assert_eq!(retried_attempts(&trace), 0);
}

/// Every failed attempt is journaled in its record's `attempts`, ahead
/// of the attempt that retried it.
#[test]
fn retries_are_journaled() {
    let rt = Runtime::threaded(2);
    rt.set_fault_plan(Some(FaultPlan::new(7).panic_kind("flaky", 1)));
    let x = rt.put(2.0f64);
    let h = rt
        .task("flaky")
        .retry(taskrt::RetryPolicy::new(3).backoff(1e-6))
        .run1(x, |v| v * 3.0);
    let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.wait(h)));
    rt.barrier();
    assert_eq!(got.ok().map(|v| *v), Some(6.0));
    let trace = rt.trace();
    let retries = retried_attempts(&trace);
    assert_eq!(retries, rt.stats().retries);
    assert!(retries >= 1, "the injected first-attempt fault must retry");
    let flaky = trace.records.iter().find(|r| r.name == "flaky").unwrap();
    let (failed, last) = (&flaky.attempts[0], flaky.attempts.last().unwrap());
    assert!(failed.error.is_some() && last.error.is_none());
    assert!(failed.start_s + failed.duration_s <= last.start_s);
    assert_eq!(
        flaky.start_s, last.start_s,
        "the record's slice is the last attempt"
    );
}

#[test]
fn failed_task_records_its_error_and_cancelled_successors_never_run() {
    let rt = Runtime::threaded(2);
    let x = rt.put(1u64);
    let bad = rt.task("bad").run1(x, |_| -> u64 { panic!("boom") });
    let _ = rt.task("after").run1(bad, |v| v + 1);
    let ok = rt.task("ok").run1(x, |v| v + 1);
    assert_eq!(*rt.wait(ok), 2);
    let barrier = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.barrier()));
    assert!(barrier.is_err(), "the failure is fatal to the barrier");
    let trace = rt.trace();
    let mut ends: Vec<(&str, bool)> = trace
        .records
        .iter()
        .filter(|r| r.ran() && !r.is_marker())
        .map(|r| {
            let failed = r.attempts.last().is_some_and(|a| a.error.is_some());
            (r.name.as_str(), failed)
        })
        .collect();
    ends.sort();
    // `after` failed with `bad` before it could run: it has no ran record.
    assert_eq!(ends, [("bad", true), ("ok", false)]);
    assert_eq!(retried_attempts(&trace), 0);
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
    let div = divergence(&trace, &report.trace);
    assert!(div.real_makespan_s > 0.0);
    assert!(div.sim_makespan_s > 0.0);
    assert!(div.makespan_ratio.is_finite() && div.makespan_ratio > 0.0);
    assert!(!div.kinds.is_empty(), "per-kind breakdown present");
    for k in &div.kinds {
        assert!(k.real_s >= 0.0 && k.sim_s >= 0.0, "kind {}", k.name);
    }
}

#[test]
fn divergence_measures_the_replay_as_the_des_does() {
    // Without a dispatch-overhead model the replay's first task starts
    // at 0, so "first fetch or body start to last end" over the
    // simulated records is the DES makespan to the bit, transfers
    // included.
    let (rt, _) = small_run();
    let trace = rt.finish();
    // Two single-core nodes: locality-aware placement runs independent
    // tasks side by side on both, so the replay moves data.
    let cluster = ClusterSpec {
        cores_per_node: 1,
        ..ClusterSpec::marenostrum4(2)
    };
    let report = simulate(&trace, &cluster, &SimOptions::default());
    assert!(report.trace.records.iter().any(|r| r.fetch_s > 0.0));
    let div = divergence(&trace, &report.trace);
    assert_eq!(div.sim_makespan_s, report.makespan_s);
    // A threaded run fetches nothing; the replay's bytes are the ones
    // its nodes' utilization counts.
    let fetched = Utilization::from_trace(&report.trace, 2).fetch_bytes;
    assert_eq!((div.real_fetch_bytes, div.sim_fetch_bytes), (0, fetched));
    // Per kind, the replay's body seconds are the measured ones.
    for k in &div.kinds {
        assert!(
            (k.sim_s - k.real_s).abs() <= 1e-9 * k.real_s.max(1.0),
            "{k:?}"
        );
    }
}
