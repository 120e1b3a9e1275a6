//! `RuntimeStats` against known answers: every count field pinned on
//! deterministic inline DAGs (the golden test), the same failing DAG
//! counted alike, with the same outcome per task, by the inline and the
//! threaded executor on 1, 2 and 4 workers, and
//! `stats()` / `trace()` read from a second thread while a threaded DAG
//! runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use taskrt::{FaultPlan, Handle, RetryPolicy, Runtime, RuntimeStats};

/// The count fields of `s`: the four measured times are zeroed, so two
/// runs of one DAG compare equal.
fn counts(s: &RuntimeStats) -> RuntimeStats {
    RuntimeStats {
        worker_idle_s: 0.0,
        driver_stall_s: 0.0,
        queue_wait_s: 0.0,
        run_s: 0.0,
        ..s.clone()
    }
}

/// Four leaves fanned into one `run_many`, then an INOUT chain of five
/// links that each take the buffer by move, and one more link that must
/// clone because the driver still holds the value.
fn fan_in_and_inout_chain(rt: &Runtime) {
    let root = rt.put(1u64);
    let leaves: Vec<Handle<u64>> = (0..4)
        .map(|i| rt.task("leaf").run1(root, move |v| v + i))
        .collect();
    let sum = rt
        .task("sum")
        .run_many(&leaves, |xs: &[&u64]| xs.iter().map(|x| **x).sum::<u64>());
    assert_eq!(*rt.wait(sum), 10);

    let mut h = rt.put(vec![0.0f64; 16]);
    for _ in 0..5 {
        h = rt
            .task("link")
            .run1_inout(h, |v: &mut Vec<f64>| v[0] += 1.0);
    }
    let held = rt.wait(h);
    let last = rt
        .task("link")
        .run1_inout(h, |v: &mut Vec<f64>| v[0] += 1.0);
    assert_eq!(rt.wait(last)[0], 6.0);
    assert_eq!(held[0], 5.0);
}

/// Every failure path once: a retry that succeeds, a retry that gives
/// up with one dependent submitted before the give-up and one after
/// it, and an INOUT task whose first attempt panics after taking its
/// argument. No task waits for a failure before it is submitted
/// behind it. On a threaded runtime a gate holds the doomed task back
/// until its first dependent is registered; an inline runtime runs
/// every task at submission, so its gate is open from the start and
/// both dependents arrive after the give-up. Returns after every task
/// has settled.
fn failing_dag(rt: &Runtime) {
    rt.set_fault_plan(Some(
        FaultPlan::new(7)
            .panic_kind("flaky", 2)
            .panic_kind("doomed", 3),
    ));
    let quick = |n| RetryPolicy::new(n).backoff(0.0, 1.0);
    let x = rt.put(1u64);
    let flaky = rt.task("flaky").retry(quick(3)).run1(x, |v| v + 1);

    let (open, gate_rx) = mpsc::channel::<()>();
    let inline = rt.stats().worker_tasks.is_empty();
    if inline {
        open.send(()).expect("open the gate");
    }
    let gate = rt.task("gate").run1(x, move |v| {
        gate_rx.recv().expect("gate release");
        *v
    });
    let doomed = rt.task("doomed").retry(quick(2)).run1(gate, |v| v + 1);
    let before = rt.task("before_giveup").run1(doomed, |v| v + 1);
    let _ = open.send(());
    while rt.stats().giveups == 0 {
        std::thread::yield_now();
    }
    let after = rt.task("after_giveup").run1(doomed, |v| v + 1);

    let buf = rt.put(vec![0.0f64; 8]);
    let mut calls = 0;
    let retried_inout =
        rt.task("retry_inout")
            .retry(quick(2))
            .run1_inout(buf, move |v: &mut Vec<f64>| {
                calls += 1;
                assert!(calls > 1, "first attempt fails after taking its argument");
                v[0] += 1.0;
            });

    assert_eq!(*rt.wait(flaky), 2);
    assert_eq!(rt.wait(retried_inout)[0], 1.0);
    for h in [doomed, before, after] {
        let got = catch_unwind(AssertUnwindSafe(|| rt.peek(h)));
        assert!(got.is_err(), "a task behind the give-up produced a value");
    }
}

/// A nested task: the parent counts the one task; the child runtime's
/// two tasks are its own.
fn nested(rt: &Runtime) {
    let x = rt.put(2u64);
    let out = rt.task("outer").run_nested1(x, |child, v| {
        let v = *v;
        let a = child.task("inner").run0(move || v + 1);
        let b = child.task("inner").run1(a, |a| a * 10);
        *child.wait(b)
    });
    assert_eq!(*rt.wait(out), 30);
}

#[test]
fn golden_counts_on_inline_dags() {
    let run = |dag: fn(&Runtime)| {
        let rt = Runtime::new();
        dag(&rt);
        counts(&rt.stats())
    };
    assert_eq!(
        run(fan_in_and_inout_chain),
        RuntimeStats {
            driver_tasks: 11,
            queued_tasks: 11,
            inout_steals: 5,
            inout_copies: 1,
            ..RuntimeStats::default()
        }
    );
    assert_eq!(
        run(failing_dag),
        RuntimeStats {
            driver_tasks: 4,
            queued_tasks: 4,
            inout_copies: 2,
            retries: 4,
            giveups: 1,
            ..RuntimeStats::default()
        }
    );
    assert_eq!(
        run(nested),
        RuntimeStats {
            driver_tasks: 1,
            queued_tasks: 1,
            ..RuntimeStats::default()
        }
    );
    // Inline tasks never wait in a queue, and their bodies take time.
    let rt = Runtime::new();
    fan_in_and_inout_chain(&rt);
    let s = rt.stats();
    assert_eq!(s.queue_wait_s, 0.0);
    assert!(s.run_s > 0.0);
}

#[test]
fn threaded_executor_counts_the_failing_dag_like_inline() {
    type Outcome = (String, bool, usize, Option<String>);
    let run = |rt: Runtime| -> (RuntimeStats, Vec<Outcome>) {
        failing_dag(&rt);
        let s = rt.stats();
        let trace = rt.trace();
        let ran = trace.records.iter().filter(|r| r.ran()).count() as u64;
        assert_eq!(s.worker_tasks.iter().sum::<u64>() + s.driver_tasks, ran);
        let outcomes = trace
            .records
            .iter()
            .filter(|r| !r.is_marker())
            .map(|r| {
                let error = r.attempts.last().and_then(|a| a.error.clone());
                (r.name.clone(), r.ran(), r.attempts.len(), error)
            })
            .collect();
        (s, outcomes)
    };
    let key = |s: &RuntimeStats| {
        (
            s.total_tasks(),
            s.retries,
            s.giveups,
            s.poisoned,
            s.cancelled,
            s.inout_steals + s.inout_copies,
        )
    };
    let (inline, inline_outcomes) = run(Runtime::new());
    assert_eq!(inline_outcomes.len(), 6);
    for workers in [1, 2, 4] {
        let (threaded, outcomes) = run(Runtime::threaded(workers));
        assert_eq!(threaded.worker_tasks.len(), workers);
        assert_eq!(key(&threaded), key(&inline), "{workers} workers");
        assert_eq!(outcomes, inline_outcomes, "{workers} workers");
    }
}

#[test]
fn stats_and_registry_stay_live_under_load() {
    const TASKS: usize = 20_000;
    const BATCH: usize = 500;
    let (done_tx, done_rx) = mpsc::channel();
    let run = std::thread::spawn(move || {
        let rt = Runtime::threaded(4);
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let (rt, stop) = (rt.clone(), stop.clone());
            std::thread::spawn(move || {
                let (mut last, mut last_ran, mut reads) = (0, 0, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let total = rt.stats().total_tasks();
                    assert!(total >= last, "total_tasks went from {last} to {total}");
                    last = total;
                    let ran = rt.trace().records.iter().filter(|r| r.ran()).count();
                    assert!(ran >= last_ran, "ran records went from {last_ran} to {ran}");
                    assert!(ran <= TASKS, "{ran} ran records for {TASKS} tasks");
                    last_ran = ran;
                    reads += 1;
                }
                reads
            })
        };
        // A fan-in DAG submitted in bursts. The pauses give idle workers
        // time to park and be woken by the next burst; no check below
        // depends on whether they did.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        let root = rt.put(0u64);
        let mut hs: Vec<Handle<u64>> = Vec::with_capacity(TASKS);
        for i in 0..TASKS {
            let ins: Vec<Handle<u64>> = if i == 0 {
                vec![root]
            } else {
                (0..1 + next(3)).map(|_| hs[next(i)]).collect()
            };
            hs.push(rt.task("node").run_many(&ins, |xs: &[&u64]| {
                xs.iter().map(|x| **x).max().unwrap_or(0) + 1
            }));
            if i % BATCH == BATCH - 1 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        rt.barrier();
        stop.store(true, Ordering::Relaxed);
        let reads = reader.join().expect("reader thread");
        assert!(reads > 0);
        let s = rt.stats();
        let ran = rt.trace().records.iter().filter(|r| r.ran()).count() as u64;
        assert_eq!(s.total_tasks(), TASKS as u64);
        assert_eq!(s.total_tasks(), ran);
        done_tx.send(()).expect("report completion");
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_secs(120)) {
        panic!("the DAG and its stats() / trace() reader did not finish in 120 s");
    }
    run.join().expect("every check under load holds");
}
