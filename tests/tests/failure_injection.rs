//! Failure-injection tests: panics inside tasks must surface at the
//! waiter with context — in inline mode, in threaded mode, through
//! dependency chains, and inside nested runtimes — never deadlock.
//!
//! The second half exercises retries — a `RetryPolicy` of more than
//! one attempt, COMPSs' RETRY, which a task opts into over the default
//! single attempt (FAIL) — with deterministic seeded fault injection.

use std::panic::{catch_unwind, AssertUnwindSafe};
use taskrt::{FaultPlan, Handle, RetryPolicy, Runtime};

#[test]
#[should_panic(expected = "boom-inline")]
fn inline_task_panic_reaches_wait() {
    let rt = Runtime::new();
    let a = rt.put(1u64);
    let x = rt.task("bad").run1(a, |_| -> u64 { panic!("boom-inline") });
    let _ = rt.wait(x);
}

#[test]
#[should_panic(expected = "boom-threaded")]
fn threaded_task_panic_reaches_wait() {
    let rt = Runtime::threaded(2);
    let a = rt.put(1u64);
    let x = rt
        .task("bad")
        .run1(a, |_| -> u64 { panic!("boom-threaded") });
    let _ = rt.wait(x);
}

#[test]
#[should_panic(expected = "boom-chain")]
fn failure_propagates_through_dependents() {
    let rt = Runtime::threaded(4);
    let a = rt.put(1u64);
    let bad = rt.task("bad").run1(a, |_| -> u64 { panic!("boom-chain") });
    // Several layers of downstream tasks.
    let mid = rt.task("mid").run1(bad, |v| v + 1);
    let tail = rt.task("tail").run2(mid, a, |m, a| m + a);
    let _ = rt.wait(tail); // must panic, not hang
}

#[test]
#[should_panic(expected = "before barrier")]
fn failure_propagates_to_barrier() {
    let rt = Runtime::threaded(2);
    let a = rt.put(1u64);
    let _bad = rt.task("bad").run1(a, |_| -> u64 { panic!("kaput") });
    rt.barrier();
}

#[test]
fn unrelated_tasks_survive_a_failure() {
    let rt = Runtime::threaded(2);
    let a = rt.put(1u64);
    let _bad = rt.task("bad").run1(a, |_| -> u64 { panic!("isolated") });
    // An independent chain must still complete.
    let ok = rt.task("good").run1(a, |v| v * 10);
    let ok2 = rt.task("good2").run1(ok, |v| v + 5);
    assert_eq!(*rt.wait(ok2), 15);
}

#[test]
#[should_panic(expected = "nested-boom")]
fn nested_child_panic_reaches_parent_waiter() {
    let rt = Runtime::threaded(2);
    let a = rt.put(1u64);
    let out = rt.task("fold").run_nested1(a, |child, v| {
        let h = child.task("inner").run0({
            let _v = *v;
            move || -> u64 { panic!("nested-boom") }
        });
        *child.wait(h)
    });
    let _ = rt.wait(out);
}

#[test]
#[should_panic(expected = "task 'bad'")]
fn barrier_failure_names_the_task() {
    // The barrier error must identify which task failed and how many
    // attempts it made, not just an opaque id.
    let rt = Runtime::threaded(2);
    let a = rt.put(1u64);
    let _bad = rt.task("bad").run1(a, |_| -> u64 { panic!("kaput") });
    rt.barrier();
}

#[test]
fn retry_recovers_from_transient_faults() {
    // A seeded plan fails the first two attempts; with a 3-attempt
    // budget the task must succeed, record both failed attempts in the
    // trace, and bump the retry counter — without giving up.
    let rt = Runtime::threaded(2);
    rt.set_fault_plan(Some(FaultPlan::new(7).panic_kind("flaky", 2)));
    let a = rt.put(20u64);
    let h = rt
        .task("flaky")
        .retry(RetryPolicy::new(3).backoff(1e-6))
        .run1(a, |v| v + 22);
    assert_eq!(*rt.wait(h), 42);
    let stats = rt.stats();
    assert_eq!(stats.retries, 2);
    assert_eq!(stats.giveups, 0);
    let trace = rt.trace();
    let rec = trace
        .records
        .iter()
        .find(|r| r.name == "flaky")
        .expect("flaky task recorded");
    assert_eq!(rec.attempts.len(), 3, "all attempts recorded in trace");
    assert!(rec.attempts[0].error.is_some());
    assert!(rec.attempts[1].error.is_some());
    assert!(rec.attempts[2].error.is_none(), "final attempt succeeded");
}

#[test]
fn retry_is_deterministic_under_a_fixed_seed() {
    // Same seed, same plan, same DAG: the retried run must produce
    // bit-identical results and the same retry count, twice.
    let run = || {
        let rt = Runtime::threaded(4);
        rt.set_fault_plan(Some(FaultPlan::new(0xabc).panic_sampled(None, 0.5, 1)));
        let xs: Vec<_> = (0..64)
            .map(|i| {
                rt.task("samp")
                    .retry(RetryPolicy::new(2).backoff(1e-6))
                    .run0(move || (i as f64 * 0.37).cos())
            })
            .collect();
        let bits: Vec<u64> = xs.into_iter().map(|h| rt.wait(h).to_bits()).collect();
        (bits, rt.stats().retries)
    };
    let (bits_a, retries_a) = run();
    let (bits_b, retries_b) = run();
    assert_eq!(bits_a, bits_b);
    assert_eq!(retries_a, retries_b);
    assert!(retries_a > 0, "with p=0.5 over 64 tasks some must fault");
}

#[test]
#[should_panic(expected = "after 2 attempts")]
fn retry_exhaustion_reports_attempt_count() {
    let rt = Runtime::threaded(2);
    rt.set_fault_plan(Some(FaultPlan::new(1).panic_kind("hopeless", u32::MAX)));
    let a = rt.put(1u64);
    let h = rt
        .task("hopeless")
        .retry(RetryPolicy::new(2).backoff(1e-6))
        .run1(a, |v| *v);
    let _ = rt.wait(h);
}

#[test]
fn failed_trace_is_still_inspectable() {
    let rt = Runtime::threaded(2);
    let a = rt.put(1u64);
    let bad = rt.task("bad").run1(a, |_| -> u64 { panic!("x") });
    let _good = rt.task("good").run1(a, |v| *v);
    // Wait on the good one; give the bad one time to fail.
    let _ = rt.wait(_good);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let _ = rt.wait(bad);
    }));
    assert!(caught.is_err());
    // Trace still records both submissions.
    let trace = rt.trace();
    assert!(trace.task_histogram().contains_key("bad"));
    assert!(trace.task_histogram().contains_key("good"));
}

/// The panic text of `f`, which must panic.
fn panic_text(f: impl FnOnce()) -> String {
    let e = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
    e.downcast_ref::<String>().expect("string panic").clone()
}

/// A failure is named by the graph, not by timing: the lowest-id task
/// whose own body gave up, itself or an ancestor. Two failing tasks
/// read one input, one of them after a 2 ms sleep, so on threads the
/// sleeper usually fails last: as the lower id it must not be reported
/// late, as the higher id it must not overwrite the lower one's
/// message. Either way the text must be inline's, every run.
#[test]
fn a_failure_is_named_by_the_lowest_failing_task_on_every_run() {
    fn fail(name: &'static str, sleep: bool) -> impl FnMut(&u64) -> u64 {
        move |_| {
            if sleep {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            panic!("{name}")
        }
    }
    /// Tasks #0 and #1 fail; the one named by `sleeper` sleeps first.
    fn two_failing(rt: &Runtime, sleeper: usize) -> (Handle<u64>, Handle<u64>) {
        let a = rt.put(1u64);
        let x = rt.task("first").run1(a, fail("first", sleeper == 0));
        let y = rt.task("second").run1(a, fail("second", sleeper == 1));
        (x, y)
    }
    // Two independent failing tasks, reported by a barrier.
    let independent = |rt: Runtime, sleeper| {
        two_failing(&rt, sleeper);
        panic_text(|| rt.barrier())
    };
    // One task behind two failing producers, and one behind it.
    let behind_two = |rt: Runtime, sleeper| {
        let (x, y) = two_failing(&rt, sleeper);
        let both = rt.task("both").run2(x, y, |x, y| x + y);
        let tail = rt.task("tail").run1(both, |v| v + 1);
        panic_text(|| {
            rt.wait(tail);
        })
    };
    for sleeper in [0, 1] {
        let inline = independent(Runtime::new(), sleeper);
        assert!(inline.contains("task 'first' #0"), "{inline}");
        for run in 0..50 {
            let threaded = independent(Runtime::threaded(2), sleeper);
            assert_eq!(threaded, inline, "barrier, sleeper {sleeper}, run {run}");
        }
        let inline = behind_two(Runtime::new(), sleeper);
        assert!(inline.contains("task 'first' #0"), "{inline}");
        for run in 0..50 {
            let threaded = behind_two(Runtime::threaded(2), sleeper);
            assert_eq!(threaded, inline, "wait, sleeper {sleeper}, run {run}");
        }
    }
}
