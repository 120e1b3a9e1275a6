//! Chaos harness: prove the fault-tolerance layer end to end.
//!
//! Two experiments, both deterministic under a fixed `--seed`:
//!
//! 1. **Retry correctness** — a distributed ds-array workload (column
//!    sums + Gram matrix + a tree reduction) runs fault-free, then
//!    again with a [`taskrt::FaultPlan`] that panics every retryable
//!    task kind on its first attempt (well over 10% of all tasks). The
//!    retried run must produce *bit-identical* results, and a second
//!    faulted run must match exactly (seeded determinism).
//! 2. **Give-up semantics** — a task whose injected fault outlives its
//!    retry budget must fail the workflow with an error naming the task
//!    and its attempt count.
//!
//! Worker loss is the `dist` bin's `--chaos` arm, which SIGKILLs a
//! worker process and recovers through the driver's lineage rollback.
//!
//! Writes `out/chaos.json`; `--check` asserts all of the above and
//! exits non-zero on any violation (the CI chaos job runs this).
//!
//! Usage: `cargo run --release -p bench --bin chaos --
//! [--scale small|full] [--workers N] [--seed N] [--check]`

use bench::report::{write_artifact, Args};
use dsarray::{tree_reduce, DsArray};
use linalg::Matrix;
use taskrt::fault::INJECTED_PANIC;
use taskrt::json::Value;
use taskrt::{FaultPlan, RetryPolicy, Runtime};

/// Kinds the workload submits with a retrying policy — the injection
/// targets. Non-retryable kinds (loads, INOUT reductions) must stay
/// healthy or the workflow would correctly fail.
const RETRYABLE_KINDS: &[&str] = &["ds_colsum", "ds_gram", "chaos_reduce"];

/// Silences the panic spam from injected faults: `catch_unwind` catches
/// the payloads, but the default hook prints first. Real (unexpected)
/// panics still print.
fn install_quiet_panic_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_default();
        if msg.contains(INJECTED_PANIC) {
            return;
        }
        default_hook(info);
    }));
}

/// Deterministic input matrix (no RNG: a fixed arithmetic pattern).
fn input_matrix(rows: usize, cols: usize) -> Matrix {
    let data: Vec<f64> = (0..rows * cols)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            ((r * 31 + c * 17) % 101) as f64 / 7.0 - 5.0
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// The workload under test: block the matrix, take column sums and the
/// Gram matrix (both submit retrying tasks), then tree-reduce per-band
/// traces of the Gram partials, under the fault `plan` if any.
/// Returns `(result bits, total tasks, counter retries, retried
/// attempts)` — the last counted from the trace's attempt records,
/// cross-checked against the scheduler counter in `--check`.
fn run_workload(
    workers: usize,
    rows: usize,
    cols: usize,
    bs: usize,
    plan: Option<FaultPlan>,
) -> (Vec<u64>, u64, u64, u64) {
    let rt = Runtime::threaded(workers);
    rt.set_fault_plan(plan);
    let m = input_matrix(rows, cols);
    let dist = DsArray::from_matrix(&rt, &m, bs, bs);
    let sums = dist.col_sums(&rt);
    let gram = dist.gram(&rt);
    // An extra explicit retrying cascade over per-band row sums.
    let partials: Vec<_> = dist
        .row_bands(&rt)
        .into_iter()
        .map(|band| {
            rt.task("chaos_band_sum")
                .run1(band, |m: &Matrix| m.as_slice().iter().sum::<f64>())
        })
        .collect();
    let total = tree_reduce(&rt, "chaos_reduce", &partials, |a, b| a + b);

    let mut bits: Vec<u64> = Vec::new();
    bits.extend(rt.wait(sums).iter().map(|v| v.to_bits()));
    bits.extend(rt.wait(gram).as_slice().iter().map(|v| v.to_bits()));
    bits.push(rt.wait(total).to_bits());
    let trace = rt.finish();
    let stats = rt.stats();
    // A retried attempt is a failed one that another attempt followed.
    let retried_attempts = trace
        .records
        .iter()
        .flat_map(|r| r.attempts.windows(2))
        .filter(|w| w[0].error.is_some())
        .count() as u64;
    (bits, stats.total_tasks(), stats.retries, retried_attempts)
}

fn main() {
    let args = Args::capture(&["scale", "workers", "seed"], &["check"]);
    let small = args.scale_small();
    let scale = if small { "small" } else { "full" };
    let workers: usize = args.get_or("workers", 4);
    let seed: u64 = args.get_or("seed", 0xc4a0_5eed);
    let check = args.has("check");
    let (rows, cols, bs) = if small { (96, 64, 16) } else { (384, 256, 32) };

    install_quiet_panic_hook();
    println!("chaos: scale={scale} workers={workers} seed={seed:#x}");

    // -- 1: fault-free baseline vs. injected-fault retry runs ---------
    let (clean_bits, clean_tasks, _, _) = run_workload(workers, rows, cols, bs, None);
    let mut plan = FaultPlan::new(seed);
    for kind in RETRYABLE_KINDS {
        plan = plan.panic_kind(kind, 1);
    }
    let (fault_bits, fault_tasks, retries, retried_attempts) =
        run_workload(workers, rows, cols, bs, Some(plan.clone()));
    let (fault_bits2, _, retries2, _) = run_workload(workers, rows, cols, bs, Some(plan));
    let fault_frac = retries as f64 / fault_tasks as f64;
    let identical = clean_bits == fault_bits;
    let deterministic = fault_bits == fault_bits2 && retries == retries2;
    println!(
        "retry: {clean_tasks} tasks, {retries} injected faults ({:.1}% of tasks), \
         bit-identical={identical} deterministic={deterministic}",
        fault_frac * 100.0
    );
    println!("records: {retried_attempts} retried attempts counted from the trace");

    // -- 2: retry exhaustion fails with a named-task error ------------
    let giveup_msg = {
        let rt = Runtime::threaded(2);
        rt.set_fault_plan(Some(FaultPlan::new(seed).panic_kind("doomed", u32::MAX)));
        let x = rt.put(1.0f64);
        let h = rt
            .task("doomed")
            .retry(RetryPolicy::new(3).backoff(1e-6))
            .run1(x, |v| v + 1.0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = rt.wait(h);
        }));
        match caught {
            Err(e) => e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default(),
            Ok(_) => String::new(),
        }
    };
    let named_failure = giveup_msg.contains("'doomed'") && giveup_msg.contains("3 attempts");
    println!("giveup: named_failure={named_failure} msg={giveup_msg:?}");

    // -- artifact -----------------------------------------------------
    let doc = Value::Object(vec![
        ("workload".into(), Value::from("dsarray_reductions")),
        ("scale".into(), Value::from(scale)),
        ("workers".into(), Value::from(workers)),
        ("seed".into(), Value::from(seed)),
        (
            "retry".into(),
            Value::Object(vec![
                ("tasks".into(), Value::from(fault_tasks)),
                ("injected_faults".into(), Value::from(retries)),
                ("fault_fraction".into(), Value::from(fault_frac)),
                ("bit_identical".into(), Value::from(identical)),
                ("deterministic".into(), Value::from(deterministic)),
                ("retried_attempts".into(), Value::from(retried_attempts)),
            ]),
        ),
        (
            "giveup".into(),
            Value::Object(vec![
                ("named_failure".into(), Value::from(named_failure)),
                ("message".into(), Value::String(giveup_msg.clone())),
            ]),
        ),
    ]);
    write_artifact("out/chaos.json", &doc.pretty()).expect("write out/chaos.json");

    if check {
        assert!(
            fault_frac >= 0.10,
            "faults hit {:.1}% of tasks, need >= 10%",
            fault_frac * 100.0
        );
        assert!(identical, "retried results diverged from fault-free run");
        assert!(deterministic, "seeded fault runs diverged from each other");
        // The trace must tell the same story as the scheduler counter:
        // one retry per failed attempt that another attempt followed.
        assert_eq!(
            retried_attempts, retries,
            "retried attempts in the records must match the retry counter"
        );
        assert!(
            named_failure,
            "give-up error must name the task and attempt count, got: {giveup_msg:?}"
        );
        println!("chaos: self-check ok");
    }
}
