//! Inline vs threaded execution equivalence, and threaded stress tests.
//!
//! The runtime guarantees that the two execution modes compute the same
//! values and produce structurally identical task graphs — the property
//! that lets the harness record deterministic inline traces while users
//! run threaded.

use dsarray::{tree_reduce, DsArray};
use linalg::Matrix;
use taskrt::{ExecMode, Runtime, RuntimeConfig};

fn workflow(rt: &Runtime) -> f64 {
    let x = Matrix::from_fn(60, 20, |r, c| ((r * 31 + c * 7) % 17) as f64 - 8.0);
    let ds = DsArray::from_matrix(rt, &x, 15, 10);
    let gram = ds.gram(rt);
    let sums = ds.col_sums(rt);
    let combined = rt
        .task("combine")
        .run2(gram, sums, |g: &Matrix, s: &Vec<f64>| {
            g.fro_norm() + s.iter().sum::<f64>()
        });
    *rt.wait(combined)
}

#[test]
fn inline_and_threaded_agree() {
    let inline = workflow(&Runtime::new());
    for workers in [1usize, 2, 8] {
        let threaded = workflow(&Runtime::threaded(workers));
        assert!(
            (inline - threaded).abs() < 1e-9,
            "workers={workers}: {inline} vs {threaded}"
        );
    }
}

#[test]
fn traces_structurally_identical_across_modes() {
    let rt_a = Runtime::new();
    let rt_b = Runtime::threaded(4);
    let _ = workflow(&rt_a);
    let _ = workflow(&rt_b);
    let (ta, tb) = (rt_a.finish(), rt_b.finish());
    assert_eq!(ta.len(), tb.len());
    for (a, b) in ta.records.iter().zip(&tb.records) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.deps, b.deps);
        assert_eq!(a.cores, b.cores);
    }
}

#[test]
fn threaded_wide_fanout_and_reduce() {
    let rt = Runtime::threaded(8);
    let items: Vec<_> = (0..500u64).map(|i| rt.put(i)).collect();
    let squared: Vec<_> = items
        .iter()
        .map(|&h| rt.task("sq").run1(h, |v| v * v))
        .collect();
    let total = tree_reduce(&rt, "sum", &squared, |a, b| a + b);
    assert_eq!(*rt.wait(total), (0..500u64).map(|i| i * i).sum::<u64>());
}

#[test]
fn threaded_nested_tasks() {
    let rt = Runtime::with_config(RuntimeConfig {
        mode: ExecMode::Threads(4),
        nested_mode: ExecMode::Threads(2),
        metrics: true,
        ..RuntimeConfig::default()
    });
    let data: Vec<_> = (0..6).map(|i| rt.put(i as f64)).collect();
    let outs: Vec<_> = data
        .iter()
        .map(|&h| {
            rt.task("outer").run_nested1(h, |child, v| {
                let a = child.task("inner_a").run0({
                    let v = *v;
                    move || v + 1.0
                });
                let b = child.task("inner_b").run0({
                    let v = *v;
                    move || v * 2.0
                });
                let s = child.task("inner_sum").run2(a, b, |x, y| x + y);
                *child.wait(s)
            })
        })
        .collect();
    let total: f64 = outs.iter().map(|&h| *rt.wait(h)).sum();
    // sum over i of (i+1) + 2i = 3i + 1 -> 3*15 + 6 = 51
    assert_eq!(total, 51.0);
    let trace = rt.finish();
    assert_eq!(
        trace.records.iter().filter(|r| r.child.is_some()).count(),
        6
    );
}

#[test]
fn threaded_deep_chain_stress() {
    let rt = Runtime::threaded(4);
    let mut h = rt.put(0u64);
    for _ in 0..2000 {
        h = rt.task("inc").run1(h, |v| v + 1);
    }
    assert_eq!(*rt.wait(h), 2000);
}

#[test]
fn many_waits_interleaved_with_submissions() {
    let rt = Runtime::threaded(4);
    let mut acc = 0u64;
    for round in 0..50u64 {
        let a = rt.put(round);
        let b = rt.task("mul").run1(a, |v| v * 3);
        acc += *rt.wait(b);
    }
    assert_eq!(acc, (0..50).map(|r| r * 3).sum::<u64>());
    // Each wait recorded a sync marker.
    let markers = rt
        .trace()
        .records
        .iter()
        .filter(|r| r.name == taskrt::trace::SYNC_TASK)
        .count();
    assert_eq!(markers, 50);
}

/// The runtime's retention: the tables are paged and push-only —
/// nothing is ever retired, so the trace is complete, every handle
/// stays readable, and a consumed handle reads as consumed.
fn default_runtime_retains_everything(rt: Runtime) {
    use taskrt::arena::PAGE;
    let n = 3 * PAGE + 17;
    // seed + (n - 2) INOUT links + one reader: the chain crosses every
    // page boundary of the task, record and data tables.
    let seed = rt.task("seed").run0(|| vec![0u64; 4]);
    let mut acc = seed;
    for _ in 0..n - 2 {
        acc = rt.task("inc").run1_inout(acc, |v| v[0] += 1);
    }
    let kept = rt.task("kept").run1(acc, |v| v[0]);
    assert_eq!(*rt.peek(kept), (n - 2) as u64);

    let trace = rt.finish();
    assert_eq!(trace.records.len(), n + 1, "n tasks + the barrier marker");
    for (i, r) in trace.records.iter().enumerate() {
        assert_eq!(r.id.0, i as u64, "records out of id order");
    }
    let block_bytes = trace.records[0].outputs[0].1;
    assert!(block_bytes > 0);
    for r in trace.records.iter().filter(|r| r.name == "inc") {
        assert_eq!(
            r.inputs[0].1, block_bytes,
            "{:?}: moved input size lost",
            r.id
        );
    }
    assert_eq!(rt.task_count(), n + 1);

    let consumed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.peek(seed)))
        .expect_err("reading a consumed handle must fail");
    let msg = consumed.downcast_ref::<String>().expect("string panic");
    assert!(msg.contains("consumed by an INOUT task"), "{msg}");
}

#[test]
fn default_inline_runtime_retains_everything() {
    default_runtime_retains_everything(Runtime::new());
}

#[test]
fn default_threaded_runtime_retains_everything() {
    default_runtime_retains_everything(Runtime::threaded(2));
}
