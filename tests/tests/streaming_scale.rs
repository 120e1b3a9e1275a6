//! Streaming-runtime tests: slot recycling must never change results,
//! stale reads must fail loudly, and the resident set must stay bounded
//! on DAGs far larger than the live window.
//!
//! The properties mirror the guarantees `RuntimeConfig::stream`
//! documents:
//!
//! 1. **Bit-identity** — recycled-slot runs compute exactly the same
//!    bits as default (retire-nothing) runs, over random DAGs
//!    (proptest) and long INOUT chains, in both execution modes.
//! 2. **Loud staleness** — reading a recycled slot (a released handle,
//!    or a handle consumed by an INOUT steal) panics with a named
//!    `"stale handle"` error instead of returning a wrong value.
//! 3. **Bounded tables** — a 200k-task chain keeps the task/data/record
//!    high-water marks proportional to the backpressure window, not the
//!    DAG size, and the in-flight peak respects the high watermark; a
//!    250k-task sliding-window DAG stays window-resident.

use proptest::prelude::*;
use taskrt::{ExecMode, Handle, Runtime, RuntimeConfig, StreamConfig};

fn streaming_rt(mode: ExecMode, high: usize, low: usize) -> Runtime {
    Runtime::with_config(RuntimeConfig {
        mode,
        stream: Some(StreamConfig { high, low }),
        ..RuntimeConfig::default()
    })
}

fn default_rt(mode: ExecMode) -> Runtime {
    Runtime::with_config(RuntimeConfig {
        mode,
        ..RuntimeConfig::default()
    })
}

/// Seeded xorshift64 stream.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A deterministic random DAG mixing the shapes recycling must get
/// right: plain reads (shared fan-out), INOUT consuming chains, and
/// driver-side releases of handles it is done with. Returns the exact
/// bit pattern of the final fold.
fn random_dag_checksum(rt: &Runtime, n: usize, seed: u64) -> u64 {
    let mut next = xorshift(seed);
    // `outs` holds only handles that are never INOUT-consumed (reading
    // a consumed handle is a contract violation on any runtime); the
    // accumulator chain lives outside it.
    let mut outs: Vec<Option<Handle<f64>>> = Vec::with_capacity(n);
    let mut acc = rt.task("seed").run0(|| 1.0f64);
    for i in 0..n {
        let r = next();
        let h = match r % 4 {
            // INOUT link: consumes the accumulator, successor version
            // replaces it — the recycling hot path.
            0 => {
                let salt = (r >> 8) as f64 * 1e-9;
                acc = rt
                    .task("step")
                    .run1_inout(acc, move |v| *v = (*v * 1.000_000_11 + salt).sin());
                outs.push(None);
                continue;
            }
            // Plain read of a random earlier result (fan-out keeps the
            // read slot shared, so it must NOT be recycled early).
            1 if i > 0 => {
                let w = i.min(31);
                let j = i - 1 - (r as usize >> 16) % w;
                match outs[j] {
                    Some(p) => rt.task("read").run1(p, |v| v * 0.5 + 1.0),
                    None => rt.task("fresh").run0(move || (r % 97) as f64),
                }
            }
            // Two-input combine of the accumulator and a fresh source.
            2 => {
                let src = rt.task("src").run0(move || (r % 13) as f64 + 0.25);
                rt.task("combine").run2(acc, src, |a, b| a + b * 0.125)
            }
            _ => rt.task("fresh").run0(move || (r % 97) as f64),
        };
        outs.push(Some(h));
        // Occasionally tell the runtime we are done with an older
        // handle: on a streaming runtime its slot may be recycled, on
        // a default runtime this is a no-op — results must agree anyway.
        if i > 8 && next().is_multiple_of(3) {
            let j = (next() as usize) % (i - 4);
            if let Some(old) = outs[j].take() {
                rt.release(old);
            }
        }
    }
    let mut tail: Vec<Handle<f64>> = outs.iter().rev().flatten().take(7).copied().collect();
    tail.push(acc); // the chain's final (never-consumed) version
    let folded = rt.task("fold").run_many(&tail, |xs: &[&f64]| {
        let mut s = 0.0f64;
        for &x in xs {
            s = (s + x).sin() + x * 0.25;
        }
        s
    });
    let v = *rt.wait(folded);
    rt.barrier();
    v.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recycled-slot runs are bit-identical to default-runtime runs,
    /// across random DAG shapes (some spanning more than one table
    /// page), seeds, and both execution modes.
    #[test]
    fn recycled_runs_are_bit_identical_to_default_runtime(
        n in 32usize..(taskrt::arena::PAGE + 400),
        seed in 0u64..1_000_000,
        threads in 0usize..3,
    ) {
        let mode = match threads {
            0 => ExecMode::Inline,
            t => ExecMode::Threads(t + 1),
        };
        let kept = random_dag_checksum(&default_rt(mode), n, seed);
        let streamed = random_dag_checksum(&streaming_rt(mode, 64, 32), n, seed);
        prop_assert_eq!(kept, streamed);
    }
}

#[test]
#[should_panic(expected = "stale handle")]
fn released_handle_read_panics_with_named_error() {
    let rt = streaming_rt(ExecMode::Inline, 64, 32);
    let h = rt.task("v").run0(|| 41u64);
    let _ = rt.wait(h); // materialized; driver then declares it dead
    rt.release(h);
    let _ = rt.peek(h); // stale generation: must fail loudly
}

#[test]
#[should_panic(expected = "stale handle")]
fn consumed_inout_handle_read_panics_on_streaming_runtime() {
    let rt = streaming_rt(ExecMode::Inline, 64, 32);
    let a = rt.task("v").run0(|| vec![1.0f64; 8]);
    let _b = rt.task("bump").run1_inout(a, |v| v[0] += 1.0);
    // `a` was consumed by the INOUT steal and its slot recycled; a
    // default runtime fails the reader task gracefully, a streaming
    // runtime refuses the stale id at submission.
    let _ = rt.task("read").run1(a, |v| v[0]);
}

#[test]
fn released_slots_are_not_recycled_while_readers_exist() {
    // Releasing a handle that later-submitted tasks still read must
    // not invalidate those reads: the slot only retires once every
    // already-registered reader consumed it.
    let rt = streaming_rt(ExecMode::Threads(2), 64, 32);
    let src = rt.task("src").run0(|| 7.0f64);
    let readers: Vec<Handle<f64>> = (0..16)
        .map(|i| rt.task("r").run1(src, move |v| v + i as f64))
        .collect();
    rt.release(src); // readers above were submitted first — still valid
    for (i, r) in readers.into_iter().enumerate() {
        assert_eq!(*rt.wait(r), 7.0 + i as f64);
    }
}

#[test]
fn chain_200k_tasks_bounded_tables_and_watermark() {
    const N: u64 = 200_000;
    const HIGH: usize = 512;
    const LOW: usize = 256;
    let rt = streaming_rt(ExecMode::Threads(4), HIGH, LOW);
    let mut acc = rt.task("seed").run0(|| 0u64);
    for _ in 0..N {
        acc = rt.task("inc").run1_inout(acc, |v| *v += 1);
    }
    assert_eq!(*rt.wait(acc), N);
    let stats = rt.table_stats();
    // Everything was allocated...
    assert!(stats.tasks.allocated >= N);
    // ...but the resident set stayed proportional to the backpressure
    // window: high watermark + completed-but-not-yet-consumed slack.
    let bound = (2 * HIGH + 64) as u64;
    assert!(
        stats.tasks.peak_live <= bound,
        "task table peak {} exceeds bound {bound}",
        stats.tasks.peak_live
    );
    assert!(
        stats.data.peak_live <= 2 * bound,
        "data table peak {} exceeds bound {}",
        stats.data.peak_live,
        2 * bound
    );
    assert!(stats.peak_in_flight as usize <= HIGH + 4);
    // The chain is fully consumed: all but the live tail retired.
    assert!(stats.tasks.retired >= N - 64);
}

#[test]
fn wide_fanout_backpressure_parks_driver_within_watermark() {
    const N: usize = 20_000;
    const HIGH: usize = 1024;
    let rt = streaming_rt(ExecMode::Threads(4), HIGH, 512);
    let mut sinks = Vec::with_capacity(64);
    for i in 0..N {
        let h = rt.task("leaf").run0(move || i as u64);
        if i % (N / 64) == 0 {
            sinks.push(h); // a few we keep and verify
        } else {
            rt.release(h); // the rest the driver is done with
        }
    }
    rt.barrier();
    for (k, h) in sinks.into_iter().enumerate() {
        assert_eq!(*rt.peek(h), (k * (N / 64)) as u64);
    }
    let stats = rt.table_stats();
    // Independent roots: only backpressure bounds the window. Allow
    // worker-count slack for runs dispatched between check and park.
    assert!(
        stats.peak_in_flight as usize <= HIGH + 8,
        "peak in-flight {} exceeded high watermark {HIGH}",
        stats.peak_in_flight
    );
    // Released leaves left the tables as they completed.
    assert!(
        stats.data.retired >= (N - N / 64 - 64) as u64,
        "expected released leaves to retire, got {} retired",
        stats.data.retired
    );
}

#[test]
fn streaming_trace_keeps_live_records_only() {
    let rt = streaming_rt(ExecMode::Inline, 64, 32);
    let mut acc = rt.task("seed").run0(|| 0u64);
    for _ in 0..100 {
        acc = rt.task("inc").run1_inout(acc, |v| *v += 1);
    }
    let kept = rt.task("kept").run1(acc, |v| *v);
    assert_eq!(*rt.wait(kept), 100);
    // Recycled records left the trace; the live tail (and markers)
    // remain — the trace is a window, not the full history.
    let trace = rt.trace();
    assert!(
        trace.records.len() < 50,
        "trace kept {} records",
        trace.records.len()
    );
}

/// The streaming submission idiom at scale: task `i` reads up to 3 of
/// the last 64 outputs and the driver releases each output as it slides
/// out of that window, so a DAG 60x the high watermark must stay
/// window-resident — live slots are the in-flight window (≤ high), the
/// completed producers its tasks still pin (≤ high again), the driver's
/// ring and per-worker scheduler slack.
#[test]
fn sliding_window_dag_250k_tasks_stays_window_resident() {
    const N: usize = 250_000;
    const WINDOW: usize = 64;
    const WORKERS: usize = 4;
    const HIGH: usize = 4096;
    let rt = streaming_rt(ExecMode::Threads(WORKERS), HIGH, HIGH / 2);
    let mut next = xorshift(7);
    // Each task's value is its depth in the DAG, mirrored on the driver.
    let mut ring: std::collections::VecDeque<(Handle<u64>, u64)> =
        std::collections::VecDeque::with_capacity(WINDOW + 1);
    for _ in 0..N {
        let r = next();
        let picks: Vec<(Handle<u64>, u64)> = (0..(r % 4) as usize)
            .filter(|_| !ring.is_empty())
            .map(|k| ring[(r >> (8 + 8 * k)) as usize % ring.len()])
            .collect();
        let inputs: Vec<Handle<u64>> = picks.iter().map(|p| p.0).collect();
        let depth = 1 + picks.iter().map(|p| p.1).max().unwrap_or(0);
        let h = rt.task("node").run_many(&inputs, |deps: &[&u64]| {
            1 + deps.iter().map(|d| **d).max().unwrap_or(0)
        });
        ring.push_back((h, depth));
        if ring.len() > WINDOW {
            rt.release(ring.pop_front().expect("non-empty ring").0);
        }
    }
    for (h, depth) in ring {
        assert_eq!(*rt.wait(h), depth);
        rt.release(h);
    }
    rt.barrier();
    let stats = rt.table_stats();
    assert!(stats.tasks.allocated >= N as u64);
    let task_bound = (2 * HIGH + WINDOW + 64 * WORKERS) as u64;
    assert!(
        stats.tasks.peak_live <= task_bound,
        "task table peak {} exceeds bound {task_bound} (resident set not bounded)",
        stats.tasks.peak_live
    );
    assert!(
        stats.peak_in_flight as usize <= HIGH + 16,
        "peak in-flight {} breached the high watermark {HIGH}",
        stats.peak_in_flight
    );
}
