//! Integration tests of the multi-process distributed executor
//! (`taskrt::dist`): wire-format properties, heartbeat-timeout edges,
//! crash-mid-commit atomicity, and lineage re-execution — all on
//! thread-mode clusters speaking the real socket protocol.

use linalg::Matrix;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use taskrt::dist::proto::{recv, send};
use taskrt::dist::{
    fingerprint, DistConfig, DistRuntime, KindRegistry, Msg, Plan, WireError, WireValue,
    CRASH_DROP, CRASH_TRUNCATE,
};
use taskrt::trace::Trace;
use taskrt::{OnFailure, Payload, RetryPolicy};

/// Deterministic nested `WireValue` generator. The vendored proptest
/// has no recursive strategies, so nesting is driven by a seed: each
/// level splits the seed with a 64-bit mix and picks a variant, with
/// `depth` bounding recursion.
fn wire_value(seed: u64, depth: u32) -> WireValue {
    let mix = |s: u64, salt: u64| {
        s.wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(salt)
            .wrapping_mul(0xBF58476D1CE4E5B9)
            .rotate_left(31)
    };
    let pick = if depth == 0 { seed % 8 } else { seed % 10 };
    match pick {
        0 => WireValue::Unit,
        1 => WireValue::Bool(seed & 1 == 0),
        2 => WireValue::U64(mix(seed, 2)),
        3 => WireValue::I64(mix(seed, 3) as i64),
        4 => {
            // Exercise the full bit space, including NaN payloads, -0.0
            // and subnormals: encode/decode must preserve exact bits.
            WireValue::F64(f64::from_bits(mix(seed, 4)))
        }
        5 => WireValue::Str(format!("s{}-\u{1F980}-{}", seed % 97, mix(seed, 5) % 1000)),
        6 => WireValue::Bytes((0..(seed % 17)).map(|i| mix(seed, i) as u8).collect()),
        7 => WireValue::VecF64(
            (0..(seed % 9))
                .map(|i| f64::from_bits(mix(seed, 100 + i)))
                .collect(),
        ),
        8 => {
            let rows = (seed % 4) as usize;
            let cols = (mix(seed, 8) % 4) as usize;
            WireValue::Matrix(Matrix::from_fn(rows, cols, |r, c| {
                f64::from_bits(mix(seed, 200 + (r * 7 + c) as u64))
            }))
        }
        _ => WireValue::List(
            (0..(seed % 4))
                .map(|i| wire_value(mix(seed, 300 + i), depth - 1))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Byte-level round-trip over arbitrarily nested containers, with
    /// the encoded length pinned to `Payload::approx_bytes` — the wire
    /// format *is* the byte count the DES transfer model sees.
    #[test]
    fn prop_wire_value_roundtrips_and_pins_approx_bytes(
        seed in 0u64..u64::MAX,
        depth in 0u32..4,
    ) {
        let v = wire_value(seed, depth);
        let bytes = v.encode();
        prop_assert_eq!(bytes.len(), v.encoded_len());
        prop_assert_eq!(bytes.len(), v.approx_bytes());
        let back = WireValue::decode(&bytes).unwrap();
        // Compare re-encodings, not values: NaN != NaN under PartialEq
        // but their bit patterns must survive the round trip.
        prop_assert_eq!(back.encode(), bytes);
    }

    /// No truncated prefix of a valid encoding may decode.
    #[test]
    fn prop_truncated_wire_value_never_decodes(
        seed in 0u64..u64::MAX,
        depth in 0u32..3,
    ) {
        let v = wire_value(seed, depth);
        let bytes = v.encode();
        for cut in 0..bytes.len() {
            prop_assert!(WireValue::decode(&bytes[..cut]).is_err());
        }
    }
}

/// `body` as a frame: its `u32` little-endian length, then the body.
fn frame(body: &[u8]) -> Vec<u8> {
    [&(body.len() as u32).to_le_bytes()[..], body].concat()
}

/// What a decoder made of some bytes, comparable across decoders: the
/// message's encoding, or the error's variant.
fn outcome(r: Result<Msg, WireError>) -> Result<Vec<u8>, std::mem::Discriminant<WireError>> {
    r.map(|m| m.encode())
        .map_err(|e| std::mem::discriminant(&e))
}

/// [`recv`] on a whole frame (the decoding walk over a socket's
/// read-ahead) makes of `body` what [`Msg::decode`] (the same walk over
/// a slice) makes of it, value for value and error variant for error
/// variant. Neither may panic.
fn assert_streamed_matches_buffered(body: &[u8]) {
    let buffered = outcome(Msg::decode(body));
    let streamed = outcome(recv(&mut frame(body).as_slice()));
    assert_eq!(streamed, buffered, "body {body:?}");
}

/// A `Data` message around `wire_value(seed, depth)`, with a byte
/// string and a matrix of drawn sizes beside it, so that frames cross
/// the 64 KiB chunk a frame moves through at a time.
fn data_msg(seed: u64, depth: u32, bytes: usize, rows: usize) -> Msg {
    let value = WireValue::List(vec![
        WireValue::Bytes((0..bytes).map(|i| (i * 31 + 7) as u8).collect()),
        WireValue::Matrix(Matrix::from_fn(rows, 257, |r, c| {
            f64::from_bits((seed ^ (r * 257 + c) as u64).rotate_left(17))
        })),
        wire_value(seed, depth),
    ]);
    Msg::Data {
        data: seed,
        value: Arc::new(value),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes behind a live message tag (or one past the last)
    /// never panic a decoder, and the streamed path agrees with the
    /// buffered one.
    #[test]
    fn prop_arbitrary_bytes_decode_alike_and_never_panic(
        tag in 0u8..13,
        rest in collection::vec(0u8..=255, 0..96),
    ) {
        let body = [&[tag][..], &rest].concat();
        let _ = WireValue::decode(&rest);
        assert_streamed_matches_buffered(&body);
    }

    /// Valid `Data` frames with one to three bytes overwritten: lengths,
    /// tags and counts turn hostile deep inside a value, and the
    /// streamed decoder still refuses what the buffered one refuses.
    #[test]
    fn prop_mutated_data_frames_decode_alike(
        seed in 0u64..u64::MAX,
        depth in 0u32..4,
        edits in collection::vec(0u64..u64::MAX, 1..4),
    ) {
        let mut body = data_msg(seed, depth, (seed % 40) as usize, (seed % 3) as usize).encode();
        for e in edits {
            let at = (e % body.len() as u64) as usize;
            body[at] = (e >> 32) as u8;
        }
        let _ = WireValue::decode(&body[9..]);
        assert_streamed_matches_buffered(&body);
    }

    /// `send` writes a `Data` frame byte for byte as `Msg::encode`
    /// behind its length, and `recv` reads it back; no cut of the frame
    /// decodes.
    #[test]
    fn prop_streamed_data_frames_are_the_buffered_bytes(
        seed in 0u64..u64::MAX,
        depth in 0u32..3,
        bytes in 0usize..70_000,
        rows in 0usize..40,
    ) {
        let msg = data_msg(seed, depth, bytes, rows);
        let mut sent = Vec::new();
        send(&mut sent, &msg).unwrap();
        prop_assert_eq!(&sent, &frame(&msg.encode()));
        prop_assert_eq!(recv(&mut sent.as_slice()).unwrap().encode(), msg.encode());
        let step = 1 + sent.len() / 64;
        for cut in (0..sent.len()).step_by(step).chain(sent.len().saturating_sub(9)..sent.len()) {
            prop_assert!(recv(&mut &sent[..cut]).is_err(), "a {cut}-byte prefix decoded");
        }
    }

    /// Every prefix of a small frame fails, on either path.
    #[test]
    fn prop_truncated_frames_never_decode(seed in 0u64..u64::MAX, depth in 0u32..3) {
        let msg = Msg::Data { data: seed, value: Arc::new(wire_value(seed, depth)) };
        let body = msg.encode();
        let whole = frame(&body);
        for cut in 0..whole.len() {
            prop_assert!(recv(&mut &whole[..cut]).is_err(), "a {cut}-byte prefix decoded");
        }
        for cut in 0..body.len() {
            prop_assert!(Msg::decode(&body[..cut]).is_err(), "a {cut}-byte body decoded");
        }
    }

    /// `Trace::load` refuses arbitrary bytes, and bytes that open like
    /// a trace, with an error, never a panic.
    #[test]
    fn prop_trace_load_errs_on_arbitrary_bytes(
        like_a_trace in 0u8..2,
        bytes in collection::vec(0u8..=255, 0..256),
    ) {
        let head: &[u8] = if like_a_trace == 1 { br#"{"records":[{"id":"# } else { b"" };
        let path = std::env::temp_dir().join(format!("taskrt-trace-bytes-{}.json", std::process::id()));
        std::fs::write(&path, [head, &bytes].concat()).unwrap();
        let loaded = Trace::load(&path);
        std::fs::remove_file(&path).unwrap();
        prop_assert!(loaded.is_err());
    }
}

fn count_registry() -> (Arc<KindRegistry>, Arc<AtomicU32>) {
    let calls = Arc::new(AtomicU32::new(0));
    let mut reg = KindRegistry::new();
    let c = Arc::clone(&calls);
    reg.register("seed_mat", move |_| {
        c.fetch_add(1, Ordering::SeqCst);
        Ok(WireValue::Matrix(Matrix::from_fn(8, 8, |r, c| {
            (r * 8 + c) as f64
        })))
    });
    reg.register("trace_sum", |ins| {
        let m = ins[0].as_matrix();
        Ok(WireValue::F64((0..8).map(|i| m.get(i, i)).sum()))
    });
    (Arc::new(reg), calls)
}

/// A worker stalled inside a long task body keeps heartbeating from its
/// beacon thread: it must NOT be declared dead, even when the body
/// takes many multiples of the grace period.
#[test]
fn stalled_but_alive_worker_survives_grace_period() {
    let mut reg = KindRegistry::new();
    reg.register("slow", |_| {
        // 12 heartbeat periods, 3x the grace period below.
        std::thread::sleep(std::time::Duration::from_millis(120));
        Ok(WireValue::U64(42))
    });
    let reg = Arc::new(reg);
    let mut plan = Plan::new();
    let out = plan.task("slow", &[]);
    plan.mark_output(out);
    let cfg = DistConfig {
        workers: 1,
        heartbeat_ms: 10,
        grace_beats: 4,
        ..DistConfig::default()
    };
    let mut rt = DistRuntime::launch_threads(cfg, &reg).unwrap();
    let report = rt.run(&plan, &reg).unwrap();
    assert_eq!(report.outputs[&out].as_u64(), 42);
    assert_eq!(
        report.stats.workers_lost, 0,
        "a slow-but-heartbeating worker was declared dead"
    );
    assert_eq!(report.stats.reexecutions, 0);
    let shutdown = rt.shutdown();
    assert_eq!(shutdown.workers_reaped, 1);
    assert!(shutdown.sock_dir_removed);
}

/// A worker that dies *mid-commit* (truncated `Done` frame) must never
/// produce a half-applied result: the driver discards the partial
/// frame, declares the worker dead, and re-executes elsewhere.
#[test]
fn mid_commit_death_never_half_applies() {
    let crashes = Arc::new(AtomicU32::new(0));
    let mut reg = KindRegistry::new();
    let c = Arc::clone(&crashes);
    reg.register("commit_crash", move |_| {
        if c.fetch_add(1, Ordering::SeqCst) == 0 {
            Err(CRASH_TRUNCATE.into())
        } else {
            Ok(WireValue::U64(7))
        }
    });
    reg.register("after", |ins| Ok(WireValue::U64(ins[0].as_u64() * 3)));
    let reg = Arc::new(reg);
    let mut plan = Plan::new();
    let a = plan.task("commit_crash", &[]);
    let b = plan.task("after", &[a]);
    plan.mark_output(b);
    let cfg = DistConfig {
        workers: 2,
        heartbeat_ms: 10,
        grace_beats: 5,
        ..DistConfig::default()
    };
    let mut rt = DistRuntime::launch_threads(cfg, &reg).unwrap();
    let report = rt.run(&plan, &reg).unwrap();
    // The half-written Done must have been discarded: the dependent
    // task only ever saw the full, re-executed result.
    assert_eq!(report.outputs[&b].as_u64(), 21);
    assert_eq!(report.stats.workers_lost, 1);
    assert_eq!(crashes.load(Ordering::SeqCst), 2, "task must re-execute");
    rt.shutdown();
}

/// Losing the only replica of an intermediate forces the producer to
/// re-run on a survivor (lineage re-execution, the DES rollback
/// mirror). Colocation is forced through locality: the crashing task
/// reads the producer's output, so the driver schedules it on the
/// worker holding that replica — which then dies.
#[test]
fn lost_replica_reexecutes_lineage_on_survivor() {
    let (reg_inner, calls) = count_registry();
    let mut reg = (*reg_inner).clone();
    let crashes = Arc::new(AtomicU32::new(0));
    let c = Arc::clone(&crashes);
    reg.register("crash_holder", move |_ins| {
        if c.fetch_add(1, Ordering::SeqCst) == 0 {
            Err(CRASH_DROP.into())
        } else {
            Ok(WireValue::Unit)
        }
    });
    let reg = Arc::new(reg);

    let mut plan = Plan::new();
    let m = plan.task("seed_mat", &[]);
    // Reads m => locality places this on the worker that holds m.
    let crash = plan.task("crash_holder", &[m]);
    // Also depends on the crash task, so it cannot race ahead and pull
    // a second replica of m to the survivor before the crash fires.
    let s = plan.task("trace_sum", &[m, crash]);
    plan.mark_output(crash);
    plan.mark_output(s);

    let cfg = DistConfig {
        workers: 2,
        heartbeat_ms: 10,
        grace_beats: 5,
        ..DistConfig::default()
    };
    let mut rt = DistRuntime::launch_threads(cfg, &reg).unwrap();
    let report = rt.run(&plan, &reg).unwrap();
    assert_eq!(
        report.outputs[&s].as_f64(),
        (0..8).map(|i| (i * 9) as f64).sum()
    );
    assert_eq!(report.stats.workers_lost, 1);
    assert!(
        calls.load(Ordering::SeqCst) >= 2,
        "seed_mat must re-run after its only replica died with the worker"
    );
    assert!(
        report.stats.reexecutions >= 1,
        "lineage rollback not counted"
    );
    rt.shutdown();
}

/// Body failures burn retry attempts per the kind's policy; fetch
/// failures and worker deaths do not. A kind that fails more times than
/// its budget fails the whole run with a useful error.
#[test]
fn retry_budget_exhaustion_names_task_and_attempts() {
    let mut reg = KindRegistry::new();
    reg.register_with(
        "always_fails",
        OnFailure::Retry,
        RetryPolicy {
            backoff_base_s: 0.005,
            ..RetryPolicy::new(2)
        },
        |_| Err("deliberate".into()),
    );
    let reg = Arc::new(reg);
    let mut plan = Plan::new();
    let out = plan.task("always_fails", &[]);
    plan.mark_output(out);
    let mut rt = DistRuntime::launch_threads(DistConfig::with_workers(1), &reg).unwrap();
    let err = rt.run(&plan, &reg).err().expect("run should fail");
    assert!(
        err.contains("always_fails") && err.contains("2") && err.contains("deliberate"),
        "unhelpful error: {err}"
    );
    rt.shutdown();
}

/// The distributed PCA pipeline is bit-identical to the inline oracle
/// across worker counts — the end-to-end property CI's `dist` job
/// gates in process mode, checked here in thread mode.
#[test]
fn distributed_pca_bit_identical_across_worker_counts() {
    let x = Matrix::from_fn(96, 12, |r, c| ((r * 31 + c * 17) % 101) as f64 / 7.0 - 5.0);
    let (plan, outs) = dislib::pca_dist::pca_plan(&x, 24, 3);
    let mut reg = KindRegistry::new();
    dislib::pca_dist::register_pca_kinds(&mut reg);
    let reg = Arc::new(reg);
    let inline = plan.run_inline(&reg).unwrap();
    let inline_fp = fingerprint(&inline);
    for workers in [1, 2, 4] {
        let mut rt = DistRuntime::launch_threads(DistConfig::with_workers(workers), &reg).unwrap();
        let report = rt.run(&plan, &reg).unwrap();
        assert_eq!(
            fingerprint(&report.outputs),
            inline_fp,
            "{workers}-worker run diverged from inline"
        );
        assert_eq!(
            report.outputs[&outs.projection].as_matrix().shape(),
            (96, 3)
        );
        // A clean run releases every datum some task read, once, unless
        // the plan marks it as an output.
        let read: BTreeSet<u64> = report
            .trace
            .records
            .iter()
            .flat_map(|r| r.inputs.iter().map(|(d, _)| d.0))
            .filter(|d| !plan.outputs().contains(d))
            .collect();
        assert_eq!(report.stats.released, read.len() as u64);
        assert!(report.stats.released_bytes > 0);
        let shutdown = rt.shutdown();
        assert_eq!(shutdown.workers_reaped, workers);
        assert!(shutdown.sock_dir_removed, "socket dir leaked");
    }
}

/// The measured trace has one record per plan task, every one of which
/// ran on a worker of the cluster — what the DES replay and the
/// divergence report read.
#[test]
fn measured_trace_has_one_ran_record_per_plan_task() {
    let x = Matrix::from_fn(48, 8, |r, c| (r + c) as f64);
    let (plan, _) = dislib::pca_dist::pca_plan(&x, 16, 2);
    let mut reg = KindRegistry::new();
    dislib::pca_dist::register_pca_kinds(&mut reg);
    let reg = Arc::new(reg);
    let mut rt = DistRuntime::launch_threads(DistConfig::with_workers(2), &reg).unwrap();
    let report = rt.run(&plan, &reg).unwrap();
    assert_eq!(report.trace.records.len(), plan.len());
    let ids: BTreeSet<u64> = report.trace.records.iter().map(|r| r.id.0).collect();
    assert_eq!(ids.len(), plan.len(), "a task recorded twice");
    for r in &report.trace.records {
        assert!(r.ran(), "task {} never ran", r.id.0);
        assert!(r.worker >= 0 && r.worker < 2, "bad worker {}", r.worker);
        assert!(r.duration_s >= 0.0 && r.start_s >= 0.0);
        assert!(!r.outputs.is_empty());
    }
    rt.shutdown();
}
