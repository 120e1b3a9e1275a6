//! Scheduler stress tests for the threaded runtime.
//!
//! Four properties the scheduler must preserve:
//!
//! 1. **Mode equivalence** — a ~5k-task DAG of fine-grained float tasks
//!    with random dependencies computes *bit-identical* results inline
//!    and threaded (the paper's determinism claim: threads change
//!    scheduling, never values).
//! 2. **Synchronization semantics (Fig. 9)** — a `wait()` inserts a
//!    sync marker and every later submission depends on it, in both
//!    execution modes.
//! 3. **Clean shutdown** — no worker thread outlives its dropped
//!    `Runtime`, even after churning through many short-lived runtimes.
//! 4. **Concurrent drivers** — two threads submitting into one runtime
//!    each get their own data ids and compute what the same graphs
//!    compute inline.

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use taskrt::trace::SYNC_TASK;
use taskrt::{live_worker_threads, DataId, Handle, RetryPolicy, Runtime};

const N_TASKS: usize = 5_000;

/// `live_worker_threads` counts workers process-wide, so the leak checks
/// below only mean something while no other test of this binary has a
/// threaded runtime alive: every test holds this lock.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    // A poisoned lock only says another test failed; the guard is a unit.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Drives an n-task random-dependency DAG of fine-grained float ops.
/// Task `i` combines up to 6 of the previous 48 results with fixed
/// (associativity-sensitive) arithmetic, so any reordering of the
/// *evaluation* inside a task would change the bits of the answer —
/// only the scheduler's freedom to reorder *independent tasks* remains,
/// and that must not affect values. With `retry`, every task declares a
/// fast-backoff retry policy (for fault-injection runs).
fn random_dag_checksum_n(rt: &Runtime, seed: u64, n: usize, retry: bool) -> u64 {
    let policy = RetryPolicy::new(4).backoff(1e-6, 2.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut outs: Vec<Handle<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut builder = rt.task(if i == 0 { "seed" } else { "mix" });
        if retry {
            builder = builder.retry(policy);
        }
        let h = if i == 0 {
            builder.run0(|| 1.0f64)
        } else {
            let ndeps = 1 + (rng.next_u64() % 6) as usize;
            let window = i.min(48);
            let mut deps: Vec<usize> = (0..ndeps)
                .map(|_| i - 1 - (rng.next_u64() as usize % window))
                .collect();
            deps.sort_unstable();
            deps.dedup();
            let handles: Vec<Handle<f64>> = deps.iter().map(|&j| outs[j]).collect();
            let salt = rng.random::<f64>();
            builder.run_many(&handles, move |xs: &[&f64]| {
                let mut acc = salt;
                for &x in xs {
                    acc = (acc * 1.000_000_11 + x).sin() + x * 0.5;
                }
                acc
            })
        };
        outs.push(h);
    }
    // Fold every output's exact bit pattern into one checksum so a
    // single ULP of divergence anywhere in the DAG is caught.
    let mut checksum = 0u64;
    for h in outs {
        checksum = checksum.rotate_left(7).wrapping_add(rt.wait(h).to_bits());
    }
    checksum
}

fn random_dag_checksum(rt: &Runtime, seed: u64) -> u64 {
    random_dag_checksum_n(rt, seed, N_TASKS, false)
}

#[test]
fn stress_5k_random_dag_threaded_matches_inline_bitwise() {
    let _serial = serial();
    let inline = random_dag_checksum(&Runtime::new(), 7);
    for workers in [2usize, 4] {
        let threaded = random_dag_checksum(&Runtime::threaded(workers), 7);
        assert_eq!(
            inline, threaded,
            "workers={workers}: threaded checksum diverged from inline"
        );
    }
}

#[test]
fn stress_sync_marker_serializes_later_submissions() {
    let _serial = serial();
    // Fig. 9 semantics: tasks submitted after a wait() carry an extra
    // dependency on the sync marker, so a replay cannot hoist them
    // before the synchronization point. Must hold in both modes.
    for rt in [Runtime::new(), Runtime::threaded(4)] {
        let xs: Vec<Handle<u64>> = (0..100)
            .map(|i| rt.task("pre").run0(move || i as u64))
            .collect();
        let _ = rt.wait(xs[99]); // synchronization point
        let post: Vec<Handle<u64>> = (0..100)
            .map(|i| rt.task("post").run0(move || i as u64 * 2))
            .collect();
        for &h in &post {
            assert_eq!(*rt.wait(h) % 2, 0);
        }
        let t = rt.finish();
        let marker = t
            .records
            .iter()
            .find(|r| r.name == SYNC_TASK)
            .expect("wait() on a task output must record a sync marker");
        let post_records: Vec<_> = t.records.iter().filter(|r| r.name == "post").collect();
        assert_eq!(post_records.len(), 100);
        for r in &post_records {
            assert!(
                r.deps.contains(&marker.id),
                "post-wait task {:?} does not depend on the sync marker",
                r.id
            );
        }
        // Pre-wait tasks must NOT depend on the marker.
        for r in t.records.iter().filter(|r| r.name == "pre") {
            assert!(!r.deps.contains(&marker.id));
        }
    }
}

#[test]
fn stress_10k_dag_with_injected_faults_drains_and_matches() {
    let _serial = serial();
    // Inject a panic into the first attempt of a random ~10% of a
    // 10k-task DAG. Every task retries, so the runtime must drain
    // cleanly, the retried results must be bit-identical to a
    // fault-free run, and no worker threads may leak.
    use taskrt::fault::INJECTED_PANIC;
    const N: usize = 10_000;

    // The injected panics would otherwise spam the captured test
    // output through the default panic hook.
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains(INJECTED_PANIC))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains(INJECTED_PANIC))
                })
                .unwrap_or(false);
            if !injected {
                default_hook(info);
            }
        }));
    });

    let baseline = live_worker_threads();
    let clean = random_dag_checksum_n(&Runtime::threaded(4), 11, N, true);

    let rt = Runtime::threaded(4);
    rt.set_fault_plan(Some(
        taskrt::FaultPlan::new(0xfa11).panic_sampled(None, 0.10, 1),
    ));
    let faulted = random_dag_checksum_n(&rt, 11, N, true);
    let stats = rt.stats();
    drop(rt);

    assert_eq!(
        clean, faulted,
        "retried results diverged from the fault-free run"
    );
    let frac = stats.retries as f64 / N as f64;
    assert!(
        (0.05..0.20).contains(&frac),
        "expected ~10% of tasks to fault, got {:.1}% ({} retries)",
        frac * 100.0,
        stats.retries
    );
    assert_eq!(stats.giveups, 0, "first-attempt faults never exhaust");
    assert_eq!(
        live_worker_threads(),
        baseline,
        "worker threads leaked after the fault-injected run"
    );
}

#[test]
fn stress_no_worker_threads_outlive_dropped_runtimes() {
    let _serial = serial();
    let baseline = live_worker_threads();
    for round in 0..20 {
        let rt = Runtime::threaded(4);
        let inputs: Vec<Handle<u64>> = (0..50).map(|i| rt.put(i + round)).collect();
        let squares: Vec<Handle<u64>> = inputs
            .iter()
            .map(|&h| rt.task("sq").run1(h, |v| v * v))
            .collect();
        for h in squares {
            let _ = rt.wait(h);
        }
        drop(rt);
    }
    assert_eq!(
        live_worker_threads(),
        baseline,
        "worker threads leaked after dropping 20 runtimes"
    );
}

/// One driver's graph: a `put` seed, `links` chain steps alternating
/// `run1` / `run1_inout`, a fresh `put` per link, and a `run_many`
/// fan-in over every put plus the chain's end. Submits everything,
/// then reads back every handle that is still readable (puts, INOUT
/// successors, the fan-in) and checks each against the value computed
/// on the driver side — a cross-thread id collision would hand one
/// driver the other's datum. Takes `2 * links + 2` data ids (seed, one
/// put and one task output per link, the fan-in) and submits
/// `links + 1` tasks; returns the values read and every data id taken.
fn drive_chain_with_puts(rt: &Runtime, salt: u64, links: u64) -> (Vec<u64>, Vec<DataId>) {
    let step = move |v: u64, i: u64| v.wrapping_mul(6364136223846793005).wrapping_add(i ^ salt);
    let seed = rt.put(salt);
    let mut chain = seed;
    let mut expect = salt;
    let mut puts: Vec<(Handle<u64>, u64)> = vec![(seed, salt)];
    let mut readable: Vec<(Handle<u64>, u64)> = Vec::new();
    let mut task_outputs = Vec::new();
    for i in 0..links {
        let v = salt.rotate_left(17) ^ i;
        puts.push((rt.put(v), v));
        expect = step(expect, i);
        if i % 2 == 0 {
            chain = rt.task("link").run1(chain, move |x| step(*x, i));
        } else {
            // Consumes the `run1` output above; the successor version
            // is read (not consumed) by the next `run1`.
            chain = rt
                .task("link_inout")
                .run1_inout(chain, move |x| *x = step(*x, i));
            readable.push((chain, expect));
        }
        task_outputs.push(chain.id());
    }
    let mut fan: Vec<Handle<u64>> = puts.iter().map(|&(h, _)| h).collect();
    fan.push(chain);
    let total = rt.task("fan_in").run_many(&fan, |xs: &[&u64]| {
        xs.iter().fold(0u64, |acc, &&x| acc.rotate_left(5) ^ x)
    });
    task_outputs.push(total.id());
    let want_total = puts
        .iter()
        .map(|&(_, v)| v)
        .chain([expect])
        .fold(0u64, |acc, x| acc.rotate_left(5) ^ x);
    readable.push((total, want_total));

    let mut values = Vec::with_capacity(puts.len() + readable.len());
    for (h, want) in puts.iter().chain(&readable) {
        let got = *rt.peek(*h);
        assert_eq!(got, *want, "salt {salt}: {h:?} read another datum's value");
        values.push(got);
    }
    let ids = puts
        .iter()
        .map(|(h, _)| h.id())
        .chain(task_outputs)
        .collect();
    (values, ids)
}

#[test]
fn concurrent_drivers_are_bit_identical_to_inline() {
    let _serial = serial();
    // `Runtime` is `Send + Sync`: two driver threads submitting into
    // one threaded runtime must each get their own ids (allocated
    // under the state lock, where the entries are pushed) and compute
    // what the same two graphs compute one after the other inline.
    const LINKS: u64 = 2_000;
    let inline = Runtime::new();
    let want = [1u64, 2].map(|salt| drive_chain_with_puts(&inline, salt, LINKS).0);

    let rt = Runtime::threaded(2);
    // Both drivers start submitting at the same instant, so their
    // `put`s and submissions interleave on the state lock.
    let start = std::sync::Barrier::new(2);
    let got = std::thread::scope(|s| {
        let spawn = |salt: u64| {
            let (rt, start) = (&rt, &start);
            s.spawn(move || {
                start.wait();
                drive_chain_with_puts(rt, salt, LINKS)
            })
        };
        let (a, b) = (spawn(1), spawn(2));
        [a.join().expect("driver 1"), b.join().expect("driver 2")]
    });
    let values = got.clone().map(|(v, _)| v);
    assert_eq!(values, want, "concurrent drivers diverged from inline");

    // Ids are dense and unique across both drivers: together they
    // took exactly 0..n, and the trace records each task output once.
    let n_data = 2 * (2 * LINKS + 2);
    let mut ids: Vec<u64> = got.iter().flat_map(|(_, ids)| ids).map(|d| d.0).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..n_data).collect::<Vec<_>>());
    let trace = rt.finish();
    let mut outputs: Vec<u64> = trace
        .records
        .iter()
        .flat_map(|r| &r.outputs)
        .map(|(d, _)| d.0)
        .collect();
    outputs.sort_unstable();
    outputs.dedup();
    assert_eq!(outputs.len() as u64, 2 * (LINKS + 1));
    assert!(outputs.iter().all(|&d| d < n_data));
    assert_eq!(rt.stats().total_tasks(), 2 * (LINKS + 1));
}
