//! Worker-process side of the distributed executor.
//!
//! A worker owns a **local data store** (`data id → value`). Task
//! inputs are resolved store-first, then by *pulling* ([`Msg::Pull`])
//! from the peer workers the driver named as replica owners, and only
//! as a last resort by sending the same pull to the driver's socket, a
//! *relay* — so bulk payloads flow worker-to-worker, not through the
//! driver. The store holds `Arc`s and [`Msg::Data`] carries
//! one, so serving a pull encodes straight from the stored value. A
//! [`Msg::Release`] drops a datum no task will read again, and its
//! buffers go back to `linalg::pool` on the thread that runs the task
//! bodies and decodes their inputs: the next block lands in warm
//! memory, not in freshly faulted pages. A
//! dedicated thread heartbeats over the control stream even while a
//! task body runs, so a *slow* worker is distinguishable from a *dead*
//! one; it waits on a channel, not in a sleep, so teardown never waits
//! out a heartbeat period.

use super::kind::{KindRegistry, CRASH_DROP, CRASH_TRUNCATE};
use super::proto::{self, InputSpec, Msg, Store};
use super::wire::{self, WireValue};
use std::collections::HashMap;
use std::io::Write as _;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Environment variables the process-mode worker entry reads. The
/// driver sets these on spawned children; [`maybe_worker`] checks them.
pub const ENV_WORKER: &str = "TASKRT_DIST_WORKER";
pub const ENV_ID: &str = "TASKRT_DIST_ID";
pub const ENV_DRIVER_SOCK: &str = "TASKRT_DIST_DRIVER_SOCK";
pub const ENV_PEER_SOCK: &str = "TASKRT_DIST_PEER_SOCK";
pub const ENV_HEARTBEAT_MS: &str = "TASKRT_DIST_HEARTBEAT_MS";

/// Connection + identity parameters for one worker.
#[derive(Debug, Clone)]
pub struct WorkerOpts {
    pub id: u32,
    pub driver_sock: PathBuf,
    pub peer_sock: PathBuf,
    pub heartbeat_ms: u64,
}

impl WorkerOpts {
    /// Reads the options from the [`ENV_WORKER`]-family environment
    /// variables, if this process was launched as a worker.
    pub fn from_env() -> Option<WorkerOpts> {
        std::env::var(ENV_WORKER).ok()?;
        Some(WorkerOpts {
            id: std::env::var(ENV_ID).ok()?.parse().ok()?,
            driver_sock: PathBuf::from(std::env::var(ENV_DRIVER_SOCK).ok()?),
            peer_sock: PathBuf::from(std::env::var(ENV_PEER_SOCK).ok()?),
            heartbeat_ms: std::env::var(ENV_HEARTBEAT_MS)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(20),
        })
    }
}

/// Process-mode entry hook. Call this **first** in the `main` of any
/// binary that launches a [`crate::dist::DistRuntime`] in process mode:
/// if the process was spawned as a worker (the driver re-executes the
/// host binary with [`ENV_WORKER`] set), this runs the worker loop with
/// the given registry and exits — the rest of `main` never runs.
pub fn maybe_worker(registry: &Arc<KindRegistry>) {
    if let Some(opts) = WorkerOpts::from_env() {
        let code = match run_worker(opts, Arc::clone(registry)) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("dist worker error: {e}");
                1
            }
        };
        std::process::exit(code);
    }
}

/// Runs the worker loop to completion (clean [`Msg::Shutdown`], driver
/// EOF, or a crash-sentinel kind). Used directly by thread-mode
/// clusters and via [`maybe_worker`] by process-mode ones.
pub fn run_worker(opts: WorkerOpts, registry: Arc<KindRegistry>) -> Result<(), wire::WireError> {
    let store: Store = Arc::new(Mutex::new(HashMap::new()));
    let stop = Arc::new(AtomicBool::new(false));

    // Peer listener: serve Pull requests for blocks this worker holds.
    let listener = UnixListener::bind(&opts.peer_sock)?;
    let peer_thread = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve_peers(listener, store, stop))
    };

    // Control stream. The worker epoch starts here: task start times
    // are reported relative to it, and the driver anchors the epoch at
    // the moment it receives our Hello.
    let mut control_r = UnixStream::connect(&opts.driver_sock)?;
    let control_w = Arc::new(Mutex::new(control_r.try_clone()?));
    let epoch = Instant::now();
    proto::send(
        &mut *control_w.lock().unwrap(),
        &Msg::Hello { worker: opts.id },
    )?;

    // Heartbeats keep flowing while a task body runs on this thread.
    // The beacon's wait doubles as its stop signal: dropping `hb_stop`
    // wakes it at once.
    let (hb_stop, hb_wait) = std::sync::mpsc::channel::<()>();
    let hb_thread = {
        let control_w = Arc::clone(&control_w);
        let period = std::time::Duration::from_millis(opts.heartbeat_ms.max(1));
        std::thread::spawn(move || {
            let mut seq = 0u64;
            while hb_wait.recv_timeout(period) == Err(RecvTimeoutError::Timeout) {
                seq += 1;
                let mut w = control_w.lock().unwrap();
                if proto::send(&mut *w, &Msg::Heartbeat { seq }).is_err() {
                    break; // driver gone; main loop will see EOF too
                }
            }
        })
    };

    let result = serve_driver(&opts, &registry, &store, &mut control_r, &control_w, epoch);

    // Unblock the beacon and the peer accept loop, and tear down.
    drop(hb_stop);
    stop.store(true, Ordering::Relaxed);
    let _ = UnixStream::connect(&opts.peer_sock);
    let _ = peer_thread.join();
    let _ = hb_thread.join();
    let _ = std::fs::remove_file(&opts.peer_sock);
    result
}

/// Accept loop for the worker's peer listener: each connection is one
/// `Pull` request answered with `Data`/`NotFound`.
fn serve_peers(listener: UnixListener, store: Store, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(mut conn) = conn else { break };
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            if let Ok(Msg::Pull { data }) = proto::recv(&mut conn) {
                proto::serve_pull(&mut conn, data, &store);
            }
        });
    }
}

/// Where [`resolve_input`] found a value. Anything but `Local` is a
/// new replica the driver should learn about.
enum Source {
    Local,
    Peer,
    Relay,
}

/// Resolves one input: local store, then a pull from each named owner
/// but this worker, then the same pull to the driver (seeds, or every
/// named owner died). Returns the value and where it came from; on
/// failure, the unfetchable data id.
fn resolve_input(
    opts: &WorkerOpts,
    store: &Store,
    spec: &InputSpec,
) -> Result<(Arc<WireValue>, Source), u64> {
    if let Some(v) = store.lock().unwrap().get(&spec.data).cloned() {
        return Ok((v, Source::Local));
    }
    let peers = spec
        .owners
        .iter()
        .filter(|(owner, _)| *owner != opts.id)
        .map(|(_, path)| (Path::new(path), Source::Peer));
    for (addr, source) in peers.chain([(opts.driver_sock.as_path(), Source::Relay)]) {
        if let Some(value) = proto::pull(addr, spec.data) {
            store.lock().unwrap().insert(spec.data, Arc::clone(&value));
            return Ok((value, source));
        }
    }
    Err(spec.data)
}

/// The main request loop over the control stream.
fn serve_driver(
    opts: &WorkerOpts,
    registry: &Arc<KindRegistry>,
    store: &Store,
    control_r: &mut UnixStream,
    control_w: &Arc<Mutex<UnixStream>>,
    epoch: Instant,
) -> Result<(), wire::WireError> {
    loop {
        let msg = match proto::recv(control_r) {
            Ok(m) => m,
            Err(wire::WireError::Io(_)) => return Ok(()), // driver gone
            Err(e) => return Err(e),
        };
        match msg {
            Msg::Shutdown => return Ok(()),
            Msg::Release { data } => {
                let dropped = store
                    .lock()
                    .expect("a peer thread panicked holding the store")
                    .remove(&data);
                // A peer thread still serving the datum keeps it alive,
                // and frees it on its own thread instead.
                if let Some(value) = dropped.and_then(Arc::into_inner) {
                    value.recycle();
                }
            }
            Msg::Run {
                task,
                attempt: _,
                kind,
                out,
                inputs,
            } => {
                let mut resolved = Vec::with_capacity(inputs.len());
                let mut pulled = Vec::new();
                let mut relayed = Vec::new();
                let mut missing = None;
                for spec in &inputs {
                    match resolve_input(opts, store, spec) {
                        Ok((v, source)) => {
                            match source {
                                Source::Local => {}
                                Source::Peer => pulled.push(spec.data),
                                Source::Relay => relayed.push(spec.data),
                            }
                            resolved.push(v);
                        }
                        Err(data) => {
                            missing = Some(data);
                            break;
                        }
                    }
                }
                if let Some(data) = missing {
                    // Not a body failure: the named owner died under us
                    // (or the driver dropped the seed). Report which
                    // datum was unfetchable so the driver can requeue
                    // and re-supply it via lineage recovery.
                    let mut w = control_w.lock().unwrap();
                    proto::send(&mut *w, &Msg::FetchFailed { task, data })?;
                    continue;
                }
                let started = Instant::now();
                let start_rel_s = started.duration_since(epoch).as_secs_f64();
                let result = registry.invoke(&kind, &resolved);
                let duration_s = started.elapsed().as_secs_f64();
                match result {
                    Ok(value) => {
                        let bytes = value.encoded_len() as u64;
                        store.lock().unwrap().insert(out, Arc::new(value));
                        let done = Msg::Done {
                            task,
                            out,
                            bytes,
                            start_rel_s,
                            duration_s,
                            pulled,
                            relayed,
                        };
                        let mut w = control_w.lock().unwrap();
                        proto::send(&mut *w, &done)?;
                    }
                    Err(e) if e == CRASH_DROP => {
                        // Simulated crash: vanish without replying. The
                        // driver sees EOF / missed heartbeats.
                        return Ok(());
                    }
                    Err(e) if e == CRASH_TRUNCATE => {
                        // Simulated crash mid-commit: write the first
                        // half of a Done frame, whose length prefix
                        // announces all of it, then die. The driver must
                        // never half-apply it.
                        let done = Msg::Done {
                            task,
                            out,
                            bytes: 0,
                            start_rel_s,
                            duration_s,
                            pulled,
                            relayed,
                        };
                        let mut frame = Vec::new();
                        proto::send(&mut frame, &done)?;
                        let mut w = control_w.lock().unwrap();
                        let _ = w.write_all(&frame[..frame.len() / 2]);
                        let _ = w.flush();
                        return Ok(());
                    }
                    Err(error) => {
                        let mut w = control_w.lock().unwrap();
                        proto::send(&mut *w, &Msg::Failed { task, error })?;
                    }
                }
            }
            // Drivers never send anything else on the control stream;
            // tolerate unknown-but-decodable traffic.
            _ => {}
        }
    }
}
