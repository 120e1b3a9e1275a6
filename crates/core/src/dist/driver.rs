//! Driver-process side of the distributed executor.
//!
//! The driver owns the plan, the replica map (`data id → which workers
//! hold it`), and the failure detector. It ships [`Msg::Run`] frames
//! naming registered kinds; payloads move worker-to-worker (the `Run`
//! carries replica owner addresses, consumers pull) with the driver
//! relaying only its own seeds. A [`Msg::Release`] tells a worker to
//! drop a replica once no unfinished task reads it.
//!
//! **Decisions and I/O are apart.** Every decision of a run — what
//! ships where, when a failed task is retried, what a lost worker takes
//! with it — is made by `RunState` (`super::state`), a state machine
//! with no socket, thread, lock or clock in it. [`DistRuntime::run`] is
//! the shell around it: reader threads only forward frames, the run
//! loop turns them, an EOF or heartbeat silence into events, performs
//! the actions the state returns and feeds back what those observe.
//!
//! **Placement is owner-computes** (`super::place`): a ready task belongs to
//! the live worker that already holds the most bytes of its inputs and
//! waits for that worker if it is busy, so a block stays where it was
//! first touched and is pulled at most when an idle worker steals it.
//! The rule is a pure function of the task states and the replica map,
//! recomputed after every event — there is no queue to repair when a
//! worker dies. One `Run` is in flight per worker.
//!
//! Heartbeat loss or a control-stream EOF declares a worker dead: its
//! in-flight tasks are requeued, and completed tasks whose only output
//! replica died are **re-executed from lineage** on the survivors. This
//! is the one lineage rollback there is; `crate::sim` replays healthy
//! clusters only. The run loop wakes at least once
//! per heartbeat period and checks for silence itself; nothing in the
//! driver sleeps for a fixed time, so teardown costs what the workers'
//! exit costs.

use super::kind::KindRegistry;
use super::plan::Plan;
use super::proto::{self, Msg, Store, STORE_POISONED};
use super::state::{Action, Event, RunState};
use super::wire::WireValue;
use super::worker::{self, WorkerOpts};
use crate::sim::ClusterSpec;
use crate::trace::Trace;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Distributed cluster configuration.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Number of worker processes (or threads in thread mode).
    pub workers: usize,
    /// Heartbeat period.
    pub heartbeat_ms: u64,
    /// A worker is declared dead after this many silent heartbeat
    /// periods. The product is the **grace period**: a worker stalled
    /// inside a long task body keeps heartbeating from its beacon
    /// thread and is *not* declared dead.
    pub grace_beats: u32,
    /// Seconds to wait for all workers to join before failing the run.
    pub join_timeout_s: f64,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            heartbeat_ms: 20,
            grace_beats: 10,
            join_timeout_s: 10.0,
        }
    }
}

impl DistConfig {
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            ..Self::default()
        }
    }

    /// Grace period before a silent worker is declared dead.
    pub fn grace(&self) -> Duration {
        Duration::from_millis(self.heartbeat_ms.max(1) * u64::from(self.grace_beats.max(1)))
    }
}

/// Counters from one distributed run.
#[derive(Debug, Clone, Default)]
pub struct DistStats {
    /// Task executions that completed (re-executions included).
    pub tasks_run: u64,
    /// Body-failure retries granted by kinds registered with a
    /// [`crate::RetryPolicy`] of more than one attempt.
    pub retries: u64,
    /// Completed tasks re-executed because every replica of their
    /// output died (lineage rollback).
    pub reexecutions: u64,
    /// In-flight task runs lost to a worker death.
    pub lost_tasks: u64,
    /// Workers declared dead (EOF or heartbeat timeout).
    pub workers_lost: u64,
    /// Tasks requeued because a worker could not fetch an input (its
    /// replica owner died mid-dispatch).
    pub fetch_failures: u64,
    /// Input resolutions served worker-to-worker. A datum the driver
    /// relayed is not counted here.
    pub peer_pulls: u64,
    /// Bytes of those peer pulls (by the data's recorded size).
    pub peer_pull_bytes: u64,
    /// Bytes the driver relayed (seeds and dead-owner fallbacks).
    pub relay_bytes: u64,
    /// Data whose worker replicas were dropped by [`Msg::Release`] once
    /// no unfinished task read them (a datum re-made by lineage and
    /// released again counts again).
    pub released: u64,
    /// Bytes those releases freed, summed over every replica dropped.
    pub released_bytes: u64,
    /// Wall-clock seconds of the run loop.
    pub wall_s: f64,
}

/// Result of a distributed run.
pub struct DistReport {
    /// The plan's marked outputs, fetched back to the driver.
    pub outputs: BTreeMap<u64, Arc<WireValue>>,
    /// Measured trace, one [`crate::TaskRecord`] per task — the
    /// artifact the DES replays for [`crate::obs::divergence`].
    pub trace: Trace,
    pub stats: DistStats,
}

/// What [`DistRuntime::shutdown`] observed while tearing down.
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    pub workers_spawned: usize,
    /// Exit statuses collected (process mode) or threads joined
    /// (thread mode) — must equal `workers_spawned` or something leaked.
    pub workers_reaped: usize,
    /// Workers that ignored `Shutdown` and had to be killed.
    pub workers_force_killed: usize,
    /// Whether the socket directory was removed (no leaked sockets).
    pub sock_dir_removed: bool,
}

/// What a control stream's reader thread forwards to the run loop.
enum Ev {
    /// A worker's `Hello`: the write half of its control stream, and
    /// the seconds from the driver epoch at which it arrived — the
    /// anchor mapping worker-relative task start times onto the driver
    /// clock.
    Joined(usize, UnixStream, f64),
    /// Any other frame but a heartbeat.
    Frame(usize, Msg),
    Eof(usize),
}

enum WorkerHandle {
    Process(std::process::Child),
    Thread(std::thread::JoinHandle<()>),
}

/// A driver for a cluster of worker processes (or threads) connected
/// over Unix-domain sockets. One [`DistRuntime::run`] executes one
/// [`Plan`]; call [`DistRuntime::shutdown`] to reap everything.
pub struct DistRuntime {
    cfg: DistConfig,
    dir: PathBuf,
    driver_sock: PathBuf,
    peer_paths: Vec<PathBuf>,
    /// Write half of each joined worker's control stream; taken when the
    /// worker is killed.
    writers: Vec<Option<UnixStream>>,
    /// Microseconds from `epoch` to each worker's last frame, stamped by
    /// its reader thread.
    last_seen: Arc<[AtomicU64]>,
    /// Whether each worker's control stream has reported EOF.
    closed: Vec<bool>,
    driver_store: Store,
    relay_bytes: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    rx: Receiver<Ev>,
    handles: Vec<Option<WorkerHandle>>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    epoch: Instant,
    chaos: Option<(usize, usize)>, // (kill after N completions, worker)
    ran: bool,
    shut_down: bool,
}

static DIR_NONCE: AtomicU64 = AtomicU64::new(0);

impl DistRuntime {
    /// Launches `cfg.workers` **worker processes** by re-executing the
    /// current binary. The host binary must call
    /// [`worker::maybe_worker`] first thing in `main` with the same
    /// registry, or the children will just re-run `main`; the registry
    /// passed here is not used, since each child builds its own.
    pub fn launch(cfg: DistConfig, _registry: &Arc<KindRegistry>) -> std::io::Result<DistRuntime> {
        Self::launch_inner(cfg, None)
    }

    /// Launches `cfg.workers` **worker threads** in this process —
    /// protocol-identical to process mode (same sockets, frames,
    /// heartbeats), minus the process isolation. This is what unit and
    /// property tests drive, since a test harness binary cannot
    /// re-execute itself into a worker.
    pub fn launch_threads(
        cfg: DistConfig,
        registry: &Arc<KindRegistry>,
    ) -> std::io::Result<DistRuntime> {
        Self::launch_inner(cfg, Some(Arc::clone(registry)))
    }

    fn launch_inner(
        cfg: DistConfig,
        thread_registry: Option<Arc<KindRegistry>>,
    ) -> std::io::Result<DistRuntime> {
        assert!(cfg.workers >= 1, "a cluster needs at least one worker");
        let dir = std::env::temp_dir().join(format!(
            "taskrt-dist-{}-{}",
            std::process::id(),
            DIR_NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let driver_sock = dir.join("driver.sock");
        let peer_paths: Vec<PathBuf> = (0..cfg.workers)
            .map(|i| dir.join(format!("worker{i}.sock")))
            .collect();

        let listener = UnixListener::bind(&driver_sock)?;
        let epoch = Instant::now();
        let last_seen: Arc<[AtomicU64]> = (0..cfg.workers).map(|_| AtomicU64::new(0)).collect();
        let driver_store = Arc::new(Mutex::new(HashMap::new()));
        let relay_bytes = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        // Bounded: a worker has at most one `Joined`, one reply to its one
        // `Run` in flight, and one `Eof` outstanding. A full channel
        // blocks that worker's reader thread, never the run loop.
        let (tx, rx) = std::sync::mpsc::sync_channel::<Ev>(4 * cfg.workers);

        let accept_thread = {
            let stop = Arc::clone(&stop);
            let conns = ConnCtx {
                last_seen: Arc::clone(&last_seen),
                store: Arc::clone(&driver_store),
                relay_bytes: Arc::clone(&relay_bytes),
                tx,
                epoch,
            };
            std::thread::spawn(move || accept_loop(listener, stop, conns))
        };

        let mut handles = Vec::with_capacity(cfg.workers);
        for (i, peer_sock) in peer_paths.iter().enumerate() {
            let opts = WorkerOpts {
                id: i as u32,
                driver_sock: driver_sock.clone(),
                peer_sock: peer_sock.clone(),
                heartbeat_ms: cfg.heartbeat_ms,
            };
            let handle = match &thread_registry {
                Some(reg) => {
                    let reg = Arc::clone(reg);
                    WorkerHandle::Thread(std::thread::spawn(move || {
                        if let Err(e) = worker::run_worker(opts, reg) {
                            eprintln!("dist thread-worker {i} error: {e}");
                        }
                    }))
                }
                None => {
                    let exe = std::env::current_exe()?;
                    let child = std::process::Command::new(exe)
                        .env(worker::ENV_WORKER, "1")
                        .env(worker::ENV_ID, i.to_string())
                        .env(worker::ENV_DRIVER_SOCK, &driver_sock)
                        .env(worker::ENV_PEER_SOCK, peer_sock)
                        .env(worker::ENV_HEARTBEAT_MS, cfg.heartbeat_ms.to_string())
                        .spawn()?;
                    WorkerHandle::Process(child)
                }
            };
            handles.push(Some(handle));
        }

        Ok(DistRuntime {
            writers: (0..cfg.workers).map(|_| None).collect(),
            closed: vec![false; cfg.workers],
            cfg,
            dir,
            driver_sock,
            peer_paths,
            last_seen,
            driver_store,
            relay_bytes,
            stop,
            rx,
            handles,
            accept_thread: Some(accept_thread),
            epoch,
            chaos: None,
            ran: false,
            shut_down: false,
        })
    }

    /// The DES mirror of this cluster: one single-core node per worker
    /// over a link of the given per-transfer latency and bandwidth —
    /// measured on the real sockets, not assumed. Replay a run on it
    /// with [`Policy::OwnerComputes`], the rule this driver places by
    /// (`simulate(&report.trace, &spec, ...)`), and diff with
    /// [`crate::obs::divergence`].
    ///
    /// [`Policy::OwnerComputes`]: crate::sim::Policy::OwnerComputes
    pub fn cluster_spec(&self, latency_s: f64, bandwidth_bps: f64) -> ClusterSpec {
        ClusterSpec {
            nodes: self.cfg.workers,
            cores_per_node: 1,
            gpus_per_node: 0,
            bandwidth_bps,
            latency_s,
        }
    }

    /// Chaos hook: after `done_tasks` completions, kill `worker`
    /// abruptly — SIGKILL in process mode, a severed control stream in
    /// thread mode. The run must still complete via lineage
    /// re-execution on the survivors.
    pub fn kill_worker_after(&mut self, done_tasks: usize, worker: usize) {
        assert!(worker < self.cfg.workers);
        self.chaos = Some((done_tasks, worker));
    }

    /// Executes one plan across the cluster. Currently one run per
    /// cluster (the plan's data-id namespace is not reset between runs).
    pub fn run(&mut self, plan: &Plan, registry: &KindRegistry) -> Result<DistReport, String> {
        assert!(!self.ran, "DistRuntime::run supports one plan per cluster");
        self.ran = true;
        plan.validate(registry)?;
        let run_start = Instant::now();
        let seeds = plan.seeds.iter().map(|(id, v)| (*id, Arc::clone(v)));
        self.driver_store
            .lock()
            .expect(STORE_POISONED)
            .extend(seeds);
        let peers = self.peer_paths.iter().map(|p| p.display().to_string());
        let period = Duration::from_millis(self.cfg.heartbeat_ms.max(1));
        let heartbeat_s = period.as_secs_f64();
        let mut state = RunState::new(plan, registry, peers.collect(), heartbeat_s, self.chaos);
        let join_deadline = run_start + Duration::from_secs_f64(self.cfg.join_timeout_s);
        let grace_us = self.cfg.grace().as_micros() as u64;
        while !state.finished() {
            // Block for the next frame, at most one heartbeat period.
            let event = match self.rx.recv_timeout(period) {
                Ok(Ev::Joined(worker, writer, at_s)) => {
                    self.writers[worker] = Some(writer);
                    Event::Joined { worker, at_s }
                }
                Ok(Ev::Frame(w, msg)) => Event::Frame(w, msg),
                Ok(Ev::Eof(w)) => {
                    self.closed[w] = true;
                    Event::Lost(w)
                }
                Err(RecvTimeoutError::Timeout) => Event::Wake,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("driver event channel closed".into())
                }
            };
            self.feed(&mut state, event)?;
            // Heartbeat silence is a loss, as an EOF is.
            let now_us = self.epoch.elapsed().as_micros() as u64;
            for w in 0..self.cfg.workers {
                let silent_us = now_us.saturating_sub(self.last_seen[w].load(Ordering::Relaxed));
                if state.alive(w) && silent_us > grace_us {
                    self.feed(&mut state, Event::Lost(w))?;
                }
            }
            let joined = state.joined();
            if joined < self.cfg.workers && Instant::now() > join_deadline {
                return Err(format!(
                    "only {joined}/{} workers joined within {:.1}s — \
                     does the host binary call dist::maybe_worker first?",
                    self.cfg.workers, self.cfg.join_timeout_s
                ));
            }
        }
        let mut report = state.into_report();
        report.stats.wall_s = run_start.elapsed().as_secs_f64();
        report.stats.relay_bytes = self.relay_bytes.load(Ordering::Relaxed);
        Ok(report)
    }

    /// Hands `event` to the state and performs the actions it returns;
    /// what an action observes goes back in as the next event.
    fn feed(&mut self, state: &mut RunState<'_>, event: Event) -> Result<(), String> {
        let mut events = VecDeque::from([event]);
        while let Some(event) = events.pop_front() {
            for action in state.step(event, self.epoch.elapsed().as_secs_f64())? {
                match action {
                    Action::Send(w, msg) => {
                        let writer = self.writers[w].as_mut();
                        if writer.is_none_or(|s| proto::send(s, &msg).is_err()) {
                            events.push_back(Event::SendFailed(w, msg));
                        }
                    }
                    Action::Kill(w) => self.kill(w),
                    Action::Fetch { data, owners } => {
                        events.push_back(Event::Fetched(data, self.fetch(data, &owners)));
                    }
                }
            }
        }
        Ok(())
    }

    /// Pulls `data` from the first of `owners` that answers, and keeps it
    /// in the driver's store from then on.
    fn fetch(&self, data: u64, owners: &[usize]) -> Option<Arc<WireValue>> {
        let value = owners
            .iter()
            .find_map(|&w| proto::pull(&self.peer_paths[w], data))?;
        let mut store = self.driver_store.lock().expect(STORE_POISONED);
        store.insert(data, Arc::clone(&value));
        Some(value)
    }

    /// Kills a worker without ceremony: severs its control stream (a
    /// thread worker exits on that), and SIGKILLs and reaps a process.
    fn kill(&mut self, w: usize) {
        if let Some(stream) = self.writers[w].take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(WorkerHandle::Process(child)) = self.handles[w].as_mut() {
            let _ = child.kill();
            let _ = child.wait();
            self.handles[w] = None;
        }
    }

    /// Shuts the cluster down: polite `Shutdown` first, SIGKILL for
    /// stragglers, then removes the socket directory. Returns what was
    /// actually reaped so callers can assert nothing leaked.
    pub fn shutdown(mut self) -> ShutdownReport {
        let report = self.shutdown_inner();
        self.shut_down = true;
        report
    }

    fn shutdown_inner(&mut self) -> ShutdownReport {
        let spawned = self.handles.len();
        // Ask politely; a worker whose `Hello` is still queued is asked
        // when it is read below.
        for stream in self.writers.iter_mut().flatten() {
            let _ = proto::send(stream, &Msg::Shutdown);
        }
        // A worker's exit closes its control stream and its reader
        // thread reports `Eof`: wait for those, not on a poll of
        // `try_wait`.
        let mut exiting: BTreeSet<usize> = (0..spawned)
            .filter(|&w| self.handles[w].is_some() && !self.closed[w])
            .collect();
        let deadline = Instant::now() + Duration::from_secs(2);
        while !exiting.is_empty() {
            match self
                .rx
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                Ok(Ev::Joined(_, mut writer, _)) => {
                    let _ = proto::send(&mut writer, &Msg::Shutdown);
                }
                Ok(Ev::Eof(w)) => {
                    exiting.remove(&w);
                }
                Ok(Ev::Frame(..)) => {}
                Err(_) => break, // deadline: whoever is left ignored `Shutdown`
            }
        }
        let mut reaped = 0usize;
        let mut force_killed = 0usize;
        for (w, h) in self.handles.iter_mut().enumerate() {
            match h.take() {
                Some(WorkerHandle::Process(mut child)) => {
                    if exiting.contains(&w) && matches!(child.try_wait(), Ok(None)) {
                        let _ = child.kill();
                        force_killed += 1;
                    }
                    let _ = child.wait();
                    reaped += 1;
                }
                Some(WorkerHandle::Thread(t)) => {
                    let _ = t.join();
                    reaped += 1;
                }
                None => reaped += 1, // already reaped at death time
            }
        }
        // Stop our own service thread: the accept loop needs one last
        // connection to notice the flag.
        self.stop.store(true, Ordering::Relaxed);
        let _ = UnixStream::connect(&self.driver_sock);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let removed = std::fs::remove_dir_all(&self.dir).is_ok();
        ShutdownReport {
            workers_spawned: spawned,
            workers_reaped: reaped,
            workers_force_killed: force_killed,
            sock_dir_removed: removed && !self.dir.exists(),
        }
    }
}

impl Drop for DistRuntime {
    fn drop(&mut self) {
        if !self.shut_down {
            let _ = self.shutdown_inner();
            self.shut_down = true;
        }
    }
}

/// What every connection to the driver's listener needs.
#[derive(Clone)]
struct ConnCtx {
    last_seen: Arc<[AtomicU64]>,
    store: Store,
    relay_bytes: Arc<AtomicU64>,
    tx: SyncSender<Ev>,
    epoch: Instant,
}

/// Driver listener loop. It only accepts: each connection's opening
/// frame is read on that connection's own thread, so a connector that
/// never writes holds up no join and no relay behind it.
fn accept_loop(listener: UnixListener, stop: Arc<AtomicBool>, conns: ConnCtx) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(conn) = conn else { break };
        let ctx = conns.clone();
        // Detached: it ends with the connection, at the peer's EOF.
        std::thread::spawn(move || serve_connection(conn, ctx));
    }
}

/// One connection to the driver: a worker's control stream (`Hello`,
/// then its frames until EOF, each stamped into `last_seen` and all but
/// heartbeats forwarded), or a one-shot `Pull` the driver serves from
/// its own store — a relay.
fn serve_connection(mut conn: UnixStream, ctx: ConnCtx) {
    match proto::recv(&mut conn) {
        Ok(Msg::Hello { worker }) => {
            let w = worker as usize;
            let (Some(seen), Ok(writer)) = (ctx.last_seen.get(w), conn.try_clone()) else {
                return;
            };
            let since = ctx.epoch.elapsed();
            seen.store(since.as_micros() as u64, Ordering::Relaxed);
            let at_s = since.as_secs_f64();
            if ctx.tx.send(Ev::Joined(w, writer, at_s)).is_err() {
                return;
            }
            loop {
                let Ok(msg) = proto::recv(&mut conn) else {
                    let _ = ctx.tx.send(Ev::Eof(w));
                    return;
                };
                seen.store(ctx.epoch.elapsed().as_micros() as u64, Ordering::Relaxed);
                let heartbeat = matches!(msg, Msg::Heartbeat);
                if !heartbeat && ctx.tx.send(Ev::Frame(w, msg)).is_err() {
                    return;
                }
            }
        }
        Ok(Msg::Pull { data }) => {
            let served = proto::serve_pull(&mut conn, data, &ctx.store);
            ctx.relay_bytes.fetch_add(served, Ordering::Relaxed);
        }
        _ => {} // shutdown wake-up connection, or garbage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::plan::fingerprint;
    use crate::fault::RetryPolicy;
    use crate::handle::TaskId;

    fn arith_registry() -> Arc<KindRegistry> {
        let mut reg = KindRegistry::new();
        reg.register("add", |ins| {
            Ok(WireValue::F64(ins.iter().map(|v| v.as_f64()).sum()))
        });
        reg.register("mul", |ins| {
            Ok(WireValue::F64(ins.iter().map(|v| v.as_f64()).product()))
        });
        Arc::new(reg)
    }

    fn diamond_plan() -> (Plan, u64) {
        let mut p = Plan::new();
        let a = p.put(WireValue::F64(2.0));
        let b = p.put(WireValue::F64(3.0));
        let s = p.task("add", &[a, b]); // 5
        let m = p.task("mul", &[a, b]); // 6
        let top = p.task("mul", &[s, m]); // 30
        p.mark_output(top);
        (p, top)
    }

    #[test]
    fn thread_cluster_matches_inline_and_reaps_clean() {
        let reg = arith_registry();
        let (plan, top) = diamond_plan();
        let inline = plan.run_inline(&reg).unwrap();

        let mut rt = DistRuntime::launch_threads(DistConfig::with_workers(2), &reg).unwrap();
        let dir = rt.dir.clone();
        let report = rt.run(&plan, &reg).unwrap();
        assert_eq!(report.outputs[&top].as_f64(), 30.0);
        assert_eq!(fingerprint(&report.outputs), fingerprint(&inline));
        assert_eq!(report.stats.tasks_run, 3);
        assert_eq!(report.stats.workers_lost, 0);
        assert_eq!(report.stats.released, 4, "both seeds, s and m");
        assert_eq!(report.trace.records.len(), 3);
        assert!(report.trace.records.iter().all(|r| r.worker >= 0));

        let shutdown = rt.shutdown();
        assert_eq!(shutdown.workers_reaped, 2);
        assert_eq!(shutdown.workers_force_killed, 0);
        assert!(shutdown.sock_dir_removed, "socket dir leaked");
        assert!(!dir.exists());
    }

    #[test]
    fn record_deps_are_sorted_and_deduplicated() {
        // Task 2 reads [x, y, x]: its record names each producer once.
        let reg = arith_registry();
        let mut p = Plan::new();
        let a = p.put(WireValue::F64(2.0));
        let x = p.task("add", &[a]);
        let y = p.task("mul", &[a]);
        let z = p.task("add", &[x, y, x]);
        p.mark_output(z);
        let mut rt = DistRuntime::launch_threads(DistConfig::with_workers(1), &reg).unwrap();
        let report = rt.run(&p, &reg).unwrap();
        assert_eq!(report.outputs[&z].as_f64(), 6.0);
        let last = report
            .trace
            .records
            .iter()
            .find(|r| r.id == TaskId(2))
            .unwrap();
        assert_eq!(last.deps, vec![TaskId(0), TaskId(1)]);
        rt.shutdown();
    }

    #[test]
    fn teardown_does_not_wait_out_a_heartbeat_period() {
        // With a 2 s period, any fixed sleep of one period — a ticker,
        // a beacon, a reaping poll — would show as ~2 s here.
        let reg = arith_registry();
        let mut p = Plan::new();
        let a = p.put(WireValue::F64(2.0));
        let out = p.task("add", &[a, a]);
        p.mark_output(out);
        let cfg = DistConfig {
            heartbeat_ms: 2000,
            ..DistConfig::with_workers(2)
        };
        let t0 = Instant::now();
        let mut rt = DistRuntime::launch_threads(cfg, &reg).unwrap();
        let report = rt.run(&p, &reg).unwrap();
        assert_eq!(report.outputs[&out].as_f64(), 4.0);
        let shutdown = rt.shutdown();
        let elapsed = t0.elapsed();
        assert_eq!(shutdown.workers_reaped, shutdown.workers_spawned);
        assert_eq!(shutdown.workers_reaped, 2);
        assert!(shutdown.sock_dir_removed, "socket dir leaked");
        assert!(
            elapsed < Duration::from_millis(1000),
            "launch + run + shutdown took {elapsed:?} with a 2 s heartbeat"
        );
    }

    #[test]
    fn silent_connector_does_not_block_the_relay() {
        // A connection that never sends its opening frame must not hold
        // up the listener: the plan's seed reaches the worker through a
        // relay request accepted *after* the silent one.
        let reg = arith_registry();
        let (plan, top) = diamond_plan();
        let mut rt = DistRuntime::launch_threads(DistConfig::with_workers(1), &reg).unwrap();
        let silent = UnixStream::connect(&rt.driver_sock).unwrap();
        let report = rt.run(&plan, &reg).unwrap();
        assert_eq!(report.outputs[&top].as_f64(), 30.0);
        assert!(report.stats.relay_bytes > 0, "the seeds were never relayed");
        drop(silent);
        rt.shutdown();
    }

    #[test]
    fn death_during_join_is_not_swallowed() {
        // Worker 0 dies while the driver still waits for worker 1's
        // Hello. Its loss must count, and the run must start on worker
        // 1 alone rather than keep worker 0 "alive" for its grace.
        let reg = arith_registry();
        let (plan, _) = diamond_plan();
        let peers = vec!["w0.sock".into(), "w1.sock".into()];
        let mut st = RunState::new(&plan, &reg, peers, 2.0, None);
        let joined = |worker| Event::Joined { worker, at_s: 0.0 };
        assert_eq!(st.step(joined(0), 0.0).unwrap(), vec![]);
        assert_eq!(st.step(Event::Lost(0), 0.1).unwrap(), vec![Action::Kill(0)]);
        let actions = st.step(joined(1), 0.2).unwrap();
        assert!(
            matches!(actions[..], [Action::Send(1, Msg::Run { task: 0, .. })]),
            "{actions:?}"
        );
        assert!(!st.alive(0) && st.alive(1));
        assert_eq!(
            st.into_report().stats.workers_lost,
            1,
            "the loss was dropped"
        );
    }

    #[test]
    fn retry_policy_recovers_flaky_kind() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let hits = Arc::new(AtomicU32::new(0));
        let mut reg = KindRegistry::new();
        let h = Arc::clone(&hits);
        reg.register_with("flaky_once", RetryPolicy::new(3).backoff(0.01), move |_| {
            if h.fetch_add(1, Ordering::SeqCst) == 0 {
                Err("first attempt always fails".into())
            } else {
                Ok(WireValue::U64(7))
            }
        });
        let reg = Arc::new(reg);
        let mut p = Plan::new();
        let out = p.task("flaky_once", &[]);
        p.mark_output(out);
        // The inline oracle retries as the driver does: same output,
        // same two attempts.
        let inline = p.run_inline(&reg).unwrap();
        assert_eq!(hits.swap(0, Ordering::SeqCst), 2, "inline attempts");
        let mut rt = DistRuntime::launch_threads(DistConfig::with_workers(1), &reg).unwrap();
        let report = rt.run(&p, &reg).unwrap();
        assert_eq!(report.outputs[&out].as_u64(), 7);
        assert_eq!(fingerprint(&report.outputs), fingerprint(&inline));
        assert_eq!(hits.load(Ordering::SeqCst), 2, "distributed attempts");
        assert_eq!(report.stats.retries, 1);
        // The failed attempt is stamped on arrival of its `Failed`
        // frame: after the epoch and no later than the retry's start.
        let attempts = &report.trace.records[0].attempts;
        assert_eq!(attempts.len(), 2);
        let (failed, ok) = (&attempts[0], &attempts[1]);
        assert!(failed.error.is_some() && ok.error.is_none());
        assert!(failed.start_s > 0.0, "failed attempt stamped at t = 0");
        assert!(failed.start_s <= ok.start_s);
        // A retry is a failed attempt that another attempt followed.
        let retried = attempts.windows(2).filter(|w| w[0].error.is_some()).count();
        assert_eq!(retried, 1, "one retry counted from the record");
        rt.shutdown();
    }

    #[test]
    fn crash_drop_triggers_lineage_reexecution() {
        // Worker 0 produces a value, then the crashing task takes it
        // down; the survivor must re-run the lost producer before the
        // dependent task can finish.
        use std::sync::atomic::{AtomicU32, Ordering};
        let mut reg = KindRegistry::new();
        reg.register("seed7", |_| Ok(WireValue::U64(7)));
        reg.register("inc", |ins| Ok(WireValue::U64(ins[0].as_u64() + 1)));
        let crashes = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&crashes);
        reg.register("crash_once", move |_| {
            if c.fetch_add(1, Ordering::SeqCst) == 0 {
                Err(super::super::kind::CRASH_DROP.into())
            } else {
                Ok(WireValue::Unit)
            }
        });
        let reg = Arc::new(reg);
        let mut p = Plan::new();
        let s = p.task("seed7", &[]);
        let dead = p.task("crash_once", &[]);
        let i = p.task("inc", &[s]);
        p.mark_output(dead);
        p.mark_output(i);
        let cfg = DistConfig {
            workers: 2,
            heartbeat_ms: 10,
            grace_beats: 5,
            ..DistConfig::default()
        };
        let mut rt = DistRuntime::launch_threads(cfg, &reg).unwrap();
        let report = rt.run(&p, &reg).unwrap();
        assert_eq!(report.outputs[&i].as_u64(), 8);
        assert_eq!(report.stats.workers_lost, 1);
        rt.shutdown();
    }
}
