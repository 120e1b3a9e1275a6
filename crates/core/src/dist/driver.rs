//! Driver-process side of the distributed executor.
//!
//! The driver owns the plan, the replica map (`data id → which workers
//! hold it`), and the failure detector. It ships [`Msg::Run`] frames
//! naming registered kinds; payloads move worker-to-worker (the `Run`
//! carries replica owner addresses, consumers pull) with the driver
//! relaying only its own seeds. Heartbeat loss or a control-stream EOF
//! declares a worker dead, which feeds the same recovery vocabulary the
//! DES models: in-flight tasks are requeued, and completed tasks whose
//! only output replica died are **re-executed from lineage** on the
//! survivors — exactly the rollback `crate::sim` performs for a
//! simulated node failure, so measured and simulated recovery stay
//! comparable.

use super::kind::KindRegistry;
use super::plan::Plan;
use super::proto::{self, InputSpec, Msg};
use super::wire::WireValue;
use super::worker::{self, WorkerOpts};
use crate::fault::OnFailure;
use crate::handle::{DataId, TaskId};
use crate::sim::ClusterSpec;
use crate::telemetry::{Event, EventKind, Telemetry, DRIVER};
use crate::trace::{AttemptRecord, TaskRecord, Trace};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
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
    /// Modeled Unix-domain-socket bandwidth for [`DistRuntime::cluster_spec`].
    pub bandwidth_bps: f64,
    /// Modeled per-transfer latency for the cluster spec.
    pub latency_s: f64,
    /// Seconds to wait for all workers to join before failing the run.
    pub join_timeout_s: f64,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            heartbeat_ms: 20,
            grace_beats: 10,
            bandwidth_bps: 4.0e9,
            latency_s: 30e-6,
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
    /// Body-failure retries granted by kind [`OnFailure::Retry`] policies.
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
    /// Input resolutions served worker-to-worker.
    pub peer_pulls: u64,
    /// Bytes of those peer pulls (by the data's recorded size).
    pub peer_pull_bytes: u64,
    /// Bytes the driver relayed (seeds and dead-owner fallbacks).
    pub relay_bytes: u64,
    /// Wall-clock seconds of the run loop.
    pub wall_s: f64,
}

/// Result of a distributed run.
pub struct DistReport {
    /// The plan's marked outputs, fetched back to the driver.
    pub outputs: BTreeMap<u64, Arc<WireValue>>,
    /// Measured trace (PR 7 event schema via [`Trace::events`]) — the
    /// artifact the DES replays for the divergence check.
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

enum Ev {
    Joined,
    FromWorker(usize, Msg),
    Eof(usize),
    Tick,
}

/// Per-worker state shared between the accept/reader threads and the
/// run loop.
struct Slot {
    writer: Option<UnixStream>,
    last_seen: Instant,
    /// Seconds from the driver epoch at which the worker's Hello
    /// arrived — the anchor mapping worker-relative task start times
    /// onto the driver clock.
    joined_at_s: Option<f64>,
    alive: bool,
}

enum WorkerHandle {
    Process(std::process::Child),
    Thread(std::thread::JoinHandle<()>),
}

#[derive(Clone, Copy, PartialEq)]
enum TState {
    Pending,
    Running(usize),
    Done,
}

struct DataState {
    replicas: BTreeSet<usize>,
    driver: bool,
    bytes: u64,
}

/// A driver for a cluster of worker processes (or threads) connected
/// over Unix-domain sockets. One [`DistRuntime::run`] executes one
/// [`Plan`]; call [`DistRuntime::shutdown`] to reap everything.
pub struct DistRuntime {
    cfg: DistConfig,
    dir: PathBuf,
    driver_sock: PathBuf,
    peer_paths: Vec<PathBuf>,
    slots: Arc<Mutex<Vec<Slot>>>,
    driver_store: Arc<Mutex<HashMap<u64, Arc<WireValue>>>>,
    relay_bytes: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    rx: Receiver<Ev>,
    handles: Vec<Option<WorkerHandle>>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    ticker_thread: Option<std::thread::JoinHandle<()>>,
    telemetry: Telemetry,
    epoch: Instant,
    chaos: Option<(usize, usize)>, // (kill after N completions, worker)
    chaos_fired: bool,
    ran: bool,
    shut_down: bool,
}

static DIR_NONCE: AtomicU64 = AtomicU64::new(0);

impl DistRuntime {
    /// Launches `cfg.workers` **worker processes** by re-executing the
    /// current binary. The host binary must call
    /// [`worker::maybe_worker`] first thing in `main` with the same
    /// registry, or the children will just re-run `main`.
    pub fn launch(cfg: DistConfig, registry: &Arc<KindRegistry>) -> std::io::Result<DistRuntime> {
        let _ = registry; // process workers rebuild it from their own main
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
        let slots = Arc::new(Mutex::new(
            (0..cfg.workers)
                .map(|_| Slot {
                    writer: None,
                    last_seen: epoch,
                    joined_at_s: None,
                    alive: false,
                })
                .collect::<Vec<_>>(),
        ));
        let driver_store = Arc::new(Mutex::new(HashMap::new()));
        let relay_bytes = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel::<Ev>();

        let accept_thread = {
            let slots = Arc::clone(&slots);
            let store = Arc::clone(&driver_store);
            let relay = Arc::clone(&relay_bytes);
            let stop = Arc::clone(&stop);
            let tx = tx.clone();
            let epoch_ = epoch;
            std::thread::spawn(move || accept_loop(listener, slots, store, relay, stop, tx, epoch_))
        };

        let ticker_thread = {
            let stop = Arc::clone(&stop);
            let tx = tx.clone();
            let period = Duration::from_millis(cfg.heartbeat_ms.max(1));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    if tx.send(Ev::Tick).is_err() {
                        break;
                    }
                }
            })
        };

        let mut handles = Vec::with_capacity(cfg.workers);
        for (i, peer_sock) in peer_paths.iter().enumerate().take(cfg.workers) {
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
                        .env(worker::ENV_PEER_SOCK, &peer_paths[i])
                        .env(worker::ENV_HEARTBEAT_MS, cfg.heartbeat_ms.to_string())
                        .spawn()?;
                    WorkerHandle::Process(child)
                }
            };
            handles.push(Some(handle));
        }

        let n_workers = cfg.workers;
        Ok(DistRuntime {
            cfg,
            dir,
            driver_sock,
            peer_paths,
            slots,
            driver_store,
            relay_bytes,
            stop,
            rx,
            handles,
            accept_thread: Some(accept_thread),
            ticker_thread: Some(ticker_thread),
            telemetry: Telemetry::new(n_workers, epoch),
            epoch,
            chaos: None,
            chaos_fired: false,
            ran: false,
            shut_down: false,
        })
    }

    /// The DES mirror of this cluster: one single-core node per worker
    /// over the configured link model. Feed it `simulate(&report.trace,
    /// &rt.cluster_spec(), ...)` and diff with
    /// [`crate::telemetry::divergence`].
    pub fn cluster_spec(&self) -> ClusterSpec {
        ClusterSpec {
            nodes: self.cfg.workers,
            cores_per_node: 1,
            gpus_per_node: 0,
            bandwidth_bps: self.cfg.bandwidth_bps,
            latency_s: self.cfg.latency_s,
            failures: Vec::new(),
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

    /// Telemetry events the driver journaled (same schema as the
    /// threaded runtime and the DES).
    pub fn journal_events(&self) -> Vec<Event> {
        self.telemetry.journal().snapshot()
    }

    /// Executes one plan across the cluster. Currently one run per
    /// cluster (the plan's data-id namespace is not reset between runs).
    pub fn run(&mut self, plan: &Plan, registry: &KindRegistry) -> Result<DistReport, String> {
        assert!(!self.ran, "DistRuntime::run supports one plan per cluster");
        self.ran = true;
        plan.validate(registry)?;
        let run_start = Instant::now();

        // Seed the driver store (and data table).
        let mut data: HashMap<u64, DataState> = HashMap::new();
        {
            let mut store = self.driver_store.lock().unwrap();
            for (id, v) in &plan.seeds {
                store.insert(*id, Arc::clone(v));
                data.insert(
                    *id,
                    DataState {
                        replicas: BTreeSet::new(),
                        driver: true,
                        bytes: v.encoded_len() as u64,
                    },
                );
            }
        }
        let producer: HashMap<u64, usize> = plan
            .tasks
            .iter()
            .enumerate()
            .map(|(t, pt)| (pt.out, t))
            .collect();

        let mut tstate: Vec<TState> = vec![TState::Pending; plan.tasks.len()];
        let mut attempts: Vec<u32> = vec![1; plan.tasks.len()];
        let mut not_before: Vec<Option<Instant>> = vec![None; plan.tasks.len()];
        let mut failed_attempts: Vec<Vec<AttemptRecord>> = vec![Vec::new(); plan.tasks.len()];
        let mut records: Vec<Option<TaskRecord>> = (0..plan.tasks.len()).map(|_| None).collect();
        let mut stats = DistStats::default();
        let mut completions: usize = 0;

        self.wait_for_join(&mut stats)?;

        let grace = self.cfg.grace();
        let mut outputs: BTreeMap<u64, Arc<WireValue>> = BTreeMap::new();

        loop {
            // 1. Handle every queued event.
            loop {
                match self.rx.try_recv() {
                    Ok(ev) => self.handle_event(
                        ev,
                        plan,
                        registry,
                        &producer,
                        &mut data,
                        &mut tstate,
                        &mut attempts,
                        &mut not_before,
                        &mut failed_attempts,
                        &mut records,
                        &mut stats,
                        &mut completions,
                        grace,
                    )?,
                    Err(std::sync::mpsc::TryRecvError::Empty) => break,
                    Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                        return Err("driver event channel closed".into())
                    }
                }
            }

            // 2. Finished? Fetch outputs (this can discover dead owners,
            // in which case lineage re-opens work).
            if tstate.iter().all(|s| *s == TState::Done) {
                let mut all_fetched = true;
                for &o in plan.outputs() {
                    if outputs.contains_key(&o) {
                        continue;
                    }
                    if let Some(v) = self.driver_store.lock().unwrap().get(&o).cloned() {
                        outputs.insert(o, v);
                        continue;
                    }
                    match self.fetch_from_replica(o, &data) {
                        Some(v) => {
                            outputs.insert(o, Arc::clone(&v));
                            self.driver_store.lock().unwrap().insert(o, v);
                            if let Some(d) = data.get_mut(&o) {
                                d.driver = true;
                            }
                        }
                        None => {
                            all_fetched = false;
                            // Every replica owner failed to answer —
                            // declare them dead and let lineage recompute.
                            let owners: Vec<usize> = data
                                .get(&o)
                                .map(|d| d.replicas.iter().copied().collect())
                                .unwrap_or_default();
                            if owners.is_empty() {
                                // No replicas at all: producer must rerun.
                                self.lineage_rollback(
                                    plan,
                                    &producer,
                                    &mut data,
                                    &mut tstate,
                                    &mut stats,
                                    &outputs,
                                );
                            }
                            for w in owners {
                                self.declare_dead(
                                    w,
                                    plan,
                                    &producer,
                                    &mut data,
                                    &mut tstate,
                                    &mut stats,
                                    &outputs,
                                );
                            }
                        }
                    }
                }
                if all_fetched && tstate.iter().all(|s| *s == TState::Done) {
                    break;
                }
            }

            // 3. Ship ready tasks to idle workers.
            self.schedule(plan, &data, &mut tstate, &attempts, &not_before)?;

            // 4. Block for the next event (bounded by a heartbeat).
            match self
                .rx
                .recv_timeout(Duration::from_millis(self.cfg.heartbeat_ms.max(1)))
            {
                Ok(ev) => self.handle_event(
                    ev,
                    plan,
                    registry,
                    &producer,
                    &mut data,
                    &mut tstate,
                    &mut attempts,
                    &mut not_before,
                    &mut failed_attempts,
                    &mut records,
                    &mut stats,
                    &mut completions,
                    grace,
                )?,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    return Err("driver event channel closed".into())
                }
            }
        }

        stats.wall_s = run_start.elapsed().as_secs_f64();
        stats.relay_bytes = self.relay_bytes.load(Ordering::Relaxed);
        let trace = Trace {
            records: records.into_iter().flatten().collect(),
        };
        Ok(DistReport {
            outputs,
            trace,
            stats,
        })
    }

    /// Blocks until every worker has joined (Hello received).
    fn wait_for_join(&mut self, stats: &mut DistStats) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs_f64(self.cfg.join_timeout_s);
        loop {
            let joined = self
                .slots
                .lock()
                .unwrap()
                .iter()
                .filter(|s| s.joined_at_s.is_some())
                .count();
            if joined == self.cfg.workers {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "only {joined}/{} workers joined within {:.1}s — \
                     does the host binary call dist::maybe_worker first?",
                    self.cfg.workers, self.cfg.join_timeout_s
                ));
            }
            let _ = stats;
            match self.rx.recv_timeout(Duration::from_millis(50)) {
                Ok(_) | Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    return Err("driver event channel closed".into())
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_event(
        &mut self,
        ev: Ev,
        plan: &Plan,
        registry: &KindRegistry,
        producer: &HashMap<u64, usize>,
        data: &mut HashMap<u64, DataState>,
        tstate: &mut [TState],
        attempts: &mut [u32],
        not_before: &mut [Option<Instant>],
        failed_attempts: &mut [Vec<AttemptRecord>],
        records: &mut [Option<TaskRecord>],
        stats: &mut DistStats,
        completions: &mut usize,
        grace: Duration,
    ) -> Result<(), String> {
        match ev {
            Ev::Joined => {}
            Ev::Tick => {
                // Heartbeat-timeout failure detection.
                let now = Instant::now();
                let timed_out: Vec<usize> = {
                    let slots = self.slots.lock().unwrap();
                    slots
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| {
                            s.alive
                                && s.joined_at_s.is_some()
                                && now.duration_since(s.last_seen) > grace
                        })
                        .map(|(i, _)| i)
                        .collect()
                };
                for w in timed_out {
                    self.declare_dead(w, plan, producer, data, tstate, stats, &BTreeMap::new());
                }
            }
            Ev::Eof(w) => {
                let was_alive = self.slots.lock().unwrap()[w].alive;
                if was_alive {
                    self.declare_dead(w, plan, producer, data, tstate, stats, &BTreeMap::new());
                }
            }
            Ev::FromWorker(w, msg) => {
                if !self.slots.lock().unwrap()[w].alive {
                    return Ok(()); // stale message from a declared-dead worker
                }
                match msg {
                    Msg::Done {
                        task,
                        out,
                        bytes,
                        start_rel_s,
                        duration_s,
                        pulled,
                    } => {
                        let t = task as usize;
                        if tstate.get(t).copied() != Some(TState::Running(w)) {
                            return Ok(()); // late duplicate after re-execution
                        }
                        tstate[t] = TState::Done;
                        stats.tasks_run += 1;
                        *completions += 1;
                        let entry = data.entry(out).or_insert(DataState {
                            replicas: BTreeSet::new(),
                            driver: false,
                            bytes,
                        });
                        entry.bytes = bytes;
                        entry.replicas.insert(w);
                        for p in &pulled {
                            if let Some(d) = data.get_mut(p) {
                                d.replicas.insert(w);
                                stats.peer_pulls += 1;
                                stats.peer_pull_bytes += d.bytes;
                            }
                        }
                        let joined_at_s = self.slots.lock().unwrap()[w].joined_at_s.unwrap_or(0.0);
                        let start_s = joined_at_s + start_rel_s;
                        let pt = &plan.tasks[t];
                        let mut attempt_log = failed_attempts[t].clone();
                        if !attempt_log.is_empty() {
                            attempt_log.push(AttemptRecord {
                                start_s,
                                duration_s,
                                error: None,
                            });
                        }
                        records[t] = Some(TaskRecord {
                            id: TaskId(task),
                            name: pt.kind.clone(),
                            deps: {
                                let mut deps: Vec<TaskId> = pt
                                    .inputs
                                    .iter()
                                    .filter_map(|i| producer.get(i).map(|&p| TaskId(p as u64)))
                                    .collect();
                                deps.dedup();
                                deps
                            },
                            duration_s,
                            inputs: pt
                                .inputs
                                .iter()
                                .map(|i| (DataId(*i), data.get(i).map_or(0, |d| d.bytes as usize)))
                                .collect(),
                            outputs: vec![(DataId(out), bytes as usize)],
                            cores: 1,
                            gpus: 0,
                            seq: task,
                            start_s,
                            worker: w as i64,
                            child: None,
                            attempts: attempt_log,
                        });
                        // One TaskEnd slot per task, like the threaded
                        // runtime's hot path: `Journal::snapshot`
                        // synthesizes the TaskStart at `end - n` nanos.
                        let start_at = self.epoch + Duration::from_secs_f64(start_s.max(0.0));
                        self.telemetry.journal().emit_at(
                            w as i64,
                            start_at + Duration::from_secs_f64(duration_s.max(0.0)),
                            EventKind::TaskEnd,
                            Some(task),
                            (duration_s * 1e9) as u64,
                            0,
                        );
                        self.telemetry.run_time.record((duration_s * 1e9) as u64);
                        // Chaos trigger rides completions.
                        if let Some((after, victim)) = self.chaos {
                            if !self.chaos_fired && *completions >= after {
                                self.chaos_fired = true;
                                self.kill_abruptly(victim);
                            }
                        }
                    }
                    Msg::FetchFailed { task, data } => {
                        let t = task as usize;
                        if tstate.get(t).copied() != Some(TState::Running(w)) {
                            return Ok(());
                        }
                        // The worker could not pull an input — its owner
                        // died under the dispatch. Requeue (no attempt
                        // burned); the owner's EOF/heartbeat death and
                        // the lineage rollback it triggers will
                        // re-supply `data`. A one-heartbeat pause stops
                        // a hot requeue loop while that death event is
                        // still in flight.
                        stats.fetch_failures += 1;
                        let _ = data;
                        not_before[t] = Some(
                            Instant::now() + Duration::from_millis(self.cfg.heartbeat_ms.max(1)),
                        );
                        tstate[t] = TState::Pending;
                    }
                    Msg::Failed { task, error } => {
                        let t = task as usize;
                        if tstate.get(t).copied() != Some(TState::Running(w)) {
                            return Ok(());
                        }
                        let kind = registry
                            .get(&plan.tasks[t].kind)
                            .expect("validated at submit");
                        failed_attempts[t].push(AttemptRecord {
                            start_s: 0.0,
                            duration_s: 0.0,
                            error: Some(error.clone()),
                        });
                        let retryable = kind.on_failure == OnFailure::Retry
                            && attempts[t] < kind.retry.max_attempts;
                        if retryable {
                            let backoff = kind.retry.backoff_s(task, attempts[t]);
                            self.telemetry.journal().emit(
                                DRIVER,
                                EventKind::Retry,
                                Some(task),
                                u64::from(attempts[t]),
                                0,
                            );
                            attempts[t] += 1;
                            stats.retries += 1;
                            not_before[t] = Some(Instant::now() + Duration::from_secs_f64(backoff));
                            tstate[t] = TState::Pending;
                        } else {
                            return Err(format!(
                                "task {task} ('{}') failed after {} attempts: {error}",
                                plan.tasks[t].kind, attempts[t]
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Ships every ready task to the best idle worker.
    fn schedule(
        &mut self,
        plan: &Plan,
        data: &HashMap<u64, DataState>,
        tstate: &mut [TState],
        attempts: &[u32],
        not_before: &[Option<Instant>],
    ) -> Result<(), String> {
        let now = Instant::now();
        for t in 0..plan.tasks.len() {
            if tstate[t] != TState::Pending {
                continue;
            }
            if let Some(nb) = not_before[t] {
                if now < nb {
                    continue;
                }
            }
            let pt = &plan.tasks[t];
            let available = pt.inputs.iter().all(|i| {
                data.get(i)
                    .is_some_and(|d| d.driver || !d.replicas.is_empty())
            });
            if !available {
                continue;
            }
            // Idle live workers; prefer the one already holding the
            // most input bytes (the DES's locality-aware placement).
            let busy: BTreeSet<usize> = tstate
                .iter()
                .filter_map(|s| match s {
                    TState::Running(w) => Some(*w),
                    _ => None,
                })
                .collect();
            let chosen = {
                let slots = self.slots.lock().unwrap();
                let mut best: Option<(u64, usize)> = None;
                for (w, slot) in slots.iter().enumerate() {
                    if !slot.alive || busy.contains(&w) {
                        continue;
                    }
                    let local: u64 = pt
                        .inputs
                        .iter()
                        .filter_map(|i| data.get(i))
                        .filter(|d| d.replicas.contains(&w))
                        .map(|d| d.bytes)
                        .sum();
                    if best.is_none_or(|(b, _)| local > b) {
                        best = Some((local, w));
                    }
                }
                best.map(|(_, w)| w)
            };
            let Some(w) = chosen else {
                // No idle live worker; if none are alive at all, fail.
                let any_alive = self.slots.lock().unwrap().iter().any(|s| s.alive);
                if !any_alive {
                    return Err("all workers died; no survivors to re-execute on".into());
                }
                break;
            };
            let inputs: Vec<InputSpec> = pt
                .inputs
                .iter()
                .map(|i| InputSpec {
                    data: *i,
                    owners: data
                        .get(i)
                        .map(|d| {
                            d.replicas
                                .iter()
                                .map(|&o| (o as u32, self.peer_paths[o].display().to_string()))
                                .collect()
                        })
                        .unwrap_or_default(),
                })
                .collect();
            let run = Msg::Run {
                task: t as u64,
                attempt: attempts[t],
                kind: pt.kind.clone(),
                out: pt.out,
                inputs,
            };
            let sent = {
                let mut slots = self.slots.lock().unwrap();
                match &mut slots[w].writer {
                    Some(stream) => proto::send(stream, &run).is_ok(),
                    None => false,
                }
            };
            if sent {
                tstate[t] = TState::Running(w);
            }
            // A failed send means the worker just died; the reader
            // thread's EOF event will declare it, and the task stays
            // Pending for the next pass.
        }
        Ok(())
    }

    /// Pulls a datum from any replica owner (the driver acting as a
    /// peer consumer).
    fn fetch_from_replica(
        &self,
        id: u64,
        data: &HashMap<u64, DataState>,
    ) -> Option<Arc<WireValue>> {
        let owners = data.get(&id)?.replicas.clone();
        for w in owners {
            if let Ok(mut conn) = UnixStream::connect(&self.peer_paths[w]) {
                if proto::send(&mut conn, &Msg::Pull { data: id }).is_ok() {
                    if let Ok(Msg::Data { value, .. }) = proto::recv(&mut conn) {
                        return Some(Arc::new(value));
                    }
                }
            }
        }
        None
    }

    /// Marks a worker dead: requeues its in-flight work and re-executes
    /// the lineage of any needed data that lost its last replica.
    #[allow(clippy::too_many_arguments)]
    fn declare_dead(
        &mut self,
        w: usize,
        plan: &Plan,
        producer: &HashMap<u64, usize>,
        data: &mut HashMap<u64, DataState>,
        tstate: &mut [TState],
        stats: &mut DistStats,
        fetched: &BTreeMap<u64, Arc<WireValue>>,
    ) {
        {
            let mut slots = self.slots.lock().unwrap();
            if !slots[w].alive {
                return;
            }
            slots[w].alive = false;
            // Sever our half so the worker (if actually alive) notices.
            if let Some(stream) = slots[w].writer.take() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        stats.workers_lost += 1;
        // Reap a process worker right away (SIGKILL is idempotent).
        if let Some(WorkerHandle::Process(child)) = self.handles[w].as_mut() {
            let _ = child.kill();
            let _ = child.wait();
            self.handles[w] = None;
        }
        for d in data.values_mut() {
            d.replicas.remove(&w);
        }
        for s in tstate.iter_mut() {
            if *s == TState::Running(w) {
                *s = TState::Pending;
                stats.lost_tasks += 1;
            }
        }
        let _ = producer;
        self.lineage_rollback(plan, producer, data, tstate, stats, fetched);
    }

    /// Re-opens completed tasks whose outputs are gone but still
    /// needed — the real-world mirror of the DES's lineage rollback.
    fn lineage_rollback(
        &mut self,
        plan: &Plan,
        producer: &HashMap<u64, usize>,
        data: &mut HashMap<u64, DataState>,
        tstate: &mut [TState],
        stats: &mut DistStats,
        fetched: &BTreeMap<u64, Arc<WireValue>>,
    ) {
        let _ = producer;
        loop {
            let mut changed = false;
            for t in 0..plan.tasks.len() {
                if tstate[t] != TState::Done {
                    continue;
                }
                let out = plan.tasks[t].out;
                let lost = data
                    .get(&out)
                    .is_none_or(|d| !d.driver && d.replicas.is_empty());
                if !lost {
                    continue;
                }
                let needed_as_output = plan.outputs().contains(&out) && !fetched.contains_key(&out);
                let needed_as_input = plan
                    .tasks
                    .iter()
                    .enumerate()
                    .any(|(c, pt)| tstate[c] != TState::Done && pt.inputs.contains(&out));
                if needed_as_output || needed_as_input {
                    tstate[t] = TState::Pending;
                    stats.reexecutions += 1;
                    self.telemetry.journal().emit(
                        DRIVER,
                        EventKind::Retry,
                        Some(t as u64),
                        0,
                        1, // aux=1: lineage re-execution, not a body retry
                    );
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Kills a worker without ceremony: SIGKILL for a process, a
    /// severed control stream for a thread.
    fn kill_abruptly(&mut self, w: usize) {
        match self.handles[w].as_mut() {
            Some(WorkerHandle::Process(child)) => {
                let _ = child.kill();
                // The reader thread's EOF drives declare_dead; reaping
                // happens there (kill is idempotent).
            }
            _ => {
                let mut slots = self.slots.lock().unwrap();
                if let Some(stream) = slots[w].writer.take() {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
            }
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
        // Ask politely.
        {
            let mut slots = self.slots.lock().unwrap();
            for slot in slots.iter_mut() {
                if let Some(stream) = slot.writer.as_mut() {
                    let _ = proto::send(stream, &Msg::Shutdown);
                }
                slot.alive = false;
            }
        }
        let mut reaped = 0usize;
        let mut force_killed = 0usize;
        for h in self.handles.iter_mut() {
            match h.take() {
                Some(WorkerHandle::Process(mut child)) => {
                    let deadline = Instant::now() + Duration::from_secs(2);
                    loop {
                        match child.try_wait() {
                            Ok(Some(_)) => break,
                            Ok(None) if Instant::now() > deadline => {
                                let _ = child.kill();
                                let _ = child.wait();
                                force_killed += 1;
                                break;
                            }
                            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                            Err(_) => break,
                        }
                    }
                    reaped += 1;
                }
                Some(WorkerHandle::Thread(t)) => {
                    let _ = t.join();
                    reaped += 1;
                }
                None => reaped += 1, // already reaped at death time
            }
        }
        // Stop our own service threads: the ticker wakes on its period;
        // the accept loop needs one last connection to notice the flag.
        self.stop.store(true, Ordering::Relaxed);
        let _ = UnixStream::connect(&self.driver_sock);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.ticker_thread.take() {
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

/// Driver listener loop: control Hellos and one-shot relay requests.
fn accept_loop(
    listener: UnixListener,
    slots: Arc<Mutex<Vec<Slot>>>,
    store: Arc<Mutex<HashMap<u64, Arc<WireValue>>>>,
    relay_bytes: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    tx: Sender<Ev>,
    epoch: Instant,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(mut conn) = conn else { break };
        match proto::recv(&mut conn) {
            Ok(Msg::Hello { worker }) => {
                let w = worker as usize;
                let now = Instant::now();
                {
                    let mut slots = slots.lock().unwrap();
                    if w >= slots.len() {
                        continue;
                    }
                    let writer = match conn.try_clone() {
                        Ok(c) => c,
                        Err(_) => continue,
                    };
                    slots[w].writer = Some(writer);
                    slots[w].last_seen = now;
                    slots[w].joined_at_s = Some(now.duration_since(epoch).as_secs_f64());
                    slots[w].alive = true;
                }
                let _ = tx.send(Ev::Joined);
                let slots = Arc::clone(&slots);
                let tx = tx.clone();
                std::thread::spawn(move || loop {
                    match proto::recv(&mut conn) {
                        Ok(Msg::Heartbeat { .. }) => {
                            slots.lock().unwrap()[w].last_seen = Instant::now();
                        }
                        Ok(msg) => {
                            slots.lock().unwrap()[w].last_seen = Instant::now();
                            if tx.send(Ev::FromWorker(w, msg)).is_err() {
                                break;
                            }
                        }
                        Err(_) => {
                            let _ = tx.send(Ev::Eof(w));
                            break;
                        }
                    }
                });
            }
            Ok(Msg::Need { data, .. }) => {
                let store = Arc::clone(&store);
                let relay_bytes = Arc::clone(&relay_bytes);
                std::thread::spawn(move || {
                    let held = store.lock().unwrap().get(&data).cloned();
                    let reply = match held {
                        Some(value) => {
                            relay_bytes.fetch_add(value.encoded_len() as u64, Ordering::Relaxed);
                            Msg::Data {
                                data,
                                value: value.as_ref().clone(),
                            }
                        }
                        None => Msg::NotFound { data },
                    };
                    let _ = proto::send(&mut conn, &reply);
                });
            }
            _ => {} // shutdown wake-up connection, or garbage
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::plan::fingerprint;
    use crate::fault::RetryPolicy;

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
        assert_eq!(report.trace.records.len(), 3);
        assert!(report.trace.records.iter().all(|r| r.worker >= 0));

        let shutdown = rt.shutdown();
        assert_eq!(shutdown.workers_reaped, 2);
        assert_eq!(shutdown.workers_force_killed, 0);
        assert!(shutdown.sock_dir_removed, "socket dir leaked");
        assert!(!dir.exists());
    }

    #[test]
    fn retry_policy_recovers_flaky_kind() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let mut reg = KindRegistry::new();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        reg.register_with(
            "flaky_once",
            OnFailure::Retry,
            RetryPolicy {
                backoff_base_s: 0.01,
                ..RetryPolicy::new(3)
            },
            move |_| {
                if h.fetch_add(1, Ordering::SeqCst) == 0 {
                    Err("first attempt always fails".into())
                } else {
                    Ok(WireValue::U64(7))
                }
            },
        );
        let reg = Arc::new(reg);
        let mut p = Plan::new();
        let out = p.task("flaky_once", &[]);
        p.mark_output(out);
        let mut rt = DistRuntime::launch_threads(DistConfig::with_workers(1), &reg).unwrap();
        let report = rt.run(&p, &reg).unwrap();
        assert_eq!(report.outputs[&out].as_u64(), 7);
        assert_eq!(report.stats.retries, 1);
        let events = rt.journal_events();
        assert!(
            events.iter().any(|e| e.kind == EventKind::Retry),
            "retry not journaled"
        );
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
