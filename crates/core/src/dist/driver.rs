//! Driver-process side of the distributed executor.
//!
//! The driver owns the plan, the replica map (`data id → which workers
//! hold it`), and the failure detector. It ships [`Msg::Run`] frames
//! naming registered kinds; payloads move worker-to-worker (the `Run`
//! carries replica owner addresses, consumers pull) with the driver
//! relaying only its own seeds.
//!
//! **Placement is owner-computes** ([`place`]): a ready task belongs to
//! the live worker that already holds the most bytes of its inputs and
//! waits for that worker if it is busy, so a block stays where it was
//! first touched and is pulled at most when an idle worker steals it.
//! The rule is a pure function of the task states and the replica map,
//! recomputed on every pass — there is no queue to repair when a worker
//! dies. One `Run` is in flight per worker.
//!
//! Heartbeat loss or a control-stream EOF declares a worker dead, which
//! feeds the same recovery vocabulary the DES models: in-flight tasks
//! are requeued, and completed tasks whose only output replica died are
//! **re-executed from lineage** on the survivors — exactly the rollback
//! `crate::sim` performs for a simulated node failure, so measured and
//! simulated recovery stay comparable. The run loop wakes at least once
//! per heartbeat period and checks for silence itself; nothing in the
//! driver sleeps for a fixed time, so teardown costs what the workers'
//! exit costs.

use super::kind::KindRegistry;
use super::plan::Plan;
use super::proto::{self, InputSpec, Msg};
use super::wire::WireValue;
use super::worker::{self, WorkerOpts};
use crate::fault::OnFailure;
use crate::handle::{DataId, TaskId};
use crate::sim::ClusterSpec;
use crate::trace::{AttemptRecord, TaskRecord, Trace};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError};
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
    /// Input resolutions served worker-to-worker. A datum the driver
    /// relayed is not counted here.
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

/// Owner-computes placement: which ready tasks to ship now, and where.
///
/// `ready` lists the dispatchable tasks in plan order, each with the
/// bytes of its inputs every worker already holds; `in_flight[w]` is
/// the number of `Run`s worker `w` has not answered; `alive[w]` says
/// whether it may be chosen at all. Pure and deterministic — equal
/// inputs give equal output, and nothing is remembered between calls.
///
/// 1. A task joins the backlog of the live worker holding the most
///    bytes of its inputs, **busy or not**; ties go to the shorter
///    backlog, then the lower id. Waiting for the owner is cheaper than
///    moving a block to whoever happens to be idle.
/// 2. Tasks nobody holds a byte of (first touches of driver-held seeds)
///    are dealt over the live workers in *contiguous runs* of plan
///    order, so the neighbours a pairwise reduction combines first are
///    born on the same worker.
/// 3. A worker with nothing in flight takes the head of its backlog.
///    One whose backlog is empty takes the *last* waiting task of the
///    longest backlog — the one its owner would have reached last.
///
/// Returns `(task, worker)` pairs, at most one per idle worker.
fn place(ready: &[(usize, Vec<u64>)], in_flight: &[usize], alive: &[bool]) -> Vec<(usize, usize)> {
    let live: Vec<usize> = (0..alive.len()).filter(|&w| alive[w]).collect();
    if live.is_empty() {
        return Vec::new();
    }
    let mut backlog: Vec<Vec<usize>> = vec![Vec::new(); alive.len()];
    let mut unowned = Vec::new();
    for (task, held) in ready {
        let owner = live
            .iter()
            .copied()
            .filter(|&w| held[w] > 0)
            .min_by_key(|&w| (Reverse(held[w]), in_flight[w] + backlog[w].len(), w));
        match owner {
            Some(w) => backlog[w].push(*task),
            None => unowned.push(*task),
        }
    }
    for (j, &w) in live.iter().enumerate() {
        let run = j * unowned.len() / live.len()..(j + 1) * unowned.len() / live.len();
        backlog[w].extend_from_slice(&unowned[run]);
        backlog[w].sort_unstable(); // back to plan order
    }
    let mut shipped = Vec::new();
    let mut starved = Vec::new();
    for &w in live.iter().filter(|&&w| in_flight[w] == 0) {
        if backlog[w].is_empty() {
            starved.push(w);
        } else {
            shipped.push((backlog[w].remove(0), w));
        }
    }
    for w in starved {
        let victim = live
            .iter()
            .copied()
            .min_by_key(|&v| (Reverse(backlog[v].len()), v))
            .expect("live is non-empty");
        if let Some(task) = backlog[victim].pop() {
            shipped.push((task, w));
        }
    }
    shipped
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
        // Bounded: a worker has at most one `Joined`, one reply to its one
        // `Run` in flight, and one `Eof` outstanding. A full channel
        // blocks that worker's reader thread, never the run loop.
        let (tx, rx) = std::sync::mpsc::sync_channel::<Ev>(4 * cfg.workers);

        let accept_thread = {
            let stop = Arc::clone(&stop);
            let conns = ConnCtx {
                slots: Arc::clone(&slots),
                store: Arc::clone(&driver_store),
                relay_bytes: Arc::clone(&relay_bytes),
                tx,
                epoch,
            };
            std::thread::spawn(move || accept_loop(listener, stop, conns))
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

        // Whatever arrived while the workers were joining is handled
        // first, like any other event.
        let mut inbox = self.wait_for_join()?;

        let grace = self.cfg.grace();
        let period = Duration::from_millis(self.cfg.heartbeat_ms.max(1));
        let mut silence_check_due = Instant::now() + period;
        let mut outputs: BTreeMap<u64, Arc<WireValue>> = BTreeMap::new();

        loop {
            // 1. Handle every event read so far, then every queued one.
            loop {
                let ev = match inbox.pop_front() {
                    Some(ev) => ev,
                    None => match self.rx.try_recv() {
                        Ok(ev) => ev,
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            return Err("driver event channel closed".into())
                        }
                    },
                };
                self.handle_event(
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
                )?;
            }

            // 2. Heartbeat-timeout failure detection, once per period
            // (step 5 wakes this loop at least that often).
            let now = Instant::now();
            if now >= silence_check_due {
                silence_check_due = now + period;
                let silent: Vec<usize> = {
                    let slots = self.slots.lock().unwrap();
                    (0..slots.len())
                        .filter(|&w| {
                            slots[w].alive && now.duration_since(slots[w].last_seen) > grace
                        })
                        .collect()
                };
                for w in silent {
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

            // 3. Finished? Fetch outputs (this can discover dead owners,
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

            // 4. Ship ready tasks to the workers `place` names.
            self.schedule(plan, &data, &mut tstate, &attempts, &not_before)?;

            // 5. Block for the next event (bounded by a heartbeat).
            match self.rx.recv_timeout(period) {
                Ok(ev) => inbox.push_back(ev),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
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

    /// Blocks until every worker has joined (Hello received). Returns
    /// every other event read meanwhile — an `Eof` from a worker that
    /// crashed right after its `Hello` must reach the run loop, or that
    /// worker stays "alive" until its heartbeat grace runs out.
    fn wait_for_join(&mut self) -> Result<VecDeque<Ev>, String> {
        let deadline = Instant::now() + Duration::from_secs_f64(self.cfg.join_timeout_s);
        let mut early = VecDeque::new();
        loop {
            let joined = self
                .slots
                .lock()
                .unwrap()
                .iter()
                .filter(|s| s.joined_at_s.is_some())
                .count();
            if joined == self.cfg.workers {
                return Ok(early);
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "only {joined}/{} workers joined within {:.1}s — \
                     does the host binary call dist::maybe_worker first?",
                    self.cfg.workers, self.cfg.join_timeout_s
                ));
            }
            match self.rx.recv_timeout(Duration::from_millis(50)) {
                Ok(Ev::Joined) | Err(RecvTimeoutError::Timeout) => {}
                Ok(ev) => early.push_back(ev),
                Err(RecvTimeoutError::Disconnected) => {
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
    ) -> Result<(), String> {
        match ev {
            Ev::Joined => {}
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
                        relayed,
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
                        // Relayed bytes were counted once, where the
                        // driver served them (`relay_bytes`).
                        for p in &relayed {
                            if let Some(d) = data.get_mut(p) {
                                d.replicas.insert(w);
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
                            ready_s: 0.0,
                            start_s,
                            worker: w as i64,
                            child: None,
                            attempts: attempt_log,
                        });
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
                        // `Failed` carries no timing: stamp the attempt
                        // when the frame arrives (see `AttemptRecord`).
                        failed_attempts[t].push(AttemptRecord {
                            start_s: self.epoch.elapsed().as_secs_f64(),
                            duration_s: 0.0,
                            error: Some(error.clone()),
                        });
                        let retryable = kind.on_failure == OnFailure::Retry
                            && attempts[t] < kind.retry.max_attempts;
                        if retryable {
                            let backoff = kind.retry.backoff_s(task, attempts[t]);
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

    /// Ships the ready tasks [`place`] assigns to workers with nothing
    /// in flight. Everything `place` sees is rebuilt here from `tstate`
    /// and the replica map, so a death or a rollback between two passes
    /// needs no bookkeeping.
    fn schedule(
        &mut self,
        plan: &Plan,
        data: &HashMap<u64, DataState>,
        tstate: &mut [TState],
        attempts: &[u32],
        not_before: &[Option<Instant>],
    ) -> Result<(), String> {
        let alive: Vec<bool> = {
            let slots = self.slots.lock().unwrap();
            slots.iter().map(|s| s.alive).collect()
        };
        let mut in_flight = vec![0usize; alive.len()];
        for s in tstate.iter() {
            if let TState::Running(w) = s {
                in_flight[*w] += 1;
            }
        }
        let any_alive = alive.contains(&true);
        if any_alive && (0..alive.len()).all(|w| !alive[w] || in_flight[w] > 0) {
            return Ok(()); // every live worker is busy: nothing can ship
        }
        let now = Instant::now();
        let ready: Vec<(usize, Vec<u64>)> = (0..plan.tasks.len())
            .filter(|&t| {
                tstate[t] == TState::Pending
                    && not_before[t].is_none_or(|nb| now >= nb)
                    && plan.tasks[t].inputs.iter().all(|i| {
                        data.get(i)
                            .is_some_and(|d| d.driver || !d.replicas.is_empty())
                    })
            })
            .map(|t| {
                let mut held = vec![0u64; alive.len()];
                for d in plan.tasks[t].inputs.iter().filter_map(|i| data.get(i)) {
                    for &w in &d.replicas {
                        held[w] += d.bytes;
                    }
                }
                (t, held)
            })
            .collect();
        if !ready.is_empty() && !any_alive {
            return Err("all workers died; no survivors to re-execute on".into());
        }
        for (t, w) in place(&ready, &in_flight, &alive) {
            let pt = &plan.tasks[t];
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
                        return Some(value);
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
        // A worker's exit closes its control stream and its reader
        // thread reports `Eof`: wait for those, not on a poll of
        // `try_wait`. Only process workers are waited for this way;
        // a thread worker is joined below.
        let mut exiting: BTreeSet<usize> = (0..spawned)
            .filter(|&w| matches!(self.handles[w], Some(WorkerHandle::Process(_))))
            .collect();
        let deadline = Instant::now() + Duration::from_secs(2);
        while !exiting.is_empty() {
            match self
                .rx
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                Ok(Ev::Eof(w)) => {
                    exiting.remove(&w);
                }
                Ok(_) => {}
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
    slots: Arc<Mutex<Vec<Slot>>>,
    store: Arc<Mutex<HashMap<u64, Arc<WireValue>>>>,
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
/// then its replies until EOF) or a one-shot relay request (`Need`).
fn serve_connection(mut conn: UnixStream, ctx: ConnCtx) {
    match proto::recv(&mut conn) {
        Ok(Msg::Hello { worker }) => {
            let w = worker as usize;
            let now = Instant::now();
            {
                let mut slots = ctx.slots.lock().unwrap();
                if w >= slots.len() {
                    return;
                }
                let Ok(writer) = conn.try_clone() else { return };
                slots[w].writer = Some(writer);
                slots[w].last_seen = now;
                slots[w].joined_at_s = Some(now.duration_since(ctx.epoch).as_secs_f64());
                slots[w].alive = true;
            }
            let _ = ctx.tx.send(Ev::Joined);
            loop {
                match proto::recv(&mut conn) {
                    Ok(Msg::Heartbeat { .. }) => {
                        ctx.slots.lock().unwrap()[w].last_seen = Instant::now();
                    }
                    Ok(msg) => {
                        ctx.slots.lock().unwrap()[w].last_seen = Instant::now();
                        if ctx.tx.send(Ev::FromWorker(w, msg)).is_err() {
                            break;
                        }
                    }
                    Err(_) => {
                        let _ = ctx.tx.send(Ev::Eof(w));
                        break;
                    }
                }
            }
        }
        Ok(Msg::Need { data, .. }) => {
            let held = ctx.store.lock().unwrap().get(&data).cloned();
            let reply = match held {
                Some(value) => {
                    ctx.relay_bytes
                        .fetch_add(value.encoded_len() as u64, Ordering::Relaxed);
                    Msg::Data { data, value }
                }
                None => Msg::NotFound { data },
            };
            let _ = proto::send(&mut conn, &reply);
        }
        _ => {} // shutdown wake-up connection, or garbage
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

    /// Runs `place` in lock-step rounds — every live worker finishes
    /// its task before the next round — and returns who ran what.
    fn drain(mut ready: Vec<(usize, Vec<u64>)>, alive: &[bool]) -> Vec<Vec<usize>> {
        let mut ran = vec![Vec::new(); alive.len()];
        while !ready.is_empty() {
            let shipped = place(&ready, &vec![0; alive.len()], alive);
            assert!(!shipped.is_empty(), "ready work but nothing shipped");
            for (t, w) in shipped {
                ran[w].push(t);
                ready.retain(|(r, _)| *r != t);
            }
        }
        ran
    }

    #[test]
    fn place_gives_a_task_to_its_owner_even_when_busy() {
        // Worker 0 holds task 5's input and is busy; worker 1 is idle
        // and has work of its own. Task 5 waits for its owner.
        let ready = vec![(5, vec![100, 0]), (6, vec![0, 50])];
        assert_eq!(place(&ready, &[1, 0], &[true, true]), vec![(6, 1)]);
        // Most bytes wins; a tie goes to the shorter backlog.
        let ready = vec![(0, vec![5, 0]), (1, vec![5, 5]), (2, vec![1, 9])];
        assert_eq!(
            place(&ready, &[0, 0], &[true, true]),
            vec![(0, 0), (1, 1)],
            "task 1 ties on bytes and joins worker 1's empty backlog"
        );
    }

    #[test]
    fn place_deals_unowned_tasks_in_contiguous_runs_over_live_workers() {
        let unowned = |n: usize| (0..n).map(|t| (t, vec![0, 0, 0])).collect::<Vec<_>>();
        let alive = [true, false, true];
        assert_eq!(place(&unowned(6), &[0, 0, 0], &alive), vec![(0, 0), (3, 2)]);
        assert_eq!(
            drain(unowned(6), &alive),
            vec![vec![0, 1, 2], vec![], vec![3, 4, 5]]
        );
        assert_eq!(
            drain(unowned(8), &[true, true, true]),
            vec![vec![0, 1], vec![2, 3, 4], vec![5, 6, 7]]
        );
    }

    #[test]
    fn place_lets_an_idle_worker_steal_only_the_tail_of_the_longest_backlog() {
        let ready = vec![
            (1, vec![9, 0, 0]),
            (2, vec![9, 0, 0]),
            (3, vec![9, 0, 0]),
            (4, vec![0, 9, 0]),
        ];
        // Workers 0 and 1 are busy; worker 2 holds nothing.
        assert_eq!(place(&ready, &[1, 1, 0], &[true; 3]), vec![(3, 2)]);
        // With work of its own it steals nothing.
        let mut own = ready.clone();
        own.push((7, vec![0, 0, 9]));
        assert_eq!(place(&own, &[1, 1, 0], &[true; 3]), vec![(7, 2)]);
        // Nobody idle: nothing ships.
        assert_eq!(place(&ready, &[1, 1, 1], &[true; 3]), vec![]);
    }

    #[test]
    fn place_never_chooses_a_dead_worker_and_is_deterministic() {
        // The only holder is dead: the task is dealt like an unowned one.
        let ready = vec![(0, vec![0, 77]), (1, vec![0, 77])];
        let alive = [true, false];
        assert_eq!(place(&ready, &[0, 0], &alive), vec![(0, 0)]);
        assert_eq!(drain(ready.clone(), &alive), vec![vec![0, 1], vec![]]);
        assert_eq!(place(&ready, &[0, 0], &[false, false]), vec![]);
        // Equal holdings and backlogs: the lower id, every time.
        let tie = vec![(0, vec![5, 5])];
        for _ in 0..3 {
            assert_eq!(place(&tie, &[0, 0], &[true, true]), vec![(0, 0)]);
        }
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
        assert!(rt.wait_for_join().unwrap().is_empty());
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
        // Hello. Its Eof must survive `wait_for_join`, or worker 0 stays
        // "alive" for the whole 20 s grace.
        let reg = arith_registry();
        let (plan, top) = diamond_plan();
        let cfg = DistConfig {
            heartbeat_ms: 2000,
            ..DistConfig::with_workers(2)
        };
        let mut rt = DistRuntime::launch_threads(cfg, &reg).unwrap();
        assert!(rt.wait_for_join().unwrap().is_empty());
        // Re-open worker 1's join, cut worker 0, and let worker 1
        // "arrive" once the driver has had time to read the Eof.
        let joined_at = rt.slots.lock().unwrap()[1].joined_at_s.take();
        rt.kill_abruptly(0);
        let slots = Arc::clone(&rt.slots);
        let late_join = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            slots.lock().unwrap()[1].joined_at_s = joined_at;
        });
        let t0 = Instant::now();
        let report = rt.run(&plan, &reg).unwrap();
        late_join.join().unwrap();
        assert_eq!(report.outputs[&top].as_f64(), 30.0);
        assert_eq!(report.stats.workers_lost, 1, "the Eof was dropped");
        assert!(t0.elapsed() < Duration::from_secs(5));
        rt.shutdown();
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
        // The failed attempt is stamped on arrival of its `Failed`
        // frame: after the epoch, no later than the retry's start, and
        // the derived `retry` event sits between the two.
        let attempts = &report.trace.records[0].attempts;
        assert_eq!(attempts.len(), 2);
        let (failed, ok) = (&attempts[0], &attempts[1]);
        assert!(failed.error.is_some() && ok.error.is_none());
        assert!(failed.start_s > 0.0, "failed attempt stamped at t = 0");
        assert!(failed.start_s <= ok.start_s);
        let events = report.trace.events();
        let retries: Vec<_> = events
            .iter()
            .filter(|e| e.kind == crate::telemetry::EventKind::Retry)
            .collect();
        assert_eq!(retries.len(), 1, "one derived retry event");
        assert!(failed.start_s <= retries[0].t_s && retries[0].t_s <= ok.start_s);
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
