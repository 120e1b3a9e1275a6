//! The task runtime: submission, automatic dependency detection,
//! execution, and synchronization.
//!
//! This is the PyCOMPSs-equivalent programming model (paper §II-A):
//!
//! * A driver program calls [`Runtime::task`] to submit work, passing
//!   [`Handle`]s of previously produced data. The runtime wires data
//!   dependencies automatically from the *last writer* of each input —
//!   exactly how the COMPSs runtime "detects the dependencies between
//!   tasks based on their input and output arguments".
//! * [`Runtime::wait`] is `compss_wait_on`: it blocks the driver until a
//!   value is available and — crucially for the paper's Fig. 9 vs Fig. 10
//!   comparison — records a **sync marker** that every later-submitted
//!   task implicitly depends on, because a blocked driver cannot have
//!   submitted them earlier.
//! * Tasks may be **nested** ([`TaskBuilder::run_nested1`]): the task body
//!   receives its own child [`Runtime`], whose trace is recorded inside
//!   the parent task's [`TaskRecord`](crate::TaskRecord). This is the
//!   PyCOMPSs "nesting" feature the paper uses to parallelize CNN folds.
//!
//! One dispatch path serves both execution modes and produces the same
//! [`Trace`]: every ready task goes onto one ready queue, and the only
//! difference is who pops it.
//!
//! * [`ExecMode::Inline`] is the scheduler with no workers: the driver
//!   runs each ready task itself before `run*` returns (deterministic;
//!   durations still measured).
//! * [`ExecMode::Threads`] runs tasks on a worker pool with true
//!   parallelism.
//!
//! ## Scheduler internals
//!
//! The runtime targets *fine-grained* graphs (tens of thousands of
//! sub-millisecond tasks) where per-task overhead dominates:
//!
//! * **Dense tables.** [`TaskId`]s and [`DataId`]s are handed out
//!   sequentially, so every per-task and per-datum lookup is a shift,
//!   a mask and two indexed loads into one paged table
//!   ([`crate::arena::Store`]) — no hashing anywhere on the hot path.
//!   Each task is one fixed-size row that owns no heap object; its
//!   inputs and dependents live in flat push-only stores beside it, and
//!   its [`TaskRecord`](crate::TaskRecord) is built only when
//!   [`Runtime::trace`] asks (see the `tables` module). A task's id
//!   doubles as its record index. Nothing is ever removed, so
//!   [`Runtime::trace`] and [`Runtime::finish`] are complete by
//!   construction.
//! * **Release-time resolution.** A task that becomes ready is turned
//!   into a self-contained `ReadyRun` (job closure + cloned input
//!   `Arc`s) under whichever lock released it, so executing it later
//!   needs the shared state exactly once — at commit.
//! * **One queue monitor.** Every ready task that is not a continuation
//!   waits in one FIFO, and that FIFO, the workers asleep on it, their
//!   wake tokens and the shutdown flag sit behind one lock. A submitter
//!   pushes a ready root straight in while it still holds the state
//!   lock; workers and a helping driver pop the front, and a runtime
//!   with no workers drains it on the submitting thread. A worker's last
//!   emptiness check and its condvar wait are one critical section of
//!   that lock, so no push can slip between them. Lock order is
//!   `state → queue`, one-way.
//! * **Cooperative wait.** A driver blocked in `wait`/`barrier` does
//!   not just sleep: it drains the ready queue and executes tasks
//!   itself, only parking on the condvar after a dry pass.
//! * **Batched release + continuation.** Completing a task releases all
//!   newly-ready dependents in a single pass under the lock. The
//!   executor keeps one as its continuation (no queue round-trip) and
//!   pushes the rest to the back of the queue. Every push wakes at most
//!   one sleeping worker per task via a token-counted `notify_one`
//!   scheme — never a thundering-herd `notify_all`. Driver wakeups are
//!   likewise skipped entirely unless a `wait`/`barrier` is actually
//!   blocked.
//! * **Clean shutdown.** Dropping the last [`Runtime`] clone signals
//!   shutdown and joins every worker; no threads outlive the runtime
//!   (observable via [`live_worker_threads`]).

use crate::arena::Store;
use crate::fault::{give_up_message, inject, FaultPlan, RetryPolicy};
use crate::handle::{DataId, Handle, TaskId};
use crate::obs::RuntimeStats;
use crate::payload::Payload;
use crate::tables::{
    AnyArc, DataEntry, Kinds, PendingJob, Row, Slot, Status, Tables, TaskFn, BARRIER_KIND, DRIVER,
    SYNC_KIND,
};
use crate::trace::{AttemptRecord, Trace, SPLIT_TASK};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poison-tolerant lock: a panicking task body never leaves the
/// scheduler unusable (task panics are caught, but driver-side panics
/// from failure propagation would otherwise poison std mutexes).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Number of scheduler worker threads currently alive process-wide.
/// Returns to its previous value once every threaded [`Runtime`] has
/// been dropped — the drop joins its workers.
pub fn live_worker_threads() -> usize {
    LIVE_WORKERS.load(Ordering::SeqCst)
}

static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

struct WorkerGuard;

impl WorkerGuard {
    fn new() -> Self {
        LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
        WorkerGuard
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// How tasks are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// No worker threads: the submitting driver runs each ready task
    /// from the one ready queue before `run*` returns. Deterministic;
    /// durations are still measured, so traces are fully usable by the
    /// simulator.
    Inline,
    /// Execute tasks on a pool of this many worker threads.
    Threads(usize),
}

/// Runtime construction options.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Execution mode for tasks submitted to this runtime.
    pub mode: ExecMode,
    /// No effect. Statistics are always on: [`Runtime::stats`] derives
    /// its per-task fields from the task rows and reads the scheduler's
    /// few internal counts beside the locks their sites already hold.
    /// Kept only because the frozen benchmark constructs it; removal
    /// waits for the next change to the benchmark.
    pub metrics: bool,
    /// No effect, like `metrics`, and kept for the same reason.
    pub telemetry: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            mode: ExecMode::Inline,
            metrics: true,
            telemetry: true,
        }
    }
}

/// Context handed to every task body; grants access to nesting.
pub struct TaskCtx {
    /// INOUT parameters this attempt took by move and by clone (see
    /// [`take_arg`]); the executor adds them to the runtime's counts
    /// at commit.
    inout: Cell<(u64, u64)>,
    child: Mutex<Option<Runtime>>,
}

impl TaskCtx {
    /// Creates the inline child runtime for a nested task. The child's
    /// trace is attached to the parent task's record when the body
    /// returns, and the DES schedules it on the parent's grant.
    ///
    /// Calling this more than once replaces the recorded child trace;
    /// nest one runtime per task.
    fn nested_runtime(&self) -> Runtime {
        let rt = Runtime::new();
        *lock(&self.child) = Some(rt.clone());
        rt
    }

    /// Records which path an INOUT parameter resolution took.
    fn count_inout(&self, moved: bool) {
        let (m, c) = self.inout.get();
        self.inout.set(if moved { (m + 1, c) } else { (m, c + 1) });
    }
}

/// A task made fully self-contained at *release* time: the body plus
/// its already-resolved inputs. Built by [`make_run`] under whichever
/// state lock released the task (submission or a predecessor's
/// completion) — so executing it needs no state lock at all before the
/// commit, two acquisitions per task instead of three. This is what
/// flows through the ready queue.
struct ReadyRun {
    id: TaskId,
    f: TaskFn,
    inputs: Vec<AnyArc>,
    /// When the task became visible to workers — the origin of its
    /// queue wait, kept on its row as `ready_s`. Stamped at the push
    /// for a root, or at the releasing predecessor's completion; `None`
    /// for a root on a runtime with no workers, whose submitting driver
    /// runs it at once.
    ready_at: Option<Instant>,
    /// Failure policy carried from submission to the executor.
    policy: RetryPolicy,
}

/// Extracts the body of ready task `tid` and resolves its inputs (all
/// producers are done by the release invariant). Caller holds the
/// state lock; `ready_at` is the release timestamp, taken by the caller
/// *outside* the lock (one clock read covers every task released in the
/// same batch) so instrumentation never lengthens the serialized
/// critical section.
fn make_run(st: &mut State, tid: TaskId, ready_at: Option<Instant>) -> ReadyRun {
    let Tables {
        data, rows, inputs, ..
    } = &mut st.tables;
    let row = &mut rows[tid.0 as usize];
    let job = row.job.take().expect("ready task has a job");
    let policy = row.policy();
    // A retryable task must keep its inputs pristine across attempts:
    // a stolen buffer mutated by a half-finished failed attempt cannot
    // be replayed, so steals are disabled and the body falls back to
    // the (result-identical) clone path.
    let consume_mask = if policy.retryable() {
        0
    } else {
        job.consume_mask
    };
    let range = Tables::input_range(row);
    // This task stops being a *pending* reader of its inputs here —
    // before the steal checks below, so its own registration never
    // blocks its own steal.
    for j in range.clone() {
        let (d, _) = inputs[j];
        data[d.0 as usize].pending_reads -= 1;
    }
    let mut resolved = Vec::with_capacity(range.len());
    for (i, j) in range.enumerate() {
        let d = inputs[j].0;
        let entry = &mut data[d.0 as usize];
        let consume = i < 64 && consume_mask >> i & 1 == 1;
        // INOUT dispatch: hand the store's own reference to the task
        // when no other live consumer exists. `pending_reads` covers
        // readers submitted but not yet dispatched; the strong count
        // covers dispatched-but-unfinished readers and driver-side
        // `peek`/`wait` clones. The closure-side `Arc::try_unwrap`
        // then sees a unique Arc and mutates the buffer in place.
        if consume && entry.pending_reads == 0 {
            if let Slot::Ready(v, b) = &entry.slot {
                if Arc::strong_count(v) == 1 {
                    let bytes = *b;
                    match std::mem::replace(&mut entry.slot, Slot::Moved(bytes)) {
                        Slot::Ready(v, _) => resolved.push(v),
                        _ => unreachable!(),
                    }
                    continue;
                }
            }
        }
        match &entry.slot {
            Slot::Ready(v, _) => resolved.push(v.clone()),
            Slot::Pending => unreachable!("input {d:?} not ready for task {tid:?}"),
            // Submission fails tasks reading consumed data in place,
            // so a dispatched task can never see a moved IN input.
            Slot::Moved(_) => unreachable!("input {d:?} consumed before task {tid:?} dispatched"),
        }
    }
    ReadyRun {
        id: tid,
        f: job.f,
        inputs: resolved,
        ready_at,
        policy,
    }
}

struct State {
    /// Every task, datum, input and dependent edge, indexed by id; see
    /// [`crate::tables`].
    tables: Tables,
    /// The latest barrier marker (0 before the first): the next barrier
    /// waits on every id from here up to itself.
    last_barrier: u64,
    /// Drivers currently blocked in `wait`/`barrier`; completion skips
    /// the condvar entirely when zero.
    waiters: usize,
    /// Reused by `submit_locked` to sort and deduplicate a task's
    /// producers.
    producers: Vec<TaskId>,
    /// Installed fault-injection plan (chaos harness), if any: a task
    /// submitted while it is installed runs behind
    /// [`crate::fault::inject`].
    fault_plan: Option<Arc<FaultPlan>>,
    /// The scheduler-internal fields of [`RuntimeStats`] whose sites
    /// hold this lock: INOUT move vs clone, driver parks. The per-task
    /// fields stay zero here; [`Runtime::stats`] derives them from the
    /// rows.
    counts: RuntimeStats,
}

/// The ready queue and the workers asleep on it: one monitor, so a
/// worker's last emptiness check and its sleep on [`Shared::work_cv`]
/// are one critical section and no push can slip between them.
#[derive(Default)]
struct Queue {
    /// Ready tasks, oldest first: the submitted roots and every
    /// released dependent an executor did not keep as its continuation.
    ready: VecDeque<ReadyRun>,
    /// Workers waiting on `work_cv`.
    sleepers: usize,
    /// Pending wake obligations for sleeping workers (each is one
    /// issued `notify_one`; always `<= sleepers`). A waking worker
    /// consumes one.
    tokens: usize,
    shutdown: bool,
    /// Wake tokens granted (see [`RuntimeStats::wakeups`]).
    wakeups: u64,
    /// Worker condvar sleeps, and the seconds they lasted.
    worker_parks: u64,
    worker_idle_s: f64,
}

impl Queue {
    /// Appends `runs` to the back and claims one wake token per
    /// unclaimed sleeper, at most one per task pushed. Returns how many
    /// `notify_one`s the caller owes once it has unlocked (see
    /// [`wake`]).
    fn push(&mut self, runs: impl IntoIterator<Item = ReadyRun>) -> usize {
        let before = self.ready.len();
        self.ready.extend(runs);
        let k = (self.ready.len() - before).min(self.sleepers.saturating_sub(self.tokens));
        self.tokens += k;
        self.wakeups += k as u64;
        k
    }
}

/// Everything workers need. Workers hold `Arc<Shared>` only — never
/// `Arc<Inner>` — so dropping the last `Runtime` clone can join them.
struct Shared {
    state: Mutex<State>,
    /// Signals task completion to blocked drivers.
    cv: Condvar,
    /// The one ready queue and its sleepers. Lock order:
    /// `state → queue`, one-way.
    queue: Mutex<Queue>,
    /// Signals a push (or shutdown) to workers asleep in `queue`.
    work_cv: Condvar,
    /// Worker threads in the pool (0 for an inline runtime).
    workers: usize,
    /// Kind names, interned by [`Runtime::task`] outside the state
    /// lock. Lock order: `state → kinds`, one-way.
    kinds: Mutex<Kinds>,
    /// Creation time — the zero point of every recorded `start_s`.
    epoch: Instant,
}

struct Inner {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        lock(&self.shared.queue).shutdown = true;
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// The task-based workflow runtime (PyCOMPSs equivalent). Cheap to
/// clone; clones share the same task graph and data store.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<Inner>,
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl Runtime {
    /// An inline (sequential, deterministic) runtime.
    pub fn new() -> Self {
        Self::with_config(RuntimeConfig::default())
    }

    /// A threaded runtime with `workers` worker threads.
    pub fn threaded(workers: usize) -> Self {
        Self::with_config(RuntimeConfig {
            mode: ExecMode::Threads(workers),
            ..RuntimeConfig::default()
        })
    }

    /// Builds a runtime from an explicit configuration.
    pub fn with_config(config: RuntimeConfig) -> Self {
        let n_workers = match config.mode {
            ExecMode::Inline => 0,
            ExecMode::Threads(n) => n.max(1),
        };
        let epoch = Instant::now();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                tables: Tables::new(),
                last_barrier: 0,
                waiters: 0,
                producers: Vec::new(),
                fault_plan: None,
                counts: RuntimeStats::default(),
            }),
            cv: Condvar::new(),
            queue: Mutex::new(Queue::default()),
            work_cv: Condvar::new(),
            workers: n_workers,
            kinds: Mutex::new(Kinds::new()),
            epoch,
        });
        let workers = (0..n_workers)
            .map(|i| {
                let s = shared.clone();
                std::thread::Builder::new()
                    .name(format!("taskrt-worker-{i}"))
                    .spawn(move || worker_loop(s, i as i64))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Runtime {
            inner: Arc::new(Inner { shared, workers }),
        }
    }

    /// Stores a value in the runtime, returning a handle. Equivalent to
    /// passing in-memory data from the PyCOMPSs master: the simulator
    /// places such data on the master node (node 0).
    pub fn put<T: Payload>(&self, value: T) -> Handle<T> {
        let bytes = value.approx_bytes();
        let data = &mut lock(&self.inner.shared.state).tables.data;
        let id = DataId(data.len() as u64);
        data.push(DataEntry::new(Slot::Ready(Arc::new(value), bytes), None));
        Handle::new(id)
    }

    /// Starts building a task of the given kind name.
    ///
    /// The name identifies the task *type* (like the color classes in
    /// the paper's execution graphs) and keys the simulator's optional
    /// cost model.
    pub fn task(&self, name: &str) -> TaskBuilder<'_> {
        TaskBuilder {
            rt: self,
            kind: lock(&self.inner.shared.kinds).intern(name),
            cores: 1,
            gpus: 0,
            policy: RetryPolicy::new(1),
        }
    }

    /// Installs (or clears, with `None`) a deterministic fault-injection
    /// plan (see [`FaultPlan`]). The plan covers the tasks submitted
    /// while it is installed: each attempt of such a task consults it
    /// before running the body, whenever the task is released. Tasks
    /// submitted before or after run as they are. Chaos-testing hook;
    /// the executor never sees it.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        lock(&self.inner.shared.state).fault_plan = plan.map(Arc::new);
    }

    /// Blocks until the value behind `h` is computed, returning it.
    ///
    /// Records a sync marker: all tasks submitted afterwards implicitly
    /// depend on the producer of `h` (the driver was blocked — the
    /// PyCOMPSs `compss_wait_on` semantics the paper's Fig. 9 hinges on).
    ///
    /// # Panics
    /// Panics if the producing task panicked.
    pub fn wait<T: Payload>(&self, h: Handle<T>) -> Arc<T> {
        // Record the sync marker first (driver-side order is submission
        // order), then block. Its one input is the waited datum, so its
        // exported deps are that datum's producer plus the previous
        // marker (see `Tables::records`).
        {
            let t = &mut lock(&self.inner.shared.state).tables;
            if t.data[h.id.0 as usize].producer.is_some() {
                let at = t.inputs.len();
                t.inputs.push((h.id, 0));
                t.rows.push(Row::new(SYNC_KIND, at, 1, Status::Done));
            }
        }
        self.block_on(h.id)
    }

    /// Non-recording read used internally and by tests: blocks until the
    /// value is ready but does **not** create a sync marker.
    pub fn peek<T: Payload>(&self, h: Handle<T>) -> Arc<T> {
        self.block_on(h.id)
    }

    fn block_on<T: Payload>(&self, id: DataId) -> Arc<T> {
        let shared = &self.inner.shared;
        let di = id.0 as usize;
        if di >= lock(&shared.state).tables.data.len() {
            panic!("unknown data id {id:?}");
        }
        // Failures are reported after `drive_until` returns, i.e. with
        // the state lock released, and only once every lower id has
        // settled: an ancestor still running may yet fail with a lower
        // origin, and the message must not depend on which came first.
        let mut settled = 0;
        let outcome = drive_until(shared, |st| {
            let entry = &st.tables.data[di];
            if let Some(p) = entry.producer.map(|p| p.0 as usize) {
                let rows = &st.tables.rows;
                if let Some((_, msg)) = rows[p].failure() {
                    settled = settle(rows, settled..p);
                    return (settled == p).then(|| Err(format!("dependency task failed: {msg}")));
                }
            }
            match &entry.slot {
                Slot::Ready(v, _) => Some(Ok(v.clone())),
                Slot::Moved(_) => Some(Err(format!(
                    "data {id:?} was consumed by an INOUT task; \
                     use the handle returned by run*_inout instead"
                ))),
                Slot::Pending => None,
            }
        });
        match outcome {
            Ok(v) => v.downcast::<T>().expect("handle type mismatch"),
            Err(msg) => panic!("{msg}"),
        }
    }

    /// Waits for every submitted task to complete and records a barrier
    /// marker (PyCOMPSs `compss_barrier`).
    pub fn barrier(&self) {
        let shared = &self.inner.shared;
        // The barrier waits on every id since the previous barrier
        // marker (that marker included): ids are dense, so the range is
        // the set.
        let pending = {
            let mut st = lock(&shared.state);
            let marker = st.tables.rows.len() as u64;
            st.tables
                .rows
                .push(Row::new(BARRIER_KIND, 0, 0, Status::Done));
            let from = std::mem::replace(&mut st.last_barrier, marker);
            from as usize..marker as usize
        };
        // Once the whole range has settled, the lowest-id failed row
        // names the failure, whichever row failed first.
        let mut settled = pending.start;
        let outcome = drive_until(shared, |st| {
            let rows = &st.tables.rows;
            settled = settle(rows, settled..pending.end);
            if settled < pending.end {
                return None;
            }
            match pending.clone().find_map(|t| rows[t].failure()) {
                Some((_, msg)) => Some(Err(format!("failed before barrier: {msg}"))),
                None => Some(Ok(())),
            }
        });
        if let Err(msg) = outcome {
            panic!("{msg}");
        }
    }

    /// Splits a pair-valued handle into two handles, one per component.
    /// Recorded as a zero-ish-cost `__split` helper task.
    pub fn split_pair<A, B>(&self, h: Handle<(A, B)>) -> (Handle<A>, Handle<B>)
    where
        A: Payload + Clone,
        B: Payload + Clone,
    {
        let first = self.task(SPLIT_TASK).cores(0).submit(
            [h.id],
            0,
            2,
            Box::new(move |_ctx, ins| {
                let pair = ins[0]
                    .downcast_ref::<(A, B)>()
                    .expect("split type mismatch");
                let a = pair.0.clone();
                let b = pair.1.clone();
                let (ba, bb) = (a.approx_bytes(), b.approx_bytes());
                vec![(Arc::new(a) as AnyArc, ba), (Arc::new(b) as AnyArc, bb)]
            }),
        );
        (Handle::new(first), Handle::new(DataId(first.0 + 1)))
    }

    /// Snapshot of the trace recorded so far: every record, in task-id
    /// order. Call after [`barrier`] (or on an inline runtime) to get
    /// final durations.
    ///
    /// [`barrier`]: Runtime::barrier
    pub fn trace(&self) -> Trace {
        let shared = &self.inner.shared;
        let st = lock(&shared.state);
        Trace {
            records: st.tables.records(&lock(&shared.kinds)),
        }
    }

    /// Convenience: barrier, then return the completed trace.
    pub fn finish(&self) -> Trace {
        self.barrier();
        self.trace()
    }

    /// Number of tasks submitted so far (markers included).
    pub fn task_count(&self) -> usize {
        lock(&self.inner.shared.state).tables.rows.len()
    }

    /// Snapshot of the scheduler's statistics (see [`RuntimeStats`]).
    /// The per-task fields are derived from the task rows, so a task
    /// counts once its attempt commits; the scheduler-internal counts
    /// are read beside the locks their sites hold. Takes the state
    /// lock, then the queue lock, never both at once.
    pub fn stats(&self) -> RuntimeStats {
        let shared = &self.inner.shared;
        let mut s = {
            let st = lock(&shared.state);
            let mut s = RuntimeStats {
                worker_tasks: vec![0; shared.workers],
                ..st.counts.clone()
            };
            for r in st.tables.rows.iter() {
                if !r.ran() {
                    continue;
                }
                match usize::try_from(r.worker) {
                    Ok(w) => s.worker_tasks[w] += 1,
                    Err(_) => s.driver_tasks += 1,
                }
                let attempts = r.attempts();
                let first_start = attempts.first().map_or(r.start_s, |a| a.start_s);
                if r.ready_s > 0.0 {
                    s.queue_wait_s += (first_start - r.ready_s).max(0.0);
                }
                s.run_s += if attempts.is_empty() {
                    r.duration_s
                } else {
                    attempts.iter().map(|a| a.duration_s).sum()
                };
                // Every failed attempt but a give-up's last was retried.
                s.retries += attempts.len().saturating_sub(1) as u64;
                if r.status == Status::Failed && r.policy().retryable() {
                    s.giveups += 1;
                }
            }
            // Inline tasks never queue; they add 0 s to the mean.
            s.queued_tasks = s.total_tasks();
            s
        };
        let q = lock(&shared.queue);
        s.wakeups = q.wakeups;
        s.worker_parks = q.worker_parks;
        s.worker_idle_s = q.worker_idle_s;
        s
    }
}

impl TaskBuilder<'_> {
    /// The one submission path every `run*` method funnels into: push
    /// the inputs and run the [`submit_locked`] transaction under the
    /// state lock, then wake outside it — or, on a runtime with no
    /// workers, drain the ready queue on this thread (the help pass a
    /// blocked `wait` makes). Returns the first of the task's
    /// `n_outputs` contiguous output ids.
    ///
    /// Bit `i` of `consume_mask` marks input `i` as consumable — the
    /// dispatcher moves the stored value into the task when the task is
    /// its last live consumer (see [`make_run`]), so the body can reuse
    /// the buffer instead of cloning it. The consumed handle's datum
    /// becomes [`Slot::Moved`]; tasks submitted later that read it
    /// fail loudly — the PyCOMPSs `direction=INOUT` contract where the
    /// post-task version of the datum is the one to keep using.
    fn submit(
        self,
        inputs: impl IntoIterator<Item = DataId>,
        consume_mask: u64,
        n_outputs: usize,
        f: TaskFn,
    ) -> DataId {
        let shared = &self.rt.inner.shared;
        let (first, wake_n) = {
            let mut st = lock(&shared.state);
            let at = st.tables.inputs.len();
            for d in inputs {
                st.tables.inputs.push((d, 0));
            }
            submit_locked(self, &mut st, at, consume_mask, n_outputs, f)
        };
        wake(shared, wake_n);
        if shared.workers == 0 {
            drain_ready(shared, &mut Vec::new(), DRIVER);
        }
        first
    }
}

/// The single-task submission transaction: sizes the inputs the caller
/// pushed at `at..`, detects dependencies, allocates the outputs,
/// records the task `b` describes — behind [`crate::fault::inject`]
/// while a fault plan is installed — and pushes it into the ready
/// queue if ready, all under the state lock the caller holds; returns
/// the first output id and the `notify_one`s that push owes.
/// Lock order state -> queue is one-way: nothing acquires the state
/// lock while holding the queue lock.
fn submit_locked(
    b: TaskBuilder<'_>,
    st: &mut State,
    at: usize,
    mut consume_mask: u64,
    n_outputs: usize,
    f: TaskFn,
) -> (DataId, usize) {
    let TaskBuilder {
        rt,
        kind,
        cores,
        gpus,
        policy,
    } = b;
    let shared = &rt.inner.shared;
    let State {
        tables: t,
        producers,
        fault_plan,
        ..
    } = st;
    let tid = TaskId(t.rows.len() as u64);
    let range = at..t.inputs.len();

    // A datum passed twice to the same task must never be consumed:
    // stealing one occurrence would leave the other dangling. Clear
    // every consume bit of any duplicated id (inputs are short — the
    // quadratic scan only runs for consuming submissions).
    if consume_mask != 0 {
        for i in 0..range.len().min(64) {
            let d = t.inputs[at + i].0;
            if consume_mask >> i & 1 == 1
                && range
                    .clone()
                    .enumerate()
                    .any(|(k, j)| k != i && t.inputs[j].0 == d)
            {
                consume_mask &= !(1u64 << i);
            }
        }
    }

    // Input sizes as of now (`Pending` ones are filled in at commit)
    // and the data dependencies: the last writer of each input. The
    // sync marker current at submission is a dependency too, but it is
    // always done and never failed, so only the export derives it.
    let mut consumed_input = None;
    producers.clear();
    for j in range.clone() {
        let d = t.inputs[j].0;
        let entry = &t.data[d.0 as usize];
        t.inputs[j].1 = match &entry.slot {
            Slot::Ready(_, b) => *b,
            Slot::Moved(b) => {
                consumed_input = Some(d);
                *b
            }
            Slot::Pending => 0,
        };
        producers.extend(entry.producer);
    }
    producers.sort_unstable();
    producers.dedup();
    // The failed producer with the lowest origin names this task's
    // failure (see `Row::set_failure`).
    let inherited_failure = producers
        .iter()
        .filter_map(|&p| t.rows[p.0 as usize].failure())
        .min_by_key(|(origin, _)| *origin)
        .cloned();
    let remaining = producers
        .iter()
        .filter(|&&p| t.rows[p.0 as usize].status != Status::Done)
        .count();

    let out_first = t.data.len();
    for _ in 0..n_outputs {
        t.data.push(DataEntry::new(Slot::Pending, Some(tid)));
    }
    let mut row = Row::new(kind, at, range.len(), Status::Waiting);
    row.out_first = out_first as u64;
    row.out_len = n_outputs as u32;
    row.cores = cores;
    row.gpus = gpus;
    row.set_policy(policy);

    if let Some(d) = consumed_input {
        // Reading a datum an INOUT task already consumed is a
        // contract violation; fail in place, loudly, instead of
        // handing out a stale or missing value.
        row.status = Status::Failed;
        row.set_failure(
            tid,
            &format!(
                "input {d:?} was already consumed by an INOUT task; \
                 use the handle returned by run*_inout instead"
            )
            .into(),
        );
    } else if let Some((origin, msg)) = inherited_failure {
        // A dependency already failed; its cascade ran before we
        // existed, so fail in place (waiters see it immediately).
        row.status = Status::Failed;
        row.set_failure(origin, &msg);
    } else {
        row.status = if remaining == 0 {
            Status::Ready
        } else {
            Status::Waiting
        };
        row.remaining = remaining as u32;
        let f = match fault_plan {
            Some(plan) => inject(plan.clone(), lock(&shared.kinds).name(kind).clone(), tid, f),
            None => f,
        };
        row.job = Some(PendingJob { f, consume_mask });
        // Pending reader of its inputs until `make_run` resolves them
        // (see `DataEntry::pending_reads`); failed-in-place tasks never
        // dispatch.
        for j in range {
            let (d, _) = t.inputs[j];
            t.data[d.0 as usize].pending_reads += 1;
        }
    }
    let status = row.status;
    t.rows.push(row);
    // A task that failed in place still hears of its unfinished
    // producers: a lower origin may reach it through them later.
    if status != Status::Ready {
        for &p in producers.iter() {
            if t.rows[p.0 as usize].status != Status::Done {
                t.push_dependent(p.0 as usize, tid);
            }
        }
    }

    // Dispatch, still under the state lock: push the resolved run
    // into the ready queue, stamped only when there are workers to wait
    // for (a runtime with none runs it before `run*` returns).
    let mut wake_n = 0;
    if status == Status::Ready {
        let run = make_run(st, tid, (shared.workers > 0).then(Instant::now));
        wake_n = lock(&shared.queue).push([run]);
    }
    (DataId(out_first as u64), wake_n)
}

/// Issues the `n` `notify_one`s a [`Queue::push`] claimed. Called
/// after the pusher unlocked, so a woken worker does not block on a
/// lock its waker still holds. Each notify has a token behind it, and
/// tokens never outnumber sleepers: when every worker is awake (busy
/// or spinning) a push claims none and this is a no-op.
fn wake(shared: &Shared, n: usize) {
    for _ in 0..n {
        shared.work_cv.notify_one();
    }
}

/// Pops the front (oldest) task of the ready queue. A function, so the
/// queue guard is dropped before the caller runs the task.
fn pop_ready(shared: &Shared) -> Option<ReadyRun> {
    lock(&shared.queue).ready.pop_front()
}

/// Executes ready tasks as `who` until the queue is empty; returns
/// whether anything ran. Each popped task runs with its continuations:
/// of the dependents a run releases, the executor keeps the first and
/// pushes the rest to the back of the queue. Workers call this from
/// [`worker_loop`], and a blocked driver from [`drive_until`]:
/// work-sharing turns sync points into throughput — on machines with
/// fewer cores than workers a sleeping driver would otherwise just add
/// context switches while the workers time-slice.
fn drain_ready(shared: &Shared, newly: &mut Vec<ReadyRun>, who: i64) -> bool {
    let mut ran = false;
    while let Some(first) = pop_ready(shared) {
        ran = true;
        let mut cont = Some(first);
        while let Some(t) = cont.take() {
            newly.clear();
            execute_one(shared, t, newly, who);
            if newly.len() > 1 {
                let n = lock(&shared.queue).push(newly.drain(1..));
                wake(shared, n);
            }
            cont = newly.pop();
        }
    }
    ran
}

/// The cooperative wait behind `wait`/`peek` and `barrier`: blocks the
/// calling driver thread until `done`
/// (evaluated under the state lock) yields a value. Between checks the
/// thread runs queued tasks itself (see [`drain_ready`]) and parks on
/// the condvar only after a dry pass — re-checking `done` under the
/// lock first, so a completion cannot slip between that check and the
/// wait (every completion notifies when a waiter is registered).
fn drive_until<R>(shared: &Shared, mut done: impl FnMut(&mut State) -> Option<R>) -> R {
    let mut newly: Vec<ReadyRun> = Vec::new();
    let mut idle = false; // last help pass found no queued work
    loop {
        {
            let mut st = lock(&shared.state);
            if let Some(r) = done(&mut st) {
                return r;
            }
            if idle {
                st.waiters += 1;
                let t0 = Instant::now();
                let mut st = shared
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                st.waiters -= 1;
                st.counts.driver_parks += 1;
                st.counts.driver_stall_s += t0.elapsed().as_secs_f64();
                idle = false;
                continue;
            }
        }
        idle = !drain_ready(shared, &mut newly, DRIVER);
    }
}

/// Rounds of `yield_now` + recheck an idle worker performs before
/// falling back to a condvar sleep. A producer usually refills the
/// queue within a few scheduler quanta, and `sched_yield` is far
/// cheaper than a futex sleep/wake round trip per task — this is what
/// keeps fine-grained pipelines from ping-ponging through the kernel.
const IDLE_SPIN_ROUNDS: usize = 32;

fn worker_loop(shared: Arc<Shared>, me: i64) {
    let _guard = WorkerGuard::new();
    let mut newly: Vec<ReadyRun> = Vec::new(); // reused across all tasks
    'outer: loop {
        drain_ready(&shared, &mut newly, me);
        // Idle: spin briefly (yielding the CPU each round) in case the
        // driver is mid-submission, then sleep. The probe only tries
        // the lock, so a spinning worker never makes a pusher wait.
        for _ in 0..IDLE_SPIN_ROUNDS {
            std::thread::yield_now();
            if shared.queue.try_lock().is_ok_and(|q| !q.ready.is_empty()) {
                continue 'outer;
            }
        }
        // The monitor's sleep: the emptiness check and the wait are one
        // critical section, and every push happens under this lock, so
        // a push either precedes the check or finds this worker among
        // the sleepers, where it claims a token and a notify unless
        // every sleeper already has one in flight.
        let mut q = lock(&shared.queue);
        if q.ready.is_empty() && !q.shutdown {
            let t0 = Instant::now();
            q.sleepers += 1;
            while q.ready.is_empty() && !q.shutdown {
                q = shared
                    .work_cv
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                q.tokens = q.tokens.saturating_sub(1);
            }
            q.sleepers -= 1;
            q.worker_parks += 1;
            q.worker_idle_s += t0.elapsed().as_secs_f64();
        }
        if q.shutdown {
            return;
        }
    }
}

/// Runs one released task to completion: time the body, store outputs,
/// release dependents. Inputs were already resolved at release time
/// (see [`ReadyRun`]), so the only state-lock acquisition here is the
/// commit. Dependents that became ready are resolved under that same
/// lock and appended to `newly_ready` (an out-param so callers reuse
/// one buffer across many tasks). The commit also adds the task's
/// INOUT counts to [`State::counts`].
fn execute_one(shared: &Shared, run: ReadyRun, newly_ready: &mut Vec<ReadyRun>, who: i64) {
    let ReadyRun {
        id: task,
        mut f,
        inputs,
        ready_at,
        policy,
    } = run;
    let ti = task.0 as usize;
    let since_epoch = |t: Instant| t.saturating_duration_since(shared.epoch).as_secs_f64();
    // Retryable tasks run every attempt on a private clone of the input
    // vector (cheap `Arc` clones): a failed attempt may have taken
    // entries out via `take_arg`, and the next attempt needs them
    // pristine. Single-attempt tasks hand the vector over directly.
    let keep_inputs = policy.retryable();
    let mut inputs = inputs;
    let mut attempts: Vec<AttemptRecord> = Vec::new();
    // INOUT parameters taken by move and by clone, over every attempt.
    let mut inout = (0, 0);
    let outcome = loop {
        let ctx = TaskCtx {
            inout: Cell::new((0, 0)),
            child: Mutex::new(None),
        };
        let mut ins = if keep_inputs {
            inputs.clone()
        } else {
            std::mem::take(&mut inputs)
        };
        let start = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&ctx, &mut ins)));
        let end = Instant::now();
        let duration = end.saturating_duration_since(start).as_secs_f64();
        let (moved, cloned) = ctx.inout.get();
        inout = (inout.0 + moved, inout.1 + cloned);
        drop(ins); // release the attempt's input refcounts outside the lock
        let start_s = since_epoch(start);
        match result {
            Ok(outs) => {
                if !attempts.is_empty() {
                    // Only faulted tasks carry attempt records; the
                    // final (successful) attempt completes the story.
                    attempts.push(AttemptRecord {
                        start_s,
                        duration_s: duration,
                        error: None,
                    });
                }
                break Ok((outs, ctx, start, end, duration));
            }
            Err(e) => {
                attempts.push(AttemptRecord {
                    start_s,
                    duration_s: duration,
                    error: Some(panic_message(&*e)),
                });
                // Deterministic exponential backoff; sleeps on the
                // executing worker — retry delays are expected to be
                // short relative to task runtimes, and parking the
                // task elsewhere would lose the continuation slot.
                match policy.retry_after(task.0, attempts.len() as u32) {
                    None => break Err((start, duration)),
                    Some(delay) if delay > 0.0 => {
                        std::thread::sleep(Duration::from_secs_f64(delay));
                    }
                    Some(_) => {}
                }
            }
        }
    };
    drop(inputs); // release the pristine originals (retry path) outside the lock
    let ready_s = ready_at.map_or(0.0, since_epoch);

    let notify_driver;
    {
        let mut st = lock(&shared.state);
        let st = &mut *st; // split field borrows below
        st.counts.inout_steals += inout.0;
        st.counts.inout_copies += inout.1;
        let row = &mut st.tables.rows[ti];
        row.ready_s = ready_s;
        row.worker = who as i32;
        match outcome {
            Ok((outs, ctx, start, end, duration)) => {
                let child_trace = lock(&ctx.child).take().map(|rt| Box::new(rt.trace()));
                // Release stamp shared by every dependent this
                // completion frees: reusing `end` (instead of a fresh
                // clock read) costs no extra `Instant::now` per
                // completion, at the price of queue waits including the
                // commit's lock acquisition.
                let released_at = Some(end);
                assert_eq!(
                    outs.len(),
                    row.out_len as usize,
                    "task produced wrong number of outputs"
                );
                row.duration_s = duration;
                row.start_s = since_epoch(start);
                if child_trace.is_some() || !attempts.is_empty() {
                    let rare = row.rare_mut();
                    rare.child = child_trace;
                    rare.attempts = attempts;
                }
                row.status = Status::Done;
                let Tables {
                    data, rows, inputs, ..
                } = &mut st.tables;
                let row = &rows[ti];
                for (d, (v, b)) in (row.out_first as usize..).zip(outs) {
                    data[d].slot = Slot::Ready(v, b);
                }
                // Every input materialized before dispatch; one this task
                // stole by INOUT keeps its size in the `Moved` tombstone.
                for j in Tables::input_range(row) {
                    let (d, bytes) = &mut inputs[j];
                    *bytes = data[d.0 as usize].bytes();
                }

                // Batched release: one pass over the dependents, in
                // the order they were submitted.
                let mut deps = st.tables.take_dependents(ti);
                while let Some(dep) = deps.next(&st.tables.edges) {
                    let e = &mut st.tables.rows[dep];
                    if e.status != Status::Waiting {
                        continue; // failed under us by another producer's cascade
                    }
                    e.remaining -= 1;
                    if e.remaining == 0 {
                        e.status = Status::Ready;
                        newly_ready.push(make_run(st, TaskId(dep as u64), released_at));
                    }
                }
            }
            Err((start, duration)) => {
                row.duration_s = duration;
                row.start_s = since_epoch(start);
                let error = attempts.last().and_then(|a| a.error.as_deref());
                let name = lock(&shared.kinds).name(row.kind).clone();
                let full: Arc<str> = give_up_message(
                    &name,
                    task.0,
                    attempts.len() as u32,
                    error.unwrap_or("task panicked"),
                )
                .into();
                row.rare_mut().attempts = attempts;
                // Propagate failure to all transitive dependents so
                // that waiters on any downstream output wake up and
                // report instead of deadlocking. A row that already
                // carries a lower origin keeps it, and so does its cone.
                let mut frontier = vec![ti];
                while let Some(t) = frontier.pop() {
                    let e = &mut st.tables.rows[t];
                    if !e.set_failure(task, &full) {
                        continue;
                    }
                    e.status = Status::Failed;
                    e.job = None;
                    let mut deps = st.tables.dependents(t);
                    frontier.extend(std::iter::from_fn(|| deps.next(&st.tables.edges)));
                }
            }
        }
        notify_driver = st.waiters > 0;
    }
    if notify_driver {
        shared.cv.notify_all();
    }
}

/// The first id of `range` whose row has not settled (is neither done
/// nor failed), or `range.end`. A settled row stays settled, so a
/// caller resumes from what this returned.
fn settle(rows: &Store<Row>, range: std::ops::Range<usize>) -> usize {
    let end = range.end;
    range
        .into_iter()
        .find(|&t| !matches!(rows[t].status, Status::Done | Status::Failed))
        .unwrap_or(end)
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(e: &(dyn Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "task panicked".to_string())
}

/// Fluent builder for a task submission; created by [`Runtime::task`].
pub struct TaskBuilder<'rt> {
    rt: &'rt Runtime,
    /// The kind name, interned in the runtime's [`Kinds`].
    kind: u32,
    cores: u32,
    gpus: u32,
    policy: RetryPolicy,
}

fn arg<T: Payload>(ins: &[AnyArc], i: usize) -> &T {
    ins[i]
        .downcast_ref::<T>()
        .unwrap_or_else(|| panic!("task input {i} type mismatch"))
}

fn one<R: Payload>(r: R) -> Vec<(AnyArc, usize)> {
    let b = r.approx_bytes();
    vec![(Arc::new(r) as AnyArc, b)]
}

/// Placeholder left in the input vector when [`take_arg`] moves an
/// entry out; shared so consuming a parameter costs no allocation.
fn unit_any() -> AnyArc {
    static UNIT: std::sync::OnceLock<AnyArc> = std::sync::OnceLock::new();
    UNIT.get_or_init(|| Arc::new(()) as AnyArc).clone()
}

/// Takes ownership of INOUT input `i`: when the dispatcher determined
/// this task is the datum's last live consumer it handed over a unique
/// `Arc`, so the value moves out without touching the payload bytes;
/// otherwise the value is cloned — results are identical either way.
/// The path taken is reported through `ctx`, and the commit adds it to
/// [`RuntimeStats::inout_steals`] / [`RuntimeStats::inout_copies`].
fn take_arg<A: Payload + Clone>(ctx: &TaskCtx, ins: &mut [AnyArc], i: usize) -> A {
    let any = std::mem::replace(&mut ins[i], unit_any());
    let arc = any
        .downcast::<A>()
        .unwrap_or_else(|_| panic!("task input {i} type mismatch"));
    match Arc::try_unwrap(arc) {
        Ok(v) => {
            ctx.count_inout(true);
            v
        }
        Err(shared) => {
            ctx.count_inout(false);
            (*shared).clone()
        }
    }
}

impl<'rt> TaskBuilder<'rt> {
    /// Declares the number of cores the task occupies (paper: CSVM tasks
    /// use 8 cores, KNN tasks 4). Only affects the simulator.
    pub fn cores(mut self, n: u32) -> Self {
        self.cores = n;
        self
    }

    /// Declares the number of GPUs the task occupies (paper: CNN tasks
    /// use 1 or 4 V100s). Only affects the simulator.
    pub fn gpus(mut self, n: u32) -> Self {
        self.gpus = n;
        self
    }

    /// Sets the task's failure policy; without it a task gets one
    /// attempt (COMPSs `on_failure=FAIL`). Under a policy of more
    /// attempts (`on_failure=RETRY`) a panicking attempt is re-run, up
    /// to `policy.max_attempts` total, with deterministic exponential
    /// backoff between attempts.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Submits a source task with no inputs.
    pub fn run0<R, F>(self, mut f: F) -> Handle<R>
    where
        R: Payload,
        F: FnMut() -> R + Send + 'static,
    {
        let id = self.submit([], 0, 1, Box::new(move |_ctx, _ins| one(f())));
        Handle::new(id)
    }

    /// Submits a one-input task.
    pub fn run1<A, R, F>(self, a: Handle<A>, mut f: F) -> Handle<R>
    where
        A: Payload,
        R: Payload,
        F: FnMut(&A) -> R + Send + 'static,
    {
        let id = self.submit(
            [a.id],
            0,
            1,
            Box::new(move |_ctx, ins| one(f(arg::<A>(ins, 0)))),
        );
        Handle::new(id)
    }

    /// Submits a one-input task with PyCOMPSs `direction=INOUT`
    /// semantics on the parameter: the body mutates the value in place
    /// and the returned handle is the **successor version** of `a`.
    ///
    /// When this task is the last live consumer of `a` at dispatch, the
    /// runtime moves the stored value into the body — no copy of the
    /// payload is made (counted as an `inout_steal` in
    /// [`crate::RuntimeStats`]). If the datum is still shared (another
    /// task reads it, or the driver holds a `wait`/`peek` reference)
    /// the body transparently runs on a clone (`inout_copy`) — the
    /// result is identical either way.
    ///
    /// The input handle `a` is *consumed*: submitting a later task that
    /// reads `a` after the steal ran fails that task loudly. Keep using
    /// the returned handle.
    pub fn run1_inout<A, F>(self, a: Handle<A>, mut f: F) -> Handle<A>
    where
        A: Payload + Clone,
        F: FnMut(&mut A) + Send + 'static,
    {
        let id = self.submit(
            [a.id],
            0b1,
            1,
            Box::new(move |ctx, ins| {
                let mut v: A = take_arg(ctx, ins, 0);
                f(&mut v);
                one(v)
            }),
        );
        Handle::new(id)
    }

    /// Two-input variant of [`TaskBuilder::run1_inout`]: the first
    /// parameter is INOUT (mutated in place, consumed), the second is a
    /// plain read-only input.
    pub fn run2_inout<A, B, F>(self, a: Handle<A>, b: Handle<B>, mut f: F) -> Handle<A>
    where
        A: Payload + Clone,
        B: Payload,
        F: FnMut(&mut A, &B) + Send + 'static,
    {
        let id = self.submit(
            [a.id, b.id],
            0b1,
            1,
            Box::new(move |ctx, ins| {
                let mut v: A = take_arg(ctx, ins, 0);
                f(&mut v, arg::<B>(ins, 1));
                one(v)
            }),
        );
        Handle::new(id)
    }

    /// Submits a two-input task.
    pub fn run2<A, B, R, F>(self, a: Handle<A>, b: Handle<B>, mut f: F) -> Handle<R>
    where
        A: Payload,
        B: Payload,
        R: Payload,
        F: FnMut(&A, &B) -> R + Send + 'static,
    {
        let id = self.submit(
            [a.id, b.id],
            0,
            1,
            Box::new(move |_ctx, ins| one(f(arg::<A>(ins, 0), arg::<B>(ins, 1)))),
        );
        Handle::new(id)
    }

    /// Submits a three-input task.
    pub fn run3<A, B, C, R, F>(
        self,
        a: Handle<A>,
        b: Handle<B>,
        c: Handle<C>,
        mut f: F,
    ) -> Handle<R>
    where
        A: Payload,
        B: Payload,
        C: Payload,
        R: Payload,
        F: FnMut(&A, &B, &C) -> R + Send + 'static,
    {
        let id = self.submit(
            [a.id, b.id, c.id],
            0,
            1,
            Box::new(move |_ctx, ins| one(f(arg::<A>(ins, 0), arg::<B>(ins, 1), arg::<C>(ins, 2)))),
        );
        Handle::new(id)
    }

    /// Submits a four-input task.
    pub fn run4<A, B, C, D, R, F>(
        self,
        a: Handle<A>,
        b: Handle<B>,
        c: Handle<C>,
        d: Handle<D>,
        mut f: F,
    ) -> Handle<R>
    where
        A: Payload,
        B: Payload,
        C: Payload,
        D: Payload,
        R: Payload,
        F: FnMut(&A, &B, &C, &D) -> R + Send + 'static,
    {
        let id = self.submit(
            [a.id, b.id, c.id, d.id],
            0,
            1,
            Box::new(move |_ctx, ins| {
                one(f(
                    arg::<A>(ins, 0),
                    arg::<B>(ins, 1),
                    arg::<C>(ins, 2),
                    arg::<D>(ins, 3),
                ))
            }),
        );
        Handle::new(id)
    }

    /// Submits a reduction-style task over a homogeneous list of inputs.
    pub fn run_many<A, R, F>(self, items: &[Handle<A>], mut f: F) -> Handle<R>
    where
        A: Payload,
        R: Payload,
        F: FnMut(&[&A]) -> R + Send + 'static,
    {
        let id = self.submit(
            items.iter().map(|h| h.id),
            0,
            1,
            Box::new(move |_ctx, ins| {
                let refs: Vec<&A> = (0..ins.len()).map(|i| arg::<A>(ins, i)).collect();
                one(f(&refs))
            }),
        );
        Handle::new(id)
    }

    /// Submits a task over one fixed input plus a homogeneous list
    /// (e.g. "combine this model with these partial results").
    pub fn run_with_many<B, A, R, F>(
        self,
        fixed: Handle<B>,
        items: &[Handle<A>],
        mut f: F,
    ) -> Handle<R>
    where
        A: Payload,
        B: Payload,
        R: Payload,
        F: FnMut(&B, &[&A]) -> R + Send + 'static,
    {
        let id = self.submit(
            std::iter::once(fixed.id).chain(items.iter().map(|h| h.id)),
            0,
            1,
            Box::new(move |_ctx, ins| {
                let b = arg::<B>(ins, 0);
                let refs: Vec<&A> = (1..ins.len()).map(|i| arg::<A>(ins, i)).collect();
                one(f(b, &refs))
            }),
        );
        Handle::new(id)
    }

    /// Submits a **nested** task: the body receives a child [`Runtime`]
    /// and may submit (and wait on) its own sub-tasks. The child trace
    /// is attached to this task's record; the simulator schedules it on
    /// the resources granted to this task (paper §III-D, Fig. 10).
    pub fn run_nested1<A, R, F>(self, a: Handle<A>, mut f: F) -> Handle<R>
    where
        A: Payload,
        R: Payload,
        F: FnMut(&Runtime, &A) -> R + Send + 'static,
    {
        let id = self.submit(
            [a.id],
            0,
            1,
            Box::new(move |ctx, ins| {
                let child = ctx.nested_runtime();
                one(f(&child, arg::<A>(ins, 0)))
            }),
        );
        Handle::new(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{BARRIER_TASK, SYNC_TASK};

    #[test]
    fn put_and_wait_roundtrip() {
        let rt = Runtime::new();
        let h = rt.put(vec![1.0f64, 2.0, 3.0]);
        let v = rt.wait(h);
        assert_eq!(*v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn single_task_executes() {
        let rt = Runtime::new();
        let x = rt.put(21u64);
        let y = rt.task("double").run1(x, |v| v * 2);
        assert_eq!(*rt.wait(y), 42);
    }

    #[test]
    fn dependency_chain_produces_edges() {
        let rt = Runtime::new();
        let a = rt.put(1.0f64);
        let b = rt.task("inc").run1(a, |v| v + 1.0);
        let c = rt.task("inc").run1(b, |v| v + 1.0);
        assert_eq!(*rt.wait(c), 3.0);
        let t = rt.trace();
        // task 1 depends on task 0
        assert_eq!(t.records[1].deps, vec![TaskId(0)]);
    }

    #[test]
    fn independent_tasks_have_no_edges() {
        let rt = Runtime::new();
        let a = rt.put(1u32);
        let b = rt.put(2u32);
        let x = rt.task("id").run1(a, |v| *v);
        let y = rt.task("id").run1(b, |v| *v);
        let t = rt.trace();
        assert!(t.records[0].deps.is_empty());
        assert!(t.records[1].deps.is_empty());
        assert_eq!(*rt.wait(x) + *rt.wait(y), 3);
    }

    #[test]
    fn run_many_reduces() {
        let rt = Runtime::new();
        let parts: Vec<Handle<f64>> = (0..10)
            .map(|i| rt.task("gen").run0(move || i as f64))
            .collect();
        let sum = rt
            .task("sum")
            .run_many(&parts, |xs| xs.iter().copied().sum::<f64>());
        assert_eq!(*rt.wait(sum), 45.0);
        // sum depends on all 10 generators
        let t = rt.trace();
        assert_eq!(t.records[10].deps.len(), 10);
    }

    #[test]
    fn wait_records_sync_marker_and_later_tasks_depend_on_it() {
        let rt = Runtime::new();
        let a = rt.put(1u64);
        let x = rt.task("a").run1(a, |v| v + 1);
        let _ = rt.wait(x); // marker
        let b = rt.put(5u64);
        let y = rt.task("b").run1(b, |v| v + 1);
        let t = rt.trace();
        assert_eq!(t.records[1].name, SYNC_TASK);
        // y (record index 2) depends on the sync marker
        assert!(t.records[2].deps.contains(&t.records[1].id));
        assert_eq!(*rt.wait(y), 6);
    }

    #[test]
    fn wait_on_put_data_records_no_marker() {
        let rt = Runtime::new();
        let a = rt.put(1u64);
        let _ = rt.wait(a);
        assert_eq!(rt.trace().len(), 0);
    }

    #[test]
    fn barrier_marker_depends_on_all_prior() {
        let rt = Runtime::new();
        let a = rt.put(0u64);
        let _x = rt.task("t").run1(a, |v| *v);
        let _y = rt.task("t").run1(a, |v| *v);
        rt.barrier();
        let t = rt.trace();
        let barrier = t.records.last().unwrap();
        assert_eq!(barrier.name, BARRIER_TASK);
        assert_eq!(barrier.deps.len(), 2);
    }

    #[test]
    fn split_pair_gives_both_components() {
        let rt = Runtime::new();
        let p = rt.task("mk").run0(|| (1.5f64, vec![1u32, 2]));
        let (a, b) = rt.split_pair(p);
        assert_eq!(*rt.wait(a), 1.5);
        assert_eq!(*rt.wait(b), vec![1, 2]);
    }

    #[test]
    fn threaded_mode_parallel_and_correct() {
        let rt = Runtime::threaded(4);
        let inputs: Vec<Handle<u64>> = (0..20).map(|i| rt.put(i)).collect();
        let squares: Vec<Handle<u64>> = inputs
            .iter()
            .map(|&h| rt.task("sq").run1(h, |v| v * v))
            .collect();
        let total = rt
            .task("sum")
            .run_many(&squares, |xs| xs.iter().copied().sum::<u64>());
        assert_eq!(*rt.wait(total), (0..20).map(|i| i * i).sum::<u64>());
    }

    #[test]
    fn threaded_chain_respects_dependencies() {
        let rt = Runtime::threaded(8);
        let mut h = rt.put(0u64);
        for _ in 0..100 {
            h = rt.task("inc").run1(h, |v| v + 1);
        }
        assert_eq!(*rt.wait(h), 100);
    }

    #[test]
    fn threaded_diamond() {
        let rt = Runtime::threaded(2);
        let a = rt.task("src").run0(|| 10u64);
        let l = rt.task("l").run1(a, |v| v + 1);
        let r = rt.task("r").run1(a, |v| v * 2);
        let j = rt.task("join").run2(l, r, |x, y| x + y);
        assert_eq!(*rt.wait(j), 31);
    }

    #[test]
    #[should_panic(
        expected = "dependency task failed: task 'boom' #0 failed after 1 attempt: kaboom"
    )]
    fn failed_task_propagates_to_wait() {
        let rt = Runtime::new();
        let a = rt.put(1u64);
        let x = rt.task("boom").run1(a, |_| -> u64 { panic!("kaboom") });
        let _ = rt.wait(x);
    }

    #[test]
    fn nested_task_records_child_trace() {
        let rt = Runtime::new();
        let data = rt.put(vec![1.0f64, 2.0, 3.0]);
        let out = rt.task("fold").run_nested1(data, |child, v| {
            let parts: Vec<Handle<f64>> = v
                .iter()
                .map(|&x| child.task("train_epoch").run0(move || x * 10.0))
                .collect();
            let merged = child
                .task("merge")
                .run_many(&parts, |xs| xs.iter().copied().sum::<f64>());
            *child.wait(merged)
        });
        assert_eq!(*rt.wait(out), 60.0);
        let t = rt.trace();
        let child = t.records[0].child.as_ref().expect("child trace recorded");
        assert_eq!(child.user_task_count(), 4);
    }

    #[test]
    fn trace_durations_are_measured() {
        let rt = Runtime::new();
        let a = rt.put(0u64);
        let x = rt.task("sleepy").run1(a, |v| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            *v
        });
        let _ = rt.wait(x);
        let t = rt.trace();
        assert!(
            t.records[0].duration_s >= 0.015,
            "dur={}",
            t.records[0].duration_s
        );
    }

    #[test]
    fn run_with_many_combines() {
        let rt = Runtime::new();
        let base = rt.put(100.0f64);
        let parts: Vec<Handle<f64>> = (1..=3).map(|i| rt.put(i as f64)).collect();
        let out = rt
            .task("combine")
            .run_with_many(base, &parts, |b, xs| b + xs.iter().copied().sum::<f64>());
        assert_eq!(*rt.wait(out), 106.0);
    }

    #[test]
    fn output_bytes_recorded() {
        let rt = Runtime::new();
        let a = rt.put(1u8);
        let x = rt.task("alloc").run1(a, |_| vec![0.0f64; 1000]);
        let _ = rt.wait(x);
        let t = rt.trace();
        assert!(t.records[0].outputs[0].1 >= 8000);
    }

    #[test]
    fn finish_returns_complete_trace() {
        let rt = Runtime::threaded(4);
        let a = rt.put(1u64);
        for _ in 0..10 {
            let _ = rt.task("t").run1(a, |v| *v);
        }
        let t = rt.finish();
        assert_eq!(t.user_task_count(), 10);
        // All durations filled in.
        assert!(t
            .records
            .iter()
            .filter(|r| !r.is_marker())
            .all(|r| r.duration_s >= 0.0));
    }

    #[test]
    fn ready_stamp_precedes_start_on_threaded_runs() {
        let rt = Runtime::threaded(2);
        let a = rt.put(1u64);
        let mut h = a;
        for _ in 0..20 {
            h = rt.task("chain").run1(h, |v| v + 1);
            let _ = rt.task("leaf").run1(a, |v| *v);
        }
        assert_eq!(*rt.wait(h), 21);
        let t = rt.finish();
        for r in t.records.iter().filter(|r| r.ran()) {
            assert!(
                r.ready_s > 0.0 && r.ready_s <= r.start_s,
                "task {:?}: ready {} start {}",
                r.id,
                r.ready_s,
                r.start_s
            );
        }
    }

    #[test]
    fn inline_records_carry_no_ready_stamp() {
        let rt = Runtime::new();
        let a = rt.put(2u64);
        let b = rt.task("double").run1(a, |v| v * 2);
        assert_eq!(*rt.wait(b), 4);
        let t = rt.finish();
        assert!(t.records.iter().all(|r| r.ready_s == 0.0));
        // Inline tasks never queue: the one task adds 0 s of wait.
        let s = rt.stats();
        assert_eq!((s.queued_tasks, s.queue_wait_s), (1, 0.0));
    }

    #[test]
    fn dropping_threaded_runtime_joins_workers() {
        let rt = Runtime::threaded(4);
        let h = rt.put(1u64);
        let x = rt.task("t").run1(h, |v| v + 1);
        assert_eq!(*rt.wait(x), 2);
        let weak = Arc::downgrade(&rt.inner.shared);
        drop(rt);
        // Workers hold the only other strong refs to the scheduler; if
        // the weak can't upgrade, every worker has exited.
        assert!(weak.upgrade().is_none(), "worker threads outlived Runtime");
    }

    #[test]
    fn idle_threaded_runtime_drops_cleanly() {
        let rt = Runtime::threaded(8);
        let weak = Arc::downgrade(&rt.inner.shared);
        drop(rt);
        assert!(weak.upgrade().is_none(), "idle workers outlived Runtime");
    }

    #[test]
    fn many_threaded_runtimes_do_not_leak_threads() {
        let mut weaks = Vec::new();
        for i in 0..48u64 {
            let rt = Runtime::threaded(3);
            let a = rt.put(i);
            let b = rt.task("sq").run1(a, |v| v * v);
            assert_eq!(*rt.wait(b), i * i);
            weaks.push(Arc::downgrade(&rt.inner.shared));
        }
        for w in &weaks {
            assert!(w.upgrade().is_none(), "a runtime leaked worker threads");
        }
    }

    #[test]
    fn inout_exclusive_handle_steals_and_matches_clone_path() {
        // Same pipeline twice: clone-based run1 vs run1_inout on an
        // exclusively-owned handle. Results must be bitwise identical
        // and the INOUT run must take the steal path.
        let rt = Runtime::new();
        let a = rt.put(vec![1.0f64, 2.5, -3.0]);
        let b = rt.task("scale").run1(a, |v| {
            let mut out = v.clone();
            out.iter_mut().for_each(|x| *x *= 2.0);
            out
        });
        let expect = rt.peek(b);

        let a2 = rt.put(vec![1.0f64, 2.5, -3.0]);
        let b2 = rt
            .task("scale_inout")
            .run1_inout(a2, |v| v.iter_mut().for_each(|x| *x *= 2.0));
        assert_eq!(*rt.peek(b2), *expect);
        let stats = rt.stats();
        assert_eq!(stats.inout_steals, 1);
        assert_eq!(stats.inout_copies, 0);
    }

    #[test]
    fn inout_shared_handle_falls_back_to_copy() {
        // The driver holds a live reference (peek) to the input, so the
        // INOUT task must clone — and the original value must survive.
        let rt = Runtime::new();
        let a = rt.put(vec![1u64, 2, 3]);
        let held = rt.peek(a); // driver-side Arc keeps the datum shared
        let b = rt
            .task("bump")
            .run1_inout(a, |v| v.iter_mut().for_each(|x| *x += 10));
        assert_eq!(*rt.peek(b), vec![11, 12, 13]);
        assert_eq!(*held, vec![1, 2, 3]);
        let stats = rt.stats();
        assert_eq!(stats.inout_steals, 0);
        assert_eq!(stats.inout_copies, 1);
    }

    #[test]
    fn inout_with_second_pending_consumer_never_steals() {
        // A reader of `src` is pinned in the Waiting state (its second
        // input is gated on a channel) while the INOUT task dispatches:
        // the pending-reader count must force the copy fallback, and
        // the reader must still see the original value afterwards.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let rt = Runtime::threaded(2);
        let a = rt.put(vec![7.0f64; 64]);
        let src = rt.task("mk").run1(a, |v| v.clone()); // task 0
        let gate = rt.task("gate").run0(move || {
            // task 1
            rx.recv().expect("gate release");
            0u8
        });
        let read = rt
            .task("sum") // task 2
            .run2(src, gate, |v, _| v.iter().sum::<f64>());
        let consumed = rt
            .task("neg") // task 3
            .run1_inout(src, |v| v.iter_mut().for_each(|x| *x = -*x));
        // Wait for the INOUT task without `peek` (a peeking driver
        // could pop the gate task and block in `recv`); poll the
        // scheduler state directly instead.
        let neg_done = || lock(&rt.inner.shared.state).tables.rows[3].status == Status::Done;
        while !neg_done() {
            std::thread::yield_now();
        }
        let stats = rt.stats();
        assert_eq!(stats.inout_steals, 0);
        assert_eq!(stats.inout_copies, 1);
        tx.send(()).expect("release gate");
        assert_eq!(*rt.peek(read), 7.0 * 64.0);
        assert_eq!(*rt.peek(consumed), vec![-7.0; 64]);
    }

    #[test]
    fn the_ready_queue_is_one_fifo_in_submission_order() {
        // The queue contract: ready roots wait in one FIFO in the order
        // they were submitted, and every executor pops its front.
        // The only worker is parked inside a gate task, so nothing else
        // touches the queue.
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let rt = Runtime::threaded(1);
        let _gate = rt.task("gate").run0(move || {
            started_tx.send(()).expect("test thread alive");
            release_rx.recv().expect("gate release");
            0u8
        }); // task 0
        started_rx.recv().expect("gate started");

        let n = 101u64;
        for i in 0..n {
            let _ = rt.task("root").run0(move || i); // tasks 1..=n
        }
        let shared = &rt.inner.shared;
        // Every root sits in the queue at once, oldest first.
        let ids: Vec<u64> = lock(&shared.queue).ready.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, (1..=n).collect::<Vec<_>>());

        // Nothing was lost or duplicated: run the oldest here, release
        // the worker, and everything drains.
        let first = pop_ready(shared).expect("queue non-empty");
        assert_eq!(first.id, TaskId(1), "the front is the oldest");
        execute_one(shared, first, &mut Vec::new(), DRIVER);
        release_tx.send(()).expect("worker alive");
        rt.barrier();
        assert_eq!(rt.stats().total_tasks(), n + 1);
    }

    #[test]
    fn inout_chain_steals_every_link() {
        // A single-consumer pipeline: each link owns its input
        // exclusively, so every dispatch takes the move path.
        let rt = Runtime::new();
        let mut h = rt.task("mk").run0(|| vec![0u64; 8]);
        for _ in 0..10 {
            h = rt
                .task("inc")
                .run1_inout(h, |v| v.iter_mut().for_each(|x| *x += 1));
        }
        assert_eq!(*rt.peek(h), vec![10u64; 8]);
        let stats = rt.stats();
        assert_eq!(stats.inout_steals, 10);
        assert_eq!(stats.inout_copies, 0);
        assert!((stats.inout_steal_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run2_inout_mutates_first_reads_second() {
        let rt = Runtime::new();
        let w = rt.put(vec![1.0f64, 2.0]);
        let g = rt.put(vec![0.5f64, 0.25]);
        let w2 = rt.task("apply").run2_inout(w, g, |w, g| {
            w.iter_mut().zip(g).for_each(|(a, b)| *a -= b);
        });
        assert_eq!(*rt.peek(w2), vec![0.5, 1.75]);
        // The read-only input survives for later use.
        assert_eq!(*rt.peek(g), vec![0.5, 0.25]);
    }

    #[test]
    #[should_panic(expected = "consumed by an INOUT task")]
    fn reading_consumed_handle_fails_loudly() {
        let rt = Runtime::new();
        let a = rt.task("mk").run0(|| vec![1u64, 2]);
        let _b = rt
            .task("take")
            .run1_inout(a, |v| v.iter_mut().for_each(|x| *x += 1));
        // Inline mode: the steal already happened; this read must fail.
        let late = rt.task("reader").run1(a, |v| v.len() as u64);
        let _ = rt.peek(late);
    }

    #[test]
    fn inout_same_handle_twice_is_safe() {
        // Passing one datum as both the INOUT and the IN parameter must
        // not steal (the mask is sanitized for duplicates).
        let rt = Runtime::new();
        let a = rt.task("mk").run0(|| vec![1.0f64, 2.0]);
        let b = rt.task("addself").run2_inout(a, a, |x, y| {
            for (u, v) in x.iter_mut().zip(y) {
                *u += v;
            }
        });
        assert_eq!(*rt.peek(b), vec![2.0, 4.0]);
        assert_eq!(rt.stats().inout_steals, 0);
    }

    #[test]
    fn inout_threaded_parity_with_clone_path() {
        // The same randomized op chain on inline clone-path handles and
        // on threaded INOUT handles must agree bit-for-bit.
        let ops: Vec<u64> = (0..50).map(|i| (i * 2654435761) % 3).collect();
        let reference = {
            let rt = Runtime::new();
            let mut h = rt.task("mk").run0(|| vec![0.1f64; 256]);
            for &op in &ops {
                h = rt.task("op").run1(h, move |v| {
                    let mut out = v.clone();
                    apply_op(&mut out, op);
                    out
                });
            }
            rt.peek(h)
        };
        let rt = Runtime::threaded(4);
        let mut h = rt.task("mk").run0(|| vec![0.1f64; 256]);
        for &op in &ops {
            h = rt.task("op").run1_inout(h, move |v| apply_op(v, op));
        }
        assert_eq!(*rt.peek(h), *reference);
        let stats = rt.stats();
        assert_eq!(stats.inout_steals + stats.inout_copies, 50);
    }

    fn apply_op(v: &mut [f64], op: u64) {
        match op {
            0 => v.iter_mut().for_each(|x| *x = *x * 1.5 + 0.25),
            1 => v.iter_mut().for_each(|x| *x = -*x),
            _ => v.iter_mut().for_each(|x| *x = x.sin()),
        }
    }

    #[test]
    #[should_panic(
        expected = "dependency task failed: task 'boom' #0 failed after 1 attempt: kaboom"
    )]
    fn task_submitted_after_failure_inherits_it() {
        let rt = Runtime::new();
        let a = rt.put(1u64);
        let x = rt.task("boom").run1(a, |_| -> u64 { panic!("kaboom") });
        // x already failed (inline); y must not deadlock.
        let y = rt.task("after").run1(x, |v| *v);
        let _ = rt.peek(y);
    }

    #[test]
    fn a_fault_plan_covers_the_tasks_submitted_while_it_is_installed() {
        // A gate holds two dependents back until the plan is installed,
        // so both are released under it. Only the one submitted while it
        // was installed is injected; the one submitted before runs as it
        // is, and so does one submitted after the plan is cleared.
        use crate::fault::INJECTED_PANIC;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let rt = Runtime::threaded(2);
        let gate = rt.task("gate").run0(move || {
            rx.recv().expect("gate release");
            1u64
        });
        let before = rt.task("hit").run1(gate, |v| v + 1);
        rt.set_fault_plan(Some(FaultPlan::new(1).panic_kind("hit", 1)));
        let during = rt.task("hit").run1(gate, |v| v + 2);
        tx.send(()).expect("release gate");
        assert_eq!(*rt.peek(before), 2);
        let e = catch_unwind(AssertUnwindSafe(|| rt.peek(during))).expect_err("injected");
        let msg = e.downcast_ref::<String>().expect("string panic");
        assert!(
            msg.ends_with(&format!(
                "task 'hit' #2 failed after 1 attempt: {INJECTED_PANIC} (attempt 1)"
            )),
            "{msg}"
        );
        rt.set_fault_plan(None);
        let after = rt.task("hit").run1(gate, |v| v + 3);
        assert_eq!(*rt.peek(after), 4);
    }

    #[test]
    fn failure_cascades_over_pages_of_dependents_keep_every_record() {
        // A failing task with more than a page of dependents registered
        // before it runs (a gate holds them back): the cascade fails
        // every dependent. The tables are push-only, so the trace keeps
        // every record.
        use crate::arena::PAGE;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let fan = PAGE + 8;
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let rt = Runtime::threaded(2);
        let gate = rt.task("gate").run0(move || {
            rx.recv().expect("gate release");
            0u64
        });
        let fail = rt.task("fail").run1(gate, |_| -> u64 { panic!("kaboom") });
        let failed: Vec<Handle<u64>> = (0..fan)
            .map(|_| rt.task("fail_dep").run1(fail, |v| *v))
            .collect();
        tx.send(()).expect("release gate");

        let msg = |r: std::thread::Result<()>| {
            let e = r.expect_err("must panic");
            e.downcast_ref::<String>().expect("string panic").clone()
        };
        let barrier = msg(catch_unwind(AssertUnwindSafe(|| rt.barrier())));
        assert!(barrier.contains("task 'fail'"), "{barrier}");
        assert!(barrier.contains("failed before barrier"), "{barrier}");
        let last_failed = msg(catch_unwind(AssertUnwindSafe(|| {
            rt.peek(*failed.last().unwrap());
        })));
        assert!(
            last_failed.contains("dependency task failed"),
            "{last_failed}"
        );

        // gate + the failing task + its fan + the two barrier markers.
        let trace = rt.finish();
        assert_eq!(trace.records.len(), 2 + fan + 2);
        for (i, r) in trace.records.iter().enumerate() {
            assert_eq!(r.id, TaskId(i as u64), "records out of id order");
        }
        assert!(trace
            .records
            .iter()
            .filter(|r| r.name.ends_with("_dep"))
            .all(|r| !r.ran()));
        assert_eq!(rt.stats().total_tasks(), 2);
    }
}
