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
//!   the parent task's [`TaskRecord`]. This is the PyCOMPSs "nesting"
//!   feature the paper uses to parallelize CNN folds.
//!
//! Two execution modes share the same submission path and produce the
//! same [`Trace`]:
//!
//! * [`ExecMode::Inline`] runs each task synchronously at submission
//!   (deterministic; durations still measured).
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
//!   A task's id doubles as its record index in the trace. Whether
//!   entries are ever reclaimed is a policy over that one layout
//!   ([`RuntimeConfig::stream`]), not a second layout.
//! * **Release-time resolution.** A task that becomes ready is turned
//!   into a self-contained `ReadyRun` (job closure + cloned input
//!   `Arc`s) under whichever lock released it, so executing it later
//!   needs the shared state exactly once — at commit.
//! * **Per-worker deques + stealing.** Each worker owns a deque; the
//!   driver stages root tasks and flushes them to a shared injector
//!   queue in batches (immediately when a worker is idle — tracked by
//!   a lock-free hint — otherwise every [`STAGE_BATCH`] submissions).
//!   An idle worker pops its own deque first, then adopts the front
//!   half of the injector, then steals the back half of a sibling
//!   deque. Lock order is `state → injector → queues`, one-way.
//! * **Cooperative wait.** A driver blocked in `wait`/`barrier` does
//!   not just sleep: it drains the injector and deques and executes
//!   tasks itself, only parking on the condvar after a dry pass.
//! * **Batched release + continuation.** Completing a task releases all
//!   newly-ready dependents in a single pass under the lock. The worker
//!   keeps one as its continuation (no queue round-trip) and publishes
//!   the rest, waking at most that many sleeping workers via a
//!   token-counted `notify_one` scheme — never a thundering-herd
//!   `notify_all`. Driver wakeups are likewise skipped entirely unless
//!   a `wait`/`barrier` is actually blocked.
//! * **Clean shutdown.** Dropping the last [`Runtime`] clone signals
//!   shutdown and joins every worker; no threads outlive the runtime
//!   (observable via [`live_worker_threads`]).

use crate::arena::{Store, StoreStats};
use crate::fault::{FaultMode, FaultPlan, OnFailure, RetryPolicy, TaskFault, INJECTED_PANIC};
use crate::handle::{DataId, Handle, TaskId};
use crate::obs::{Counters, RuntimeStats};
use crate::payload::Payload;
use crate::telemetry::{HistogramSnapshot, Registry};
use crate::trace::{AttemptRecord, TaskRecord, Trace, BARRIER_TASK, SPLIT_TASK, SYNC_TASK};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Type-erased shared value.
type AnyArc = Arc<dyn Any + Send + Sync>;

/// Type-erased task body: receives the resolved inputs (mutable so
/// INOUT wrappers can take ownership of individual entries), returns
/// the outputs with their approximate byte sizes. `FnMut` rather than
/// `FnOnce` so a retryable task's body can be invoked once per attempt.
type TaskFn = Box<dyn FnMut(&TaskCtx, &mut Vec<AnyArc>) -> Vec<(AnyArc, usize)> + Send>;

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
    /// Execute each task synchronously at submission time. Deterministic
    /// and allocation-light; durations are still measured, so traces are
    /// fully usable by the simulator.
    Inline,
    /// Execute tasks on a pool of this many worker threads.
    Threads(usize),
}

/// Runtime construction options.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Execution mode for tasks submitted to this runtime.
    pub mode: ExecMode,
    /// Execution mode for child runtimes created by nested tasks.
    pub nested_mode: ExecMode,
    /// The one observability switch: whether the scheduler maintains
    /// its counters (see [`crate::obs`] and [`Runtime::stats`]) and
    /// stamps each record's [`TaskRecord::ready_s`]. Updates are
    /// relaxed atomics off the lock path, so the default is on; the
    /// benchmark's `obs.recording_overhead_frac` (`sched_fine --trace
    /// 1`) measures the on-vs-off gap. Events, latency histograms and
    /// straggler reports are derived from the records after the run
    /// ([`Trace::events`], [`Runtime::registry`]).
    pub metrics: bool,
    /// No effect. Kept only because the frozen benchmark constructs
    /// it; `metrics` is the one observability switch. Removal waits for
    /// the next change to the benchmark.
    pub telemetry: bool,
    /// The retention policy over the runtime's (single, paged)
    /// task/data/record tables.
    ///
    /// `None` (the default) never retires anything: every record stays
    /// resident, so [`Runtime::trace`] / [`Runtime::finish`] are
    /// complete — what the DES replay and every export need.
    ///
    /// `Some` is streaming submission for DAGs too large to
    /// materialize (1M+ tasks): table slots are **retired** once a
    /// task is done and its outputs consumed (INOUT steal) or
    /// explicitly [`Runtime::release`]d, keeping the resident set
    /// bounded; the watermarks add driver **backpressure** — a
    /// `submit` that would push in-flight tasks past `high` parks the
    /// submitting thread (helping drain the queues first) until the
    /// scheduler drains to `low`. Reads of retired handles fail with
    /// a named `"stale handle"` error, never a silent wrong read.
    pub stream: Option<StreamConfig>,
}

/// Backpressure watermarks for streaming submission
/// (see [`RuntimeConfig::stream`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Park the submitting thread when in-flight (submitted, not yet
    /// terminal) tasks reach this count.
    pub high: usize,
    /// Resume submission once in-flight tasks drain to this count.
    pub low: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            high: 8192,
            low: 4096,
        }
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            mode: ExecMode::Inline,
            nested_mode: ExecMode::Inline,
            metrics: true,
            telemetry: true,
            stream: None,
        }
    }
}

/// Context handed to every task body; grants access to nesting.
pub struct TaskCtx {
    nested_mode: ExecMode,
    metrics: bool,
    /// Runtime counters for in-body instrumentation (INOUT steal/copy
    /// accounting); `None` when metrics are off.
    counters: Option<Arc<Counters>>,
    child: Mutex<Option<Runtime>>,
}

impl TaskCtx {
    /// Creates the child runtime for a nested task. The child's trace is
    /// attached to the parent task's record when the body returns.
    ///
    /// Calling this more than once replaces the recorded child trace;
    /// nest one runtime per task.
    pub fn nested_runtime(&self) -> Runtime {
        let rt = Runtime::with_config(RuntimeConfig {
            mode: self.nested_mode,
            nested_mode: self.nested_mode,
            metrics: self.metrics,
            // Child graphs are small (bounded by the parent task's
            // scope): nothing to reclaim (`stream: None`).
            ..RuntimeConfig::default()
        });
        *lock(&self.child) = Some(rt.clone());
        rt
    }

    /// Records which path an INOUT parameter resolution took (shared
    /// low-frequency counters; a handful of updates per INOUT task).
    fn count_inout(&self, stolen: bool) {
        if let Some(c) = &self.counters {
            let ctr = if stolen {
                &c.inout_steals
            } else {
                &c.inout_copies
            };
            Counters::add(ctr, 1);
        }
    }
}

enum Slot {
    Pending,
    Ready(AnyArc, usize),
    /// The value was handed over (by move) to an INOUT task — this
    /// version of the datum no longer exists; the consuming task's
    /// output is the successor version. Keeps the byte size so records
    /// and the simulator still see transfer sizes. Reading a moved
    /// datum is a contract violation and fails loudly.
    Moved(usize),
    /// The value will never materialize: its producer failed under
    /// [`OnFailure::Ignore`] or was cancelled. `barrier` tolerates
    /// poisoned data; `wait`/`peek` on it panics with the recorded
    /// reason.
    Poisoned(Arc<str>),
}

/// Per-datum entry, indexed by `DataId`.
struct DataEntry {
    slot: Slot,
    /// Producing task, if any (`None` for `put` data).
    producer: Option<TaskId>,
    /// Submitted-but-not-yet-dispatched tasks reading this datum. An
    /// INOUT task may steal the buffer only when this is zero *and* the
    /// store holds the only live `Arc` (no dispatched-but-running
    /// reader, no driver-side `peek`/`wait` clone). Failure cascades
    /// leak increments (their `make_run` never runs), which only makes
    /// later consumers fall back to the copy path — conservative.
    pending_reads: usize,
    /// The driver declared it is done with this datum
    /// ([`Runtime::release`]): in streaming mode the entry is retired
    /// as soon as it is produced and no submitted reader remains.
    released: bool,
    /// Worker whose cache most recently held this value: the producer
    /// that committed it (stamped in `execute_one`), or [`DRIVER`]
    /// (-1) for `put` data and inline/driver executions. Feeds the
    /// affinity hint on dependent tasks (see [`ReadyRun::affinity`]);
    /// never read for correctness.
    last_touch: i64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Some dependencies are still unfinished.
    Waiting,
    /// All dependencies done; queued (or about to be) for execution.
    Ready,
    /// Completed successfully (or failed under [`OnFailure::Ignore`],
    /// in which case the outputs are poisoned).
    Done,
    /// Panicked, or depends (transitively) on a task that did.
    Failed,
    /// Never ran: an upstream task failed under [`OnFailure::Ignore`]
    /// or [`OnFailure::CancelSuccessors`]. Terminal for `barrier`;
    /// outputs are poisoned.
    Cancelled,
}

/// A staged task body, held while the task waits on dependencies.
/// Input/output data ids are not duplicated here — the task's
/// [`TaskRecord`] already carries them (one less allocation per task
/// on the submission hot path).
struct PendingJob {
    f: TaskFn,
    /// Bit `i` set ⇒ input `i` has INOUT (consume) semantics: the
    /// dispatcher may move the stored value into the task when it is
    /// the last live consumer. Inputs beyond 64 are never consumed.
    consume_mask: u64,
    /// Failure policy + retry parameters declared at submission.
    fault: TaskFault,
}

/// A task made fully self-contained at *release* time: the body plus
/// its already-resolved inputs. Built by [`make_run`] under whichever
/// state lock released the task (submission or a predecessor's
/// completion) — so executing it needs no state lock at all before the
/// commit, two acquisitions per task instead of three. This is what
/// flows through the injector and the worker deques.
struct ReadyRun {
    id: TaskId,
    f: TaskFn,
    inputs: Vec<AnyArc>,
    /// When the task became visible to workers — queue-wait origin for
    /// the obs counters. Stamped once per injector flush (staged tasks
    /// share the flush instant) or at the releasing predecessor's
    /// completion; `None` when metrics are off or the task runs inline.
    ready_at: Option<Instant>,
    /// Failure policy carried from submission to the executor.
    fault: TaskFault,
    /// Task kind name, cloned at release *only* when a [`FaultPlan`]
    /// is installed (injection decisions match on the kind); `None`
    /// keeps the no-chaos hot path allocation-free.
    name: Option<String>,
    /// Locality hint: the worker whose cache most recently held this
    /// task's largest input ([`DRIVER`] when the task has no inputs or
    /// everything was driver-produced — always, in inline mode).
    /// Workers prefer own-affinity tasks when popping and leave a
    /// victim's own-affinity tasks behind when stealing; execution on
    /// the hinted worker counts as a `locality_hit`. Advisory only —
    /// any worker may run any task, and results are bit-identical to
    /// an unsteered (inline) run.
    affinity: i64,
}

/// Extracts the body of ready task `tid` and resolves its inputs (all
/// producers are done by the release invariant). Caller holds the
/// state lock; `ready_at` is the release timestamp, taken by the caller
/// *outside* the lock (one clock read covers every task released in the
/// same batch) so instrumentation never lengthens the serialized
/// critical section. `None` when metrics are off.
fn make_run(st: &mut State, tid: TaskId, ready_at: Option<Instant>, inject: bool) -> ReadyRun {
    let ti = tid.0 as usize;
    let job = st.tasks[ti].job.take().expect("ready task has a job");
    // A retryable task must keep its inputs pristine across attempts:
    // a stolen buffer mutated by a half-finished failed attempt cannot
    // be replayed, so steals are disabled and the body falls back to
    // the (result-identical) clone path.
    let consume_mask = if job.fault.retryable() {
        0
    } else {
        job.consume_mask
    };
    let rec = &st.records[ti];
    // This task stops being a *pending* reader of its inputs here —
    // before the steal checks below, so its own registration never
    // blocks its own steal.
    for (d, _) in rec.inputs.iter() {
        st.data[d.0 as usize].pending_reads -= 1;
    }
    let mut inputs = Vec::with_capacity(rec.inputs.len());
    // Affinity hint: the last-touch worker of the largest input — the
    // byte-weighted guess at which core's cache still holds this
    // task's working set. Computed inline with input resolution (no
    // extra pass); driver-touched inputs (all of them, in inline mode)
    // carry no hint.
    let mut affinity = DRIVER;
    let mut aff_bytes = 0usize;
    for (i, (d, _)) in rec.inputs.iter().enumerate() {
        let entry = &mut st.data[d.0 as usize];
        if entry.last_touch >= 0 {
            let b = match &entry.slot {
                Slot::Ready(_, b) => *b,
                _ => 0,
            };
            if b > aff_bytes || affinity == DRIVER {
                aff_bytes = b;
                affinity = entry.last_touch;
            }
        }
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
                        Slot::Ready(v, _) => inputs.push(v),
                        _ => unreachable!(),
                    }
                    continue;
                }
            }
        }
        match &entry.slot {
            Slot::Ready(v, _) => inputs.push(v.clone()),
            Slot::Pending => unreachable!("input {d:?} not ready for task {tid:?}"),
            // Submission fails tasks reading consumed data in place,
            // so a dispatched task can never see a moved IN input.
            Slot::Moved(_) => unreachable!("input {d:?} consumed before task {tid:?} dispatched"),
            // Submission cancels tasks reading poisoned data in place,
            // so a dispatched task can never see a poisoned input.
            Slot::Poisoned(_) => {
                unreachable!("input {d:?} poisoned before task {tid:?} dispatched")
            }
        }
    }
    // Streaming reclamation sweep: a datum this dispatch consumed
    // (`Slot::Moved`) or that the driver already released is dead once
    // its pending-reader count hits zero — retire it now, under the
    // same lock that resolved it.
    if st.stream {
        for k in 0..st.records[ti].inputs.len() {
            let d = st.records[ti].inputs[k].0;
            retire_data_if_idle(st, d);
        }
    }
    ReadyRun {
        id: tid,
        f: job.f,
        inputs,
        ready_at,
        fault: job.fault,
        name: inject.then(|| st.records[ti].name.clone()),
        affinity,
    }
}

/// Retires datum `d` when it can never be read again: no pending
/// (submitted-but-undispatched) reader remains and the slot is either
/// consumed by an INOUT steal (`Moved`) or explicitly released by the
/// driver after being produced. Retiring the last live output of a
/// `Done` task retires the task entry and its record too — the
/// whole per-task footprint leaves the tables. Streaming mode only:
/// every call site is gated on `State::stream` — this *is* the
/// retention policy, a default runtime must never get here. Caller
/// holds the state lock.
fn retire_data_if_idle(st: &mut State, d: DataId) {
    debug_assert!(st.stream, "retirement without RuntimeConfig::stream");
    let di = d.0 as usize;
    let Some(e) = st.data.get_opt(di) else { return };
    if e.pending_reads > 0 {
        return;
    }
    let dead = match &e.slot {
        Slot::Moved(_) => true,
        Slot::Ready(..) | Slot::Poisoned(_) => e.released,
        Slot::Pending => false,
    };
    if !dead {
        return;
    }
    let producer = e.producer;
    st.data.retire(di);
    if let Some(p) = producer {
        let pi = p.0 as usize;
        if let Some(t) = st.tasks.get_opt_mut(pi) {
            t.live_outputs = t.live_outputs.saturating_sub(1);
            // Only `Done` tasks retire: failed/cancelled entries keep
            // their failure message alive for `barrier`/`wait`, and
            // anything unfinished is still needed by the scheduler.
            if t.live_outputs == 0 && t.status == Status::Done {
                st.tasks.retire(pi);
                st.records.retire(pi);
            }
        }
    }
}

/// Per-task scheduling entry, indexed by `TaskId` (== record index).
struct TaskEntry {
    status: Status,
    /// Unfinished dependencies (meaningful while `Waiting`).
    remaining: usize,
    /// Tasks to release when this one completes.
    dependents: Vec<TaskId>,
    /// The body, staged until execution.
    job: Option<PendingJob>,
    /// Failure message (shared across the transitive failure cone).
    failure: Option<Arc<str>>,
    /// Declared failure policy; decides whether a recorded failure is
    /// fatal to `barrier` ([`OnFailure::Fail`]/[`OnFailure::Retry`])
    /// or tolerated ([`OnFailure::CancelSuccessors`]).
    on_failure: OnFailure,
    /// Outputs still resident in the data table (streaming mode):
    /// when the last one retires and the task is `Done`, the task
    /// entry and its record retire with it.
    live_outputs: u32,
}

struct State {
    data: Store<DataEntry>,
    tasks: Store<TaskEntry>,
    records: Store<TaskRecord>,
    /// Mirror of `RuntimeConfig::stream.is_some()`: gates every
    /// reclamation sweep over the tables above with one branch.
    stream: bool,
    /// Tasks submitted with a body and not yet terminal — the quantity
    /// the streaming watermarks throttle on (maintained only when
    /// `stream` is on).
    in_flight: u64,
    peak_in_flight: u64,
    /// `since_barrier` length that triggers the next streaming prune
    /// (completed entries are dropped; doubles after each prune).
    prune_mark: usize,
    sync_marker: Option<TaskId>,
    since_barrier: Vec<TaskId>,
    /// Drivers currently blocked in `wait`/`barrier`; completion skips
    /// the condvar entirely when zero.
    waiters: usize,
    /// Ready-at-submission tasks not yet moved to the injector
    /// (threaded mode only). Submission storms stage here — already
    /// under the state lock — and flush in batches, instead of paying
    /// an injector lock plus a wakeup per task. Flushed immediately
    /// whenever a worker is idle, so eager execution is preserved; an
    /// idle worker also drains it directly (see [`flush_staged`]).
    staged: Vec<ReadyRun>,
}

struct WakeState {
    /// Workers currently in (or entering) a condvar sleep.
    sleepers: usize,
    /// Pending wake obligations for sleeping workers (each is one
    /// issued `notify_one`; always `<= sleepers`). A worker consumes
    /// one token per sleep cycle.
    tokens: usize,
    shutdown: bool,
}

impl WakeState {
    /// Republishes the "unclaimed sleeper exists" hint after any
    /// `sleepers`/`tokens` change (caller holds the wake lock). The
    /// submission path reads the hint with a relaxed load instead of
    /// taking the wake lock on every task.
    fn publish_idle_hint(&self, hint: &AtomicBool) {
        hint.store(self.sleepers > self.tokens, Ordering::Relaxed);
    }
}

/// Liveness snapshot of the runtime's tables
/// (see [`Runtime::table_stats`]).
#[derive(Debug, Clone, Copy)]
pub struct TableStats {
    pub tasks: StoreStats,
    pub data: StoreStats,
    pub records: StoreStats,
    /// Tasks submitted with a body and not yet terminal (streaming
    /// mode only; 0 otherwise).
    pub in_flight: u64,
    /// High-water mark of `in_flight` — bounded by the stream `high`
    /// watermark plus scheduler slack.
    pub peak_in_flight: u64,
}

/// Everything workers need. Workers hold `Arc<Shared>` only — never
/// `Arc<Inner>` — so dropping the last `Runtime` clone can join them.
struct Shared {
    config: RuntimeConfig,
    state: Mutex<State>,
    /// Signals task completion to blocked drivers.
    cv: Condvar,
    /// Root-task submissions from the driver, oldest first.
    injector: Mutex<VecDeque<ReadyRun>>,
    /// One deque per worker.
    queues: Vec<Mutex<VecDeque<ReadyRun>>>,
    wake: Mutex<WakeState>,
    wake_cv: Condvar,
    /// Mirror of `sleepers > tokens`, maintained under the wake lock;
    /// lets `submit_locked` decide stage-vs-flush without that lock.
    idle_hint: AtomicBool,
    /// Installed fault-injection plan (chaos harness), if any.
    fault_plan: Mutex<Option<Arc<FaultPlan>>>,
    /// Mirror of `fault_plan.is_some()`: a relaxed load keeps the
    /// no-chaos dispatch path free of the plan lock.
    fault_active: AtomicBool,
    /// Creation time — the zero point of every recorded `start_s`.
    epoch: Instant,
    /// Observability counters (see [`crate::obs`]); updates gated by
    /// `config.metrics`. `Arc` so a [`TaskCtx`] can carry a reference
    /// into task bodies for in-body (INOUT) accounting.
    counters: Arc<Counters>,
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
        lock(&self.shared.wake).shutdown = true;
        self.shared.wake_cv.notify_all();
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
            nested_mode: ExecMode::Inline,
            ..RuntimeConfig::default()
        })
    }

    /// Builds a runtime from an explicit configuration.
    ///
    /// # Panics
    /// Panics when the stream watermarks are invalid (`low > high` or
    /// `high == 0`).
    pub fn with_config(config: RuntimeConfig) -> Self {
        if let Some(sc) = config.stream {
            assert!(
                sc.high > 0 && sc.low <= sc.high,
                "invalid stream watermarks: need 0 < low <= high, \
                 got low={} high={}",
                sc.low,
                sc.high
            );
        }
        let n_workers = match config.mode {
            ExecMode::Inline => 0,
            ExecMode::Threads(n) => n.max(1),
        };
        let epoch = Instant::now();
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(State {
                data: Store::new("data"),
                tasks: Store::new("task"),
                records: Store::new("record"),
                stream: config.stream.is_some(),
                in_flight: 0,
                peak_in_flight: 0,
                prune_mark: 1024,
                sync_marker: None,
                since_barrier: Vec::new(),
                waiters: 0,
                staged: Vec::new(),
            }),
            cv: Condvar::new(),
            injector: Mutex::new(VecDeque::new()),
            queues: (0..n_workers)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            wake: Mutex::new(WakeState {
                sleepers: 0,
                tokens: 0,
                shutdown: false,
            }),
            wake_cv: Condvar::new(),
            idle_hint: AtomicBool::new(false),
            fault_plan: Mutex::new(None),
            fault_active: AtomicBool::new(false),
            epoch,
            counters: Arc::new(Counters::new(n_workers)),
        });
        let workers = (0..n_workers)
            .map(|i| {
                let s = shared.clone();
                std::thread::Builder::new()
                    .name(format!("taskrt-worker-{i}"))
                    .spawn(move || worker_loop(s, i))
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
        let mut st = lock(&self.inner.shared.state);
        let id = DataId(st.data.len() as u64);
        st.data.push(DataEntry {
            slot: Slot::Ready(Arc::new(value), bytes),
            producer: None,
            pending_reads: 0,
            released: false,
            last_touch: DRIVER,
        });
        Handle::new(id)
    }

    /// Declares the driver done with `h`. On a streaming runtime
    /// ([`RuntimeConfig::stream`]) the datum's table slot is retired
    /// as soon as it is produced and every already-submitted reader
    /// has consumed it; reading the handle afterwards fails with a
    /// named `"stale handle"` error. Tasks submitted *before* the
    /// release still read the value normally. Without `stream` the
    /// retention policy is "keep everything": this is a no-op and the
    /// handle stays readable.
    pub fn release<T: Payload>(&self, h: Handle<T>) {
        let id = h.id;
        let shared = &self.inner.shared;
        if shared.config.stream.is_none() {
            return;
        }
        let mut st = lock(&shared.state);
        if let Some(e) = st.data.get_opt_mut(id.0 as usize) {
            e.released = true;
        }
        retire_data_if_idle(&mut st, id);
    }

    /// Liveness snapshot of the task/data/record tables plus the
    /// in-flight gauge — how the streaming runtime's bounded resident
    /// set is observed (and gated, by `tests/tests/streaming_scale.rs`). Without
    /// [`RuntimeConfig::stream`] nothing retires: `retired == 0` and
    /// `live == allocated` on all three tables.
    pub fn table_stats(&self) -> TableStats {
        let st = lock(&self.inner.shared.state);
        TableStats {
            tasks: st.tasks.stats(),
            data: st.data.stats(),
            records: st.records.stats(),
            in_flight: st.in_flight,
            peak_in_flight: st.peak_in_flight,
        }
    }

    /// Starts building a task of the given kind name.
    ///
    /// The name identifies the task *type* (like the color classes in
    /// the paper's execution graphs) and keys the simulator's optional
    /// cost model.
    pub fn task(&self, name: &str) -> TaskBuilder<'_> {
        TaskBuilder {
            rt: self,
            name: name.to_string(),
            cores: 1,
            gpus: 0,
            fault: TaskFault::default(),
        }
    }

    /// Installs (or clears, with `None`) a deterministic fault-injection
    /// plan: every subsequent attempt of a matching task consults the
    /// plan before running its body (see [`FaultPlan`]). Chaos-testing
    /// hook — with no plan installed the dispatch path only pays one
    /// relaxed atomic load.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        let shared = &self.inner.shared;
        let mut slot = lock(&shared.fault_plan);
        shared.fault_active.store(plan.is_some(), Ordering::Relaxed);
        *slot = plan.map(Arc::new);
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
        // order), then block.
        {
            let mut st = lock(&self.inner.shared.state);
            if let Some(producer) = st.data[h.id.0 as usize].producer {
                let mut deps = vec![producer];
                if let Some(prev) = st.sync_marker {
                    if prev != producer {
                        deps.push(prev);
                    }
                }
                let marker = Self::push_marker(&mut st, SYNC_TASK, deps);
                st.sync_marker = Some(marker);
                st.since_barrier.push(marker);
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
        if di >= lock(&shared.state).data.len() {
            panic!("unknown data id {id:?}");
        }
        // Failures are reported after `drive_until` returns, i.e. with
        // the state lock released.
        let outcome = drive_until(shared, |st| {
            let entry = &st.data[di];
            if let Some(p) = entry.producer {
                if let Some(msg) = &st.tasks[p.0 as usize].failure {
                    return Some(Err(format!("dependency task failed: {msg}")));
                }
            }
            match &entry.slot {
                Slot::Ready(v, _) => Some(Ok(v.clone())),
                Slot::Moved(_) => Some(Err(format!(
                    "data {id:?} was consumed by an INOUT task; \
                     use the handle returned by run*_inout instead"
                ))),
                Slot::Poisoned(msg) => Some(Err(format!("data {id:?} is poisoned: {msg}"))),
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
        let pending: Vec<TaskId> = {
            let mut st = lock(&shared.state);
            let deps = std::mem::take(&mut st.since_barrier);
            let marker = Self::push_marker(&mut st, BARRIER_TASK, deps.clone());
            st.sync_marker = Some(marker);
            st.since_barrier = vec![marker];
            deps
        };
        let outcome = drive_until(shared, |st| {
            for &t in &pending {
                // A retired entry (streaming slot recycling) was
                // necessarily `Done` with no failure — skip it.
                let Some(e) = st.tasks.get_opt(t.0 as usize) else {
                    continue;
                };
                // Non-fatal policies (CancelSuccessors) record a
                // failure but let the barrier pass; only Fail/Retry
                // failures abort the workflow here.
                if !matches!(e.on_failure, OnFailure::Fail | OnFailure::Retry) {
                    continue;
                }
                if let Some(msg) = &e.failure {
                    let rec = &st.records[t.0 as usize];
                    let name = &rec.name;
                    let attempts = rec.attempts.len().max(1);
                    return Some(Err(format!(
                        "task '{name}' ({t:?}) failed before barrier \
                         after {attempts} attempt(s): {msg}"
                    )));
                }
            }
            pending
                .iter()
                .all(|&t| {
                    st.tasks.get_opt(t.0 as usize).is_none_or(|e| {
                        matches!(e.status, Status::Done | Status::Failed | Status::Cancelled)
                    })
                })
                .then_some(Ok(()))
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
        let ids = self.task(SPLIT_TASK).cores(0).submit(
            vec![h.id],
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
        (Handle::new(ids[0]), Handle::new(ids[1]))
    }

    /// Snapshot of the trace recorded so far, in task-id order. Call
    /// after [`barrier`] (or on an inline runtime) to get final
    /// durations. Complete unless [`RuntimeConfig::stream`] is set, in
    /// which case retired tasks' records are gone with them.
    ///
    /// [`barrier`]: Runtime::barrier
    pub fn trace(&self) -> Trace {
        let st = lock(&self.inner.shared.state);
        Trace {
            // A streaming runtime retires records with their tasks, so
            // the trace covers only still-resident tasks there; the
            // default policy retires nothing and the trace is complete.
            records: st.records.iter_live().map(|(_, r)| r.clone()).collect(),
        }
    }

    /// Convenience: barrier, then return the completed trace.
    pub fn finish(&self) -> Trace {
        self.barrier();
        self.trace()
    }

    /// Number of tasks submitted so far (markers included).
    pub fn task_count(&self) -> usize {
        lock(&self.inner.shared.state).records.len()
    }

    /// Snapshot of the scheduler's observability counters (see
    /// [`crate::obs::RuntimeStats`]). All zeros when the runtime was
    /// built with [`RuntimeConfig::metrics`] `= false`.
    pub fn stats(&self) -> RuntimeStats {
        self.inner.shared.counters.snapshot()
    }

    /// Builds a [`Registry`] of every scheduler counter plus three
    /// latency histograms derived from the resident records — queue
    /// wait (`ready_s` to the first attempt's start, for records with a
    /// ready stamp), run time (final attempt) and per-attempt latency —
    /// ready for JSON or Prometheus export. Call it after a `barrier`:
    /// a task still running has no record stamps yet. Callers may fold
    /// their own metrics in afterwards (the `profile` bin adds the
    /// linalg buffer-pool counters this way).
    pub fn registry(&self) -> Registry {
        let ns = |s: f64| (s.max(0.0) * 1e9) as u64;
        let (mut queue_wait, mut run, mut attempt) = (Vec::new(), Vec::new(), Vec::new());
        {
            let st = lock(&self.inner.shared.state);
            for (_, r) in st.records.iter_live().filter(|(_, r)| r.ran()) {
                run.push(ns(r.duration_s));
                if r.attempts.is_empty() {
                    attempt.push(ns(r.duration_s));
                } else {
                    attempt.extend(r.attempts.iter().map(|a| ns(a.duration_s)));
                }
                if r.ready_s > 0.0 {
                    let first_start = r.attempts.first().map_or(r.start_s, |a| a.start_s);
                    queue_wait.push(ns(first_start - r.ready_s));
                }
            }
        }
        let s = self.stats();
        let mut reg = Registry::new();
        reg.counter("taskrt_tasks_total", "tasks executed", s.total_tasks());
        reg.counter(
            "taskrt_driver_tasks_total",
            "tasks executed on driver threads",
            s.driver_tasks,
        );
        reg.counter(
            "taskrt_steal_attempts_total",
            "steal probes into sibling deques",
            s.steal_attempts,
        );
        reg.counter(
            "taskrt_stolen_tasks_total",
            "tasks acquired via stealing",
            s.stolen_tasks,
        );
        reg.counter(
            "taskrt_locality_hits_total",
            "tasks run on the worker that produced their largest input",
            s.locality_hits,
        );
        reg.counter(
            "taskrt_locality_misses_total",
            "affinity-hinted tasks run on a different worker",
            s.locality_misses,
        );
        reg.counter(
            "taskrt_injector_flushes_total",
            "staged submission batches flushed",
            s.injector_flushes,
        );
        reg.counter(
            "taskrt_wakeups_total",
            "worker wake tokens granted",
            s.wakeups,
        );
        reg.counter(
            "taskrt_inout_steals_total",
            "INOUT parameters handed over by move",
            s.inout_steals,
        );
        reg.counter(
            "taskrt_inout_copies_total",
            "INOUT parameters cloned on shared",
            s.inout_copies,
        );
        reg.counter("taskrt_retries_total", "failed attempts retried", s.retries);
        reg.counter(
            "taskrt_giveups_total",
            "tasks that exhausted their retry budget",
            s.giveups,
        );
        reg.counter(
            "taskrt_poisoned_total",
            "outputs poisoned by ignored failures",
            s.poisoned,
        );
        reg.counter(
            "taskrt_cancelled_total",
            "tasks cancelled by failure policies",
            s.cancelled,
        );
        reg.counter(
            "taskrt_worker_parks_total",
            "worker condvar sleeps",
            s.worker_parks,
        );
        reg.gauge(
            "taskrt_worker_idle_seconds",
            "total seconds workers were parked",
            s.worker_idle_s,
        );
        reg.histogram(
            "taskrt_queue_wait_seconds",
            "ready-to-start latency per task",
            HistogramSnapshot::from_samples(queue_wait),
            1e-9,
        );
        reg.histogram(
            "taskrt_run_seconds",
            "task body run time (final attempt)",
            HistogramSnapshot::from_samples(run),
            1e-9,
        );
        reg.histogram(
            "taskrt_attempt_seconds",
            "per-attempt body latency (all attempts)",
            HistogramSnapshot::from_samples(attempt),
            1e-9,
        );
        reg
    }

    /// Markers are born `Done`: they never execute, they only shape the
    /// dependency graph.
    fn push_marker(st: &mut State, name: &str, mut deps: Vec<TaskId>) -> TaskId {
        deps.sort_unstable();
        deps.dedup();
        let id = TaskId(st.tasks.len() as u64);
        let seq = st.records.len() as u64;
        st.records.push(TaskRecord {
            id,
            name: name.to_string(),
            deps,
            duration_s: 0.0,
            inputs: vec![],
            outputs: vec![],
            cores: 0,
            gpus: 0,
            seq,
            ready_s: 0.0,
            start_s: 0.0,
            worker: -1,
            child: None,
            attempts: vec![],
        });
        st.tasks.push(TaskEntry {
            status: Status::Done,
            remaining: 0,
            dependents: Vec::new(),
            job: None,
            failure: None,
            on_failure: OnFailure::Fail,
            // Markers have no outputs, so no retirement path ever
            // triggers on them — they stay resident (cheap: one per
            // sync point) and `sync_marker` deps stay valid.
            live_outputs: 0,
        });
        id
    }

    /// The one submission path every public entry point funnels into:
    /// sanitize the consume mask, run the [`submit_locked`] transaction
    /// under the state lock, then execute / wake / throttle outside it.
    ///
    /// Bit `i` of `consume_mask` marks input `i` as consumable — the
    /// dispatcher moves the stored value into the task when the task is
    /// its last live consumer (see [`make_run`]), so the body can reuse
    /// the buffer instead of cloning it. The consumed handle's datum is
    /// retired ([`Slot::Moved`]); tasks submitted later that read it
    /// fail loudly — the PyCOMPSs `direction=INOUT` contract where the
    /// post-task version of the datum is the one to keep using.
    #[allow(clippy::too_many_arguments)]
    fn submit_inner(
        &self,
        name: String,
        cores: u32,
        gpus: u32,
        inputs: Vec<DataId>,
        mut consume_mask: u64,
        n_outputs: usize,
        fault: TaskFault,
        f: TaskFn,
    ) -> Vec<DataId> {
        // A datum passed twice to the same task must never be consumed:
        // stealing one occurrence would leave the other dangling. Clear
        // every consume bit of any duplicated id (inputs are short —
        // the quadratic scan only runs for consuming submissions).
        if consume_mask != 0 {
            for i in 0..inputs.len().min(64) {
                if consume_mask >> i & 1 == 1
                    && inputs
                        .iter()
                        .enumerate()
                        .any(|(j, d)| j != i && *d == inputs[i])
                {
                    consume_mask &= !(1u64 << i);
                }
            }
        }
        let shared = &self.inner.shared;
        let mut inline_runs = INLINE_WORKLIST.with(std::cell::Cell::take);
        let mut wake_n = 0;
        let outputs = {
            let mut st = lock(&shared.state);
            submit_locked(
                shared,
                &mut st,
                name,
                cores,
                gpus,
                inputs,
                consume_mask,
                n_outputs,
                fault,
                f,
                &mut inline_runs,
                &mut wake_n,
            )
        };
        let scratch = run_worklist(shared, inline_runs);
        INLINE_WORKLIST.with(|c| c.set(scratch));
        if wake_n > 0 {
            wake(shared, wake_n);
        }
        // Streaming backpressure: park (after helping drain) when the
        // in-flight count crossed the high watermark. Inline mode
        // already drained everything in `run_worklist` above.
        if let Some(sc) = shared.config.stream {
            if !shared.queues.is_empty() {
                throttle(shared, sc);
            }
        }
        outputs
    }
}

/// The single-task submission transaction: allocates the output
/// entries, detects dependencies, records the task, and
/// dispatches it if ready — all under the state lock the caller holds.
/// Ready inline-mode tasks are appended to `inline_runs` (the caller
/// executes them after unlocking); threaded-mode wake obligations
/// accumulate in `wake_n`. Lock order state -> wake/injector is
/// one-way: nothing here acquires the state lock while holding either.
#[allow(clippy::too_many_arguments)]
fn submit_locked(
    shared: &Shared,
    st: &mut State,
    name: String,
    cores: u32,
    gpus: u32,
    inputs: Vec<DataId>,
    consume_mask: u64,
    n_outputs: usize,
    fault: TaskFault,
    f: TaskFn,
    inline_runs: &mut Vec<ReadyRun>,
    wake_n: &mut usize,
) -> Vec<DataId> {
    let tid = TaskId(st.tasks.len() as u64);

    let outputs: Vec<DataId> = (0..n_outputs)
        .map(|_| {
            let id = DataId(st.data.len() as u64);
            st.data.push(DataEntry {
                slot: Slot::Pending,
                producer: Some(tid),
                pending_reads: 0,
                released: false,
                last_touch: DRIVER,
            });
            id
        })
        .collect();

    let seq = st.records.len() as u64;
    let mut consumed_input = None;
    let mut poisoned_input: Option<Arc<str>> = None;
    let input_bytes: Vec<(DataId, usize)> = inputs
        .iter()
        .map(|d| {
            let b = match &st.data[d.0 as usize].slot {
                Slot::Ready(_, b) => *b,
                Slot::Moved(b) => {
                    consumed_input = Some(*d);
                    *b
                }
                Slot::Pending => 0, // filled in at completion
                Slot::Poisoned(m) => {
                    poisoned_input = Some(m.clone());
                    0
                }
            };
            (*d, b)
        })
        .collect();

    // Data dependencies: last writer of each input. Consuming
    // `inputs` by value lets `collect` reuse its allocation
    // (same-layout in-place collection) — the record's `inputs`
    // carries the ids from here on.
    let mut deps: Vec<TaskId> = inputs
        .into_iter()
        .filter_map(|d| st.data[d.0 as usize].producer)
        .collect();
    if let Some(m) = st.sync_marker {
        deps.push(m);
    }
    deps.sort_unstable();
    deps.dedup();
    deps.retain(|&d| d != tid);

    let inherited_failure = deps
        .iter()
        .find_map(|&d| st.tasks[d.0 as usize].failure.clone());
    let remaining = deps
        .iter()
        .filter(|&&d| st.tasks[d.0 as usize].status != Status::Done)
        .count();

    st.records.push(TaskRecord {
        id: tid,
        name,
        deps, // moved — the record holds the only copy
        duration_s: 0.0,
        inputs: input_bytes,
        outputs: outputs.iter().map(|&d| (d, 0)).collect(),
        cores,
        gpus,
        seq,
        ready_s: 0.0,
        start_s: 0.0,
        worker: -1,
        child: None,
        attempts: vec![],
    });
    st.since_barrier.push(tid);
    // Streaming: `since_barrier` would otherwise grow one id per task
    // for the life of the run. Completed (or recycled) entries can
    // never fail a future barrier — prune them whenever the list
    // doubles past the last mark, keeping it proportional to live
    // tasks. Non-streaming runs keep the full list (the barrier
    // marker's dep list documents the complete DAG there).
    if st.stream && st.since_barrier.len() >= st.prune_mark {
        let State {
            since_barrier,
            tasks,
            ..
        } = st;
        since_barrier.retain(|t| {
            tasks
                .get_opt(t.0 as usize)
                .is_some_and(|e| e.status != Status::Done)
        });
        st.prune_mark = (st.since_barrier.len() * 2).max(1024);
    }

    let ready_now = if let Some(d) = consumed_input {
        // Reading a datum an INOUT task already consumed is a
        // contract violation; fail in place, loudly, instead of
        // handing out a stale or missing value.
        st.tasks.push(TaskEntry {
            status: Status::Failed,
            remaining: 0,
            dependents: Vec::new(),
            job: None,
            failure: Some(
                format!(
                    "input {d:?} was already consumed by an INOUT task; \
                     use the handle returned by run*_inout instead"
                )
                .into(),
            ),
            on_failure: fault.on_failure,
            live_outputs: outputs.len() as u32,
        });
        false
    } else if let Some(msg) = poisoned_input {
        // An upstream failure was ignored (or cancelled its
        // successors): this task can never run. Cancel in place
        // and poison its outputs so the silence propagates.
        st.tasks.push(TaskEntry {
            status: Status::Cancelled,
            remaining: 0,
            dependents: Vec::new(),
            job: None,
            failure: None,
            on_failure: fault.on_failure,
            live_outputs: outputs.len() as u32,
        });
        for &d in &outputs {
            st.data[d.0 as usize].slot = Slot::Poisoned(msg.clone());
        }
        if shared.config.metrics {
            Counters::add(&shared.counters.cancelled, 1);
        }
        false
    } else if let Some(msg) = inherited_failure {
        // A dependency already failed; its cascade ran before we
        // existed, so fail in place (waiters see it immediately).
        st.tasks.push(TaskEntry {
            status: Status::Failed,
            remaining: 0,
            dependents: Vec::new(),
            job: None,
            failure: Some(msg),
            on_failure: fault.on_failure,
            live_outputs: outputs.len() as u32,
        });
        false
    } else if remaining == 0 {
        st.tasks.push(TaskEntry {
            status: Status::Ready,
            remaining: 0,
            dependents: Vec::new(),
            job: Some(PendingJob {
                f,
                consume_mask,
                fault,
            }),
            failure: None,
            on_failure: fault.on_failure,
            live_outputs: outputs.len() as u32,
        });
        true
    } else {
        st.tasks.push(TaskEntry {
            status: Status::Waiting,
            remaining,
            dependents: Vec::new(),
            job: Some(PendingJob {
                f,
                consume_mask,
                fault,
            }),
            failure: None,
            on_failure: fault.on_failure,
            live_outputs: outputs.len() as u32,
        });
        let deps = &st.records[tid.0 as usize].deps;
        let tasks = &mut st.tasks;
        for &d in deps {
            if tasks[d.0 as usize].status != Status::Done {
                tasks[d.0 as usize].dependents.push(tid);
            }
        }
        false
    };
    // Tasks holding a job are pending readers of their inputs
    // until `make_run` resolves them (see `DataEntry::
    // pending_reads`); failed-in-place tasks never dispatch.
    if st.tasks[tid.0 as usize].job.is_some() {
        let ins = &st.records[tid.0 as usize].inputs;
        let data = &mut st.data;
        for (d, _) in ins {
            data[d.0 as usize].pending_reads += 1;
        }
        // Backpressure gauge: one increment per task that will
        // actually execute (markers and failed/cancelled-in-place
        // tasks never enter the scheduler).
        if st.stream {
            st.in_flight += 1;
            if st.in_flight > st.peak_in_flight {
                st.peak_in_flight = st.in_flight;
            }
        }
    }

    // Dispatch, still under the state lock. Inline: resolve now
    // and run after unlocking. Threaded: stage the resolved run
    // and flush in batches — an idle worker forces an immediate
    // flush (eager semantics); otherwise submission storms pay
    // one injector lock + wakeup per batch, not per task.
    if ready_now {
        let inject = shared.fault_active.load(Ordering::Relaxed);
        match shared.config.mode {
            // Inline runs the task right after unlock: queue wait is
            // genuinely ~0, so skip the stamp (and its clock
            // read) entirely.
            ExecMode::Inline => inline_runs.push(make_run(st, tid, None, inject)),
            ExecMode::Threads(_) => {
                // No stamp here either: the flush stamps its batch.
                let run = make_run(st, tid, None, inject);
                st.staged.push(run);
                // "Idle" means a sleeper with no wakeup already
                // in flight — a notified-but-not-yet-scheduled
                // worker doesn't force a flush per submission.
                // (Hint read is racy but never loses work: a
                // worker publishes the hint before its final
                // staged-drain, and we stage before reading.)
                let idle = shared.idle_hint.load(Ordering::Relaxed);
                if idle || st.staged.len() >= STAGE_BATCH {
                    *wake_n += flush_staged_locked(shared, st);
                }
            }
        }
    }
    outputs
}

/// How many ready-at-submission tasks accumulate in [`State::staged`]
/// before a flush when no worker is idle (all busy: dispatch latency is
/// irrelevant, batching the lock + wakeup traffic is everything).
const STAGE_BATCH: usize = 32;

/// Executor id recorded on [`TaskRecord::worker`] for tasks run on the
/// driver thread (inline mode, `run_worklist`, or cooperative
/// `help_drain`); pool workers use their index `0..n_workers`.
const DRIVER: i64 = -1;

/// Moves driver-staged ready tasks into the injector (see
/// [`State::staged`]); returns how many were moved. Called by workers
/// that ran dry and by a helping driver, so staged work can never stall
/// behind a paused submission stream.
fn flush_staged(shared: &Shared) -> usize {
    flush_staged_locked(shared, &mut lock(&shared.state))
}

/// [`flush_staged`] for a caller already holding the state lock (the
/// submission path). The flush stamps the whole batch: staged tasks
/// are invisible to workers until it publishes them, so one clock read
/// covers every task in it.
fn flush_staged_locked(shared: &Shared, st: &mut State) -> usize {
    let n = st.staged.len();
    if n > 0 {
        let metrics = shared.config.metrics;
        let stamp = metrics.then(Instant::now);
        lock(&shared.injector).extend(st.staged.drain(..).map(|mut r| {
            r.ready_at = stamp;
            r
        }));
        if metrics {
            Counters::add(&shared.counters.injector_flushes, 1);
            Counters::add(&shared.counters.injector_flushed_tasks, n as u64);
        }
    }
    n
}

/// Inline execution: drain the ready set on the caller's thread
/// (iterative, so long chains don't recurse; a plain `Vec` worklist —
/// execution order among ready tasks is unconstrained — reused across
/// every task it drains, so steady-state chains allocate nothing).
/// Returns the emptied buffer, capacity intact, for the caller to reuse.
fn run_worklist(shared: &Shared, mut work: Vec<ReadyRun>) -> Vec<ReadyRun> {
    while let Some(r) = work.pop() {
        execute_one(shared, r, &mut work, DRIVER);
    }
    work
}

thread_local! {
    /// Scratch worklist for inline submissions, reused across calls so
    /// the per-submission fast path allocates no `Vec` (see
    /// [`Runtime::submit_inner`], which puts back what
    /// [`run_worklist`] returns). Task bodies may themselves submit
    /// tasks: the nested call `take`s an empty default and the
    /// outermost call wins the put-back, so reentrancy costs at most
    /// one allocation instead of corrupting the buffer.
    static INLINE_WORKLIST: std::cell::Cell<Vec<ReadyRun>> =
        const { std::cell::Cell::new(Vec::new()) };
}

/// Pokes up to `n` sleeping workers. Notifies only workers that are
/// actually asleep and not already claimed by an in-flight token —
/// when every worker is awake (busy or spinning) this is one
/// uncontended lock and no syscall, which matters on fine-grained
/// submission storms. No lost wakeups: callers publish work to a queue
/// *before* calling `wake`, and a worker only commits to sleeping
/// after registering in `sleepers` and re-scanning every queue.
fn wake(shared: &Shared, n: usize) {
    if n == 0 || shared.queues.is_empty() {
        return;
    }
    let k = {
        let mut w = lock(&shared.wake);
        if w.shutdown {
            return;
        }
        let unclaimed = w.sleepers.saturating_sub(w.tokens);
        let k = n.min(unclaimed);
        w.tokens += k;
        w.publish_idle_hint(&shared.idle_hint);
        k
    };
    if k > 0 && shared.config.metrics {
        Counters::add(&shared.counters.wakeups, k as u64);
    }
    for _ in 0..k {
        shared.wake_cv.notify_one();
    }
}

/// One cooperative help pass for a blocked driver thread: drains ready
/// tasks from the injector and the workers' deques and executes them in
/// place, exactly as a worker would (keep one continuation, publish the
/// rest). Returns whether anything was executed. Work-sharing turns
/// sync points into throughput — on machines with fewer cores than
/// workers a sleeping driver would otherwise just add context switches
/// while the workers time-slice.
fn help_drain(shared: &Shared, newly: &mut Vec<ReadyRun>) -> bool {
    let mut helped = false;
    loop {
        let next = lock(&shared.injector)
            .pop_front()
            .or_else(|| shared.queues.iter().find_map(|q| lock(q).pop_back()));
        let Some(first) = next else {
            if flush_staged(shared) > 0 {
                continue;
            }
            return helped;
        };
        helped = true;
        let mut cont = Some(first);
        while let Some(t) = cont.take() {
            newly.clear();
            execute_one(shared, t, newly, DRIVER);
            if newly.len() > 1 {
                let n = newly.len() - 1;
                lock(&shared.injector).extend(newly.drain(1..));
                wake(shared, n);
            }
            cont = newly.pop();
        }
    }
}

/// The cooperative wait behind `wait`/`peek`, `barrier` and the
/// streaming throttle: blocks the calling driver thread until `done`
/// (evaluated under the state lock) yields a value. Between checks the
/// thread runs queued tasks itself (see [`help_drain`]) and parks on
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
                let park_t0 = shared.config.metrics.then(Instant::now);
                let mut st = shared
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                st.waiters -= 1;
                if let Some(t0) = park_t0 {
                    let shard = shared.counters.shard(DRIVER);
                    Counters::add(&shard.parks, 1);
                    Counters::add(&shard.idle_ns, t0.elapsed().as_nanos() as u64);
                }
                idle = false;
                continue;
            }
        }
        idle = !help_drain(shared, &mut newly);
    }
}

/// Streaming backpressure: blocks the submitting thread until in-flight
/// tasks drain to the low watermark. The high→low hysteresis means a
/// parked driver wakes into a burst of submission headroom instead of
/// bouncing off the high mark once per task.
fn throttle(shared: &Shared, sc: StreamConfig) {
    if (lock(&shared.state).in_flight as usize) < sc.high {
        return;
    }
    drive_until(shared, |st| (st.in_flight as usize <= sc.low).then_some(()));
}

/// Moves the front (oldest) half of the injector into `me`'s deque and
/// returns one task to run now. Batch acquisition amortizes the lock
/// traffic: one visit feeds a worker for many tasks instead of one.
/// Lock order: injector strictly before worker deques (matches
/// [`help_drain`]; never the reverse).
fn adopt_batch(shared: &Shared, me: usize, scratch: &mut Vec<ReadyRun>) -> Option<ReadyRun> {
    scratch.clear();
    {
        let mut inj = lock(&shared.injector);
        let take = inj.len().div_ceil(2);
        scratch.extend(inj.drain(..take));
    }
    if scratch.len() > 1 {
        // Keep the oldest for ourselves, queue the rest.
        lock(&shared.queues[me]).extend(scratch.drain(1..));
    }
    scratch.pop()
}

/// Finds the next task for worker `me`: own deque, then a batch from
/// the injector, then a batch stolen from a sibling's deque.
/// Entries scanned from the front of a worker's own deque for an
/// affinity match before falling back to plain FIFO order. Bounded so
/// a worker whose deque fills with foreign-affinity work degrades to
/// an O(1) pop instead of an O(len) scan per task.
const AFFINITY_SCAN: usize = 8;

/// Pops from `me`'s own deque, preferring (within the first
/// [`AFFINITY_SCAN`] entries) a task whose affinity hint names `me` —
/// its largest input was produced here and is plausibly cache-warm.
fn pop_own(shared: &Shared, me: usize) -> Option<ReadyRun> {
    let mut q = lock(&shared.queues[me]);
    let limit = q.len().min(AFFINITY_SCAN);
    match (0..limit).find(|&i| q[i].affinity == me as i64) {
        Some(idx) => q.remove(idx),
        None => q.pop_front(),
    }
}

fn pop_work(shared: &Shared, me: usize, scratch: &mut Vec<ReadyRun>) -> Option<ReadyRun> {
    if let Some(t) = pop_own(shared, me) {
        return Some(t);
    }
    if let Some(t) = adopt_batch(shared, me, scratch) {
        return Some(t);
    }
    let metrics = shared.config.metrics;
    let n = shared.queues.len();
    for k in 1..n {
        let j = (me + k) % n;
        let mut q = lock(&shared.queues[j]);
        if metrics {
            Counters::bump(&shared.counters.shard(me as i64).steal_attempts, 1);
        }
        // Steal the back (coldest) half of the victim's deque.
        let take = q.len() / 2;
        if take > 0 {
            scratch.clear();
            let start = q.len() - take;
            scratch.extend(q.drain(start..));
            // Cold-before-hot: hand back any batch member whose
            // affinity names the victim itself (its inputs are warm in
            // the victim's cache), provided at least one cold task
            // remains for us — an all-hot batch is kept whole so a
            // starved thief still makes progress.
            let vid = j as i64;
            if scratch.iter().any(|r| r.affinity != vid) {
                let mut i = 0;
                while i < scratch.len() {
                    if scratch[i].affinity == vid {
                        q.push_back(scratch.remove(i));
                    } else {
                        i += 1;
                    }
                }
            }
            drop(q);
            let kept = scratch.len();
            if metrics {
                let shard = shared.counters.shard(me as i64);
                Counters::bump(&shard.steal_successes, 1);
                Counters::bump(&shard.stolen_tasks, kept as u64);
            }
            if scratch.len() > 1 {
                lock(&shared.queues[me]).extend(scratch.drain(1..));
            }
            return scratch.pop();
        }
        if let Some(t) = q.pop_back() {
            if metrics {
                let shard = shared.counters.shard(me as i64);
                Counters::bump(&shard.steal_successes, 1);
                Counters::bump(&shard.stolen_tasks, 1);
            }
            return Some(t);
        }
    }
    // Ran dry: adopt anything the driver staged but hasn't dispatched,
    // sharing the surplus with other sleepers.
    let flushed = flush_staged(shared);
    if flushed > 0 {
        if flushed > 1 {
            wake(shared, flushed - 1);
        }
        return adopt_batch(shared, me, scratch);
    }
    None
}

/// Rounds of `yield_now` + rescan an idle worker performs before
/// falling back to a condvar sleep. A producer usually refills the
/// queues within a few scheduler quanta, and `sched_yield` is far
/// cheaper than a futex sleep/wake round trip per task — this is what
/// keeps fine-grained pipelines from ping-ponging through the kernel.
const IDLE_SPIN_ROUNDS: usize = 32;

/// True when any queue (own, injector, or a sibling's) holds work.
/// One lock at a time — `||` would keep the left operand's guard alive
/// while taking the next lock, violating the injector-before-deques
/// order used everywhere else.
fn has_work(shared: &Shared, me: usize) -> bool {
    if !lock(&shared.injector).is_empty() {
        return true;
    }
    let n = shared.queues.len();
    (0..n).any(|k| !lock(&shared.queues[(me + k) % n]).is_empty())
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    let _guard = WorkerGuard::new();
    let mut newly: Vec<ReadyRun> = Vec::new(); // reused across all tasks
    let mut scratch: Vec<ReadyRun> = Vec::new(); // batch-acquisition buffer
    'outer: loop {
        while let Some(task) = pop_work(&shared, me, &mut scratch) {
            // Run the task; keep one newly-ready dependent as the
            // continuation and publish the rest for siblings.
            let mut cont = Some(task);
            while let Some(t) = cont.take() {
                newly.clear();
                execute_one(&shared, t, &mut newly, me as i64);
                if newly.len() > 1 {
                    let n = newly.len() - 1;
                    lock(&shared.queues[me]).extend(newly.drain(1..));
                    wake(&shared, n);
                }
                cont = newly.pop();
            }
        }
        // Idle: spin briefly (yielding the CPU each round) in case the
        // driver is mid-submission, then sleep for a wake token.
        for _ in 0..IDLE_SPIN_ROUNDS {
            std::thread::yield_now();
            if has_work(&shared, me) {
                continue 'outer;
            }
        }
        // Register as a sleeper *before* the final re-scan. A producer
        // always publishes work before calling `wake`, so either our
        // re-scan sees the work, or the producer saw our registration
        // and left a token + notify — no interleaving loses a wakeup.
        {
            let mut w = lock(&shared.wake);
            if w.shutdown {
                return;
            }
            w.sleepers += 1;
            w.publish_idle_hint(&shared.idle_hint);
        }
        if has_work(&shared, me) || flush_staged(&shared) > 0 {
            // A token granted against this registration may linger; it
            // is consumed (as a free pass through one sleep cycle) by
            // whichever worker next reaches the sleep loop.
            let mut w = lock(&shared.wake);
            w.sleepers -= 1;
            w.publish_idle_hint(&shared.idle_hint);
            continue 'outer;
        }
        let park_t0 = shared.config.metrics.then(Instant::now);
        let mut w = lock(&shared.wake);
        loop {
            if w.shutdown {
                return;
            }
            if w.tokens > 0 {
                w.tokens -= 1;
                w.sleepers -= 1;
                w.publish_idle_hint(&shared.idle_hint);
                break;
            }
            w = shared
                .wake_cv
                .wait(w)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(w);
        if let Some(t0) = park_t0 {
            let shard = shared.counters.shard(me as i64);
            Counters::bump(&shard.parks, 1);
            Counters::bump(&shard.idle_ns, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Runs one released task to completion: time the body, store outputs,
/// release dependents. Inputs were already resolved at release time
/// (see [`ReadyRun`]), so the only state-lock acquisition here is the
/// commit. Dependents that became ready are resolved under that same
/// lock and appended to `newly_ready` (an out-param so callers reuse
/// one buffer across many tasks).
fn execute_one(shared: &Shared, run: ReadyRun, newly_ready: &mut Vec<ReadyRun>, who: i64) {
    let ReadyRun {
        id: task,
        mut f,
        inputs,
        ready_at,
        fault,
        name,
        affinity,
    } = run;
    let ti = task.0 as usize;
    let metrics = shared.config.metrics;
    let since_epoch = |t: Instant| t.saturating_duration_since(shared.epoch).as_secs_f64();

    // Workers own their shard (single writer -> cheap `bump`); driver
    // executions can come from any user thread and need the RMW.
    let count: fn(&AtomicU64, u64) = if who >= 0 {
        Counters::bump
    } else {
        Counters::add
    };
    // The injection plan is consulted only when a name was carried
    // (i.e. a plan was active at release) — the common path never
    // touches the plan lock.
    let plan: Option<Arc<FaultPlan>> = if name.is_some() {
        lock(&shared.fault_plan).clone()
    } else {
        None
    };
    let max_attempts = fault.max_attempts();
    // Retryable tasks run every attempt on a private clone of the input
    // vector (cheap `Arc` clones): a failed attempt may have taken
    // entries out via `take_arg`, and the next attempt needs them
    // pristine. Single-attempt tasks hand the vector over directly.
    let keep_inputs = max_attempts > 1;
    let mut inputs = inputs;
    let mut attempts: Vec<AttemptRecord> = Vec::new();
    let outcome = loop {
        let attempt_no = attempts.len() as u32 + 1;
        let ctx = TaskCtx {
            nested_mode: shared.config.nested_mode,
            metrics,
            counters: metrics.then(|| Arc::clone(&shared.counters)),
            child: Mutex::new(None),
        };
        let mut ins = if keep_inputs {
            inputs.clone()
        } else {
            std::mem::take(&mut inputs)
        };
        let injected = match (&plan, &name) {
            (Some(p), Some(n)) => p.decide(n, task.0, attempt_no),
            _ => None,
        };
        let start = Instant::now();
        if metrics && attempt_no == 1 {
            let shard = shared.counters.shard(who);
            count(&shard.tasks, 1);
            // Locality accounting: a hit means the worker executing the
            // task is the one that produced its (byte-)largest input, so
            // that input is plausibly still warm in its cache. Driver
            // executions and tasks with no worker-produced inputs are
            // excluded rather than counted as misses.
            if who >= 0 && affinity >= 0 {
                if who == affinity {
                    count(&shard.locality_hits, 1);
                } else {
                    count(&shard.locality_misses, 1);
                }
            }
            if let Some(t0) = ready_at {
                let wait = start.saturating_duration_since(t0).as_nanos() as u64;
                count(&shard.queue_wait_ns, wait);
            }
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match injected {
                Some(FaultMode::Panic) => panic!("{INJECTED_PANIC} (attempt {attempt_no})"),
                Some(FaultMode::Stall(s)) => std::thread::sleep(Duration::from_secs_f64(s)),
                None => {}
            }
            f(&ctx, &mut ins)
        }));
        let end = Instant::now();
        let duration = end.saturating_duration_since(start).as_secs_f64();
        if metrics {
            count(&shared.counters.shard(who).run_ns, (duration * 1e9) as u64);
        }
        drop(ins); // release the attempt's input refcounts outside the lock
        let start_s = since_epoch(start);
        // Cooperative per-attempt timeout: a body cannot be preempted,
        // so an overrunning attempt finishes but its result is
        // discarded and the attempt counts as failed.
        let timeout = fault.retry.attempt_timeout_s;
        let result: Result<_, Box<dyn Any + Send>> = match result {
            Ok(_)
                if fault.on_failure == OnFailure::Retry && timeout > 0.0 && duration > timeout =>
            {
                Err(Box::new(format!(
                    "attempt timed out after {duration:.3}s (limit {timeout}s)"
                )))
            }
            r => r,
        };
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
                if attempts.len() as u32 >= max_attempts {
                    break Err((start, duration));
                }
                if metrics {
                    Counters::add(&shared.counters.retries, 1);
                }
                // Deterministic exponential backoff; sleeps on the
                // executing worker — retry delays are expected to be
                // short relative to task runtimes, and parking the
                // task elsewhere would lose the continuation slot.
                let delay = fault.retry.backoff_s(task.0, attempts.len() as u32);
                if delay > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(delay));
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
        match outcome {
            Ok((outs, ctx, start, end, duration)) => {
                let child_trace = lock(&ctx.child).take().map(|rt| Box::new(rt.trace()));
                // Release stamp shared by every dependent this
                // completion frees: reusing `end` (instead of a fresh
                // clock read) keeps the metrics path at zero extra
                // `Instant::now` calls per completion, at the cost of
                // queue waits including the commit's lock acquisition.
                let released_at = metrics.then_some(end);
                // Fill sizes and duration in place on the record (no
                // reallocation on the completion hot path).
                let rec = &mut st.records[ti];
                assert_eq!(
                    outs.len(),
                    rec.outputs.len(),
                    "task produced wrong number of outputs"
                );
                let data = &mut st.data;
                rec.duration_s = duration;
                rec.ready_s = ready_s;
                rec.start_s = since_epoch(start);
                rec.worker = who;
                rec.child = child_trace;
                rec.attempts = attempts;
                for ((d, bytes), (v, b)) in rec.outputs.iter_mut().zip(outs) {
                    *bytes = b;
                    let entry = &mut data[d.0 as usize];
                    entry.slot = Slot::Ready(v, b);
                    // Stamp the producer so consumers of this output can
                    // be steered back to the worker whose cache holds it.
                    entry.last_touch = who;
                }
                for (d, bytes) in rec.inputs.iter_mut() {
                    // Streaming may already have reclaimed an input slot
                    // (its size was captured at dispatch time) — skip
                    // rather than trip the stale-handle panic.
                    match data.get_opt(d.0 as usize).map(|e| &e.slot) {
                        // `Moved`: this task's own INOUT steal retired
                        // the slot; the size survives in the tombstone.
                        Some(Slot::Ready(_, b)) | Some(Slot::Moved(b)) => *bytes = *b,
                        Some(Slot::Pending) | Some(Slot::Poisoned(_)) | None => {}
                    }
                }
                // Snapshot output ids before releasing dependents: a
                // dependent's dispatch may steal the last output and
                // retire this task's record out from under us.
                let out_ids: Option<Vec<DataId>> = st
                    .stream
                    .then(|| rec.outputs.iter().map(|(d, _)| *d).collect());
                st.tasks[ti].status = Status::Done;

                // Batched release: one pass over the dependents. The
                // list is detached while iterating (releasing `dep`
                // needs `&mut` into the same `tasks` vec) and its
                // allocation handed back afterwards rather than freed.
                let inject = shared.fault_active.load(Ordering::Relaxed);
                let mut deps = std::mem::take(&mut st.tasks[ti].dependents);
                for dep in deps.drain(..) {
                    let e = &mut st.tasks[dep.0 as usize];
                    if e.status != Status::Waiting {
                        continue; // cancelled under us by a failure cone
                    }
                    e.remaining -= 1;
                    if e.remaining == 0 {
                        e.status = Status::Ready;
                        newly_ready.push(make_run(st, dep, released_at, inject));
                    }
                }
                // The entry may have been retired mid-loop (a dependent
                // stole this task's last output); hand the dependents
                // allocation back only if the slot is still live.
                if let Some(e) = st.tasks.get_opt_mut(ti) {
                    e.dependents = deps;
                }
                if let Some(out_ids) = out_ids {
                    // Outputs the driver already `release`d can be
                    // reclaimed now that they are produced + committed.
                    for d in out_ids {
                        retire_data_if_idle(st, d);
                    }
                    st.in_flight -= 1;
                }
            }
            Err((start, duration)) => {
                let n = attempts.len();
                let msg = attempts
                    .last()
                    .and_then(|a| a.error.clone())
                    .unwrap_or_else(|| "task panicked".to_string());
                let name = st.records[ti].name.clone();
                let full: Arc<str> = if n > 1 {
                    format!("task '{name}' panicked after {n} attempts: {msg}").into()
                } else {
                    format!("task '{name}' panicked: {msg}").into()
                };
                let rec = &mut st.records[ti];
                rec.duration_s = duration;
                rec.ready_s = ready_s;
                rec.start_s = since_epoch(start);
                rec.worker = who;
                rec.attempts = attempts;
                if st.stream {
                    // The failing task leaves the in-flight window here;
                    // its dependents leave as the cones below cancel or
                    // fail them (each still holds its undispatched job).
                    st.in_flight -= 1;
                }
                match fault.on_failure {
                    OnFailure::Fail | OnFailure::Retry => {
                        if metrics && fault.on_failure == OnFailure::Retry {
                            Counters::add(&shared.counters.giveups, 1);
                        }
                        // Propagate failure to all transitive dependents
                        // so that waiters on any downstream output wake
                        // up and report instead of deadlocking.
                        let mut frontier = vec![task];
                        while let Some(t) = frontier.pop() {
                            let e = &mut st.tasks[t.0 as usize];
                            if st.stream && e.job.is_some() {
                                st.in_flight -= 1;
                            }
                            e.status = Status::Failed;
                            e.failure = Some(full.clone());
                            e.job = None;
                            frontier.append(&mut e.dependents);
                        }
                    }
                    OnFailure::Ignore => {
                        // The failure is swallowed: the task counts as
                        // completed, but its outputs are poisoned and
                        // everything downstream is cancelled silently.
                        st.tasks[ti].status = Status::Done;
                        for (d, _) in &st.records[ti].outputs {
                            st.data[d.0 as usize].slot = Slot::Poisoned(full.clone());
                        }
                        let cancelled = cancel_dependents(st, ti, &full);
                        if metrics {
                            Counters::add(&shared.counters.poisoned, 1);
                            Counters::add(&shared.counters.cancelled, cancelled);
                        }
                    }
                    OnFailure::CancelSuccessors => {
                        // The failure stays visible on this task (wait
                        // on its outputs panics, barrier tolerates it),
                        // while dependents are cancelled, not failed.
                        st.tasks[ti].status = Status::Failed;
                        st.tasks[ti].failure = Some(full.clone());
                        let cancelled = cancel_dependents(st, ti, &full);
                        if metrics {
                            Counters::add(&shared.counters.cancelled, cancelled);
                        }
                    }
                }
            }
        }
        notify_driver = st.waiters > 0;
    }
    if notify_driver {
        shared.cv.notify_all();
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(e: &(dyn Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "task panicked".to_string())
}

/// Cancels every transitive dependent of `origin` that has not yet run:
/// status [`Status::Cancelled`], body dropped, outputs poisoned with
/// `reason` (so later submissions reading them cancel in place too).
/// Dropped bodies leak their `pending_reads` registrations — harmless:
/// later INOUT consumers just fall back to the copy path. Returns how
/// many tasks were cancelled.
fn cancel_dependents(st: &mut State, origin: usize, reason: &Arc<str>) -> u64 {
    let mut n = 0;
    let mut frontier = std::mem::take(&mut st.tasks[origin].dependents);
    while let Some(t) = frontier.pop() {
        let idx = t.0 as usize;
        {
            let e = &mut st.tasks[idx];
            if !matches!(e.status, Status::Waiting | Status::Ready) {
                continue; // finished, failed, or already cancelled
            }
            if st.stream && e.job.is_some() {
                // Never dispatched — leaves the in-flight window here.
                // (A `Ready` task already handed its job to a queued
                // run; that run's completion does the decrement.)
                st.in_flight -= 1;
            }
            e.status = Status::Cancelled;
            e.job = None;
            frontier.append(&mut e.dependents);
        }
        for (d, _) in &st.records[idx].outputs {
            st.data[d.0 as usize].slot = Slot::Poisoned(reason.clone());
        }
        n += 1;
    }
    n
}

/// Fluent builder for a task submission; created by [`Runtime::task`].
pub struct TaskBuilder<'rt> {
    rt: &'rt Runtime,
    name: String,
    cores: u32,
    gpus: u32,
    fault: TaskFault,
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
/// The path taken is recorded in the `inout_steals`/`inout_copies`
/// counters.
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

    /// Makes the task retryable under the given policy (implies
    /// [`OnFailure::Retry`]): a panicking or timed-out attempt is
    /// re-run, up to `policy.max_attempts` total, with deterministic
    /// exponential backoff between attempts. The COMPSs
    /// `on_failure=RETRY` equivalent.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.fault = TaskFault {
            on_failure: OnFailure::Retry,
            retry: policy,
        };
        self
    }

    /// Sets the failure policy (COMPSs `on_failure` equivalent). For
    /// [`OnFailure::Retry`] prefer [`TaskBuilder::retry`], which also
    /// carries the attempt budget.
    pub fn on_failure(mut self, policy: OnFailure) -> Self {
        self.fault.on_failure = policy;
        self
    }

    /// Single funnel for every `run*` method below: forwards the
    /// builder's accumulated attributes to the runtime's submission
    /// path.
    fn submit(
        self,
        inputs: Vec<DataId>,
        consume_mask: u64,
        n_outputs: usize,
        f: TaskFn,
    ) -> Vec<DataId> {
        self.rt.submit_inner(
            self.name,
            self.cores,
            self.gpus,
            inputs,
            consume_mask,
            n_outputs,
            self.fault,
            f,
        )
    }

    /// Submits a source task with no inputs.
    pub fn run0<R, F>(self, mut f: F) -> Handle<R>
    where
        R: Payload,
        F: FnMut() -> R + Send + 'static,
    {
        let ids = self.submit(vec![], 0, 1, Box::new(move |_ctx, _ins| one(f())));
        Handle::new(ids[0])
    }

    /// Submits a one-input task.
    pub fn run1<A, R, F>(self, a: Handle<A>, mut f: F) -> Handle<R>
    where
        A: Payload,
        R: Payload,
        F: FnMut(&A) -> R + Send + 'static,
    {
        let ids = self.submit(
            vec![a.id],
            0,
            1,
            Box::new(move |_ctx, ins| one(f(arg::<A>(ins, 0)))),
        );
        Handle::new(ids[0])
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
        let ids = self.submit(
            vec![a.id],
            0b1,
            1,
            Box::new(move |ctx, ins| {
                let mut v: A = take_arg(ctx, ins, 0);
                f(&mut v);
                one(v)
            }),
        );
        Handle::new(ids[0])
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
        let ids = self.submit(
            vec![a.id, b.id],
            0b1,
            1,
            Box::new(move |ctx, ins| {
                let mut v: A = take_arg(ctx, ins, 0);
                f(&mut v, arg::<B>(ins, 1));
                one(v)
            }),
        );
        Handle::new(ids[0])
    }

    /// Submits a two-input task.
    pub fn run2<A, B, R, F>(self, a: Handle<A>, b: Handle<B>, mut f: F) -> Handle<R>
    where
        A: Payload,
        B: Payload,
        R: Payload,
        F: FnMut(&A, &B) -> R + Send + 'static,
    {
        let ids = self.submit(
            vec![a.id, b.id],
            0,
            1,
            Box::new(move |_ctx, ins| one(f(arg::<A>(ins, 0), arg::<B>(ins, 1)))),
        );
        Handle::new(ids[0])
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
        let ids = self.submit(
            vec![a.id, b.id, c.id],
            0,
            1,
            Box::new(move |_ctx, ins| one(f(arg::<A>(ins, 0), arg::<B>(ins, 1), arg::<C>(ins, 2)))),
        );
        Handle::new(ids[0])
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
        let ids = self.submit(
            vec![a.id, b.id, c.id, d.id],
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
        Handle::new(ids[0])
    }

    /// Submits a reduction-style task over a homogeneous list of inputs.
    pub fn run_many<A, R, F>(self, items: &[Handle<A>], mut f: F) -> Handle<R>
    where
        A: Payload,
        R: Payload,
        F: FnMut(&[&A]) -> R + Send + 'static,
    {
        let ids = self.submit(
            items.iter().map(|h| h.id).collect(),
            0,
            1,
            Box::new(move |_ctx, ins| {
                let refs: Vec<&A> = (0..ins.len()).map(|i| arg::<A>(ins, i)).collect();
                one(f(&refs))
            }),
        );
        Handle::new(ids[0])
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
        let mut inputs = vec![fixed.id];
        inputs.extend(items.iter().map(|h| h.id));
        let ids = self.submit(
            inputs,
            0,
            1,
            Box::new(move |_ctx, ins| {
                let b = arg::<B>(ins, 0);
                let refs: Vec<&A> = (1..ins.len()).map(|i| arg::<A>(ins, i)).collect();
                one(f(b, &refs))
            }),
        );
        Handle::new(ids[0])
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
        let ids = self.submit(
            vec![a.id],
            0,
            1,
            Box::new(move |ctx, ins| {
                let child = ctx.nested_runtime();
                one(f(&child, arg::<A>(ins, 0)))
            }),
        );
        Handle::new(ids[0])
    }

    /// Nested task with two inputs.
    pub fn run_nested2<A, B, R, F>(self, a: Handle<A>, b: Handle<B>, mut f: F) -> Handle<R>
    where
        A: Payload,
        B: Payload,
        R: Payload,
        F: FnMut(&Runtime, &A, &B) -> R + Send + 'static,
    {
        let ids = self.submit(
            vec![a.id, b.id],
            0,
            1,
            Box::new(move |ctx, ins| {
                let child = ctx.nested_runtime();
                one(f(&child, arg::<A>(ins, 0), arg::<B>(ins, 1)))
            }),
        );
        Handle::new(ids[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    #[should_panic(expected = "panicked")]
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
        // Inline tasks never queue: no queue-wait samples, one run-time
        // sample per task.
        let reg = rt.registry().to_value();
        assert_eq!(reg["taskrt_queue_wait_seconds"]["count"].as_u64(), Some(0));
        assert_eq!(reg["taskrt_run_seconds"]["count"].as_u64(), Some(1));
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
        // could adopt the gate task and block in `recv`); poll the
        // scheduler state directly instead.
        let neg_done = || lock(&rt.inner.shared.state).tasks[3].status == Status::Done;
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
    fn adopt_batch_takes_the_oldest_half_in_submission_order() {
        // The injector contract: a plain FIFO whose adopter takes the
        // oldest ceil(len/2), keeps the single oldest to run now, and
        // leaves the rest untouched. The only worker is parked inside
        // a gate task, so nothing else touches the queues.
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let rt = Runtime::threaded(1);
        let _gate = rt.task("gate").run0(move || {
            started_tx.send(()).expect("test thread alive");
            release_rx.recv().expect("gate release");
            0u8
        }); // task 0
        started_rx.recv().expect("gate started");

        let n = 3 * STAGE_BATCH + 5;
        for i in 0..n as u64 {
            let _ = rt.task("root").run0(move || i); // tasks 1..=n
        }
        let shared = &rt.inner.shared;
        // The busy worker forced batching: full batches were published,
        // the tail is still staged.
        assert_eq!(lock(&shared.injector).len(), 3 * STAGE_BATCH);
        assert_eq!(flush_staged(shared), 5);

        let mut scratch = Vec::new();
        let first = adopt_batch(shared, 0, &mut scratch).expect("injector non-empty");
        let take = n.div_ceil(2) as u64;
        assert_eq!(first.id, TaskId(1), "caller keeps the single oldest");
        let ids = |q: &VecDeque<ReadyRun>| q.iter().map(|r| r.id.0).collect::<Vec<_>>();
        assert_eq!(
            ids(&lock(&shared.queues[0])),
            (2..=take).collect::<Vec<_>>()
        );
        assert_eq!(
            ids(&lock(&shared.injector)),
            (take + 1..=n as u64).collect::<Vec<_>>()
        );

        // Nothing was lost or duplicated: run the adopted task here,
        // release the worker, and everything drains.
        execute_one(shared, first, &mut Vec::new(), DRIVER);
        release_tx.send(()).expect("worker alive");
        rt.barrier();
        assert_eq!(rt.stats().total_tasks(), n as u64 + 1);
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
    #[should_panic(expected = "panicked")]
    fn task_submitted_after_failure_inherits_it() {
        let rt = Runtime::new();
        let a = rt.put(1u64);
        let x = rt.task("boom").run1(a, |_| -> u64 { panic!("kaboom") });
        // x already failed (inline); y must not deadlock.
        let y = rt.task("after").run1(x, |v| *v);
        let _ = rt.peek(y);
    }
}
