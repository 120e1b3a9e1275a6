//! The runtime's tables: one fixed-size [`Row`] per task, the data
//! table, and two flat push-only stores beside them — task inputs and
//! dependent edges. The public [`TaskRecord`]s are built from them only
//! when [`crate::Runtime::trace`] (or `finish`) asks; `registry` reads
//! the rows directly.
//!
//! A row owns no heap object on the common path (DESIGN §5.14):
//!
//! * **inputs** are a range of the flat input store (`in_start`,
//!   `in_len`), each entry the datum id and its byte size;
//! * **outputs** are contiguous data ids (`out_first`, `out_len`); their
//!   sizes live in the data table;
//! * **dependents** are a linked list in the edge store (`dep_head` ..
//!   `dep_tail`), walked in push order, so release order is submission
//!   order;
//! * the **kind name** is an index into the runtime's [`Kinds`], each
//!   name interned once;
//! * the **failure policy** is the attempt budget in the row; only a
//!   [`RetryPolicy`] with another backoff than [`RetryPolicy::new`]'s
//!   goes to the rare state;
//! * the **rare state** — a failure message, attempt records, a nested
//!   child trace, such a policy — sits behind one `Option<Box<Rare>>`,
//!   allocated only when one of them occurs.
//!
//! A record's `deps` are not stored either: export derives them (see
//! [`Tables::records`]). All table pages are allocated by the
//! submitting driver under the state lock, and nothing is freed until
//! the runtime drops.

use crate::arena::Store;
use crate::fault::RetryPolicy;
use crate::handle::{DataId, TaskId};
use crate::runtime::TaskCtx;
use crate::trace::{AttemptRecord, TaskRecord, Trace, BARRIER_TASK, SYNC_TASK};
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// Type-erased shared value.
pub(crate) type AnyArc = Arc<dyn Any + Send + Sync>;

/// Type-erased task body: receives the resolved inputs (mutable so
/// INOUT wrappers can take ownership of individual entries), returns
/// the outputs with their approximate byte sizes. `FnMut` rather than
/// `FnOnce` so a retryable task's body can be invoked once per attempt.
pub(crate) type TaskFn = Box<dyn FnMut(&TaskCtx, &mut Vec<AnyArc>) -> Vec<(AnyArc, usize)> + Send>;

/// Executor id recorded on [`TaskRecord::worker`] for tasks run on the
/// driver thread (inline mode, `run_worklist`, or cooperative
/// `drain_ready`); pool workers use their index `0..n_workers`.
pub(crate) const DRIVER: i64 = -1;

/// Interned kind index of [`SYNC_TASK`] markers.
pub(crate) const SYNC_KIND: u32 = 0;
/// Interned kind index of [`BARRIER_TASK`] markers.
pub(crate) const BARRIER_KIND: u32 = 1;

/// End of a dependents list in the edge store.
const NONE: u32 = u32::MAX;

pub(crate) enum Slot {
    Pending,
    Ready(AnyArc, usize),
    /// The value was handed over (by move) to an INOUT task — this
    /// version of the datum no longer exists; the consuming task's
    /// output is the successor version. Keeps the byte size so records
    /// and the simulator still see transfer sizes. Reading a moved
    /// datum is a contract violation and fails loudly.
    Moved(usize),
}

/// Per-datum entry, indexed by `DataId`.
pub(crate) struct DataEntry {
    pub slot: Slot,
    /// Producing task, if any (`None` for `put` data).
    pub producer: Option<TaskId>,
    /// Submitted-but-not-yet-dispatched tasks reading this datum. An
    /// INOUT task may steal the buffer only when this is zero *and* the
    /// store holds the only live `Arc` (no dispatched-but-running
    /// reader, no driver-side `peek`/`wait` clone). Failure cascades
    /// leak increments (their `make_run` never runs), which only makes
    /// later consumers fall back to the copy path — conservative.
    pub pending_reads: usize,
}

impl DataEntry {
    pub fn new(slot: Slot, producer: Option<TaskId>) -> Self {
        DataEntry {
            slot,
            producer,
            pending_reads: 0,
        }
    }

    /// The datum's byte size; `0` until it materializes, and forever
    /// when its producer failed. Set once, so it never changes after
    /// that.
    pub fn bytes(&self) -> usize {
        match self.slot {
            Slot::Ready(_, b) | Slot::Moved(b) => b,
            Slot::Pending => 0,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Some dependencies are still unfinished.
    Waiting,
    /// All dependencies done; queued (or about to be) for execution.
    Ready,
    /// Completed successfully. Markers are born here.
    Done,
    /// Panicked on its last attempt, or depends (transitively) on a
    /// task that did; its outputs never materialize.
    Failed,
}

/// A task body, held while the task waits on dependencies. Its
/// inputs are the row's range of the input store, and its failure
/// policy is the row's ([`Row::policy`]).
pub(crate) struct PendingJob {
    pub f: TaskFn,
    /// Bit `i` set ⇒ input `i` has INOUT (consume) semantics: the
    /// dispatcher may move the stored value into the task when it is
    /// the last live consumer. Inputs beyond 64 are never consumed.
    pub consume_mask: u64,
}

/// The per-task state most tasks never have; see [`Row::rare`].
#[derive(Default)]
pub(crate) struct Rare {
    /// The task whose own body gave up, and its message (shared across
    /// the transitive failure cone); see [`Row::set_failure`].
    pub failure: Option<(TaskId, Arc<str>)>,
    /// [`TaskRecord::attempts`], when any attempt failed.
    pub attempts: Vec<AttemptRecord>,
    /// [`TaskRecord::child`], for a nested task.
    pub child: Option<Box<Trace>>,
    /// A policy the row's `max_attempts` cannot hold (see
    /// [`Row::set_policy`]).
    pub policy: Option<RetryPolicy>,
}

/// One task (or marker), indexed by `TaskId`: its scheduling state and
/// everything its [`TaskRecord`] is built from.
pub(crate) struct Row {
    /// The body, held until execution.
    pub job: Option<PendingJob>,
    /// Allocated only when the task fails, retries, nests, or declares
    /// a policy with a backoff of its own.
    pub rare: Option<Box<Rare>>,
    /// First of `out_len` contiguous output data ids.
    pub out_first: u64,
    /// First of `in_len` entries in the input store. A sync marker's
    /// one entry is the datum the driver waited on; it is not exported.
    pub in_start: u64,
    pub duration_s: f64,
    pub ready_s: f64,
    pub start_s: f64,
    /// Unfinished dependencies (meaningful while `Waiting`).
    pub remaining: u32,
    pub in_len: u32,
    pub out_len: u32,
    /// Index into the runtime's [`Kinds`].
    pub kind: u32,
    pub cores: u32,
    pub gpus: u32,
    /// Tasks to release when this one completes: a list in the edge
    /// store, [`NONE`]-terminated.
    dep_head: u32,
    dep_tail: u32,
    pub worker: i32,
    pub status: Status,
    /// The attempt budget of a [`RetryPolicy::new`] policy: 1 is FAIL.
    /// Read through [`Row::policy`].
    max_attempts: u16,
}

// A field that grows the row past this bound fails the build: the row
// is the per-task price of every retained task (DESIGN §5.14).
const _: () = assert!(std::mem::size_of::<Row>() <= 112);

impl Row {
    /// A row with no job, no outputs and nothing recorded yet.
    pub fn new(kind: u32, in_start: usize, in_len: usize, status: Status) -> Self {
        Row {
            job: None,
            rare: None,
            out_first: 0,
            in_start: in_start as u64,
            duration_s: 0.0,
            ready_s: 0.0,
            start_s: 0.0,
            remaining: 0,
            in_len: u32::try_from(in_len).expect("more than u32::MAX task inputs"),
            out_len: 0,
            kind,
            cores: 0,
            gpus: 0,
            dep_head: NONE,
            dep_tail: NONE,
            worker: DRIVER as i32,
            status,
            max_attempts: 1,
        }
    }

    /// The rare state, allocated on first use.
    pub fn rare_mut(&mut self) -> &mut Rare {
        self.rare.get_or_insert_with(Box::default)
    }

    /// The failure the row carries: the task it started at, and its
    /// message.
    pub fn failure(&self) -> Option<&(TaskId, Arc<str>)> {
        self.rare.as_ref()?.failure.as_ref()
    }

    /// Records a failure that started at task `origin`, unless the row
    /// already carries one from a lower (or the same) origin: a failed
    /// task names the lowest-id task, itself or an ancestor, whose own
    /// body gave up, whichever failed first. Returns whether the row
    /// changed — only then must its dependents hear of it.
    pub fn set_failure(&mut self, origin: TaskId, msg: &Arc<str>) -> bool {
        let rare = self.rare_mut();
        if rare.failure.as_ref().is_some_and(|(o, _)| *o <= origin) {
            return false;
        }
        rare.failure = Some((origin, msg.clone()));
        true
    }

    pub fn attempts(&self) -> &[AttemptRecord] {
        self.rare.as_ref().map_or(&[], |r| &r.attempts)
    }

    /// The failure policy declared at submission.
    pub fn policy(&self) -> RetryPolicy {
        let rare = self.rare.as_ref().and_then(|r| r.policy);
        rare.unwrap_or_else(|| RetryPolicy::new(u32::from(self.max_attempts)))
    }

    /// Declares the failure policy. A [`RetryPolicy::new`] policy (the
    /// one-attempt default and `dsarray`'s) is its attempt budget in
    /// the row, so it allocates no [`Rare`]; any other goes there.
    pub fn set_policy(&mut self, policy: RetryPolicy) {
        match u16::try_from(policy.max_attempts) {
            Ok(n) if policy == RetryPolicy::new(policy.max_attempts) => self.max_attempts = n,
            _ => self.rare_mut().policy = Some(policy),
        }
    }

    /// A `wait` or `barrier` marker (unlike [`TaskRecord::is_marker`],
    /// not a `__split` helper, which has inputs and runs).
    fn is_sync_point(&self) -> bool {
        self.kind == SYNC_KIND || self.kind == BARRIER_KIND
    }

    /// [`TaskRecord::ran`] without building the record.
    pub fn ran(&self) -> bool {
        !self.is_sync_point() && (self.worker >= 0 || self.start_s > 0.0 || self.duration_s > 0.0)
    }
}

/// One dependent edge: `task` is released when the list's owner
/// completes; `next` continues the owner's list.
#[derive(Clone, Copy)]
pub(crate) struct Edge {
    task: u32,
    next: u32,
}

/// A detached dependents list; yields task indices in push order. Holds
/// no borrow, so the caller may mutate the rows while walking.
pub(crate) struct Dependents(u32);

impl Dependents {
    pub fn next(&mut self, edges: &Store<Edge>) -> Option<usize> {
        if self.0 == NONE {
            return None;
        }
        let e = edges[self.0 as usize];
        self.0 = e.next;
        Some(e.task as usize)
    }
}

/// The runtime's kind names, each interned once: rows hold the index.
pub(crate) struct Kinds {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
    /// The last interned kind: submission loops repeat one name, so the
    /// common lookup is a string compare instead of a hash.
    last: u32,
}

impl Kinds {
    /// Starts with the two marker kinds at [`SYNC_KIND`] and
    /// [`BARRIER_KIND`].
    pub fn new() -> Self {
        let mut k = Kinds {
            names: Vec::new(),
            index: HashMap::new(),
            last: SYNC_KIND,
        };
        k.intern(SYNC_TASK);
        k.intern(BARRIER_TASK);
        k
    }

    pub fn intern(&mut self, name: &str) -> u32 {
        if self
            .names
            .get(self.last as usize)
            .is_some_and(|n| **n == *name)
        {
            return self.last;
        }
        let k = match self.index.get(name) {
            Some(&k) => k,
            None => {
                let k = u32::try_from(self.names.len()).expect("more than u32::MAX kinds");
                let name: Arc<str> = name.into();
                self.names.push(name.clone());
                self.index.insert(name, k);
                k
            }
        };
        self.last = k;
        k
    }

    pub fn name(&self, kind: u32) -> &Arc<str> {
        &self.names[kind as usize]
    }
}

/// The task, data, input and edge tables of one runtime.
pub(crate) struct Tables {
    pub data: Store<DataEntry>,
    pub rows: Store<Row>,
    /// Every task's inputs, back to back: datum id and byte size (filled
    /// at submission, refreshed when the task commits).
    pub inputs: Store<(DataId, usize)>,
    pub edges: Store<Edge>,
}

impl Tables {
    pub fn new() -> Self {
        Tables {
            data: Store::new("data"),
            rows: Store::new("task"),
            inputs: Store::new("input"),
            edges: Store::new("edge"),
        }
    }

    /// Store indices of `row`'s inputs.
    pub fn input_range(row: &Row) -> std::ops::Range<usize> {
        let start = row.in_start as usize;
        start..start + row.in_len as usize
    }

    /// Appends `task` to the dependents of row `owner`.
    pub fn push_dependent(&mut self, owner: usize, task: TaskId) {
        let e = u32::try_from(self.edges.len())
            .ok()
            .filter(|&e| e != NONE)
            .expect("more than u32::MAX dependent edges");
        let task = u32::try_from(task.0).expect("more than u32::MAX tasks");
        self.edges.push(Edge { task, next: NONE });
        let row = &mut self.rows[owner];
        if row.dep_tail == NONE {
            row.dep_head = e;
        } else {
            self.edges[row.dep_tail as usize].next = e;
        }
        row.dep_tail = e;
    }

    /// Row `owner`'s dependents list, left in place: a failure cascade
    /// walks a failed row's list again whenever a lower origin reaches
    /// it (see [`Row::set_failure`]).
    pub fn dependents(&self, owner: usize) -> Dependents {
        Dependents(self.rows[owner].dep_head)
    }

    /// Detaches row `owner`'s dependents list (the edges stay in the
    /// store; the row forgets them, so no list is walked twice).
    pub fn take_dependents(&mut self, owner: usize) -> Dependents {
        let row = &mut self.rows[owner];
        let head = row.dep_head;
        row.dep_head = NONE;
        row.dep_tail = NONE;
        Dependents(head)
    }

    /// Builds every record, in task-id order. What the rows do not
    /// store is derived:
    ///
    /// * a task's (or sync marker's) `deps` are the producers of its
    ///   inputs plus the marker current at its submission — the latest
    ///   marker with a smaller id, since only `wait` and `barrier` move
    ///   it — sorted and deduplicated;
    /// * a barrier's `deps` are every id from the previous barrier (or
    ///   0) up to itself;
    /// * output sizes are the data table's.
    pub fn records(&self, kinds: &Kinds) -> Vec<TaskRecord> {
        let mut out = Vec::with_capacity(self.rows.len());
        let mut marker: Option<TaskId> = None;
        let mut barrier_from = 0u64;
        for (i, row) in self.rows.iter().enumerate() {
            let id = TaskId(i as u64);
            let inputs = Self::input_range(row).map(|j| self.inputs[j]);
            let deps = if row.kind == BARRIER_KIND {
                let d = (barrier_from..id.0).map(TaskId).collect();
                barrier_from = id.0;
                d
            } else {
                let mut d: Vec<TaskId> = inputs
                    .clone()
                    .filter_map(|(di, _)| self.data[di.0 as usize].producer)
                    .chain(marker)
                    .collect();
                d.sort_unstable();
                d.dedup();
                d
            };
            if row.is_sync_point() {
                marker = Some(id);
            }
            let rare = row.rare.as_deref();
            out.push(TaskRecord {
                id,
                name: kinds.name(row.kind).to_string(),
                deps,
                duration_s: row.duration_s,
                inputs: if row.is_sync_point() {
                    Vec::new()
                } else {
                    inputs.collect()
                },
                outputs: (row.out_first..row.out_first + u64::from(row.out_len))
                    .map(|d| (DataId(d), self.data[d as usize].bytes()))
                    .collect(),
                cores: row.cores,
                gpus: row.gpus,
                seq: id.0,
                ready_s: row.ready_s,
                start_s: row.start_s,
                fetch_s: 0.0,
                fetch_bytes: 0,
                worker: i64::from(row.worker),
                child: rare.and_then(|r| r.child.clone()),
                attempts: rare.map_or_else(Vec::new, |r| r.attempts.clone()),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dependents_walk_in_push_order_across_interleaved_lists() {
        let mut t = Tables::new();
        for _ in 0..3 {
            t.rows.push(Row::new(2, 0, 0, Status::Waiting));
        }
        for (owner, task) in [(0, 10), (1, 11), (0, 12), (1, 13), (0, 14)] {
            t.push_dependent(owner, TaskId(task));
        }
        let walk = |t: &mut Tables, owner| {
            let mut c = t.take_dependents(owner);
            std::iter::from_fn(|| c.next(&t.edges)).collect::<Vec<_>>()
        };
        assert_eq!(walk(&mut t, 0), [10, 12, 14]);
        assert_eq!(walk(&mut t, 1), [11, 13]);
        assert_eq!(walk(&mut t, 2), [] as [usize; 0]);
        assert_eq!(walk(&mut t, 0), [] as [usize; 0], "a taken list is empty");
    }

    #[test]
    fn kinds_intern_each_name_once() {
        let mut k = Kinds::new();
        assert_eq!(k.intern(SYNC_TASK), SYNC_KIND);
        assert_eq!(k.intern(BARRIER_TASK), BARRIER_KIND);
        let a = k.intern("a");
        let b = k.intern("b");
        assert_eq!((k.intern("a"), k.intern("a"), k.intern("b")), (a, a, b));
        assert_eq!(&**k.name(b), "b");
        assert_eq!(k.names.len(), 4);
    }
}
