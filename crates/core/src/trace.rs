//! Execution traces.
//!
//! Every run of a [`crate::Runtime`] records a [`Trace`]: the task DAG
//! (including synchronization markers), per-task measured durations,
//! resource demands, and data sizes. Traces are the input to both the
//! DOT exporter ([`crate::dot`], reproducing the paper's execution-graph
//! figures) and the discrete-event cluster simulator ([`crate::sim`],
//! reproducing the scalability figures). The simulator's schedule is a
//! [`Trace`] too, so a real run and its replay are read by the same
//! views ([`crate::obs`], [`crate::gantt`]). A trace lives in memory:
//! every replay reads the [`Trace`] its run returned, and no file format
//! is kept for it.

use crate::handle::{DataId, TaskId};

/// Name given to synchronization marker pseudo-tasks.
pub const SYNC_TASK: &str = "__sync";
/// Name given to barrier marker pseudo-tasks.
pub const BARRIER_TASK: &str = "__barrier";
/// Name given to tuple-split helper tasks.
pub const SPLIT_TASK: &str = "__split";

/// One execution attempt of a task. Recorded only when a task needed
/// more than one attempt (see [`TaskRecord::attempts`]): failed
/// attempts carry their panic message, the final successful
/// attempt (if any) closes the list with `error: None`.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// Wall-clock start of the attempt, seconds since the runtime epoch.
    /// A `dist` driver learns of a failed attempt only from the
    /// worker's `Failed` frame, which carries no timing: it stamps the
    /// attempt at the instant the frame arrives, with duration `0.0`.
    pub start_s: f64,
    /// Duration of the attempt body, in seconds.
    pub duration_s: f64,
    /// Panic message; `None` for the successful attempt.
    pub error: Option<String>,
}

/// One task (or marker) in a recorded trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Task identifier, unique within its trace.
    pub id: TaskId,
    /// Task kind name (used for DOT coloring and cost-model overrides).
    pub name: String,
    /// Tasks this task depends on (data deps + sync-induced deps).
    pub deps: Vec<TaskId>,
    /// Measured wall-clock duration of the task body, in seconds.
    /// Markers have duration `0.0`.
    pub duration_s: f64,
    /// Input data references with their approximate sizes in bytes.
    pub inputs: Vec<(DataId, usize)>,
    /// Output data references with their approximate sizes in bytes.
    pub outputs: Vec<(DataId, usize)>,
    /// Number of cores the task occupies while running.
    pub cores: u32,
    /// Number of GPUs the task occupies while running.
    pub gpus: u32,
    /// When the task became visible to workers (its push into the
    /// ready queue, or the releasing predecessor's completion), in
    /// seconds since the recording runtime's epoch; its queue wait ends
    /// at the first attempt's start. A root is pushed, and stamped, at
    /// its submission, so its queue wait covers all the time it was
    /// ready — including the time that earlier versions, which held
    /// roots back in batches and stamped them at the flush, left out. `0.0` for tasks an inline runtime ran at
    /// submission, for markers, for tasks that never ran, and on `dist`
    /// records.
    pub ready_s: f64,
    /// Wall-clock start of the task body, in seconds since the
    /// recording runtime's epoch (creation time). `0.0` for markers
    /// and for tasks that never ran. Feeds the timeline exporter
    /// ([`crate::obs::chrome_trace`]).
    pub start_s: f64,
    /// Seconds of input fetch that end at `start_s`: the transfer a
    /// [`crate::sim`] replay charges for inputs held on another node.
    /// `0.0` on the records a runtime writes, which do not time their
    /// input fetch yet.
    pub fetch_s: f64,
    /// Bytes the input fetch moved: what a [`crate::sim`] replay
    /// transfers, or what a `dist` worker pulled from peers or had
    /// relayed by the driver. `0` on the records a threaded or inline
    /// runtime writes.
    pub fetch_bytes: u64,
    /// Executor that ran the task: a pool-worker index, or the node of
    /// a [`crate::sim`] schedule (`>= 0`), or `-1` for a driver thread
    /// (inline mode, or a cooperative `wait`/`barrier` help pass).
    /// Markers are `-1`.
    pub worker: i64,
    /// Sub-trace recorded by a nested task, if any.
    pub child: Option<Box<Trace>>,
    /// Per-attempt execution history. Empty for the common case of one
    /// clean attempt; populated (every attempt, including the final
    /// one) when any attempt failed — the fault-tolerance audit trail.
    pub attempts: Vec<AttemptRecord>,
}

impl TaskRecord {
    /// Whether this record is a runtime-internal marker rather than a
    /// user task.
    pub fn is_marker(&self) -> bool {
        self.name == SYNC_TASK || self.name == BARRIER_TASK || self.name == SPLIT_TASK
    }

    /// Whether a body executed for this record: an executor stamped it
    /// (`__split` helpers included), as opposed to a sync/barrier
    /// marker or a task failed with its producer before it ran.
    pub fn ran(&self) -> bool {
        self.name != SYNC_TASK
            && self.name != BARRIER_TASK
            && (self.worker >= 0 || self.start_s > 0.0 || self.duration_s > 0.0)
    }
}

/// A recorded task graph with timings — the replayable artifact of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Records ordered by submission sequence.
    pub records: Vec<TaskRecord>,
}

impl Trace {
    /// Number of records (including markers).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of user tasks, i.e. excluding sync / barrier / split
    /// markers, and including tasks inside nested sub-traces.
    pub fn user_task_count(&self) -> usize {
        self.records
            .iter()
            .map(|r| {
                let own = usize::from(!r.is_marker());
                own + r.child.as_ref().map_or(0, |c| c.user_task_count())
            })
            .sum()
    }

    /// Sum of user-task durations in seconds (the serial work of this
    /// trace level; nested children are *not* folded in because their
    /// parent's duration already encloses them in inline mode).
    pub fn total_work_s(&self) -> f64 {
        self.records
            .iter()
            .filter(|r| !r.is_marker())
            .map(|r| r.duration_s)
            .sum()
    }

    /// Length of the critical (longest) path through the DAG in seconds.
    /// A lower bound on any schedule's makespan.
    pub fn critical_path_s(&self) -> f64 {
        self.critical_path().1
    }

    /// The critical (longest by summed duration) dependency chain,
    /// producer-first, and its length in seconds. Ties go to the
    /// first-listed dependency and the earliest-submitted end.
    pub fn critical_path(&self) -> (Vec<TaskId>, f64) {
        let index = self.index_by_id();
        let mut finish = vec![0.0f64; self.records.len()];
        let mut pred: Vec<Option<usize>> = vec![None; self.records.len()];
        let mut best: Option<usize> = None;
        // records are in submission order == topological order
        for (i, r) in self.records.iter().enumerate() {
            let mut ready = 0.0f64;
            for &j in r.deps.iter().filter_map(|d| index.get(d)) {
                if finish[j] > ready {
                    ready = finish[j];
                    pred[i] = Some(j);
                }
            }
            finish[i] = ready + r.duration_s;
            if best.is_none_or(|b| finish[i] > finish[b]) {
                best = Some(i);
            }
        }
        let mut path = Vec::new();
        let mut cur = best;
        while let Some(i) = cur {
            path.push(self.records[i].id);
            cur = pred[i];
        }
        path.reverse();
        (path, best.map_or(0.0, |b| finish[b]))
    }

    /// The records that ran on executors `0..executors`: pool workers,
    /// or the nodes of a simulated cluster. Markers and driver-run tasks
    /// (`worker == -1`) are not among them.
    pub(crate) fn on_executors(&self, executors: usize) -> impl Iterator<Item = &TaskRecord> {
        self.records
            .iter()
            .filter(move |r| usize::try_from(r.worker).is_ok_and(|w| w < executors))
    }

    /// Map from task id to record index.
    pub fn index_by_id(&self) -> std::collections::HashMap<TaskId, usize> {
        self.records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.id, i))
            .collect()
    }

    /// Histogram of task counts per kind name (markers included).
    pub fn task_histogram(&self) -> std::collections::BTreeMap<String, usize> {
        let mut m = std::collections::BTreeMap::new();
        for r in &self.records {
            *m.entry(r.name.clone()).or_insert(0) += 1;
        }
        m
    }

    /// Maximum number of tasks with no dependency relation between them
    /// at the same DAG depth — an upper estimate of exploitable
    /// parallelism, computed as the widest level of the level-ordered
    /// DAG (markers excluded).
    pub fn max_width(&self) -> usize {
        let index = self.index_by_id();
        let mut level = vec![0usize; self.records.len()];
        let mut counts: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for (i, r) in self.records.iter().enumerate() {
            let l = r
                .deps
                .iter()
                .filter_map(|d| index.get(d).map(|&j| level[j] + 1))
                .max()
                .unwrap_or(0);
            level[i] = l;
            if !r.is_marker() {
                *counts.entry(l).or_insert(0) += 1;
            }
        }
        counts.values().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, deps: &[u64], dur: f64) -> TaskRecord {
        TaskRecord {
            id: TaskId(id),
            name: format!("t{id}"),
            deps: deps.iter().map(|&d| TaskId(d)).collect(),
            duration_s: dur,
            inputs: vec![],
            outputs: vec![(DataId(id), 8)],
            cores: 1,
            gpus: 0,
            ready_s: 0.0,
            start_s: 0.0,
            fetch_s: 0.0,
            fetch_bytes: 0,
            worker: -1,
            child: None,
            attempts: vec![],
        }
    }

    #[test]
    fn critical_path_chain() {
        let t = Trace {
            records: vec![rec(0, &[], 1.0), rec(1, &[0], 2.0), rec(2, &[1], 3.0)],
        };
        assert!((t.critical_path_s() - 6.0).abs() < 1e-12);
        assert!((t.total_work_s() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn critical_path_diamond() {
        let t = Trace {
            records: vec![
                rec(0, &[], 1.0),
                rec(1, &[0], 5.0),
                rec(2, &[0], 2.0),
                rec(3, &[1, 2], 1.0),
            ],
        };
        assert!((t.critical_path_s() - 7.0).abs() < 1e-12);
        assert_eq!(t.max_width(), 2);
        let (path, len) = t.critical_path();
        assert_eq!(path, vec![TaskId(0), TaskId(1), TaskId(3)]);
        assert_eq!(len, t.critical_path_s());
    }

    #[test]
    fn critical_path_of_empty_trace_is_empty() {
        assert_eq!(Trace::default().critical_path(), (vec![], 0.0));
    }

    #[test]
    fn ran_excludes_markers_and_unrun_tasks() {
        let mut worker_ran = rec(0, &[], 0.0);
        worker_ran.worker = 1;
        let mut driver_ran = rec(1, &[], 0.5);
        driver_ran.start_s = 0.25;
        let mut split = rec(2, &[1], 0.1);
        split.name = SPLIT_TASK.to_string();
        let mut barrier = rec(3, &[0], 0.0);
        barrier.name = BARRIER_TASK.to_string();
        let never = rec(4, &[1], 0.0);
        let ran: Vec<bool> = [worker_ran, driver_ran, split, barrier, never]
            .iter()
            .map(TaskRecord::ran)
            .collect();
        assert_eq!(ran, [true, true, true, false, false]);
    }

    #[test]
    fn user_task_count_skips_markers() {
        let mut marker = rec(1, &[0], 0.0);
        marker.name = SYNC_TASK.to_string();
        let t = Trace {
            records: vec![rec(0, &[], 1.0), marker],
        };
        assert_eq!(t.user_task_count(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn histogram_counts_kinds() {
        let mut a = rec(0, &[], 1.0);
        a.name = "fit".into();
        let mut b = rec(1, &[], 1.0);
        b.name = "fit".into();
        let t = Trace {
            records: vec![a, b],
        };
        assert_eq!(t.task_histogram()["fit"], 2);
    }
}
