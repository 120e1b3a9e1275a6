//! Execution traces.
//!
//! Every run of a [`crate::Runtime`] records a [`Trace`]: the task DAG
//! (including synchronization markers), per-task measured durations,
//! resource demands, and data sizes. Traces are the input to both the
//! DOT exporter ([`crate::dot`], reproducing the paper's execution-graph
//! figures) and the discrete-event cluster simulator ([`crate::sim`],
//! reproducing the scalability figures). The simulator's schedule is a
//! [`Trace`] too, so a real run and its replay are read by the same
//! views ([`crate::obs`], [`crate::gantt`]).

use crate::handle::{DataId, TaskId};
use crate::json::{JsonError, Value};

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

impl AttemptRecord {
    /// Encodes the attempt as a JSON tree.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("start_s".into(), Value::from(self.start_s)),
            ("duration_s".into(), Value::from(self.duration_s)),
            (
                "error".into(),
                match &self.error {
                    Some(e) => Value::from(e.as_str()),
                    None => Value::Null,
                },
            ),
        ])
    }

    /// Decodes an attempt from a JSON tree.
    fn from_value(v: &Value) -> Result<AttemptRecord, JsonError> {
        let f64_of = |v: &Value, what: &str| {
            v.as_f64()
                .ok_or_else(|| JsonError::msg(format!("{what} must be a number")))
        };
        Ok(AttemptRecord {
            start_s: f64_of(v.field("start_s")?, "attempt start_s")?,
            duration_s: f64_of(v.field("duration_s")?, "attempt duration_s")?,
            error: match v.field("error")? {
                Value::Null => None,
                e => Some(
                    e.as_str()
                        .ok_or_else(|| JsonError::msg("attempt 'error' must be a string"))?
                        .to_string(),
                ),
            },
        })
    }
}

/// One task (or marker) in a recorded trace.
#[derive(Debug, Clone)]
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
    /// Submission sequence number (a valid topological order).
    pub seq: u64,
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
    /// marker or a task failed or cancelled before it could run.
    pub fn ran(&self) -> bool {
        self.name != SYNC_TASK
            && self.name != BARRIER_TASK
            && (self.worker >= 0 || self.start_s > 0.0 || self.duration_s > 0.0)
    }

    /// Encodes the record as a JSON tree (data refs as `[id, bytes]`
    /// pairs — the layout the serde derive used to emit).
    pub fn to_value(&self) -> Value {
        let refs = |v: &[(DataId, usize)]| {
            Value::Array(
                v.iter()
                    .map(|(d, b)| Value::Array(vec![Value::from(d.0), Value::from(*b)]))
                    .collect(),
            )
        };
        Value::Object(vec![
            ("id".into(), Value::from(self.id.0)),
            ("name".into(), Value::from(self.name.as_str())),
            (
                "deps".into(),
                Value::Array(self.deps.iter().map(|t| Value::from(t.0)).collect()),
            ),
            ("duration_s".into(), Value::from(self.duration_s)),
            ("inputs".into(), refs(&self.inputs)),
            ("outputs".into(), refs(&self.outputs)),
            ("cores".into(), Value::from(self.cores)),
            ("gpus".into(), Value::from(self.gpus)),
            ("seq".into(), Value::from(self.seq)),
            ("ready_s".into(), Value::from(self.ready_s)),
            ("start_s".into(), Value::from(self.start_s)),
            ("fetch_s".into(), Value::from(self.fetch_s)),
            ("fetch_bytes".into(), Value::from(self.fetch_bytes)),
            ("worker".into(), Value::from(self.worker as f64)),
            (
                "child".into(),
                match &self.child {
                    Some(c) => c.to_value(),
                    None => Value::Null,
                },
            ),
            (
                "attempts".into(),
                Value::Array(self.attempts.iter().map(AttemptRecord::to_value).collect()),
            ),
        ])
    }

    /// Decodes a record from a JSON tree.
    fn from_value(v: &Value) -> Result<TaskRecord, JsonError> {
        let u64_of = |v: &Value, what: &str| {
            v.as_u64()
                .ok_or_else(|| JsonError::msg(format!("{what} must be an unsigned integer")))
        };
        // Resource demands are `u32`: a larger value is an error, not a
        // silently truncated demand for the DES to replay.
        let u32_of = |v: &Value, what: &str| {
            u32::try_from(u64_of(v, what)?)
                .map_err(|_| JsonError::msg(format!("{what} exceeds u32::MAX")))
        };
        let refs = |v: &Value, what: &str| -> Result<Vec<(DataId, usize)>, JsonError> {
            v.as_array()
                .ok_or_else(|| JsonError::msg(format!("{what} must be an array")))?
                .iter()
                .map(|pair| {
                    let pair = pair.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                        JsonError::msg(format!("{what} entries must be [id, bytes] pairs"))
                    })?;
                    let id = u64_of(&pair[0], "data id")?;
                    let bytes = u64_of(&pair[1], "byte size")?;
                    Ok((DataId(id), bytes as usize))
                })
                .collect()
        };
        let deps = v
            .field("deps")?
            .as_array()
            .ok_or_else(|| JsonError::msg("'deps' must be an array"))?
            .iter()
            .map(|d| u64_of(d, "dep id").map(TaskId))
            .collect::<Result<Vec<_>, _>>()?;
        let child = match v.field("child")? {
            Value::Null => None,
            c => Some(Box::new(Trace::from_value(c)?)),
        };
        Ok(TaskRecord {
            id: TaskId(u64_of(v.field("id")?, "id")?),
            name: v
                .field("name")?
                .as_str()
                .ok_or_else(|| JsonError::msg("'name' must be a string"))?
                .to_string(),
            deps,
            duration_s: v
                .field("duration_s")?
                .as_f64()
                .ok_or_else(|| JsonError::msg("'duration_s' must be a number"))?,
            inputs: refs(v.field("inputs")?, "inputs")?,
            outputs: refs(v.field("outputs")?, "outputs")?,
            cores: u32_of(v.field("cores")?, "cores")?,
            gpus: u32_of(v.field("gpus")?, "gpus")?,
            seq: u64_of(v.field("seq")?, "seq")?,
            // Optional for compatibility with traces archived before
            // the observability fields existed.
            ready_s: v.get("ready_s").and_then(Value::as_f64).unwrap_or(0.0),
            start_s: v.get("start_s").and_then(Value::as_f64).unwrap_or(0.0),
            fetch_s: v.get("fetch_s").and_then(Value::as_f64).unwrap_or(0.0),
            fetch_bytes: v.get("fetch_bytes").and_then(Value::as_u64).unwrap_or(0),
            worker: v
                .get("worker")
                .and_then(Value::as_f64)
                .map_or(-1, |w| w as i64),
            child,
            // Optional for compatibility with traces archived before
            // fault tolerance existed.
            attempts: match v.get("attempts").and_then(Value::as_array) {
                Some(a) => a
                    .iter()
                    .map(AttemptRecord::from_value)
                    .collect::<Result<Vec<_>, _>>()?,
                None => Vec::new(),
            },
        })
    }
}

/// A recorded task graph with timings — the replayable artifact of a run.
#[derive(Debug, Clone, Default)]
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

    /// Map from produced data id to its producer's record index.
    pub fn producer_index(&self) -> std::collections::HashMap<DataId, usize> {
        let mut m = std::collections::HashMap::new();
        for (i, r) in self.records.iter().enumerate() {
            for (d, _) in &r.outputs {
                m.insert(*d, i);
            }
        }
        m
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

    /// Serializes the trace to pretty JSON (for EXPERIMENTS.md artifacts).
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }

    /// Parses a trace previously produced by [`Self::to_json`] — the
    /// round-trip that lets recorded workloads be archived and
    /// re-simulated later (the role Paraver trace files play for
    /// PyCOMPSs).
    fn from_json(s: &str) -> Result<Trace, JsonError> {
        Trace::from_value(&Value::parse(s)?)
    }

    /// Encodes the trace as a JSON tree.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![(
            "records".into(),
            Value::Array(self.records.iter().map(TaskRecord::to_value).collect()),
        )])
    }

    /// Decodes a trace from a JSON tree.
    fn from_value(v: &Value) -> Result<Trace, JsonError> {
        let records = v
            .field("records")?
            .as_array()
            .ok_or_else(|| JsonError::msg("'records' must be an array"))?
            .iter()
            .map(TaskRecord::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Trace { records })
    }

    /// Writes the trace to a file as JSON, creating parent directories.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Loads a trace from a JSON file written by [`Self::save`].
    /// Malformed JSON surfaces as [`std::io::ErrorKind::Other`].
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Trace> {
        let s = std::fs::read_to_string(path)?;
        Trace::from_json(&s).map_err(std::io::Error::other)
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
            seq: id,
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

    #[test]
    fn json_roundtrip_smoke() {
        let t = Trace {
            records: vec![rec(0, &[], 1.0)],
        };
        let s = t.to_json();
        assert!(s.contains("\"duration_s\""));
    }

    #[test]
    fn json_roundtrip_preserves_structure() {
        let mut parent = rec(0, &[], 2.0);
        parent.child = Some(Box::new(Trace {
            records: vec![rec(0, &[], 1.0)],
        }));
        let t = Trace {
            records: vec![parent, rec(1, &[0], 3.0)],
        };
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.records[1].deps, vec![TaskId(0)]);
        assert!(back.records[0].child.is_some());
        assert!((back.critical_path_s() - t.critical_path_s()).abs() < 1e-12);
    }

    #[test]
    fn save_load_roundtrip() {
        let t = Trace {
            records: vec![rec(0, &[], 1.5), rec(1, &[0], 0.5)],
        };
        // `impl AsRef<Path>` accepts owned paths and plain strs alike.
        let path = std::path::PathBuf::from("/tmp/taskml_trace_test.json");
        t.save(&path).unwrap();
        let back = Trace::load("/tmp/taskml_trace_test.json").unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.records[0].duration_s, 1.5);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_accepts_artifacts_of_removed_features() {
        // `testdata/trace_pr8.json` is an `out/*.json` artifact as PRs
        // 6-15 wrote them: every record carries the per-job ownership
        // key (PR 8) this version no longer reads, and one name is a
        // fusion-window group label (PR 6) — now just another kind.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/trace_pr8.json");
        let t = Trace::load(path).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.records[0].name, "fused(ds_scale;ds_sub_row)");
        assert_eq!(t.records[0].worker, 1);
        assert_eq!(t.records[1].deps, vec![TaskId(0)]);
        // What we write back is the current schema and loads to the
        // same records.
        let json = t.to_json();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(back.to_json(), json);
        // ... with exactly the keys a record built today has: the
        // dropped key is not re-emitted.
        let keys = |r: &TaskRecord| match r.to_value() {
            Value::Object(fields) => fields.into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
            _ => panic!("record encodes as an object"),
        };
        assert_eq!(keys(&t.records[0]), keys(&rec(0, &[], 1.0)));
    }

    #[test]
    fn load_missing_file_is_not_found() {
        let err = Trace::load("/tmp/taskml_no_such_trace_file.json").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn load_malformed_json_is_error_not_panic() {
        let path = "/tmp/taskml_malformed_trace.json";
        std::fs::write(path, "{ not json").unwrap();
        let err = Trace::load(path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Other);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn malformed_data_ref_pair_is_error_not_panic() {
        // A one-element `[id]` pair used to index out of bounds and
        // panic; it must decode to a JsonError instead.
        let t = Trace {
            records: vec![rec(0, &[], 1.0)],
        };
        let good = t.to_value().compact();
        let bad = good.replace("[[0,8]]", "[[0]]");
        assert_ne!(good, bad, "fixture must contain the [id, bytes] pair");
        let err = Trace::from_json(&bad).unwrap_err();
        assert!(
            err.to_string().contains("[id, bytes]"),
            "unexpected error: {err}"
        );
        // Non-array pair entries are rejected too.
        let bad2 = good.replace("[[0,8]]", "[7]");
        let err2 = Trace::from_json(&bad2).unwrap_err();
        assert!(err2.to_string().contains("[id, bytes]"));
    }

    #[test]
    fn resource_demands_past_u32_are_errors_not_truncated() {
        let t = Trace {
            records: vec![rec(0, &[], 1.0)],
        };
        let good = t.to_value().compact();
        for (field, from, to) in [
            ("cores", "\"cores\":1", "\"cores\":4294967297"),
            ("gpus", "\"gpus\":0", "\"gpus\":4294967298"),
        ] {
            let bad = good.replace(from, to);
            assert_ne!(good, bad, "fixture must contain {from}");
            let err = Trace::from_json(&bad).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("{field} exceeds u32::MAX")),
                "unexpected error: {err}"
            );
        }
        let max = good.replace("\"cores\":1", "\"cores\":4294967295");
        assert_eq!(Trace::from_json(&max).unwrap().records[0].cores, u32::MAX);
    }

    #[test]
    fn deeply_nested_json_is_an_error_not_an_abort() {
        let deep = format!("{{\"records\":{}", "[".repeat(100_000));
        let err = Trace::from_json(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"), "{err}");
        let path = std::env::temp_dir().join("taskml_deeply_nested_trace.json");
        std::fs::write(&path, &deep).unwrap();
        let err = Trace::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Other);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_roundtrip_preserves_attempts_and_defaults_old_traces() {
        let mut r = rec(0, &[], 1.0);
        r.attempts = vec![
            AttemptRecord {
                start_s: 0.5,
                duration_s: 0.1,
                error: Some("task 'x' panicked: boom".into()),
            },
            AttemptRecord {
                start_s: 0.7,
                duration_s: 0.2,
                error: None,
            },
        ];
        let t = Trace { records: vec![r] };
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(back.records[0].attempts, t.records[0].attempts);

        // Traces archived before fault tolerance existed still load.
        let mut v = Value::parse(&t.to_json()).unwrap();
        if let Value::Object(fields) = &mut v {
            if let Some((_, Value::Array(recs))) = fields.iter_mut().find(|(k, _)| k == "records") {
                for r in recs {
                    if let Value::Object(rf) = r {
                        rf.retain(|(k, _)| k != "attempts");
                    }
                }
            }
        }
        let back = Trace::from_json(&v.pretty()).unwrap();
        assert!(back.records[0].attempts.is_empty());
    }

    #[test]
    fn json_roundtrip_preserves_obs_fields_and_defaults_old_traces() {
        let mut r = rec(0, &[], 1.0);
        r.ready_s = 3.0;
        r.start_s = 3.25;
        r.fetch_s = 0.125;
        r.fetch_bytes = 4096;
        r.worker = 2;
        let t = Trace { records: vec![r] };
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(back.records[0].ready_s, 3.0);
        assert_eq!(back.records[0].start_s, 3.25);
        assert_eq!(back.records[0].fetch_s, 0.125);
        assert_eq!(back.records[0].fetch_bytes, 4096);
        assert_eq!(back.records[0].worker, 2);

        // Traces archived before the obs fields existed still load:
        // strip the new fields from the JSON tree and re-parse.
        let mut v = Value::parse(&t.to_json()).unwrap();
        if let Value::Object(fields) = &mut v {
            if let Some((_, Value::Array(recs))) = fields.iter_mut().find(|(k, _)| k == "records") {
                for r in recs {
                    if let Value::Object(rf) = r {
                        rf.retain(|(k, _)| {
                            !matches!(
                                k.as_str(),
                                "ready_s" | "start_s" | "fetch_s" | "fetch_bytes" | "worker"
                            )
                        });
                    }
                }
            }
        }
        let back = Trace::from_json(&v.pretty()).unwrap();
        assert_eq!(back.records[0].ready_s, 0.0);
        assert_eq!(back.records[0].start_s, 0.0);
        assert_eq!(back.records[0].fetch_s, 0.0);
        assert_eq!(back.records[0].fetch_bytes, 0);
        assert_eq!(back.records[0].worker, -1);
    }
}
