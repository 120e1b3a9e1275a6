//! The exported trace against an oracle built from the program alone.
//!
//! The runtime stores no `deps` and no output sizes per task: export
//! derives them (the producers of a task's inputs plus the sync marker
//! current at its submission; sizes from the data table). These
//! properties run random programs — puts, `run_many`, `run1_inout`,
//! `wait`, `barrier`, and four always-failing tasks cycling over no
//! `.retry` (one attempt) and a two-attempt [`RetryPolicy`] — on an
//! inline and on a 2-thread runtime,
//! and check every record against what the program implies:
//!
//! * `deps`: the last writers of the task's inputs plus the latest
//!   marker before it; a sync marker's are the waited datum's producer
//!   plus the previous marker; a barrier's every id since the previous
//!   barrier;
//! * `inputs` / `outputs`: the data ids in order, each with the datum's
//!   size — `0` for data that never materialized. A task that never
//!   commits keeps the sizes it saw at submission, so on the threaded
//!   runtime an input still pending then may read `0`.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use taskrt::{DataId, Handle, Payload, RetryPolicy, Runtime, TaskId, Trace};

/// What the program implies for one datum.
struct Datum {
    handle: Handle<Vec<u64>>,
    producer: Option<u64>,
    /// Byte size once materialized; `None` when it never will be.
    bytes: Option<usize>,
    /// Consumed by a `run1_inout`: no later op may name it.
    consumed: bool,
}

/// What the program implies for one record.
struct Expect {
    name: &'static str,
    deps: Vec<TaskId>,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    /// Whether the task commits (so its input sizes are final).
    commits: bool,
}

#[derive(Default)]
struct Oracle {
    data: Vec<Datum>,
    records: Vec<Expect>,
    /// The latest sync or barrier marker.
    marker: Option<u64>,
    /// The latest barrier (0 before the first).
    last_barrier: u64,
}

fn bytes_of(len: usize) -> usize {
    vec![0u64; len].approx_bytes()
}

impl Oracle {
    fn next_id(&self) -> u64 {
        self.records.len() as u64
    }

    /// Indices of data a later op may still read; `healthy` keeps only
    /// data that will materialize.
    fn live(&self, healthy: bool) -> Vec<usize> {
        (0..self.data.len())
            .filter(|&i| !self.data[i].consumed && (!healthy || self.data[i].bytes.is_some()))
            .collect()
    }

    fn pick(&self, pool: &[usize], word: u64, k: usize) -> Vec<usize> {
        (0..k)
            .map(|j| pool[(word as usize / (j + 1) + j * 7) % pool.len()])
            .collect()
    }

    fn put(&mut self, rt: &Runtime, len: usize) {
        self.data.push(Datum {
            handle: rt.put(vec![0u64; len]),
            producer: None,
            bytes: Some(bytes_of(len)),
            consumed: false,
        });
    }

    /// Records a task reading `inputs` whose output has `len` elements
    /// unless the task (or an input) fails.
    fn task(
        &mut self,
        name: &'static str,
        inputs: Vec<usize>,
        len: usize,
        fails: bool,
        h: Handle<Vec<u64>>,
    ) {
        let id = self.next_id();
        let mut deps: Vec<TaskId> = inputs
            .iter()
            .filter_map(|&i| self.data[i].producer.map(TaskId))
            .chain(self.marker.map(TaskId))
            .collect();
        deps.sort_unstable();
        deps.dedup();
        let commits = !fails && inputs.iter().all(|&i| self.data[i].bytes.is_some());
        self.data.push(Datum {
            handle: h,
            producer: Some(id),
            bytes: commits.then(|| bytes_of(len)),
            consumed: false,
        });
        self.records.push(Expect {
            name,
            deps,
            inputs,
            outputs: vec![self.data.len() - 1],
            commits,
        });
    }

    fn wait(&mut self, rt: &Runtime, i: usize) {
        let d = &self.data[i];
        if let Some(p) = d.producer {
            let id = self.next_id();
            let mut deps = vec![TaskId(p)];
            deps.extend(self.marker.map(TaskId));
            deps.sort_unstable();
            deps.dedup();
            self.records.push(Expect {
                name: "__sync",
                deps,
                inputs: vec![],
                outputs: vec![],
                commits: false,
            });
            self.marker = Some(id);
        }
        let _ = rt.wait(d.handle);
    }

    fn barrier(&mut self, rt: &Runtime) {
        let id = self.next_id();
        self.records.push(Expect {
            name: "__barrier",
            deps: (self.last_barrier..id).map(TaskId).collect(),
            inputs: vec![],
            outputs: vec![],
            commits: false,
        });
        self.last_barrier = id;
        self.marker = Some(id);
        // A failed task, retrying or not, makes the barrier panic after
        // its marker is recorded.
        let _ = catch_unwind(AssertUnwindSafe(|| rt.barrier()));
    }

    /// Runs the program `ops` on `rt`, with the four failing tasks
    /// before the ops at `fail_at` (modulo the program's length).
    fn run(rt: &Runtime, ops: &[u64], fail_at: &[usize]) -> Oracle {
        let mut o = Oracle::default();
        o.put(rt, 3);
        for (step, &w) in ops.iter().enumerate() {
            for (p, _) in fail_at
                .iter()
                .enumerate()
                .filter(|(_, &at)| at % ops.len() == step)
            {
                let pool = o.live(false);
                let ins = o.pick(&pool, w, 1 + (w as usize >> 8) % 3);
                let handles: Vec<_> = ins.iter().map(|&i| o.data[i].handle).collect();
                let b = rt.task("boom");
                let b = if p % 2 == 0 {
                    b
                } else {
                    b.retry(RetryPolicy::new(2).backoff(0.0))
                };
                let h = b.run_many(&handles, |_: &[&Vec<u64>]| -> Vec<u64> { panic!("boom") });
                o.task("boom", ins, 0, true, h);
            }
            let len = (w >> 16) as usize % 6;
            match w % 8 {
                0 | 1 => o.put(rt, len),
                2..=4 => {
                    let pool = o.live(false);
                    let ins = o.pick(&pool, w >> 3, 1 + (w as usize >> 8) % 4);
                    let handles: Vec<_> = ins.iter().map(|&i| o.data[i].handle).collect();
                    let h = rt
                        .task("many")
                        .run_many(&handles, move |_: &[&Vec<u64>]| vec![1u64; len]);
                    o.task("many", ins, len, false, h);
                }
                5 => {
                    let pool = o.live(false);
                    let i = o.pick(&pool, w >> 3, 1)[0];
                    o.data[i].consumed = true;
                    let h = rt
                        .task("inout")
                        .run1_inout(o.data[i].handle, move |v: &mut Vec<u64>| v.resize(len, 2));
                    o.task("inout", vec![i], len, false, h);
                }
                6 => {
                    let pool = o.live(true);
                    if !pool.is_empty() {
                        let i = o.pick(&pool, w >> 3, 1)[0];
                        o.wait(rt, i);
                    }
                }
                _ => o.barrier(rt),
            }
        }
        // Settle: every datum that materializes is committed before the
        // export (a consumed one through its successor's chain).
        for i in o.live(true) {
            let _ = rt.peek(o.data[i].handle);
        }
        o
    }

    fn check(&self, trace: &Trace, inline: bool) {
        assert_eq!(trace.records.len(), self.records.len(), "record count");
        let size = |i: usize| self.data[i].bytes.unwrap_or(0);
        let id = |i: usize| self.data[i].handle.id();
        for (r, e) in trace.records.iter().zip(&self.records) {
            let what = format!("record {:?} ({})", r.id, e.name);
            assert_eq!(r.name, e.name, "{what}: name");
            assert_eq!(r.deps, e.deps, "{what}: deps");
            let ids: Vec<DataId> = r.inputs.iter().map(|&(d, _)| d).collect();
            assert_eq!(
                ids,
                e.inputs.iter().map(|&i| id(i)).collect::<Vec<_>>(),
                "{what}: input ids"
            );
            for (&(_, got), &i) in r.inputs.iter().zip(&e.inputs) {
                // Inline, every earlier task is settled at submission,
                // so even a task that never commits saw final sizes.
                let exact = inline || e.commits;
                assert!(
                    got == size(i) || (!exact && got == 0),
                    "{what}: input {:?} is {got} B, datum {} B",
                    id(i),
                    size(i)
                );
            }
            let outs: Vec<(DataId, usize)> = e.outputs.iter().map(|&i| (id(i), size(i))).collect();
            assert_eq!(r.outputs, outs, "{what}: outputs");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn inline_export_matches_the_program(
        ops in proptest::collection::vec(0u64..1 << 24, 1..40),
        fail_at in proptest::collection::vec(0usize..40, 4),
    ) {
        let rt = Runtime::new();
        let o = Oracle::run(&rt, &ops, &fail_at);
        o.check(&rt.trace(), true);
    }

    #[test]
    fn threaded_export_matches_the_program(
        ops in proptest::collection::vec(0u64..1 << 24, 1..40),
        fail_at in proptest::collection::vec(0usize..40, 4),
    ) {
        let rt = Runtime::threaded(2);
        let o = Oracle::run(&rt, &ops, &fail_at);
        o.check(&rt.trace(), false);
    }
}
