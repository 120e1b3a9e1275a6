//! The driver's decisions for one run, with no I/O in them.
//!
//! [`RunState`] is everything one [`DistRuntime::run`] decides from:
//! each task's state, attempt count, backoff deadline and deps, the
//! replica map, the records, the stats and which workers are alive.
//! [`RunState::step`] takes one [`Event`] and the time it is handled at
//! — seconds since the driver epoch, passed in, never read here — and
//! returns the [`Action`]s to perform: send this `Run` or `Release`,
//! kill this worker, fetch this output. What an action observes (a
//! failed send, a fetched or missing output) comes back as the next
//! event. Sockets,
//! threads, worker processes and the clock belong to the shell in
//! `driver`, so a run here can be driven by fabricated events.
//!
//! [`DistRuntime::run`]: super::DistRuntime::run

use super::driver::{DistReport, DistStats};
use super::kind::KindRegistry;
use super::place::place;
use super::plan::Plan;
use super::proto::{InputSpec, Msg};
use super::wire::WireValue;
use crate::fault::give_up_message;
use crate::handle::{DataId, TaskId};
use crate::trace::{AttemptRecord, TaskRecord, Trace};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// What the shell observed.
#[derive(Debug)]
pub(super) enum Event {
    /// Worker `worker`'s `Hello` arrived, `at_s` seconds after the epoch.
    Joined { worker: usize, at_s: f64 },
    /// A frame other than a heartbeat on a worker's control stream.
    Frame(usize, Msg),
    /// The worker is gone: its control stream ended, or it was silent
    /// for the grace period.
    Lost(usize),
    /// This message for the worker could not be written: its control
    /// stream is gone. A `Run` that failed never left, so its task was
    /// not lost.
    SendFailed(usize, Msg),
    /// What an [`Action::Fetch`] got: the value, or `None` when no owner
    /// answered.
    Fetched(u64, Option<Arc<WireValue>>),
    /// Time passed without a frame; a backoff may have run out.
    Wake,
}

/// What the shell must do.
#[derive(Debug, PartialEq)]
pub(super) enum Action {
    /// Write this message — a [`Msg::Run`] or a [`Msg::Release`] — on
    /// the worker's control stream.
    Send(usize, Msg),
    /// Sever the worker's control stream and kill its process.
    Kill(usize),
    /// Pull output `data` from one of `owners` into the driver.
    Fetch { data: u64, owners: Vec<usize> },
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum TState {
    Pending,
    Running(usize),
    Done,
}

/// One datum in the replica map.
struct DataState {
    /// Live workers holding it.
    replicas: BTreeSet<usize>,
    /// Whether the driver holds it (a seed, or an output fetched back).
    driver: bool,
    bytes: u64,
}

/// One run's decisions; see the module docs.
pub(super) struct RunState<'a> {
    plan: &'a Plan,
    registry: &'a KindRegistry,
    /// Each worker's peer socket, named as an owner in `Run` frames.
    peers: Vec<String>,
    /// How long a task waits after a `FetchFailed`.
    heartbeat_s: f64,
    /// Kill worker `.1` once `.0` tasks have completed.
    chaos: Option<(usize, usize)>,
    tasks: Vec<TState>,
    attempts: Vec<u32>,
    /// No dispatch before this time (a retry backoff or a fetch pause).
    not_before: Vec<f64>,
    failed: Vec<Vec<AttemptRecord>>,
    /// Producers of each task's inputs, sorted and deduplicated.
    deps: Vec<Vec<TaskId>>,
    /// The tasks reading each datum, each once.
    consumers: HashMap<u64, Vec<usize>>,
    records: Vec<Option<TaskRecord>>,
    data: HashMap<u64, DataState>,
    /// When each worker joined; dispatch starts once all have.
    joined: Vec<Option<f64>>,
    alive: Vec<bool>,
    outputs: BTreeMap<u64, Arc<WireValue>>,
    stats: DistStats,
}

impl<'a> RunState<'a> {
    pub(super) fn new(
        plan: &'a Plan,
        registry: &'a KindRegistry,
        peers: Vec<String>,
        heartbeat_s: f64,
        chaos: Option<(usize, usize)>,
    ) -> Self {
        let n = plan.tasks.len();
        let producer: HashMap<u64, u64> = (0..n).map(|t| (plan.tasks[t].out, t as u64)).collect();
        let deps = plan
            .tasks
            .iter()
            .map(|pt| {
                let mut deps: Vec<TaskId> = pt
                    .inputs
                    .iter()
                    .filter_map(|i| producer.get(i).map(|&p| TaskId(p)))
                    .collect();
                deps.sort_unstable();
                deps.dedup();
                deps
            })
            .collect();
        let mut consumers: HashMap<u64, Vec<usize>> = HashMap::new();
        for (t, pt) in plan.tasks.iter().enumerate() {
            for &i in &pt.inputs {
                let readers = consumers.entry(i).or_default();
                if readers.last() != Some(&t) {
                    readers.push(t);
                }
            }
        }
        let data = plan
            .seeds
            .iter()
            .map(|(id, v)| {
                let seed = DataState {
                    replicas: BTreeSet::new(),
                    driver: true,
                    bytes: v.encoded_len() as u64,
                };
                (*id, seed)
            })
            .collect();
        let workers = peers.len();
        RunState {
            plan,
            registry,
            peers,
            heartbeat_s,
            chaos,
            tasks: vec![TState::Pending; n],
            attempts: vec![1; n],
            not_before: vec![0.0; n],
            failed: vec![Vec::new(); n],
            deps,
            consumers,
            records: (0..n).map(|_| None).collect(),
            data,
            joined: vec![None; workers],
            alive: vec![false; workers],
            outputs: BTreeMap::new(),
            stats: DistStats::default(),
        }
    }

    /// Whether worker `w` has joined and not been lost.
    pub(super) fn alive(&self, w: usize) -> bool {
        self.alive[w]
    }

    /// How many workers have joined (dead ones included).
    pub(super) fn joined(&self) -> usize {
        self.joined.iter().flatten().count()
    }

    /// Every task done and every marked output fetched.
    pub(super) fn finished(&self) -> bool {
        self.outputs.len() == self.plan.outputs().len()
            && self.tasks.iter().all(|s| *s == TState::Done)
    }

    /// The outputs, the trace and the counters. The shell fills in what
    /// only it measures: `wall_s` and `relay_bytes`.
    pub(super) fn into_report(self) -> DistReport {
        DistReport {
            outputs: self.outputs,
            trace: Trace {
                records: self.records.into_iter().flatten().collect(),
            },
            stats: self.stats,
        }
    }

    /// Applies `event`, handled at `now`, and returns what to do next.
    /// An `Err` ends the run: a task out of attempts, or no worker left.
    pub(super) fn step(&mut self, event: Event, now: f64) -> Result<Vec<Action>, String> {
        let mut actions = Vec::new();
        match event {
            Event::Joined { worker, at_s } => {
                self.joined[worker] = Some(at_s);
                self.alive[worker] = true;
            }
            Event::Frame(w, msg) if self.alive[w] => self.on_frame(w, msg, now, &mut actions)?,
            Event::Frame(..) | Event::Wake => {}
            Event::Lost(w) => self.lose(w, &mut actions),
            Event::SendFailed(w, msg) => {
                if let Msg::Run { task, .. } = msg {
                    if let Some(t) = self.running_on(task, w) {
                        self.tasks[t] = TState::Pending;
                    }
                }
                self.lose(w, &mut actions);
            }
            Event::Fetched(data, Some(value)) => {
                self.outputs.insert(data, value);
                if let Some(d) = self.data.get_mut(&data) {
                    d.driver = true;
                }
            }
            Event::Fetched(data, None) => {
                // No owner answered: they are gone, and lineage recomputes.
                let owners: Vec<usize> = self.data[&data].replicas.iter().copied().collect();
                for w in owners {
                    self.lose(w, &mut actions);
                }
                self.rollback();
            }
        }
        if self.joined() == self.joined.len() {
            self.advance(now, &mut actions)?;
        }
        Ok(actions)
    }

    fn on_frame(
        &mut self,
        w: usize,
        msg: Msg,
        now: f64,
        actions: &mut Vec<Action>,
    ) -> Result<(), String> {
        let (plan, registry) = (self.plan, self.registry);
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
                let Some(t) = self.running_on(task, w) else {
                    return Ok(());
                };
                self.tasks[t] = TState::Done;
                self.stats.tasks_run += 1;
                let entry = self.data.entry(out).or_insert(DataState {
                    replicas: BTreeSet::new(),
                    driver: false,
                    bytes,
                });
                entry.bytes = bytes;
                entry.replicas.insert(w);
                // The record's `fetch_bytes`: every input moved to `w`,
                // pulled from a peer or relayed through the driver.
                let mut fetch_bytes = 0;
                for p in &pulled {
                    if let Some(d) = self.data.get_mut(p) {
                        d.replicas.insert(w);
                        fetch_bytes += d.bytes;
                        self.stats.peer_pulls += 1;
                        self.stats.peer_pull_bytes += d.bytes;
                    }
                }
                // Relayed bytes were counted once, where the driver
                // served them (`relay_bytes`).
                for p in &relayed {
                    if let Some(d) = self.data.get_mut(p) {
                        d.replicas.insert(w);
                        fetch_bytes += d.bytes;
                    }
                }
                let start_s = self.joined[w].unwrap_or(0.0) + start_rel_s;
                let mut attempts = self.failed[t].clone();
                if !attempts.is_empty() {
                    attempts.push(AttemptRecord {
                        start_s,
                        duration_s,
                        error: None,
                    });
                }
                let pt = &plan.tasks[t];
                self.records[t] = Some(TaskRecord {
                    id: TaskId(task),
                    name: pt.kind.clone(),
                    deps: self.deps[t].clone(),
                    duration_s,
                    inputs: pt
                        .inputs
                        .iter()
                        .map(|i| (DataId(*i), self.data.get(i).map_or(0, |d| d.bytes as usize)))
                        .collect(),
                    outputs: vec![(DataId(out), bytes as usize)],
                    cores: 1,
                    gpus: 0,
                    ready_s: 0.0,
                    start_s,
                    fetch_s: 0.0,
                    fetch_bytes,
                    worker: w as i64,
                    child: None,
                    attempts,
                });
                for &i in &pt.inputs {
                    self.release_unread(i, actions);
                }
                if let Some((after, victim)) = self.chaos {
                    if self.stats.tasks_run >= after as u64 {
                        self.chaos = None;
                        self.lose(victim, actions);
                    }
                }
            }
            Msg::FetchFailed { task, .. } => {
                let Some(t) = self.running_on(task, w) else {
                    return Ok(());
                };
                // An input's owner died under the dispatch. Requeue
                // without burning an attempt; that owner's loss, and the
                // lineage rollback it triggers, re-supply the input. The
                // one-heartbeat pause stops a hot requeue loop while
                // the loss is still in flight.
                self.stats.fetch_failures += 1;
                self.not_before[t] = now + self.heartbeat_s;
                self.tasks[t] = TState::Pending;
            }
            Msg::Failed { task, error } => {
                let Some(t) = self.running_on(task, w) else {
                    return Ok(());
                };
                let pt = &plan.tasks[t];
                let policy = registry.get(&pt.kind).expect("validated at submit").policy;
                // `Failed` carries no timing: the attempt is stamped when
                // its frame is handled (see `AttemptRecord`).
                self.failed[t].push(AttemptRecord {
                    start_s: now,
                    duration_s: 0.0,
                    error: Some(error.clone()),
                });
                let Some(delay) = policy.retry_after(task, self.attempts[t]) else {
                    return Err(give_up_message(&pt.kind, task, self.attempts[t], &error));
                };
                self.not_before[t] = now + delay;
                self.attempts[t] += 1;
                self.stats.retries += 1;
                self.tasks[t] = TState::Pending;
            }
            _ => {}
        }
        Ok(())
    }

    /// Once `data` is not [`Self::needed`], tells every worker holding
    /// a replica to drop it and forgets those replicas; the driver's own
    /// copy of a seed stays. Lineage needs no rule of its own: should a
    /// loss re-open a reader, [`Self::rollback`] finds the datum without
    /// a replica and re-opens its producer too.
    fn release_unread(&mut self, data: u64, actions: &mut Vec<Action>) {
        if self.needed(data) {
            return;
        }
        let Some(d) = self.data.get_mut(&data) else {
            return;
        };
        if d.replicas.is_empty() {
            return;
        }
        self.stats.released += 1;
        for w in std::mem::take(&mut d.replicas) {
            self.stats.released_bytes += d.bytes;
            actions.push(Action::Send(w, Msg::Release { data }));
        }
    }

    /// Whether the plan marks `data` as an output or a task that is not
    /// done reads it.
    fn needed(&self, data: u64) -> bool {
        self.plan.outputs().contains(&data)
            || self
                .consumers
                .get(&data)
                .is_some_and(|readers| readers.iter().any(|&t| self.tasks[t] != TState::Done))
    }

    /// `task`'s index if it runs on `w`. A frame about any other task is
    /// a late duplicate from before a re-execution.
    fn running_on(&self, task: u64, w: usize) -> Option<usize> {
        let t = task as usize;
        (self.tasks.get(t) == Some(&TState::Running(w))).then_some(t)
    }

    /// Marks `w` dead: its running task is requeued, its replicas are
    /// gone, and lineage re-opens whatever that leaves unrecoverable.
    fn lose(&mut self, w: usize, actions: &mut Vec<Action>) {
        if !self.alive[w] {
            return;
        }
        self.alive[w] = false;
        self.stats.workers_lost += 1;
        actions.push(Action::Kill(w));
        for d in self.data.values_mut() {
            d.replicas.remove(&w);
        }
        for s in &mut self.tasks {
            if *s == TState::Running(w) {
                *s = TState::Pending;
                self.stats.lost_tasks += 1;
            }
        }
        self.rollback();
    }

    /// Re-opens, to a fixpoint, every completed task whose output lost
    /// its last replica — to a loss or to a release — while it is still
    /// [`Self::needed`]: the live mirror of the DES's lineage rollback.
    fn rollback(&mut self) {
        let plan = self.plan;
        loop {
            let mut changed = false;
            for (t, pt) in plan.tasks.iter().enumerate() {
                let lost = self
                    .data
                    .get(&pt.out)
                    .is_none_or(|d| !d.driver && d.replicas.is_empty());
                if self.tasks[t] != TState::Done || !lost {
                    continue;
                }
                if self.needed(pt.out) {
                    self.tasks[t] = TState::Pending;
                    self.stats.reexecutions += 1;
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Once every worker has joined: with every task done, asks for the
    /// first output not yet back, one at a time; otherwise ships the
    /// ready tasks [`place`] assigns to idle workers.
    fn advance(&mut self, now: f64, actions: &mut Vec<Action>) -> Result<(), String> {
        if self.tasks.iter().all(|s| *s == TState::Done) {
            let plan = self.plan;
            for &o in plan.outputs() {
                if self.outputs.contains_key(&o) {
                    continue;
                }
                if let Some((_, v)) = plan.seeds.iter().find(|(id, _)| *id == o) {
                    self.outputs.insert(o, Arc::clone(v));
                    continue;
                }
                let owners = self.data[&o].replicas.iter().copied().collect();
                actions.push(Action::Fetch { data: o, owners });
                break;
            }
            return Ok(());
        }
        self.schedule(now, actions)
    }

    /// Everything `place` sees is rebuilt here from the task states and
    /// the replica map, so a loss or a rollback needs no bookkeeping.
    fn schedule(&mut self, now: f64, actions: &mut Vec<Action>) -> Result<(), String> {
        let n = self.alive.len();
        let mut in_flight = vec![0usize; n];
        for s in &self.tasks {
            if let TState::Running(w) = s {
                in_flight[*w] += 1;
            }
        }
        let any_alive = self.alive.contains(&true);
        if any_alive && (0..n).all(|w| !self.alive[w] || in_flight[w] > 0) {
            return Ok(()); // every live worker is busy: nothing can ship
        }
        let ready: Vec<(usize, Vec<u64>)> = (0..self.tasks.len())
            .filter(|&t| {
                self.tasks[t] == TState::Pending
                    && now >= self.not_before[t]
                    && self.plan.tasks[t].inputs.iter().all(|i| {
                        self.data
                            .get(i)
                            .is_some_and(|d| d.driver || !d.replicas.is_empty())
                    })
            })
            .map(|t| {
                let mut held = vec![0u64; n];
                let inputs = self.plan.tasks[t].inputs.iter();
                for d in inputs.filter_map(|i| self.data.get(i)) {
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
        for (t, w) in place(&ready, &in_flight, &self.alive) {
            actions.push(Action::Send(w, self.run_msg(t)));
            self.tasks[t] = TState::Running(w);
        }
        Ok(())
    }

    /// The `Run` for task `t`, naming the current owners of each input.
    fn run_msg(&self, t: usize) -> Msg {
        let pt = &self.plan.tasks[t];
        let inputs = pt
            .inputs
            .iter()
            .map(|i| InputSpec {
                data: *i,
                owners: self.data.get(i).map_or_else(Vec::new, |d| {
                    let owners = d.replicas.iter();
                    owners.map(|&o| (o as u32, self.peers[o].clone())).collect()
                }),
            })
            .collect();
        Msg::Run {
            task: t as u64,
            kind: pt.kind.clone(),
            out: pt.out,
            inputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RetryPolicy;

    /// The `flaky` kind's policy.
    fn flaky_policy() -> RetryPolicy {
        RetryPolicy::new(2).backoff(0.5)
    }

    const HEARTBEAT_S: f64 = 0.02;

    fn registry() -> KindRegistry {
        let mut reg = KindRegistry::new();
        reg.register("k", |_| Ok(WireValue::Unit));
        reg.register("inc", |ins| {
            Ok(WireValue::U64(
                1 + ins.iter().map(|v| v.as_u64()).sum::<u64>(),
            ))
        });
        reg.register_with("flaky", flaky_policy(), |_| Ok(WireValue::Unit));
        reg
    }

    /// A state whose `workers` workers all joined at t = 0, with the
    /// actions the last join produced.
    fn joined<'a>(
        plan: &'a Plan,
        reg: &'a KindRegistry,
        workers: usize,
    ) -> (RunState<'a>, Vec<Action>) {
        let peers = (0..workers).map(|w| format!("w{w}.sock")).collect();
        let mut st = RunState::new(plan, reg, peers, HEARTBEAT_S, None);
        let mut actions = Vec::new();
        for worker in 0..workers {
            actions = st.step(Event::Joined { worker, at_s: 0.0 }, 0.0).unwrap();
        }
        (st, actions)
    }

    /// `(task, worker)` of every `Run` among `actions`.
    fn runs(actions: &[Action]) -> Vec<(u64, usize)> {
        let run = |a: &Action| match a {
            Action::Send(w, Msg::Run { task, .. }) => Some((*task, *w)),
            _ => None,
        };
        actions.iter().filter_map(run).collect()
    }

    /// Worker `w` reports task `t` done.
    fn done(plan: &Plan, w: usize, t: usize) -> Event {
        done_fetching(plan, w, t, &[], &[])
    }

    /// Worker `w` reports task `t` done, having pulled `pulled` from
    /// peers and `relayed` through the driver.
    fn done_fetching(plan: &Plan, w: usize, t: usize, pulled: &[u64], relayed: &[u64]) -> Event {
        Event::Frame(
            w,
            Msg::Done {
                task: t as u64,
                out: plan.tasks[t].out,
                bytes: 8,
                start_rel_s: 0.0,
                duration_s: 0.0,
                pulled: pulled.to_vec(),
                relayed: relayed.to_vec(),
            },
        )
    }

    /// `(data, worker)` of every `Release` among `actions`, sorted.
    fn releases(actions: &[Action]) -> Vec<(u64, usize)> {
        let mut out: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(w, Msg::Release { data }) => Some((*data, *w)),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn a_record_carries_the_bytes_its_worker_fetched() {
        let reg = registry();
        let mut plan = Plan::new();
        let s = plan.put(WireValue::U64(1));
        let a = plan.task("k", &[s]); // t0
        let b = plan.task("k", &[]); // t1
        let c = plan.task("k", &[a, b]); // t2
        plan.mark_output(c);
        let (mut st, actions) = joined(&plan, &reg, 2);
        assert_eq!(runs(&actions), vec![(0, 0), (1, 1)]);
        // t0 had the seed's 9-byte encoding relayed by the driver; t1
        // read nothing.
        st.step(done_fetching(&plan, 0, 0, &[], &[s]), 1.0).unwrap();
        let actions = st.step(done(&plan, 1, 1), 2.0).unwrap();
        // t2 runs beside a and pulls b's 8 bytes from worker 1.
        assert_eq!(runs(&actions), vec![(2, 0)]);
        st.step(done_fetching(&plan, 0, 2, &[b], &[]), 3.0).unwrap();
        let fetched: Vec<u64> = st.records.iter().flatten().map(|r| r.fetch_bytes).collect();
        assert_eq!(fetched, [9, 0, 8]);
    }

    #[test]
    fn done_from_a_lost_worker_adds_no_replica_and_no_record() {
        let reg = registry();
        let mut plan = Plan::new();
        plan.task("k", &[]);
        let b = plan.task("k", &[]);
        let (mut st, actions) = joined(&plan, &reg, 2);
        assert_eq!(runs(&actions), vec![(0, 0), (1, 1)]);
        assert_eq!(st.step(Event::Lost(1), 1.0).unwrap(), vec![Action::Kill(1)]);
        assert_eq!(st.stats.lost_tasks, 1);
        // Worker 1's Done was in flight when it was declared lost.
        assert!(st.step(done(&plan, 1, 1), 1.1).unwrap().is_empty());
        assert!(
            !st.data.contains_key(&b),
            "a dead worker's replica was added"
        );
        assert!(st.records[1].is_none(), "a dead worker's task was recorded");
        assert_eq!(st.stats.tasks_run, 0);
        // The survivor finishes its own task, then takes the requeued one.
        assert_eq!(
            runs(&st.step(done(&plan, 0, 0), 1.2).unwrap()),
            vec![(1, 0)]
        );
        assert_eq!(st.records[0].as_ref().unwrap().worker, 0);
    }

    #[test]
    fn losing_a_worker_requeues_its_task_and_reopens_two_levels_of_lineage() {
        let reg = registry();
        let mut plan = Plan::new();
        let s = plan.put(WireValue::U64(1));
        let a = plan.task("k", &[s]); // t0
        plan.task("k", &[a]); // t1: a dead end nobody reads
        let b = plan.task("k", &[a]); // t2
        let c = plan.task("k", &[b]); // t3
        plan.task("k", &[s]); // t4
        plan.mark_output(c);
        let (mut st, actions) = joined(&plan, &reg, 2);
        assert_eq!(runs(&actions), vec![(0, 0), (4, 1)]);
        // Worker 1 stays busy, so worker 0 runs the chain on its own.
        for (t, next) in [(0, 1), (1, 2), (2, 3)] {
            let actions = st.step(done(&plan, 0, t), t as f64).unwrap();
            assert_eq!(runs(&actions), vec![(next, 0)]);
        }
        let actions = st.step(Event::Lost(0), 5.0).unwrap();
        assert_eq!(actions, vec![Action::Kill(0)], "worker 1 is still busy");
        assert_eq!(st.stats.lost_tasks, 1, "t3 was running on worker 0");
        // b is lost and t3 needs it, so t2 re-opens; then a is lost and
        // t2 needs it, so t0 re-opens. Nothing needs t1's output.
        assert_eq!(st.stats.reexecutions, 2);
        use TState::*;
        assert_eq!(st.tasks, vec![Pending, Done, Pending, Pending, Running(1)]);
        // The survivor starts over from the seed.
        assert_eq!(
            runs(&st.step(done(&plan, 1, 4), 6.0).unwrap()),
            vec![(0, 1)]
        );
    }

    #[test]
    fn fetch_failed_requeues_after_a_heartbeat_without_burning_an_attempt() {
        let reg = registry();
        let mut plan = Plan::new();
        let s = plan.put(WireValue::U64(1));
        plan.task("k", &[s]);
        let (mut st, actions) = joined(&plan, &reg, 1);
        assert_eq!(runs(&actions), vec![(0, 0)]);
        let failed = Event::Frame(0, Msg::FetchFailed { task: 0, data: s });
        assert!(st.step(failed, 1.0).unwrap().is_empty());
        assert_eq!(st.stats.fetch_failures, 1);
        let early = 1.0 + HEARTBEAT_S / 2.0;
        assert!(st.step(Event::Wake, early).unwrap().is_empty());
        let actions = st.step(Event::Wake, 1.0 + HEARTBEAT_S).unwrap();
        assert!(matches!(
            actions[..],
            [Action::Send(0, Msg::Run { task: 0, .. })]
        ));
        assert_eq!((st.attempts[0], st.stats.retries), (1, 0));
    }

    #[test]
    fn retry_waits_out_its_backoff_and_the_last_failure_names_task_kind_and_attempts() {
        let reg = registry();
        let mut plan = Plan::new();
        plan.task("flaky", &[]);
        let (mut st, actions) = joined(&plan, &reg, 1);
        assert!(matches!(
            actions[..],
            [Action::Send(0, Msg::Run { task: 0, .. })]
        ));
        let failed = || {
            let error = "deliberate".to_string();
            Event::Frame(0, Msg::Failed { task: 0, error })
        };
        assert!(st.step(failed(), 1.0).unwrap().is_empty());
        assert_eq!(st.stats.retries, 1);
        // 0.5 s backoff, jittered by at most 10 %.
        let delay = flaky_policy().retry_after(0, 1).unwrap();
        assert!((0.45..=0.55).contains(&delay), "{delay}");
        assert!(
            st.step(Event::Wake, 1.0 + 0.99 * delay).unwrap().is_empty(),
            "dispatched inside the backoff"
        );
        let actions = st.step(Event::Wake, 1.0 + delay).unwrap();
        assert!(matches!(
            actions[..],
            [Action::Send(0, Msg::Run { task: 0, .. })]
        ));
        let err = st.step(failed(), 2.0).unwrap_err();
        assert_eq!(err, "task 'flaky' #0 failed after 2 attempts: deliberate");
    }

    #[test]
    fn each_unread_datum_is_released_once_per_replica_holder() {
        let reg = registry();
        let mut plan = Plan::new();
        let s = plan.put(WireValue::U64(1));
        let a = plan.task("k", &[s]); // t0
        let b = plan.task("k", &[s]); // t1
        let c = plan.task("k", &[a, b]); // t2
        plan.task("k", &[c]); // t3
        plan.mark_output(c);
        let (mut st, actions) = joined(&plan, &reg, 2);
        assert_eq!(runs(&actions), vec![(0, 0), (1, 1)]);
        // t1 still reads the seed, and t2 the new datum: nothing goes.
        let actions = st.step(done_fetching(&plan, 0, 0, &[], &[s]), 1.0).unwrap();
        assert_eq!(releases(&actions), vec![]);
        assert!(runs(&actions).is_empty(), "t2 waits for b");
        // Both holders of the seed drop it; the driver keeps its copy.
        let actions = st.step(done_fetching(&plan, 1, 1, &[], &[s]), 2.0).unwrap();
        assert_eq!(releases(&actions), vec![(s, 0), (s, 1)]);
        assert!(st.data[&s].driver && st.data[&s].replicas.is_empty());
        // a and b tie on bytes: t2 goes to the lower id and pulls b.
        assert_eq!(runs(&actions), vec![(2, 0)]);
        let actions = st.step(done_fetching(&plan, 0, 2, &[b], &[]), 3.0).unwrap();
        assert_eq!(releases(&actions), vec![(a, 0), (b, 0), (b, 1)]);
        assert_eq!(runs(&actions), vec![(3, 0)]);
        let actions = st.step(done(&plan, 0, 3), 4.0).unwrap();
        assert_eq!(releases(&actions), vec![], "an output is never released");
        assert_eq!(st.stats.released, 3);
        // The seed's 9-byte encoding twice, then 8 bytes per replica.
        assert_eq!(st.stats.released_bytes, 2 * 9 + 8 + 2 * 8);
    }

    /// Runs `st` to the end on in-memory workers that answer at once: a
    /// `Run` computes its kind over inputs from the worker's own store,
    /// a named owner's or the seeds, a `Release` drops the replica and a
    /// `Kill` empties the store. Right after `lose_after`'s `Done`, the
    /// worker holding that task's output is lost. Returns how often each
    /// task ran. A release of a datum some task still needs stalls the
    /// run, and that panics here.
    fn drive(
        plan: &Plan,
        reg: &KindRegistry,
        st: &mut RunState<'_>,
        first: Vec<Action>,
        mut lose_after: Option<usize>,
    ) -> Vec<usize> {
        use std::collections::VecDeque;
        let mut stores: Vec<HashMap<u64, Arc<WireValue>>> = vec![HashMap::new(); st.alive.len()];
        let seeds: HashMap<u64, Arc<WireValue>> = plan.seeds.iter().cloned().collect();
        let mut ran = vec![0; plan.tasks.len()];
        let mut queue = VecDeque::from(first);
        let mut now = 1.0;
        while !st.finished() {
            let event = match queue.pop_front() {
                None => {
                    // Only a fetch pause can be left to wait out.
                    now += 1.0;
                    let actions = st.step(Event::Wake, now).unwrap();
                    assert!(!actions.is_empty(), "the run stalled");
                    queue.extend(actions);
                    continue;
                }
                Some(Action::Send(w, Msg::Release { data })) => {
                    stores[w].remove(&data);
                    continue;
                }
                Some(Action::Send(
                    w,
                    Msg::Run {
                        task,
                        kind,
                        out,
                        inputs,
                        ..
                    },
                )) => {
                    let (mut values, mut pulled, mut relayed) =
                        (Vec::new(), Vec::new(), Vec::new());
                    for spec in &inputs {
                        let held = stores[w].get(&spec.data).cloned();
                        let peer = spec
                            .owners
                            .iter()
                            .find_map(|(o, _)| stores[*o as usize].get(&spec.data).cloned());
                        let value = match (held, peer, seeds.get(&spec.data)) {
                            (Some(v), _, _) => v,
                            (None, Some(v), _) => {
                                pulled.push(spec.data);
                                v
                            }
                            (None, None, Some(v)) => {
                                relayed.push(spec.data);
                                Arc::clone(v)
                            }
                            (None, None, None) => break,
                        };
                        stores[w].insert(spec.data, Arc::clone(&value));
                        values.push(value);
                    }
                    if values.len() < inputs.len() {
                        let data = inputs[values.len()].data;
                        Event::Frame(w, Msg::FetchFailed { task, data })
                    } else {
                        ran[task as usize] += 1;
                        let value = reg.invoke(&kind, &values).unwrap();
                        let bytes = value.encoded_len() as u64;
                        stores[w].insert(out, Arc::new(value));
                        let (start_rel_s, duration_s) = (0.0, 0.0);
                        Event::Frame(
                            w,
                            Msg::Done {
                                task,
                                out,
                                bytes,
                                start_rel_s,
                                duration_s,
                                pulled,
                                relayed,
                            },
                        )
                    }
                }
                Some(Action::Send(..)) => unreachable!("the driver sends only Run and Release"),
                Some(Action::Kill(w)) => {
                    stores[w].clear();
                    continue;
                }
                Some(Action::Fetch { data, owners }) => {
                    let value = owners.iter().find_map(|&o| stores[o].get(&data).cloned());
                    Event::Fetched(data, value)
                }
            };
            let finished = match &event {
                Event::Frame(_, Msg::Done { task, .. }) => Some(*task as usize),
                _ => None,
            };
            queue.extend(st.step(event, now).unwrap());
            if let Some(t) = finished.filter(|&t| lose_after == Some(t)) {
                lose_after = None;
                // The loss overtakes whatever the `Done` just shipped.
                let holder = *st.data[&plan.tasks[t].out].replicas.first().unwrap();
                for action in st.step(Event::Lost(holder), now).unwrap().into_iter().rev() {
                    queue.push_front(action);
                }
            }
        }
        ran
    }

    #[test]
    fn a_loss_after_releases_reexecutes_the_released_producer_chain_to_the_inline_result() {
        let reg = registry();
        let mut plan = Plan::new();
        let s = plan.put(WireValue::U64(1));
        let a = plan.task("inc", &[s]); // t0
        let b = plan.task("inc", &[a]); // t1
        let y = plan.task("inc", &[a]); // t2: a second reader of a
        let c = plan.task("inc", &[b]); // t3
        let d = plan.task("inc", &[c, y]); // t4
        plan.mark_output(d);
        let inline = plan.run_inline(&reg).unwrap();

        // Undisturbed: every task runs once and every datum but d goes.
        let (mut st, first) = joined(&plan, &reg, 2);
        assert_eq!(drive(&plan, &reg, &mut st, first, None), vec![1; 5]);
        assert_eq!(st.outputs[&d].as_u64(), inline[&d].as_u64());
        assert_eq!(st.stats.released, 5, "s, a, b, y and c");
        assert_eq!(st.stats.reexecutions, 0);

        // Lose c's holder once t3 is done: c is needed by t4, and b and a
        // went with their last readers, so t3, t1 and t0 run again — a
        // copy of a pulled for t2 is gone too. The seed is the driver's.
        let (mut st, first) = joined(&plan, &reg, 2);
        let ran = drive(&plan, &reg, &mut st, first, Some(3));
        assert_eq!(ran, vec![2, 2, 1, 2, 1]);
        assert_eq!(st.stats.reexecutions, 3);
        assert_eq!(
            crate::dist::fingerprint(&st.outputs),
            crate::dist::fingerprint(&inline)
        );
    }
}
