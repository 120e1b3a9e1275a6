//! `sched_fine`: near-zero-cost task bodies through the typed
//! `TaskBuilder` API, so runtime overhead is all of the work and the
//! kernels none of it (the zero-cost-body method of arXiv 2010.11105).
//!
//! Two phases use the same layer differently, so a gain for one that
//! costs the other shows: `dag` is shared reads and fan-in
//! (`run_many`), `chain` is INOUT ownership transfer (`run1_inout`),
//! with a reader in front of every 8th link so that link must clone
//! instead of steal.

use crate::gen;
use crate::harness::{Pass, Samples, SpanTable, Workload};
use crate::host;
use crate::span::Tracer;
use std::time::Instant;
use taskrt::{ExecMode, Handle, Runtime, RuntimeConfig};

const DAG_TASKS: usize = 100_000;
const DAG_WINDOW: usize = 64;
const DAG_MAX_DEPS: usize = 8;
const CHAINS: usize = 64;
const LINKS: usize = 1000;
/// 4 KiB blocks: big enough that clone-vs-steal is visible.
const BLOCK_F64: usize = 512;
const READ_EVERY: usize = 8;
const CHAIN_TASKS: usize = CHAINS * LINKS + CHAINS * (LINKS / READ_EVERY);

pub struct Sched {
    dag: Vec<Vec<u32>>,
    sink_depth: u64,
}

struct PhaseTimes {
    dag_s: f64,
    chain_s: f64,
    ok: bool,
}

impl Sched {
    pub fn setup(seed: u64) -> Self {
        let dag = gen::fine_dag(seed, DAG_TASKS, DAG_WINDOW, DAG_MAX_DEPS);
        let sink_depth = *gen::fine_dag_depths(&dag).last().expect("non-empty DAG");
        Sched { dag, sink_depth }
    }

    /// Phase `dag`: every body returns `max(inputs) + 1`, so the value
    /// of the last task is its depth. Returns that value.
    fn run_dag(&self, rt: &Runtime, tr: &Tracer) -> u64 {
        let sink = tr.span("runtime.dag.submit", || {
            let root = rt.put(0u64);
            let mut handles: Vec<Handle<u64>> = Vec::with_capacity(self.dag.len());
            let mut ins = [root; DAG_MAX_DEPS];
            for deps in &self.dag {
                // Task 0 alone has no predecessor and reads the root.
                let n = deps.len().max(1);
                ins[0] = root;
                for (slot, &d) in ins.iter_mut().zip(deps) {
                    *slot = handles[d as usize];
                }
                handles.push(rt.task("dag").run_many(&ins[..n], |xs: &[&u64]| {
                    xs.iter().map(|x| **x).max().expect("at least one input") + 1
                }));
            }
            *handles.last().expect("non-empty DAG")
        });
        tr.span("runtime.dag.wait", || {
            let v = *rt.wait(sink);
            rt.barrier();
            v
        })
    }

    /// Phase `chain`: returns whether every chain head counted all of
    /// its links.
    fn run_chain(rt: &Runtime, tr: &Tracer) -> bool {
        let heads = tr.span("runtime.chain.submit", || {
            let mut heads: Vec<Handle<Vec<f64>>> = (0..CHAINS)
                .map(|_| rt.put(vec![0.0f64; BLOCK_F64]))
                .collect();
            for link in 0..LINKS {
                for h in &mut heads {
                    if link % READ_EVERY == READ_EVERY - 1 {
                        rt.task("read").run1(*h, |v: &Vec<f64>| v[0]);
                    }
                    *h = rt
                        .task("link")
                        .run1_inout(*h, |v: &mut Vec<f64>| v[0] += 1.0);
                }
            }
            heads
        });
        tr.span("runtime.chain.wait", || {
            let ok = heads.iter().all(|&h| rt.wait(h)[0] == LINKS as f64);
            rt.barrier();
            ok
        })
    }

    fn run_phases(&self, rt: &Runtime, tr: &Tracer) -> PhaseTimes {
        let t0 = Instant::now();
        let sink = self.run_dag(rt, tr);
        let dag_s = t0.elapsed().as_secs_f64();
        let chain_ok = Self::run_chain(rt, tr);
        PhaseTimes {
            dag_s,
            chain_s: t0.elapsed().as_secs_f64() - dag_s,
            ok: sink == self.sink_depth && chain_ok,
        }
    }
}

impl Workload for Sched {
    fn corrupt_oracle(&mut self) {
        self.sink_depth += 1;
    }

    fn pass(&mut self, tr: &Tracer, samples: &mut Samples) -> Pass {
        let rt = Runtime::threaded(host::workers());
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let times = tr.span("bench.pass", || self.run_phases(&rt, tr));
        let makespan_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::cpu_seconds() - cpu0;

        let stats = rt.stats();
        let tasks = stats.total_tasks();
        let ok = times.ok && tasks == (DAG_TASKS + CHAIN_TASKS) as u64;
        samples.push(
            "runtime.dag_us_per_task",
            times.dag_s / DAG_TASKS as f64 * 1e6,
        );
        samples.push(
            "runtime.chain_us_per_task",
            times.chain_s / CHAIN_TASKS as f64 * 1e6,
        );
        samples.push("runtime.overhead_us_per_task", cpu_s / tasks as f64 * 1e6);
        samples.push_runtime_stats(&stats);
        Pass {
            makespan_s,
            tasks,
            failed: u64::from(!ok) * tasks + stats.giveups + stats.poisoned + stats.cancelled,
        }
    }

    fn layer_metrics(&self, spans: &SpanTable, samples: &mut Samples) {
        samples.extend(
            "runtime.driver_submit_s",
            spans.durations(&["runtime.dag.submit", "runtime.chain.submit"]),
        );
        samples.extend(
            "runtime.driver_wait_s",
            spans.durations(&["runtime.dag.wait", "runtime.chain.wait"]),
        );
    }

    fn probes(&mut self, samples: &mut Samples) {
        let off = Tracer::new();
        // The same graph with no scheduler in the way: the floor.
        for _ in 0..3 {
            let rt = Runtime::new();
            let t0 = Instant::now();
            let times = self.run_phases(&rt, &off);
            assert!(times.ok, "inline run of the sched_fine graph is wrong");
            samples.push(
                "runtime.inline_us_per_task",
                t0.elapsed().as_secs_f64() / (DAG_TASKS + CHAIN_TASKS) as f64 * 1e6,
            );
        }
        // What the default recording (counters + journal + histograms)
        // costs on the DAG phase: paired, interleaved, median ratio.
        let timed_dag = |recording: bool| {
            let rt = Runtime::with_config(RuntimeConfig {
                mode: ExecMode::Threads(host::workers()),
                metrics: recording,
                telemetry: recording,
                ..RuntimeConfig::default()
            });
            let t0 = Instant::now();
            assert_eq!(self.run_dag(&rt, &off), self.sink_depth);
            t0.elapsed().as_secs_f64()
        };
        for _ in 0..7 {
            samples.push(
                "obs.recording_overhead_frac",
                timed_dag(true) / timed_dag(false) - 1.0,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_count_matches_the_documented_size() {
        assert_eq!(DAG_TASKS + CHAIN_TASKS, 172_000);
    }

    #[test]
    fn inline_phases_meet_their_own_oracle() {
        // A small graph through the same code paths.
        let dag = gen::fine_dag(7, 500, DAG_WINDOW, DAG_MAX_DEPS);
        let sink_depth = *gen::fine_dag_depths(&dag).last().unwrap();
        let s = Sched { dag, sink_depth };
        let rt = Runtime::new();
        assert_eq!(s.run_dag(&rt, &Tracer::new()), sink_depth);
    }
}
