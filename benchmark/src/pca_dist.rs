//! `pca_dist`: a benchmark-owned PCA plan on worker **processes**. Wire
//! codec, frame I/O, driver dispatch turnaround and peer pulls do work
//! here that the three in-process workloads never touch, and the f64
//! gram GEMM runs at tall-block shapes where `af_*` is eigh-bound.
//!
//! The plan is built only from `taskrt::dist::{Plan, KindRegistry,
//! WireValue}` and `linalg::Matrix`: per 256-row block a column sum and
//! a `t_matmul` gram partial, fixed pairwise reductions, one `eigh`,
//! per-block projection. The reduction tree is part of the plan, so the
//! distributed run must equal `Plan::run_inline` bit for bit.

use crate::gen;
use crate::harness::{Pass, Samples, Workload};
use crate::host;
use crate::span::Tracer;
use crate::stats;
use linalg::Matrix;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use taskrt::dist::{fingerprint, DistConfig, DistRuntime, KindRegistry, Plan, WireValue};

const ROWS: usize = 8192;
const COLS: usize = 384;
const BLOCK_ROWS: usize = 256;
const K: usize = 16;
const CHAIN_LINKS: usize = 500;

/// The kinds of the PCA plan, plus `inc` for the dispatch-turnaround
/// chain. Driver and worker processes both build it in `main`.
pub fn registry() -> Arc<KindRegistry> {
    let mut reg = KindRegistry::new();
    reg.register("colsum", |ins| {
        let m = ins[0].as_matrix();
        let mut sums = vec![0.0; m.cols()];
        for r in 0..m.rows() {
            for (s, x) in sums.iter_mut().zip(m.row(r)) {
                *s += x;
            }
        }
        Ok(WireValue::VecF64(sums))
    });
    reg.register("vecadd", |ins| {
        let (a, b) = (ins[0].as_vec_f64(), ins[1].as_vec_f64());
        Ok(WireValue::VecF64(
            a.iter().zip(b).map(|(x, y)| x + y).collect(),
        ))
    });
    reg.register("mean", |ins| {
        let n = ins[1].as_u64() as f64;
        Ok(WireValue::VecF64(
            ins[0].as_vec_f64().iter().map(|s| s / n).collect(),
        ))
    });
    reg.register("center", |ins| {
        let mut out = ins[0].as_matrix().clone();
        let mean = ins[1].as_vec_f64();
        for r in 0..out.rows() {
            for (x, m) in out.row_mut(r).iter_mut().zip(mean) {
                *x -= m;
            }
        }
        Ok(WireValue::Matrix(out))
    });
    reg.register("gram", |ins| {
        let m = ins[0].as_matrix();
        Ok(WireValue::Matrix(m.t_matmul(m)))
    });
    reg.register("madd", |ins| {
        let mut out = ins[0].as_matrix().clone();
        out.add_assign(ins[1].as_matrix());
        Ok(WireValue::Matrix(out))
    });
    reg.register("scale", |ins| {
        let mut g = ins[0].as_matrix().clone();
        g.scale(1.0 / (ins[1].as_u64() as f64 - 1.0));
        Ok(WireValue::Matrix(g))
    });
    reg.register("eigh", |ins| {
        let res = linalg::eigh(ins[0].as_matrix());
        let d = res.values.len();
        let k = (ins[1].as_u64() as usize).clamp(1, d);
        // Descending eigenvalue order: the leading k columns.
        let vectors = Matrix::from_fn(d, k, |r, c| res.vectors.get(r, d - 1 - c));
        let values: Vec<f64> = res.values.iter().rev().take(k).copied().collect();
        Ok(WireValue::List(vec![
            WireValue::Matrix(vectors),
            WireValue::VecF64(values),
        ]))
    });
    reg.register("project", |ins| {
        let components = ins[1].as_list()[0].as_matrix();
        Ok(WireValue::Matrix(ins[0].as_matrix().matmul(components)))
    });
    reg.register("vstack", |ins| {
        Ok(WireValue::Matrix(
            ins[0].as_matrix().vstack(ins[1].as_matrix()),
        ))
    });
    reg.register("inc", |ins| Ok(WireValue::F64(ins[0].as_f64() + 1.0)));
    Arc::new(reg)
}

/// The cluster every pass launches: the defaults, except for the failure
/// detector. Its default grace (10 beats x 20 ms) reads one 0.2 s stall of
/// a shared host as a dead worker and re-executes its tasks, which fails
/// the pass; no worker dies in this workload, so the detector gets 10 s.
/// The heartbeat period, and with it the driver's polling, stays default.
fn cluster(workers: usize) -> DistConfig {
    DistConfig {
        grace_beats: 500,
        join_timeout_s: 60.0,
        ..DistConfig::with_workers(workers)
    }
}

/// Pairwise reduction of fixed shape: the combine order, and so every
/// floating-point bit, belongs to the plan and not to worker timing.
fn tree_reduce(plan: &mut Plan, kind: &str, mut level: Vec<u64>) -> u64 {
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| match pair {
                [a, b] => plan.task(kind, &[*a, *b]),
                _ => pair[0],
            })
            .collect();
    }
    level[0]
}

fn pca_plan(x: &Matrix) -> Plan {
    let mut plan = Plan::new();
    let n = plan.put(WireValue::U64(x.rows() as u64));
    let k = plan.put(WireValue::U64(K as u64));
    let blocks: Vec<u64> = (0..x.rows())
        .step_by(BLOCK_ROWS)
        .map(|r0| {
            let r1 = (r0 + BLOCK_ROWS).min(x.rows());
            plan.put(WireValue::Matrix(x.slice_rows(r0, r1)))
        })
        .collect();
    let each = |plan: &mut Plan, kind: &str, ids: &[u64], extra: &[u64]| -> Vec<u64> {
        ids.iter()
            .map(|&b| plan.task(kind, &[&[b], extra].concat()))
            .collect()
    };
    let sums = each(&mut plan, "colsum", &blocks, &[]);
    let total = tree_reduce(&mut plan, "vecadd", sums);
    let mean = plan.task("mean", &[total, n]);
    let centered = each(&mut plan, "center", &blocks, &[mean]);
    let grams = each(&mut plan, "gram", &centered, &[]);
    let gram = tree_reduce(&mut plan, "madd", grams);
    let cov = plan.task("scale", &[gram, n]);
    let eig = plan.task("eigh", &[cov, k]);
    let projected = each(&mut plan, "project", &centered, &[eig]);
    let projection = tree_reduce(&mut plan, "vstack", projected);
    plan.mark_output(eig);
    plan.mark_output(projection);
    plan
}

pub struct PcaDist {
    seed: u64,
    reg: Arc<KindRegistry>,
    plan: Plan,
    /// `fingerprint` of the inline run's outputs.
    oracle: Vec<u8>,
}

impl PcaDist {
    pub fn setup(seed: u64) -> Self {
        let reg = registry();
        let plan = pca_plan(&gen::dist_matrix(seed, ROWS, COLS));
        let inline = plan.run_inline(&reg).expect("inline oracle run");
        PcaDist {
            seed,
            reg,
            plan,
            oracle: fingerprint(&inline),
        }
    }
}

impl Workload for PcaDist {
    fn corrupt_oracle(&mut self) {
        self.oracle[0] ^= 1;
    }

    /// One pass = launch + run + shutdown: the API allows one plan per
    /// cluster, so users pay all three. `DistRuntime`'s own `Drop` reaps
    /// the workers if anything in between panics.
    fn pass(&mut self, tr: &Tracer, samples: &mut Samples) -> Pass {
        let workers = host::workers();
        let t0 = Instant::now();
        let (report, shutdown, launch_s, run_s) = tr.span("bench.pass", || {
            let mut rt = tr
                .span("dist.DistRuntime::launch", || {
                    DistRuntime::launch(cluster(workers), &self.reg)
                })
                .expect("launch worker processes");
            let launch_s = t0.elapsed().as_secs_f64();
            let report = tr
                .span("dist.DistRuntime::run", || rt.run(&self.plan, &self.reg))
                .expect("distributed run");
            let run_s = t0.elapsed().as_secs_f64() - launch_s;
            let shutdown = tr.span("dist.DistRuntime::shutdown", || rt.shutdown());
            (report, shutdown, launch_s, run_s)
        });
        let s = &report.stats;
        let ok = fingerprint(&report.outputs) == self.oracle
            && shutdown.workers_reaped == workers
            && shutdown.workers_force_killed == 0
            && shutdown.sock_dir_removed
            && s.workers_lost == 0;
        let makespan_s = t0.elapsed().as_secs_f64();
        if !ok || s.retries + s.reexecutions + s.lost_tasks > 0 {
            // Never silent: say which part of the oracle a pass failed.
            eprintln!(
                "pca_dist: pass failed: fingerprint_equal {} {shutdown:?} {s:?}",
                fingerprint(&report.outputs) == self.oracle
            );
        }

        samples.push("dist.launch_s", launch_s);
        samples.push("dist.run_s", run_s);
        samples.push("dist.shutdown_s", makespan_s - launch_s - run_s);
        samples.push("dist.tasks_run", s.tasks_run as f64);
        samples.push("dist.relay_bytes", s.relay_bytes as f64);
        samples.push("dist.peer_pulls", s.peer_pulls as f64);
        samples.push("dist.peer_pull_bytes", s.peer_pull_bytes as f64);
        let faults = s.retries + s.reexecutions + s.lost_tasks + s.workers_lost + s.fetch_failures;
        samples.push("dist.faults", faults as f64);
        let tasks = self.plan.len() as u64;
        Pass {
            makespan_s,
            tasks,
            failed: u64::from(!ok) * tasks + s.retries + s.reexecutions + s.lost_tasks,
        }
    }

    fn probes(&mut self, samples: &mut Samples) {
        let workers = host::workers();
        // The same plan with no cluster in the way: the floor for run_s.
        let mut inline_s = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            black_box(self.plan.run_inline(&self.reg).expect("inline plan"));
            inline_s.push(t0.elapsed().as_secs_f64());
        }
        samples.push(
            "dist.overhead_s",
            samples.median("dist.run_s").expect("passes ran")
                - stats::median(&inline_s) / workers as f64,
        );
        samples.extend("dist.inline_plan_s", inline_s);

        // Dispatch turnaround: a chain of scalar tasks has no payload
        // and no parallelism, so run time / links is the Done -> Run
        // round trip through the driver.
        let mut chain = Plan::new();
        let mut last = chain.put(WireValue::F64(0.0));
        for _ in 0..CHAIN_LINKS {
            last = chain.task("inc", &[last]);
        }
        chain.mark_output(last);
        let mut rt =
            DistRuntime::launch(cluster(workers), &self.reg).expect("launch worker processes");
        let t0 = Instant::now();
        let report = rt.run(&chain, &self.reg).expect("chain run");
        let chain_s = t0.elapsed().as_secs_f64();
        rt.shutdown();
        assert_eq!(report.outputs[&last].as_f64(), CHAIN_LINKS as f64);
        samples.push(
            "dist.dispatch_turnaround_us",
            chain_s / CHAIN_LINKS as f64 * 1e6,
        );

        // Kernels and codec at this workload's block shapes.
        let x = gen::dist_matrix(self.seed, ROWS, COLS);
        let block = x.slice_rows(0, BLOCK_ROWS);
        let means = x.col_means();
        let mut centered = x;
        for r in 0..centered.rows() {
            for (v, m) in centered.row_mut(r).iter_mut().zip(&means) {
                *v -= m;
            }
        }
        let mut cov = centered.t_matmul(&centered);
        cov.scale(1.0 / (ROWS as f64 - 1.0));
        for _ in 0..3 {
            let t0 = Instant::now();
            black_box(linalg::eigh(black_box(&cov)));
            samples.push("linalg.eigh_s", t0.elapsed().as_secs_f64());
        }

        let gflop = (2 * BLOCK_ROWS * COLS * COLS) as f64 / 1e9;
        samples.probe_rate("linalg.t_matmul_f64_gflops", gflop, 4, || {
            black_box(black_box(&block).t_matmul(&block)).into_pool();
        });
        let components = Matrix::from_fn(COLS, K, |r, c| ((r * K + c) % 97) as f64 / 97.0);
        let gflop = (2 * BLOCK_ROWS * COLS * K) as f64 / 1e9;
        samples.probe_rate("linalg.matmul_f64_gflops", gflop, 40, || {
            black_box(black_box(&block).matmul(&components)).into_pool();
        });

        let value = WireValue::Matrix(block);
        let bytes = value.encode();
        let mb = bytes.len() as f64 / 1e6;
        samples.probe_rate("dist.wire_encode_mb_per_s", mb, 40, || {
            black_box(black_box(&value).encode());
        });
        samples.probe_rate("dist.wire_decode_mb_per_s", mb, 40, || {
            black_box(WireValue::decode(black_box(&bytes)).expect("decode own encoding"));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_has_the_documented_shape_and_meets_its_oracle_on_threads() {
        let x = gen::dist_matrix(3, 4 * BLOCK_ROWS, 24);
        let plan = pca_plan(&x);
        // 4 blocks: 4 colsum + 3 vecadd + mean + 4 center + 4 gram
        // + 3 madd + scale + eigh + 4 project + 3 vstack.
        assert_eq!(plan.len(), 28);
        let reg = registry();
        let inline = plan.run_inline(&reg).unwrap();
        let mut rt = DistRuntime::launch_threads(DistConfig::with_workers(2), &reg).unwrap();
        let report = rt.run(&plan, &reg).unwrap();
        assert_eq!(fingerprint(&report.outputs), fingerprint(&inline));
        assert_eq!(rt.shutdown().workers_reaped, 2);
    }

    #[test]
    fn full_size_plan_is_224_tasks() {
        // Shape only: zeros are enough to count tasks.
        assert_eq!(pca_plan(&Matrix::zeros(ROWS, 8)).len(), 224);
    }
}
