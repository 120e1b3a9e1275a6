//! The metric catalog: every name the benchmark may print, with its
//! unit, its direction, and — decided before measuring — which
//! end-to-end metric it should move, on which workload. `BENCHMARK.json`
//! lists the same names; a test keeps the two in step.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end: the definition. Per-layer: what it should move, where.
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        note,
    }
}

pub const WORKLOADS: [&str; 4] = ["af_inline", "af_threads", "sched_fine", "pca_dist"];

pub const END_TO_END: [Metric; 4] = [
    m(
        "setup_s",
        "s",
        "lower",
        "build the workload's inputs and its oracle; median of the rebuilds",
    ),
    m(
        "makespan_s",
        "s",
        "lower",
        "wall-clock of one pass, first submit to last result checked; median over passes",
    ),
    m(
        "cpu_s_per_pass",
        "s",
        "lower",
        "user+sys of the process and its reaped children over the timed loop / passes",
    ),
    m(
        "peak_rss_mb",
        "MiB",
        "lower",
        "VmHWM of the workload's process at exit",
    ),
];

pub const PER_LAYER: [Metric; 58] = [
    m("ecg.recordings_s", "s", "lower", "setup_s on af_*"),
    m(
        "ecg.samples",
        "count",
        "higher",
        "setup_s on af_* (input size, exact-repeat)",
    ),
    m(
        "ecg.design_matrix_s",
        "s",
        "lower",
        "makespan_s on af_* (about 2 %: invisible end to end)",
    ),
    m(
        "ecg.features",
        "count",
        "higher",
        "makespan_s on af_* (input size, exact-repeat)",
    ),
    m(
        "linalg.stft_signals_per_s",
        "1/s",
        "higher",
        "makespan_s on af_* via ecg.design_matrix_s",
    ),
    m(
        "linalg.eigh_s",
        "s",
        "lower",
        "makespan_s 1:1 on af_* (serial task on the critical path); <3 % on pca_dist",
    ),
    m(
        "linalg.t_matmul_f64_gflops",
        "GFLOP/s",
        "higher",
        "makespan_s, cpu_s_per_pass on pca_dist",
    ),
    m(
        "linalg.matmul_f64_gflops",
        "GFLOP/s",
        "higher",
        "makespan_s, cpu_s_per_pass on pca_dist",
    ),
    m(
        "linalg.sgemm_f32_gflops",
        "GFLOP/s",
        "higher",
        "makespan_s on af_* via nnet.cnn_s",
    ),
    m(
        "nnet.conv_fwd_samples_per_s",
        "1/s",
        "higher",
        "makespan_s on af_* via nnet.cnn_s",
    ),
    m(
        "nnet.conv_bwd_samples_per_s",
        "1/s",
        "higher",
        "makespan_s on af_* via nnet.cnn_s",
    ),
    m(
        "nnet.cnn_s",
        "s",
        "lower",
        "makespan_s on af_* (largest stage)",
    ),
    m(
        "dislib.pca_s",
        "s",
        "lower",
        "makespan_s, cpu_s_per_pass on af_*",
    ),
    m(
        "dislib.pca_fit_s",
        "s",
        "lower",
        "makespan_s on af_inline (driver-side time only on af_threads)",
    ),
    m(
        "dislib.pca_transform_s",
        "s",
        "lower",
        "makespan_s on af_inline (driver-side time only on af_threads)",
    ),
    m(
        "dislib.csvm_s",
        "s",
        "lower",
        "makespan_s, cpu_s_per_pass on af_*",
    ),
    m(
        "dislib.knn_s",
        "s",
        "lower",
        "makespan_s, cpu_s_per_pass on af_*",
    ),
    m(
        "dislib.rf_s",
        "s",
        "lower",
        "makespan_s, cpu_s_per_pass on af_*",
    ),
    m(
        "dislib.csvm_accuracy",
        "ratio",
        "higher",
        "none: exact-repeat quality guard on af_*",
    ),
    m(
        "dislib.knn_accuracy",
        "ratio",
        "higher",
        "none: exact-repeat quality guard on af_*",
    ),
    m(
        "dislib.rf_accuracy",
        "ratio",
        "higher",
        "none: exact-repeat quality guard on af_*",
    ),
    m(
        "nnet.cnn_accuracy",
        "ratio",
        "higher",
        "none: exact-repeat quality guard on af_*",
    ),
    m(
        "dsarray.partition_s",
        "s",
        "lower",
        "peak_rss_mb, makespan_s on af_*",
    ),
    m(
        "dsarray.collect_s",
        "s",
        "lower",
        "makespan_s on af_* (on af_threads it is where the driver waits for PCA)",
    ),
    m(
        "dsarray.blocks",
        "count",
        "lower",
        "peak_rss_mb on af_* (exact-repeat)",
    ),
    m(
        "linalg.pool_hit_rate",
        "ratio",
        "higher",
        "peak_rss_mb, makespan_s on af_*",
    ),
    m(
        "runtime.tasks",
        "count",
        "lower",
        "bookkeeping on the in-process workloads (exact-repeat)",
    ),
    m(
        "runtime.body_s",
        "s",
        "lower",
        "bookkeeping: body share of makespan_s = kernel share",
    ),
    m(
        "runtime.driver_submit_s",
        "s",
        "lower",
        "bookkeeping: makespan_s = submit + wait",
    ),
    m(
        "runtime.driver_wait_s",
        "s",
        "lower",
        "bookkeeping: makespan_s = submit + wait",
    ),
    m(
        "runtime.driver_stall_s",
        "s",
        "lower",
        "makespan_s on af_threads; must stay put on af_inline",
    ),
    m(
        "runtime.worker_idle_s",
        "s",
        "lower",
        "makespan_s on af_threads, sched_fine",
    ),
    m(
        "runtime.queue_wait_us_mean",
        "us",
        "lower",
        "makespan_s on af_threads, sched_fine",
    ),
    m(
        "runtime.speedup_vs_inline",
        "ratio",
        "higher",
        "makespan_s on af_threads; stays at 1 on af_inline",
    ),
    m(
        "runtime.dag_us_per_task",
        "us",
        "lower",
        "makespan_s, cpu_s_per_pass on sched_fine (shared reads, fan-in)",
    ),
    m(
        "runtime.chain_us_per_task",
        "us",
        "lower",
        "makespan_s, cpu_s_per_pass on sched_fine (INOUT ownership transfer)",
    ),
    m(
        "runtime.overhead_us_per_task",
        "us",
        "lower",
        "cpu_s_per_pass on sched_fine (= cpu / tasks)",
    ),
    m(
        "runtime.inline_us_per_task",
        "us",
        "lower",
        "none: the same DAG on Runtime::new(), the floor for sched_fine",
    ),
    m(
        "runtime.steal_hit_rate",
        "ratio",
        "higher",
        "makespan_s on sched_fine, af_threads",
    ),
    m(
        "runtime.locality_hit_rate",
        "ratio",
        "higher",
        "makespan_s on sched_fine, af_threads",
    ),
    m(
        "runtime.inout_steal_rate",
        "ratio",
        "higher",
        "makespan_s, peak_rss_mb on sched_fine",
    ),
    m(
        "obs.recording_overhead_frac",
        "ratio",
        "lower",
        "makespan_s, cpu_s_per_pass on sched_fine",
    ),
    m("dist.launch_s", "s", "lower", "makespan_s on pca_dist"),
    m("dist.run_s", "s", "lower", "makespan_s on pca_dist"),
    m("dist.shutdown_s", "s", "lower", "makespan_s on pca_dist"),
    m(
        "dist.inline_plan_s",
        "s",
        "lower",
        "none: Plan::run_inline of the same plan, the floor for dist.run_s",
    ),
    m(
        "dist.overhead_s",
        "s",
        "lower",
        "makespan_s on pca_dist (= run - inline / workers)",
    ),
    m(
        "dist.dispatch_turnaround_us",
        "us",
        "lower",
        "makespan_s on pca_dist (224 dispatches per pass)",
    ),
    m(
        "dist.tasks_run",
        "count",
        "lower",
        "bookkeeping on pca_dist (exact-repeat)",
    ),
    m(
        "dist.relay_bytes",
        "count",
        "lower",
        "makespan_s, cpu_s_per_pass on pca_dist (exact-repeat)",
    ),
    m(
        "dist.peer_pulls",
        "count",
        "lower",
        "makespan_s on pca_dist (schedule-dependent)",
    ),
    m(
        "dist.peer_pull_bytes",
        "count",
        "lower",
        "makespan_s, cpu_s_per_pass on pca_dist (schedule-dependent)",
    ),
    m(
        "dist.wire_encode_mb_per_s",
        "MB/s",
        "higher",
        "makespan_s, cpu_s_per_pass on pca_dist",
    ),
    m(
        "dist.wire_decode_mb_per_s",
        "MB/s",
        "higher",
        "makespan_s, cpu_s_per_pass on pca_dist",
    ),
    m(
        "dist.faults",
        "count",
        "lower",
        "none: retries + re-executions + lost tasks + lost workers, expected 0",
    ),
    m(
        "sim.replay_events_per_s",
        "1/s",
        "higher",
        "none: the DES is off the pipeline path (probed on af_inline)",
    ),
    m(
        "bench.host_slowdown",
        "ratio",
        "lower",
        "none: validity of the run, not the program",
    ),
    m(
        "bench.trace_overhead_frac",
        "ratio",
        "lower",
        "none: validity of the traced run",
    ),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskrt::json::Value;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<_> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        assert!(names.windows(2).all(|w| w[0] != w[1]));
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|e| {
                    let s = |k: &str| e[k].as_str().unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let catalog = |defs: &[Metric]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), catalog(&END_TO_END));
        assert_eq!(listed("per_layer"), catalog(&PER_LAYER));
        let workloads: Vec<_> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for e in doc["end_to_end"].as_array().unwrap() {
            let bound = e["bound"].as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
