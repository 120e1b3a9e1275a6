//! Property-based tests of the discrete-event simulator: classical
//! list-scheduling bounds must hold for every random DAG and cluster.

use proptest::prelude::*;
use taskrt::sim::{simulate, ClusterSpec, Policy, SimOptions};
use taskrt::{DataId, TaskId, TaskRecord, Trace};

/// Builds a random-but-valid trace: each task depends on a subset of
/// earlier tasks (submission order is topological by construction).
fn random_trace(n: usize, edges_seed: u64, durations: &[f64], cores: &[u32]) -> Trace {
    let mut records = Vec::with_capacity(n);
    let mut state = edges_seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..n {
        let mut deps = Vec::new();
        let mut inputs = Vec::new();
        if i > 0 {
            for j in 0..i {
                if next() % 4 == 0 {
                    deps.push(TaskId(j as u64));
                    inputs.push((DataId(j as u64), 512));
                }
            }
        }
        records.push(TaskRecord {
            id: TaskId(i as u64),
            name: format!("k{}", i % 3),
            deps,
            duration_s: durations[i % durations.len()],
            inputs,
            outputs: vec![(DataId(i as u64), 512)],
            cores: cores[i % cores.len()],
            gpus: 0,
            seq: i as u64,
            ready_s: 0.0,
            start_s: 0.0,
            worker: -1,
            child: None,
            attempts: vec![],
        });
    }
    Trace { records }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn makespan_respects_lower_bounds(
        n in 2usize..40,
        seed in 0u64..1000,
        nodes in 1usize..5,
        cores_per_node in 1u32..8,
    ) {
        let durations = [0.5, 1.0, 2.0, 0.25];
        let cores = [1u32, 2];
        let trace = random_trace(n, seed, &durations, &cores);
        let cluster = ClusterSpec {
            nodes,
            cores_per_node,
            gpus_per_node: 0,
            bandwidth_bps: 1e12, // negligible transfers for the bound check
            latency_s: 0.0,
            failures: vec![],
        };
        for policy in [Policy::Fifo, Policy::RoundRobin, Policy::LocalityAware] {
            let rep = simulate(&trace, &cluster, &SimOptions {
                policy,
                model_transfers: true,
                duration_of: None,
                ..SimOptions::default()
            });
            // Lower bounds: critical path; total work / total cores.
            prop_assert!(rep.makespan_s + 1e-9 >= trace.critical_path_s());
            let work_bound = trace.total_work_s() / f64::from(cluster.total_cores());
            prop_assert!(rep.makespan_s + 1e-9 >= work_bound);
            // Upper bound: the serial schedule (plus whatever transfer
            // time the placement incurred).
            prop_assert!(rep.makespan_s <= trace.total_work_s() + rep.transfer_time_s + 1e-9);
            // Utilization is a fraction.
            prop_assert!(rep.utilization >= 0.0 && rep.utilization <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn single_core_is_serial(
        n in 2usize..25,
        seed in 0u64..500,
    ) {
        let trace = random_trace(n, seed, &[1.0, 0.5], &[1]);
        let cluster = ClusterSpec {
            nodes: 1,
            cores_per_node: 1,
            gpus_per_node: 0,
            bandwidth_bps: 1e12,
            latency_s: 0.0,
            failures: vec![],
        };
        let rep = simulate(&trace, &cluster, &SimOptions::default());
        prop_assert!((rep.makespan_s - trace.total_work_s()).abs() < 1e-9);
    }

    #[test]
    fn more_transfers_never_shrink_makespan(
        n in 2usize..25,
        seed in 0u64..500,
    ) {
        let trace = random_trace(n, seed, &[1.0], &[1]);
        let fast = ClusterSpec {
            nodes: 3,
            cores_per_node: 2,
            gpus_per_node: 0,
            bandwidth_bps: 1e12,
            latency_s: 0.0,
            failures: vec![],
        };
        let slow = ClusterSpec { bandwidth_bps: 1e5, latency_s: 0.01, ..fast.clone() };
        // Same deterministic policy on both.
        let opts = SimOptions::with_policy(Policy::RoundRobin);
        let rep_fast = simulate(&trace, &fast, &opts);
        let rep_slow = simulate(&trace, &slow, &opts);
        prop_assert!(rep_slow.makespan_s + 1e-9 >= rep_fast.makespan_s);
    }

    #[test]
    fn locality_never_moves_more_than_round_robin_on_chains(
        len in 2usize..30,
    ) {
        // A pure pipeline: locality-aware keeps everything on one node.
        let mut records = Vec::new();
        for i in 0..len {
            records.push(TaskRecord {
                id: TaskId(i as u64),
                name: "stage".into(),
                deps: if i == 0 { vec![] } else { vec![TaskId(i as u64 - 1)] },
                duration_s: 1.0,
                inputs: if i == 0 { vec![] } else { vec![(DataId(i as u64 - 1), 1 << 20)] },
                outputs: vec![(DataId(i as u64), 1 << 20)],
                cores: 1,
                gpus: 0,
                seq: i as u64,
                ready_s: 0.0,
                start_s: 0.0,
                worker: -1,
                child: None,
                attempts: vec![],
            });
        }
        let trace = Trace { records };
        let cluster = ClusterSpec {
            nodes: 4,
            cores_per_node: 2,
            gpus_per_node: 0,
            bandwidth_bps: 1e8,
            latency_s: 1e-4,
            failures: vec![],
        };
        let rr = simulate(&trace, &cluster, &SimOptions::with_policy(Policy::RoundRobin));
        let loc = simulate(&trace, &cluster, &SimOptions::with_policy(Policy::LocalityAware));
        prop_assert!(loc.transferred_bytes <= rr.transferred_bytes);
        prop_assert_eq!(loc.transferred_bytes, 0.0);
    }
}

#[test]
fn report_busy_accounting_consistent() {
    let trace = random_trace(20, 7, &[1.0, 2.0], &[1, 2]);
    let cluster = ClusterSpec {
        nodes: 2,
        cores_per_node: 4,
        gpus_per_node: 0,
        bandwidth_bps: 1e12,
        latency_s: 0.0,
        failures: vec![],
    };
    let rep = simulate(&trace, &cluster, &SimOptions::default());
    let by_kind: f64 = rep.busy_by_kind.values().sum();
    let expected: f64 = trace.records.iter().map(|r| r.duration_s).sum();
    assert!((by_kind - expected).abs() < 1e-9);
}
