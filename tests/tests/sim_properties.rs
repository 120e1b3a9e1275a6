//! Property-based tests of the discrete-event simulator: classical
//! list-scheduling bounds must hold for every random DAG and cluster.

use proptest::prelude::*;
use taskrt::sim::{simulate, ClusterSpec, Policy, SimOptions};
use taskrt::trace::SYNC_TASK;
use taskrt::{DataId, Profile, TaskId, TaskRecord, Trace, Utilization};

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
            ready_s: 0.0,
            start_s: 0.0,
            fetch_s: 0.0,
            fetch_bytes: 0,
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
        };
        for policy in [Policy::LocalityAware, Policy::OwnerComputes] {
            let rep = simulate(&trace, &cluster, &SimOptions { policy, ..SimOptions::default() });
            // Lower bounds: critical path; total work / total cores.
            prop_assert!(rep.makespan_s + 1e-9 >= trace.critical_path_s());
            let work_bound = trace.total_work_s() / f64::from(cluster.total_cores());
            prop_assert!(rep.makespan_s + 1e-9 >= work_bound);
            // Upper bound: the serial schedule (plus whatever transfer
            // time the placement incurred).
            let fetch_s: f64 = rep.trace.records.iter().map(|r| r.fetch_s).sum();
            prop_assert!(rep.makespan_s <= trace.total_work_s() + fetch_s + 1e-9);
            // The core-weighted utilization is a fraction.
            let core_s: f64 = rep
                .trace
                .records
                .iter()
                .map(|r| r.duration_s * f64::from(r.cores))
                .sum();
            let utilization = core_s / (rep.makespan_s * f64::from(cluster.total_cores()));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&utilization), "{utilization}");
        }
    }

    #[test]
    fn replaying_the_schedule_gives_it_back(
        n in 2usize..40,
        seed in 0u64..1000,
        nodes in 1usize..5,
        cores_per_node in 1u32..8,
    ) {
        // Every seventh record is a sync marker, so markers ride along.
        let mut trace = random_trace(n, seed, &[0.5, 1.0, 2.0, 0.25], &[1, 2]);
        for r in trace.records.iter_mut().skip(6).step_by(7) {
            r.name = SYNC_TASK.to_string();
        }
        // A slow link, so fetches are part of what must come back.
        let cluster = ClusterSpec {
            nodes,
            cores_per_node,
            gpus_per_node: 0,
            bandwidth_bps: 1e6,
            latency_s: 1e-4,
        };
        let owner = SimOptions { policy: Policy::OwnerComputes, ..SimOptions::default() };
        let with_dispatch = SimOptions { dispatch_overhead_s: 1e-3, ..SimOptions::default() };
        let owner_with_dispatch = SimOptions { dispatch_overhead_s: 1e-3, ..owner.clone() };
        for opts in [SimOptions::default(), owner, with_dispatch, owner_with_dispatch] {
            let first = simulate(&trace, &cluster, &opts);
            let again = simulate(&first.trace, &cluster, &opts);
            prop_assert_eq!(first.trace.len(), trace.len());
            prop_assert_eq!(again.makespan_s, first.makespan_s);
            for (a, b) in first.trace.records.iter().zip(&again.trace.records) {
                prop_assert_eq!(
                    (a.id, a.worker, a.start_s, a.fetch_s, a.duration_s),
                    (b.id, b.worker, b.start_s, b.fetch_s, b.duration_s)
                );
            }
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
        };
        let slow = ClusterSpec { bandwidth_bps: 1e5, latency_s: 0.01, ..fast.clone() };
        // Same deterministic policy on both.
        let opts = SimOptions::default();
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
                ready_s: 0.0,
                start_s: 0.0,
                fetch_s: 0.0,
                fetch_bytes: 0,
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
        };
        // Round-robin puts each stage on the next node, so every link
        // crosses nodes and moves its 1 MiB block.
        let round_robin_bytes = ((len - 1) << 20) as f64;
        let loc = simulate(&trace, &cluster, &SimOptions::default());
        let moved = Utilization::from_trace(&loc.trace, cluster.nodes).fetch_bytes as f64;
        prop_assert!(moved <= round_robin_bytes);
        prop_assert_eq!(moved, 0.0);
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
    };
    let rep = simulate(&trace, &cluster, &SimOptions::default());
    let by_kind: f64 = Profile::from_trace(&rep.trace)
        .kinds
        .iter()
        .map(|k| k.total_s)
        .sum();
    let expected: f64 = trace.records.iter().map(|r| r.duration_s).sum();
    assert!((by_kind - expected).abs() < 1e-9);
}

/// One replay's fingerprint: the bits of the makespan, then every
/// record's `(worker, start_s bits, fetch_bytes)`.
type Fingerprint = (u64, Vec<(i64, u64, u64)>);

fn fingerprint(trace: &Trace, policy: Policy) -> Fingerprint {
    // Three two-core nodes behind a slow link, so placement decides
    // which inputs move and every fetch shows in the start times.
    let mut cluster = ClusterSpec::marenostrum4(3);
    cluster.cores_per_node = 2;
    cluster.bandwidth_bps = 1e6;
    cluster.latency_s = 1e-4;
    let opts = SimOptions {
        policy,
        ..SimOptions::default()
    };
    let rep = simulate(trace, &cluster, &opts);
    let records = rep
        .trace
        .records
        .iter()
        .map(|r| (r.worker, r.start_s.to_bits(), r.fetch_bytes))
        .collect();
    (rep.makespan_s.to_bits(), records)
}

/// The replay of one fixed random trace, bit for bit, under each
/// placement rule: a change to the DES that moves any start time, node
/// or fetch shows here, not only in `fig11 --check` / `fig12 --check`.
#[test]
fn replay_of_a_fixed_trace_is_bit_stable_under_both_policies() {
    let trace = random_trace(16, 11, &[0.5, 1.0, 2.0, 0.25], &[1, 2]);
    let locality: Fingerprint = (
        0x4021_80f0_a5ef_e932,
        vec![
            (0, 0, 0),
            (1, 0, 0),
            (0, 0, 0),
            (2, 0, 0),
            (0, 0x3ff0_0281_ba7f_c32f, 512),
            (1, 0x4000_0281_ba7f_c32f, 1024),
            (0, 0x3ff8_0503_74ff_865e, 512),
            (0, 0x400c_0281_ba7f_c32f, 0),
            (0, 0x400e_0281_ba7f_c32f, 0),
            (1, 0x400e_0503_74ff_865e, 1024),
            (0, 0x400e_0281_ba7f_c32f, 0),
            (2, 0x400e_0503_74ff_865e, 1024),
            (1, 0x3ff0_0281_ba7f_c32f, 512),
            (0, 0x4017_0140_dd3f_e198, 0),
            (0, 0x401b_01e1_4bdf_d264, 512),
            (2, 0x4011_0281_ba7f_c32f, 1024),
        ],
    );
    let owner: Fingerprint = (
        0x4021_81e1_4bdf_d263,
        vec![
            (0, 0, 0),
            (1, 0, 0),
            (2, 0, 0),
            (0, 0x3fe0_0000_0000_0000, 0),
            (0, 0x3ff0_0281_ba7f_c32f, 512),
            (1, 0x4000_0281_ba7f_c32f, 1024),
            (0, 0x3ff8_0281_ba7f_c32f, 0),
            (0, 0x400c_0281_ba7f_c32f, 512),
            (0, 0x400e_0281_ba7f_c32f, 0),
            (1, 0x4010_0281_ba7f_c32f, 512),
            (2, 0x400e_0644_523f_67f5, 1536),
            (1, 0x400e_03c2_97bf_a4c6, 512),
            (1, 0x3ff0_0281_ba7f_c32f, 512),
            (0, 0x4017_03c2_97bf_a4c6, 512),
            (0, 0x401b_03c2_97bf_a4c6, 0),
            (0, 0x4011_01e1_4bdf_d264, 512),
        ],
    );
    assert_eq!(fingerprint(&trace, Policy::LocalityAware), locality);
    assert_eq!(fingerprint(&trace, Policy::OwnerComputes), owner);
}
