//! Integration tests of the trace tooling on a recorded pipeline: DOT
//! export, Gantt rendering, and re-simulation — the same schedule from
//! the same records, every time.

use dislib::pca::{Components, Pca};
use dsarray::DsArray;
use integration_tests::tiny_dataset;
use taskrt::gantt::ascii_gantt;
use taskrt::sim::{simulate, ClusterSpec, SimOptions};
use taskrt::{Runtime, Trace, Utilization};

fn recorded_pipeline() -> Trace {
    let (x, _) = tiny_dataset();
    let rt = Runtime::new();
    let ds = DsArray::from_matrix(&rt, x, 16, 120);
    let pca = Pca::fit(&rt, &ds, Components::Count(16));
    let _ = pca.transform(&rt, &ds).collect(&rt);
    rt.finish()
}

#[test]
fn archived_trace_resimulates_identically() {
    let trace = recorded_pipeline();
    let cluster = ClusterSpec::marenostrum4(3);
    let opts = SimOptions::default();
    let a = simulate(&trace, &cluster, &opts);
    let b = simulate(&trace, &cluster, &opts);
    assert_eq!(a.makespan_s, b.makespan_s);
    // The same schedule, record for record: node, times, fetches.
    assert_eq!(a.trace.len(), trace.len());
    for (x, y) in a.trace.records.iter().zip(&b.trace.records) {
        assert_eq!(x, y);
    }
}

#[test]
fn schedule_is_resource_consistent() {
    let trace = recorded_pipeline();
    let cluster = ClusterSpec {
        nodes: 2,
        cores_per_node: 4,
        gpus_per_node: 0,
        bandwidth_bps: 1e9,
        latency_s: 1e-5,
    };
    let rep = simulate(&trace, &cluster, &SimOptions::default());

    // At no instant may a node exceed its core capacity. A record holds
    // its granted cores from its input fetch to its body's end; check
    // at the midpoint of every placed task.
    let placed: Vec<_> = rep.trace.records.iter().filter(|r| r.worker >= 0).collect();
    assert_eq!(placed.len(), trace.user_task_count());
    let span = |r: &taskrt::TaskRecord| (r.start_s - r.fetch_s, r.start_s + r.duration_s);
    for probe in &placed {
        let (from, to) = span(probe);
        let t = (from + to) / 2.0;
        for node in 0..cluster.nodes {
            let used: u32 = placed
                .iter()
                .filter(|r| r.worker == node as i64 && span(r).0 <= t && t < span(r).1)
                .map(|r| r.cores)
                .sum();
            assert!(
                used <= cluster.cores_per_node,
                "node {node} oversubscribed at t={t}: {used} cores"
            );
        }
    }
}

#[test]
fn gantt_renders_real_pipeline() {
    let trace = recorded_pipeline();
    let rep = simulate(
        &trace,
        &ClusterSpec::marenostrum4(2),
        &SimOptions::default(),
    );
    let g = ascii_gantt(&rep.trace, 2, 72);
    assert!(g.contains("node  0"));
    assert!(g.contains("ds_"));
    let u = Utilization::from_trace(&rep.trace, 2);
    assert!(u.executors[0].task_s + u.executors[0].fetch_s > 0.0);
    let eigh = rep.trace.records.iter().find(|r| r.name == "pca_eigh");
    assert!(eigh.is_some_and(|r| r.worker >= 0), "{eigh:?}");
}

#[test]
fn dot_of_real_pipeline_mentions_every_kind() {
    let trace = recorded_pipeline();
    let dot = taskrt::dot::to_dot(&trace, "it", usize::MAX);
    for kind in ["ds_load", "ds_gram", "pca_eigh", "ds_matmul"] {
        assert!(dot.contains(&format!("legend_{kind}")), "missing {kind}");
    }
}

#[test]
fn trace_statistics_are_consistent() {
    let trace = recorded_pipeline();
    assert!(trace.user_task_count() > 10);
    assert!(trace.critical_path_s() <= trace.total_work_s() + 1e-12);
    assert!(trace.max_width() >= 1);
}
