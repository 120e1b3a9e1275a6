//! Golden-output tests for the exporters (`gantt`, `dot`) on a small
//! diamond DAG. The exact strings are part of the artifact contract:
//! downstream tooling (and the paper-figure scripts) parse them, so a
//! formatting change must show up as a reviewed diff here, not as a
//! silent drift.

use taskrt::gantt::ascii_gantt;
use taskrt::sim::{simulate, ClusterSpec, SimOptions};
use taskrt::{dot, DataId, TaskId, TaskRecord, Trace, Utilization};

/// Per-executor busy seconds: input fetch plus body, summed.
fn busy(trace: &Trace, executors: usize) -> Vec<f64> {
    Utilization::from_trace(trace, executors)
        .executors
        .iter()
        .map(|n| n.task_s + n.fetch_s)
        .collect()
}

fn rec(id: u64, deps: &[u64], dur: f64, name: &str) -> TaskRecord {
    TaskRecord {
        id: TaskId(id),
        name: name.to_string(),
        deps: deps.iter().map(|&d| TaskId(d)).collect(),
        duration_s: dur,
        inputs: deps.iter().map(|&d| (DataId(d), 100)).collect(),
        outputs: vec![(DataId(id), 100)],
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

/// src -> {left, right} -> join, with durations 1, 2, 2, 1.
fn diamond() -> Trace {
    Trace {
        records: vec![
            rec(0, &[], 1.0, "src"),
            rec(1, &[0], 2.0, "left"),
            rec(2, &[0], 2.0, "right"),
            rec(3, &[1, 2], 1.0, "join"),
        ],
    }
}

#[test]
fn ascii_gantt_diamond_golden() {
    // One 2-core node: src runs alone, left/right overlap, join runs
    // alone — makespan exactly 4 s and a fully deterministic chart.
    let cluster = ClusterSpec {
        nodes: 1,
        cores_per_node: 2,
        gpus_per_node: 0,
        bandwidth_bps: 1e9,
        latency_s: 0.0,
    };
    let rep = simulate(&diamond(), &cluster, &SimOptions::default());
    assert!((rep.makespan_s - 4.0).abs() < 1e-12);
    let got = ascii_gantt(&rep.trace, 1, 8);
    let want = "\
time 0 .. 4.000 s (8 chars)
node  0 |ss****jj|
kinds: join, left, right, src
";
    assert_eq!(got, want);
    assert!((busy(&rep.trace, 1)[0] - 6.0).abs() < 1e-12); // 1 + 2 + 2 + 1 task-seconds
}

fn one_core_node() -> ClusterSpec {
    ClusterSpec {
        nodes: 1,
        cores_per_node: 1,
        gpus_per_node: 0,
        bandwidth_bps: 1e9,
        latency_s: 0.0,
    }
}

#[test]
fn ascii_gantt_zero_duration_last_task_golden() {
    // `b` takes 0 s and starts at the makespan: it gets the last cell,
    // which `a` already fills.
    let trace = Trace {
        records: vec![rec(0, &[], 1.0, "a"), rec(1, &[0], 0.0, "b")],
    };
    let rep = simulate(&trace, &one_core_node(), &SimOptions::default());
    let want = "\
time 0 .. 1.000 s (8 chars)
node  0 |aaaaaaa*|
kinds: a, b
";
    assert_eq!(ascii_gantt(&rep.trace, 1, 8), want);
    let want = "\
time 0 .. 1.000 s (0 chars)
node  0 ||
kinds: a, b
";
    assert_eq!(ascii_gantt(&rep.trace, 1, 0), want);
}

#[test]
fn gantt_views_skip_markers_driver_and_executors_past_the_count() {
    let placed = |id: u64, worker: i64, start_s: f64, dur: f64, name: &str| TaskRecord {
        worker,
        start_s,
        ..rec(id, &[], dur, name)
    };
    let trace = Trace {
        records: vec![
            placed(0, 0, 0.0, 1.0, "src"),
            placed(1, 1, 0.0, 3.0, "wide"),
            placed(2, -1, 1.0, 0.5, "driver"),
            placed(3, 0, 1.0, 1.0, "join"),
        ],
    };
    assert_eq!(busy(&trace, 1), [2.0]);
    assert_eq!(busy(&trace, 3), [2.0, 3.0, 0.0]);
    let want = "\
time 0 .. 2.000 s (4 chars)
node  0 |ssjj|
kinds: join, src
";
    assert_eq!(ascii_gantt(&trace, 1, 4), want);
}

#[test]
fn dot_diamond_golden() {
    let got = dot::to_dot(&diamond(), "diamond", usize::MAX);
    let want = r##"digraph "diamond" {
  rankdir=TB;
  label="diamond";
  node [style=filled, fontname="Helvetica"];
  "t0" [shape=circle, label="0", fillcolor="#4e79a7", fontsize=8];
  "t1" [shape=circle, label="1", fillcolor="#f28e2b", fontsize=8];
  "t0" -> "t1";
  "t2" [shape=circle, label="2", fillcolor="#e15759", fontsize=8];
  "t0" -> "t2";
  "t3" [shape=circle, label="3", fillcolor="#76b7b2", fontsize=8];
  "t1" -> "t3";
  "t2" -> "t3";
  subgraph cluster_legend { label="task kinds"; fontsize=10;
    "legend_src" [shape=box, label="src", fillcolor="#4e79a7", fontsize=9];
    "legend_left" [shape=box, label="left", fillcolor="#f28e2b", fontsize=9];
    "legend_right" [shape=box, label="right", fillcolor="#e15759", fontsize=9];
    "legend_join" [shape=box, label="join", fillcolor="#76b7b2", fontsize=9];
  }
}
"##;
    assert_eq!(got, want);
}
