//! Golden-output tests for the exporters (`gantt`, `dot`) on a small
//! diamond DAG. The exact strings are part of the artifact contract:
//! downstream tooling (and the paper-figure scripts) parse them, so a
//! formatting change must show up as a reviewed diff here, not as a
//! silent drift.

use taskrt::gantt::{ascii_gantt, node_busy};
use taskrt::sim::{simulate, ClusterSpec, SimOptions};
use taskrt::{dot, DataId, TaskId, TaskRecord, Trace};

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
        start_s: 0.0,
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
        failures: vec![],
    };
    let rep = simulate(&diamond(), &cluster, &SimOptions::default());
    assert!((rep.makespan_s - 4.0).abs() < 1e-12);
    let got = ascii_gantt(&rep, 1, 8);
    let want = "\
time 0 .. 4.000 s (8 chars)
node  0 |ss****jj|
kinds: join, left, right, src
";
    assert_eq!(got, want);
    let busy = node_busy(&rep, 1);
    assert!((busy[0] - 6.0).abs() < 1e-12); // 1 + 2 + 2 + 1 task-seconds
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
