//! Graphviz DOT export of recorded traces.
//!
//! Regenerates the paper's execution-graph figures (Figs. 4, 6, 8, 9,
//! 10): each task kind gets a distinct color (the paper: "each type of
//! task has a different color"), dependencies are drawn as edges, sync
//! markers render as small diamonds, and nested sub-traces render as
//! Graphviz clusters inside their parent task.

use crate::trace::{Trace, SYNC_TASK};
use std::fmt::Write as _;

/// A fixed palette cycled per task-kind, mirroring the colored circles
/// of the paper's PyCOMPSs graphs.
const PALETTE: &[&str] = &[
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1", "#ff9da7",
    "#9c755f", "#bab0ac",
];

/// Renders a trace as a Graphviz DOT digraph.
///
/// `max_nodes` truncates huge graphs (the paper likewise shows "a
/// simplified version of the graph with less tasks than the real
/// executions"); pass `usize::MAX` for the full graph.
pub fn to_dot(trace: &Trace, title: &str, max_nodes: usize) -> String {
    let mut out = String::new();
    writeln!(out, "digraph \"{title}\" {{").unwrap();
    writeln!(out, "  rankdir=TB;").unwrap();
    writeln!(out, "  label=\"{title}\";").unwrap();
    writeln!(out, "  node [style=filled, fontname=\"Helvetica\"];").unwrap();
    write_body(&mut out, trace, "", max_nodes);
    writeln!(out, "}}").unwrap();
    out
}

fn write_body(out: &mut String, trace: &Trace, prefix: &str, max_nodes: usize) {
    // Stable kind -> color mapping by first appearance.
    let mut kinds: Vec<&str> = Vec::new();
    for r in &trace.records {
        if !kinds.contains(&r.name.as_str()) {
            kinds.push(&r.name);
        }
    }
    let color_of = |name: &str| {
        let idx = kinds.iter().position(|k| *k == name).unwrap_or(0);
        PALETTE[idx % PALETTE.len()]
    };

    for r in trace.records.iter().take(max_nodes) {
        let id = format!("{prefix}t{}", r.id.0);
        if r.name == SYNC_TASK || r.name == crate::trace::BARRIER_TASK {
            writeln!(
                out,
                "  \"{id}\" [shape=diamond, label=\"sync\", fillcolor=\"#dddddd\", fontsize=9];"
            )
            .unwrap();
        } else if let Some(child) = &r.child {
            writeln!(out, "  subgraph \"cluster_{id}\" {{").unwrap();
            writeln!(out, "    label=\"{} (nested)\";", r.name).unwrap();
            writeln!(out, "    style=rounded; color=\"{}\";", color_of(&r.name)).unwrap();
            writeln!(out, "    \"{id}\" [shape=point, width=0.05, label=\"\"];").unwrap();
            write_body(out, child, &format!("{id}_"), max_nodes);
            writeln!(out, "  }}").unwrap();
        } else {
            writeln!(
                out,
                "  \"{id}\" [shape=circle, label=\"{}\", fillcolor=\"{}\", fontsize=8];",
                r.id.0,
                color_of(&r.name)
            )
            .unwrap();
        }
        for d in &r.deps {
            if d.0 < max_nodes as u64 || trace.records.iter().take(max_nodes).any(|x| x.id == *d) {
                writeln!(out, "  \"{prefix}t{}\" -> \"{id}\";", d.0).unwrap();
            }
        }
    }

    // Legend: one entry per kind.
    if prefix.is_empty() {
        writeln!(
            out,
            "  subgraph cluster_legend {{ label=\"task kinds\"; fontsize=10;"
        )
        .unwrap();
        for k in kinds
            .iter()
            .filter(|k| **k != SYNC_TASK && **k != crate::trace::BARRIER_TASK)
        {
            writeln!(
                out,
                "    \"legend_{k}\" [shape=box, label=\"{k}\", fillcolor=\"{}\", fontsize=9];",
                color_of(k)
            )
            .unwrap();
        }
        writeln!(out, "  }}").unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;

    #[test]
    fn dot_contains_nodes_edges_and_legend() {
        let rt = Runtime::new();
        let a = rt.put(1.0f64);
        let b = rt.task("scale").run1(a, |v| v * 2.0);
        let _c = rt.task("offset").run1(b, |v| v + 1.0);
        let dot = to_dot(&rt.trace(), "demo", usize::MAX);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("\"t0\" -> \"t1\""));
        assert!(dot.contains("legend_scale"));
        assert!(dot.contains("legend_offset"));
    }

    #[test]
    fn dot_sync_marker_is_diamond() {
        let rt = Runtime::new();
        let a = rt.put(1u64);
        let x = rt.task("t").run1(a, |v| *v);
        let _ = rt.wait(x);
        let dot = to_dot(&rt.trace(), "sync", usize::MAX);
        assert!(dot.contains("shape=diamond"));
    }

    #[test]
    fn dot_nested_renders_cluster() {
        let rt = Runtime::new();
        let a = rt.put(2.0f64);
        let out = rt.task("fold").run_nested1(a, |child, v| {
            let h = child.task("inner").run0({
                let v = *v;
                move || v * 3.0
            });
            *child.wait(h)
        });
        assert_eq!(*rt.wait(out), 6.0);
        let dot = to_dot(&rt.trace(), "nested", usize::MAX);
        assert!(dot.contains("cluster_t0"));
        assert!(dot.contains("(nested)"));
    }

    #[test]
    fn dot_truncation_limits_nodes() {
        let rt = Runtime::new();
        let a = rt.put(0u64);
        for _ in 0..50 {
            let _ = rt.task("t").run1(a, |v| *v);
        }
        let dot = to_dot(&rt.trace(), "big", 5);
        let count = dot.matches("shape=circle").count();
        assert!(count <= 5, "got {count}");
    }
}
