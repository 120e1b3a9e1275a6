//! Gantt rendering of a schedule.
//!
//! The PyCOMPSs ecosystem inspects executions with Paraver timelines
//! (the paper's artifact uploads such traces); this module provides the
//! equivalent for a [`Trace`]: an ASCII timeline per executor. A
//! simulated schedule ([`crate::sim::SimReport::trace`]) has one
//! executor per node, a threaded run one per pool worker; both are the
//! same records, so both render the same way. Marker and driver records
//! (`worker == -1`) and executors at or past the requested count are
//! left out.

use crate::trace::{TaskRecord, Trace};
use std::fmt::Write as _;

/// Renders an ASCII Gantt chart of the schedule, one row per executor,
/// `width` characters across the span from 0 to the last end. A task
/// occupies its row from its input fetch to its body's end; each cell
/// shows the first letter of the task kind there (`.` = idle, `*` =
/// multiple concurrent kinds).
pub fn ascii_gantt(trace: &Trace, nodes: usize, width: usize) -> String {
    let mut out = String::new();
    let end_of = |r: &TaskRecord| r.start_s + r.duration_s;
    let makespan = trace.on_executors(nodes).map(end_of).fold(0.0, f64::max);
    let span = makespan.max(f64::MIN_POSITIVE);
    writeln!(out, "time 0 .. {makespan:.3} s ({width} chars)").unwrap();
    for node in 0..nodes {
        let mut row = vec!['.'; width];
        // A zero-width chart has no cells to fill.
        let on_row = trace
            .on_executors(nodes)
            .filter(|r| r.worker as usize == node);
        for r in on_row.filter(|_| width > 0) {
            let cell = |t: f64| t / span * width as f64;
            let from = (cell(r.start_s - r.fetch_s).floor() as usize).min(width - 1);
            let to = (cell(end_of(r)).ceil() as usize).clamp(from + 1, width);
            let ch = r.name.chars().next().unwrap_or('?');
            for c in &mut row[from..to] {
                *c = if *c == '.' || *c == ch { ch } else { '*' };
            }
        }
        writeln!(
            out,
            "node {node:>2} |{}|",
            row.into_iter().collect::<String>()
        )
        .unwrap();
    }
    // Legend of kinds.
    let mut kinds: Vec<&str> = trace.on_executors(nodes).map(|r| r.name.as_str()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    writeln!(out, "kinds: {}", kinds.join(", ")).unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Utilization;
    use crate::runtime::Runtime;
    use crate::sim::{simulate, ClusterSpec, SimOptions};

    fn demo_schedule() -> (Trace, usize) {
        let rt = Runtime::new();
        let src = rt.put(1.0f64);
        let mids: Vec<_> = (0..6)
            .map(|_| {
                rt.task("work").run1(src, |v| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    *v
                })
            })
            .collect();
        let _ = rt
            .task("join")
            .run_many(&mids, |xs| xs.iter().copied().sum::<f64>());
        let trace = rt.finish();
        let cluster = ClusterSpec {
            nodes: 2,
            cores_per_node: 2,
            gpus_per_node: 0,
            bandwidth_bps: 1e9,
            latency_s: 0.0,
        };
        (simulate(&trace, &cluster, &SimOptions::default()).trace, 2)
    }

    #[test]
    fn schedule_covers_all_user_tasks() {
        let (sched, nodes) = demo_schedule();
        assert_eq!(sched.on_executors(nodes).count(), 7);
        for r in &sched.records {
            assert!(r.duration_s >= 0.0 && r.fetch_s >= 0.0);
            assert!(r.start_s >= r.fetch_s);
            assert!(r.worker < nodes as i64);
        }
    }

    #[test]
    fn ascii_gantt_renders_rows_and_legend() {
        let (sched, nodes) = demo_schedule();
        let g = ascii_gantt(&sched, nodes, 40);
        assert!(g.contains("node  0 |"));
        assert!(g.contains("node  1 |"));
        assert!(g.contains("kinds: join, work"));
        assert!(g.lines().count() >= 4);
    }

    #[test]
    fn node_busy_sums_schedule() {
        let (sched, nodes) = demo_schedule();
        let u = Utilization::from_trace(&sched, nodes);
        let total: f64 = u.executors.iter().map(|n| n.task_s + n.fetch_s).sum();
        let expected: f64 = sched.records.iter().map(|r| r.fetch_s + r.duration_s).sum();
        assert!((total - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule_gantt() {
        let g = ascii_gantt(&Trace::default(), 1, 10);
        assert!(g.contains("node  0"));
    }
}
