//! Capacity planning: record a workflow once, then answer "what if we
//! ran it on ...?" without owning the hardware.
//!
//! This is the measured-trace + discrete-event-simulation workflow the
//! benchmark harness uses to reproduce the paper's Fig. 11/12; here it
//! is applied interactively to a CascadeSVM training job.
//!
//! Run: `cargo run -p apps --example cluster_whatif --release`

use apps::{banner, core_utilization};
use dislib::csvm::{CascadeSvm, CascadeSvmParams};
use dsarray::{DsArray, DsLabels};
use ecg::{Dataset, DatasetSpec, Scale};
use taskrt::sim::{simulate, ClusterSpec, SimOptions};
use taskrt::{Runtime, Utilization};

fn main() {
    banner("1. run the workflow once, for real, and record it");
    let mut spec = DatasetSpec::at_scale(Scale::Small);
    spec.n_normal = 80;
    spec.n_af = 12;
    let ds = Dataset::build(&spec);

    let rt = Runtime::new();
    let x = DsArray::from_matrix(&rt, &ds.x, 20, ds.x.cols());
    let labels = DsLabels::from_slice(&rt, &ds.y, 20);
    let _model = CascadeSvm::fit(&rt, &x, &labels, CascadeSvmParams::default());
    let trace = rt.finish();
    println!(
        "recorded {} tasks; serial work {:.3} s; critical path {:.3} s; width {}",
        trace.user_task_count(),
        trace.total_work_s(),
        trace.critical_path_s(),
        trace.max_width()
    );

    banner("2. what if we ran it on MareNostrum-class nodes?");
    println!(
        "{:>6} {:>8} {:>12} {:>12}",
        "nodes", "cores", "makespan(s)", "util(%)"
    );
    for nodes in [1usize, 2, 4, 8] {
        let cluster = ClusterSpec::marenostrum4(nodes);
        let rep = simulate(&trace, &cluster, &SimOptions::default());
        println!(
            "{:>6} {:>8} {:>12.4} {:>12.1}",
            nodes,
            cluster.total_cores(),
            rep.makespan_s,
            core_utilization(&rep, &cluster) * 100.0
        );
    }
    println!("(the cascade's reduction phase caps useful parallelism — paper §III-C1)");

    banner("3. what if the interconnect were slower?");
    println!(
        "{:>14} {:>12} {:>14}",
        "bandwidth", "makespan(s)", "moved (MB)"
    );
    let mut makespans = Vec::new();
    for (label, bps) in [
        ("10 Gbit/s", 1.25e9),
        ("1 Gbit/s", 1.25e8),
        ("100 Mbit/s", 1.25e7),
    ] {
        let cluster = ClusterSpec {
            bandwidth_bps: bps,
            ..ClusterSpec::marenostrum4(4)
        };
        let rep = simulate(&trace, &cluster, &SimOptions::default());
        println!(
            "{label:>14} {:>12.4} {:>14.2}",
            rep.makespan_s,
            Utilization::from_trace(&rep.trace, cluster.nodes).fetch_bytes as f64 / 1e6
        );
        makespans.push(rep.makespan_s);
    }
    assert!(
        makespans[2] > makespans[0],
        "a 100 Mbit/s link must cost time over 10 Gbit/s: {makespans:?}"
    );

    banner("4. timeline: where did the time go? (2-node run)");
    let rep = simulate(
        &trace,
        &ClusterSpec::marenostrum4(2),
        &SimOptions::default(),
    );
    print!("{}", taskrt::gantt::ascii_gantt(&rep.trace, 2, 64));
    let busy: Vec<f64> = Utilization::from_trace(&rep.trace, 2)
        .executors
        .iter()
        .map(|n| n.task_s + n.fetch_s)
        .collect();
    println!("busy seconds per node: {busy:.3?}");
}
