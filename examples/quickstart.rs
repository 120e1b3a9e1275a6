//! Quickstart: the task-based programming model in five minutes.
//!
//! A driver program writes *sequential-looking* code; the runtime
//! detects data dependencies between tasks automatically, executes the
//! resulting DAG, records a trace, and can replay that trace on a
//! simulated cluster of any size — the core workflow of the paper.
//!
//! Run: `cargo run -p apps --example quickstart --release`

use apps::{banner, core_utilization};
use linalg::Matrix;
use taskrt::dot::to_dot;
use taskrt::sim::{simulate, ClusterSpec, SimOptions};
use taskrt::Runtime;

fn main() {
    banner("1. submit tasks; dependencies are detected automatically");
    let rt = Runtime::new();

    // Put some data into the runtime (this lives on the "master").
    let a = rt.put(Matrix::from_fn(64, 64, |r, c| (r + c) as f64));
    let b = rt.put(Matrix::from_fn(64, 64, |r, c| (r as f64 - c as f64) * 0.5));

    // Four tasks. `scaled` and `product` can run in parallel (no data
    // dependency); `sum` waits for both. No explicit wiring needed.
    let scaled = rt.task("scale").run1(a, |m| {
        let mut out = m.clone();
        out.scale(2.0);
        out
    });
    let product = rt.task("gemm").cores(2).run2(a, b, |x, y| x.matmul(y));
    let sum = rt.task("add").run2(scaled, product, |x, y| {
        let mut out = x.clone();
        out.add_assign(y);
        out
    });
    let norm = rt.task("norm").run1(sum, |m| m.fro_norm());

    // `wait` is the only synchronization point (PyCOMPSs' wait_on).
    println!("Frobenius norm of 2A + AB = {:.3}", *rt.wait(norm));

    banner("2. the run produced a replayable trace");
    let trace = rt.trace();
    println!("tasks recorded:      {}", trace.user_task_count());
    println!("serial work:         {:.6} s", trace.total_work_s());
    println!("critical path:       {:.6} s", trace.critical_path_s());
    println!("max parallel width:  {}", trace.max_width());

    banner("3. export the execution graph (paper Figs. 4/6/8 style)");
    let dot = to_dot(&trace, "quickstart", usize::MAX);
    std::fs::create_dir_all("out").ok();
    std::fs::write("out/quickstart.dot", &dot).expect("write dot");
    println!(
        "wrote out/quickstart.dot ({} bytes); render with `dot -Tsvg`",
        dot.len()
    );

    banner("4. replay the same DAG on clusters you do not own");
    for nodes in [1usize, 2, 4] {
        let cluster = ClusterSpec::marenostrum4(nodes);
        let rep = simulate(&trace, &cluster, &SimOptions::default());
        println!(
            "{:>3} nodes ({:>3} cores): makespan {:.6} s, utilization {:>5.1} %",
            nodes,
            cluster.total_cores(),
            rep.makespan_s,
            core_utilization(&rep, &cluster) * 100.0
        );
    }

    banner("5. nesting: tasks can spawn their own sub-workflows");
    let rt = Runtime::new();
    let data = rt.put(vec![1.0f64, 2.0, 3.0, 4.0]);
    let result = rt.task("outer").cores(4).run_nested1(data, |child, v| {
        // This closure runs inside the task, with its own runtime.
        let parts: Vec<_> = v
            .iter()
            .map(|&x| child.task("inner").run0(move || x * x))
            .collect();
        let total = child
            .task("reduce")
            .run_many(&parts, |xs| xs.iter().copied().sum::<f64>());
        *child.wait(total)
    });
    println!("sum of squares via nested tasks = {}", *rt.wait(result));
    let trace = rt.trace();
    let child = trace.records[0].child.as_ref().expect("child trace");
    println!(
        "outer task recorded a child trace with {} tasks",
        child.user_task_count()
    );
}
