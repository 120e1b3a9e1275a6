//! # apps — runnable example applications for the `taskml` workspace
//!
//! Run any example from the repository root:
//!
//! ```text
//! cargo run -p apps --example quickstart --release
//! cargo run -p apps --example af_screening --release
//! cargo run -p apps --example cluster_whatif --release
//! cargo run -p apps --example edge_monitor --release
//! ```
//!
//! | example | what it shows |
//! |---|---|
//! | `quickstart` | the task runtime: handles, automatic dependencies, traces, DOT export, cluster replay |
//! | `af_screening` | the paper's full AF pipeline: synthetic ECG → augmentation → STFT → PCA → RandomForest, with clinical metrics |
//! | `cluster_whatif` | capacity planning: record a workflow once, replay it on clusters you do not own |
//! | `edge_monitor` | the paper's motivating edge scenario: train in the "cloud", run windowed AF inference over a live ECG stream |

use taskrt::sim::{ClusterSpec, SimReport};

/// Prints a section banner shared by the examples.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// The share of a simulated cluster's core-seconds a schedule used: its
/// records' `duration × cores`, over `makespan × cores` of `cluster`.
pub fn core_utilization(rep: &SimReport, cluster: &ClusterSpec) -> f64 {
    let core_s: f64 = rep
        .trace
        .records
        .iter()
        .map(|r| r.duration_s * f64::from(r.cores))
        .sum();
    core_s / (rep.makespan_s * f64::from(cluster.total_cores()))
}
