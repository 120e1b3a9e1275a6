//! Reproduces the paper's §IV-B observation that the PCA preprocessing
//! cost is **constant across algorithms** ("we did not consider the time
//! of executing the PCA, that is the same for each algorithm and takes
//! about 850 seconds") and breaks that cost down by task kind.
//!
//! Usage: `cargo run -p bench --bin pca_cost --release`

use bench::costs::ScaleModel;
use bench::pipeline::{prepare, PipelineConfig};
use bench::report::{print_series, write_artifact, Args};
use taskrt::sim::{simulate, ClusterSpec, Policy, SimOptions};
use taskrt::Profile;

const SAMPLE_RATIO: f64 = 500.0 / 60.0;
/// PCA runs on the raw STFT features (paper: 18 810; ours: ~1 078).
const FEATURE_RATIO: f64 = 18810.0 / 1078.0;
/// The paper reports the whole PCA stage at ~850 s, dominated by the
/// single `numpy.linalg.eigh` task (LAPACK on a 48-core node); we anchor
/// that task directly instead of extrapolating our single-threaded
/// solver's constant.
const T_EIGH: f64 = 800.0;

fn main() {
    let args = Args::capture(&["seed"], &[]);
    let cfg = PipelineConfig {
        seed: args.get_or("seed", 2017),
        ..Default::default()
    };

    eprintln!("running preprocessing + distributed PCA...");
    let prep = prepare(&cfg);
    let trace = &prep.pca_trace;

    let model = ScaleModel::paper_scale(SAMPLE_RATIO, FEATURE_RATIO).with_fixed("pca_eigh", T_EIGH);
    let opts = SimOptions {
        policy: Policy::LocalityAware,
        duration_of: Some(model.duration_fn()),
        ..SimOptions::default()
    };

    // The paper runs PCA once on the full cluster; show it is flat in
    // node count beyond the point where the single eigh task dominates.
    let mut series = Vec::new();
    for nodes in 1..=6 {
        let cluster = ClusterSpec::marenostrum4(nodes);
        let rep = simulate(trace, &cluster, &opts);
        series.push((format!("{}", cluster.total_cores()), rep.makespan_s));
    }
    print_series(
        "PCA cost vs cores (simulated, paper scale)",
        "cores",
        "seconds",
        &series,
    );

    let rep = simulate(trace, &ClusterSpec::marenostrum4(4), &opts);
    println!("\nbusy seconds by task kind (4 nodes):");
    let profile = Profile::from_trace(&rep.trace);
    for k in profile.kinds.iter().take(10) {
        println!("  {:>18}  {:>10.2}", k.name, k.total_s);
    }
    let eigh_s = profile
        .kinds
        .iter()
        .find(|k| k.name == "pca_eigh")
        .expect("the PCA stage runs one eigh")
        .total_s;
    println!(
        "\nsingle-task eigendecomposition dominates: {eigh_s:.1}s of {:.1}s makespan ({:.0}%)",
        rep.makespan_s,
        eigh_s / rep.makespan_s * 100.0
    );
    println!("paper: ~850 s, constant across algorithms");

    let flat = series
        .iter()
        .map(|(c, s)| format!("{{\"cores\":{c},\"seconds\":{s:.2}}}"))
        .collect::<Vec<_>>();
    write_artifact("out/pca_cost.json", &format!("[{}]", flat.join(","))).expect("artifact");
}
