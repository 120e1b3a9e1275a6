//! Reproduces **Table I**: average 5-fold confusion matrices and
//! accuracy for CSVM (a), KNN (b), RF (c) and CNN (d).
//!
//! Usage:
//! ```text
//! cargo run -p bench --bin table1 --release [-- --algo csvm|knn|rf|cnn|all] [--seed N] [--check]
//! ```
//!
//! `--check` (CI) exits non-zero unless every algorithm that ran lands
//! in its accuracy band and the paper's ordering holds.

use bench::pipeline::{prepare, run_cnn, run_csvm, run_knn, run_rf, PipelineConfig};
use bench::report::{print_confusion, write_artifact, Args};
use std::collections::BTreeMap;

/// Paper-reported Table I cells `[[tp, fn], [fp, tn]]` fractions.
const PAPER_CSVM: [[f64; 2]; 2] = [[0.379, 0.125], [0.125, 0.369]];
const PAPER_KNN: [[f64; 2]; 2] = [[0.498, 0.001], [0.490, 0.009]];
const PAPER_RF: [[f64; 2]; 2] = [[0.456, 0.048], [0.071, 0.424]];
const PAPER_CNN: [[f64; 2]; 2] = [[0.454, 0.066], [0.009, 0.469]];

/// `--check` bands: EXPERIMENTS.md's seed spread widened by 3 points.
const BANDS: [(&str, f64, f64); 4] = [
    ("csvm", 0.70, 0.80),
    ("knn", 0.56, 0.68),
    ("rf", 0.77, 0.87),
    ("cnn", 0.77, 0.88),
];
/// `--check` ordering, `(better, worse)`: CNN, RF > CSVM > KNN.
const ORDER: [(&str, &str); 3] = [("cnn", "csvm"), ("rf", "csvm"), ("csvm", "knn")];

fn main() {
    let args = Args::capture();
    let algo = args.get("algo").unwrap_or("all").to_string();
    let mut cfg = PipelineConfig::default();
    cfg.seed = args.get_or("seed", cfg.seed);

    eprintln!(
        "building dataset + STFT features + distributed PCA ({:?} scale)...",
        cfg.scale
    );
    let prep = prepare(&cfg);
    eprintln!(
        "dataset: {} samples x {} raw features -> {} PCA components",
        prep.xp.rows(),
        prep.raw_features,
        prep.xp.cols()
    );

    let mut json = Vec::new();
    let mut accuracy = BTreeMap::new();
    let mut row = |r: &bench::pipeline::AlgoResult| {
        accuracy.insert(r.name.clone(), r.pooled().accuracy());
        row_json(r)
    };
    if algo == "all" || algo == "csvm" {
        let r = run_csvm(&prep, &cfg);
        print_confusion(
            "Table Ia — CascadeSVM",
            &r.pooled(),
            Some(PAPER_CSVM),
            Some(0.749),
        );
        json.push(row(&r));
    }
    if algo == "all" || algo == "knn" {
        let r = run_knn(&prep, &cfg);
        print_confusion(
            "Table Ib — KNN (StandardScaler + k=5)",
            &r.pooled(),
            Some(PAPER_KNN),
            Some(0.52),
        );
        json.push(row(&r));
    }
    if algo == "all" || algo == "rf" {
        let r = run_rf(&prep, &cfg);
        print_confusion(
            "Table Ic — RandomForest (40 estimators)",
            &r.pooled(),
            Some(PAPER_RF),
            Some(0.868),
        );
        json.push(row(&r));
    }
    if algo == "all" || algo == "cnn" {
        let r = run_cnn(&prep, &cfg, 1);
        print_confusion(
            "Table Id — CNN (2xConv1D(32) + Dense(32))",
            &r.pooled(),
            Some(PAPER_CNN),
            Some(0.90),
        );
        json.push(row(&r));
    }

    let payload = format!("[{}]", json.join(","));
    write_artifact("out/table1.json", &payload).expect("artifact");

    if args.has("check") {
        let failures = violations(&accuracy);
        if !failures.is_empty() {
            eprintln!("table1 --check FAILED:\n  {}", failures.join("\n  "));
            std::process::exit(1);
        }
        println!("table1 --check passed ({} algorithms)", accuracy.len());
    }
}

/// What `--check` objects to among the algorithms that ran.
fn violations(accuracy: &BTreeMap<String, f64>) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, lo, hi) in BANDS {
        if let Some(acc) = accuracy.get(name).filter(|a| !(lo..=hi).contains(*a)) {
            failures.push(format!("{name} accuracy {acc:.4} outside {lo}..={hi}"));
        }
    }
    for (better, worse) in ORDER {
        if let (Some(b), Some(w)) = (accuracy.get(better), accuracy.get(worse)) {
            if b <= w {
                failures.push(format!("ordering: {better} {b:.4} <= {worse} {w:.4}"));
            }
        }
    }
    failures
}

fn row_json(r: &bench::pipeline::AlgoResult) -> String {
    let cm = r.pooled();
    format!(
        "{{\"algo\":\"{}\",\"accuracy\":{:.4},\"precision\":{:.4},\"recall\":{:.4},\"f1\":{:.4},\"tp\":{},\"fp\":{},\"fn\":{},\"tn\":{}}}",
        r.name,
        cm.accuracy(),
        cm.precision(),
        cm.recall(),
        cm.f1(),
        cm.tp,
        cm.fp,
        cm.fn_,
        cm.tn
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_flags_a_band_miss_and_an_inverted_order() {
        let table = |rows: &[(&str, f64)]| -> BTreeMap<String, f64> {
            rows.iter().map(|&(n, a)| (n.to_string(), a)).collect()
        };
        let committed = [
            ("csvm", 0.73),
            ("knn", 0.6475),
            ("rf", 0.84),
            ("cnn", 0.8475),
        ];
        assert!(violations(&table(&committed)).is_empty());
        assert!(violations(&table(&[("csvm", 0.73)])).is_empty());
        let drifted = violations(&table(&[("csvm", 0.69), ("knn", 0.60)]));
        assert_eq!(drifted, ["csvm accuracy 0.6900 outside 0.7..=0.8"]);
        let inverted = violations(&table(&[("csvm", 0.78), ("rf", 0.775)]));
        assert_eq!(inverted, ["ordering: rf 0.7750 <= csvm 0.7800"]);
    }
}
