//! Measures the paper's §II motivation: "RR interval-based methods are
//! limited when ... AF takes place with regular ventricular rates."
//!
//! Compares the classical RR-irregularity detector (`ecg::hrv`) against
//! the paper's STFT + RandomForest pipeline on two cohorts:
//!
//! * **textbook** — canonical rhythms (`atypical_fraction = 0`), where
//!   RR irregularity alone almost solves the problem;
//! * **atypical** — every AF recording has a fairly regular ventricular
//!   response and every Normal recording has sinus-arrhythmia-like
//!   variability (`atypical_fraction = 1`), the regime the paper says
//!   breaks RR methods. The time–frequency pipeline still sees the
//!   absent P waves and the 4–9 Hz f-waves.
//!
//! Usage: `cargo run -p bench --bin rr_baseline --release`

use bench::report::{print_series, Args};
use dislib::model_selection::cross_validate;
use dislib::rf::{build_tree, Presort, RfParams, Tree};
use dislib::{ConfusionMatrix, KFold};
use ecg::features::build_design_matrix;
use ecg::hrv::RrDetector;
use ecg::synth::{generate, Class, EcgConfig};
use linalg::stft::SpectrogramConfig;

fn cohort(atypical: f64, seed: u64) -> Vec<ecg::Recording> {
    let cfg = EcgConfig {
        min_duration_s: 15.0,
        max_duration_s: 20.0,
        noise_sd: 0.05,
        atypical_fraction: atypical,
        ..EcgConfig::default()
    };
    let mut recs = Vec::new();
    for i in 0..60 {
        recs.push(generate(&cfg, Class::Normal, seed + i));
    }
    for i in 0..60 {
        recs.push(generate(&cfg, Class::Af, seed + 10_000 + i));
    }
    recs
}

fn rr_accuracy(recs: &[ecg::Recording]) -> ConfusionMatrix {
    let det = RrDetector::default();
    let truth: Vec<u8> = recs.iter().map(|r| r.class.label()).collect();
    let preds: Vec<u8> = recs.iter().map(|r| det.predict(r)).collect();
    ConfusionMatrix::from_labels(&truth, &preds)
}

fn ml_accuracy(recs: &[ecg::Recording], seed: u64) -> ConfusionMatrix {
    let stft = SpectrogramConfig {
        nperseg: 128,
        noverlap: 32,
        fs: 300.0,
    };
    let (x, y, _) = build_design_matrix(recs, &stft, Some(50.0));
    let kf = KFold {
        k: 5,
        shuffle: true,
        seed,
    };
    let params = RfParams {
        n_estimators: 30,
        seed,
        ..Default::default()
    };
    let folds = cross_validate(&x, &y, &kf, |xtr, ytr, xte| {
        let pre = Presort::new(xtr);
        let trees: Vec<Tree> = (0..params.n_estimators)
            .map(|e| build_tree(xtr, ytr, &pre, &params, e as u64))
            .collect();
        (0..xte.rows())
            .map(|r| {
                let votes: f64 = trees
                    .iter()
                    .map(|t| f64::from(t.predict_one(xte.row(r))))
                    .sum();
                u8::from(votes * 2.0 > trees.len() as f64)
            })
            .collect()
    });
    folds
        .iter()
        .fold(ConfusionMatrix::default(), |acc, f| acc.merged(f))
}

fn main() {
    let args = Args::capture();
    let seed = args.get_or("seed", 7u64);

    let mut series = Vec::new();
    for (name, atypical) in [
        ("textbook rhythms", 0.0),
        ("regular-rate AF / irregular Normal", 1.0),
    ] {
        eprintln!("evaluating cohort: {name}...");
        let recs = cohort(atypical, seed);
        let rr = rr_accuracy(&recs);
        let ml = ml_accuracy(&recs, seed);
        series.push((format!("{name}: RR detector"), rr.accuracy() * 100.0));
        series.push((format!("{name}: STFT + RF"), ml.accuracy() * 100.0));
        println!(
            "\n{name}: RR detector recall {:.2} / precision {:.2}; STFT+RF recall {:.2} / precision {:.2}",
            rr.recall(),
            rr.precision(),
            ml.recall(),
            ml.precision()
        );
    }
    print_series(
        "RR-interval baseline vs the paper's time-frequency pipeline",
        "method",
        "accuracy (%)",
        &series,
    );
    println!("\npaper §II: \"RR interval-based methods are limited ... when AF takes place");
    println!("with regular ventricular rates\" — the time-frequency pipeline is not.");
}
