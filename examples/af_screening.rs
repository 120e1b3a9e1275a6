//! AF screening: the paper's full pipeline as a downstream user would
//! run it.
//!
//! Synthetic single-lead ECG cohort → patch-shuffle augmentation →
//! zero-padding + STFT → distributed PCA → RandomForest (the paper's
//! best classic model) → clinical metrics. Ends with the
//! precision-vs-recall discussion from the paper's conclusions: "it is
//! preferable for a classifier to predict a normal signal as AF (false
//! positive) rather than predicting AF as a normal signal".
//!
//! Run: `cargo run -p apps --example af_screening --release`

use apps::banner;
use dislib::model_selection::{take, KFold};
use dislib::pca::{Components, Pca};
use dislib::rf::{RandomForest, RfParams};
use dislib::{roc_auc, threshold_for_recall, ConfusionMatrix};
use dsarray::DsArray;
use ecg::{Dataset, DatasetSpec, Scale};
use taskrt::Runtime;

fn main() {
    banner("1. assemble the cohort (PhysioNet CinC-2017 stand-in)");
    let mut spec = DatasetSpec::at_scale(Scale::Small);
    spec.n_normal = 120;
    spec.n_af = 18;
    let ds = Dataset::build(&spec);
    let (normal, af) = ds.class_counts();
    println!(
        "{} recordings ({normal} Normal / {af} AF after augmentation), {} STFT features each",
        ds.x.rows(),
        ds.x.cols()
    );

    banner("2. distributed PCA over the blocked design matrix");
    let rt = Runtime::new();
    let dist = DsArray::from_matrix(&rt, &ds.x, 40, 256);
    println!(
        "ds-array: {} x {} in {} x {} blocks",
        dist.shape().0,
        dist.shape().1,
        dist.n_row_blocks(),
        dist.n_col_blocks()
    );
    let pca = Pca::fit(&rt, &dist, Components::Count(96));
    let projected = pca.transform(&rt, &dist).collect(&rt);
    println!(
        "kept {} components; preprocessing used {} tasks",
        projected.cols(),
        rt.task_count()
    );

    banner("3. 5-fold cross-validated RandomForest (40 estimators)");
    let params = RfParams {
        n_estimators: 40,
        task_cores: 4,
        ..Default::default()
    };
    let mut pooled = ConfusionMatrix::default();
    let kf = KFold::default();
    for (fold, (train_idx, test_idx)) in kf.split(projected.rows()).into_iter().enumerate() {
        let (xtr, ytr) = take(&projected, &ds.y, &train_idx);
        let (xte, yte) = take(&projected, &ds.y, &test_idx);
        let forest = RandomForest::fit(&rt, rt.put(xtr), rt.put(ytr), params);
        let pred = forest.predict(&rt, rt.put(xte));
        let cm = ConfusionMatrix::from_labels(&yte, &rt.wait(pred));
        println!("fold {fold}: accuracy {:.1} %", cm.accuracy() * 100.0);
        pooled = pooled.merged(&cm);
    }

    banner("4. recall-focused operating point (paper conclusions)");
    // Collect AF probabilities over held-out folds for threshold tuning.
    let mut scores = Vec::new();
    let mut truth = Vec::new();
    for (train_idx, test_idx) in kf.split(projected.rows()) {
        let (xtr, ytr) = take(&projected, &ds.y, &train_idx);
        let (xte, yte) = take(&projected, &ds.y, &test_idx);
        let forest = RandomForest::fit(&rt, rt.put(xtr), rt.put(ytr), params);
        let probs = rt.wait(forest.predict_probs(&rt, rt.put(xte)));
        for r in 0..probs.rows() {
            scores.push(probs.get(r, 1));
        }
        truth.extend_from_slice(&yte);
    }
    let auc = roc_auc(&truth, &scores);
    println!("cross-validated ROC AUC: {auc:.3}");
    assert!(auc > 0.5, "the forest ranks AF no better than chance");
    for target in [0.90, 0.95, 0.99] {
        match threshold_for_recall(&truth, &scores, target) {
            Some(thr) => {
                let preds: Vec<u8> = scores.iter().map(|&s| u8::from(s >= thr)).collect();
                let cm = ConfusionMatrix::from_labels(&truth, &preds);
                println!(
                    "recall >= {target:.2}: threshold {thr:.3} -> recall {:.3}, precision {:.3}",
                    cm.recall(),
                    cm.precision()
                );
            }
            None => println!("recall >= {target:.2}: unreachable"),
        }
    }

    banner("5. clinical read-out (default 0.5 threshold)");
    println!("{}", pooled.to_table());
    println!("accuracy  {:.1} %", pooled.accuracy() * 100.0);
    println!(
        "precision {:.3}  (false alarms are cheap)",
        pooled.precision()
    );
    println!(
        "recall    {:.3}  (missed AF is dangerous — the stroke-care priority)",
        pooled.recall()
    );
    println!(
        "F1        {:.3}  (the CinC-2017 challenge metric)",
        pooled.f1()
    );
    if pooled.recall() < pooled.precision() {
        println!("note: this model is precision-leaning; for stroke care the paper argues");
        println!("      for a recall focus — consider lowering the decision threshold.");
    }
}
