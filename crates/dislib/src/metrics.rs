//! Classification metrics: accuracy, the paper's normalized confusion
//! matrices (Table I), and precision/recall/F1 — the clinical
//! trade-off the paper's conclusions discuss (recall focus: minimizing
//! AF signals classified as normal).

/// Binary confusion counts with AF (= label 1) as the positive class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// AF predicted AF.
    pub tp: usize,
    /// Normal predicted AF.
    pub fp: usize,
    /// AF predicted Normal.
    pub fn_: usize,
    /// Normal predicted Normal.
    pub tn: usize,
}

impl ConfusionMatrix {
    /// Builds counts from ground-truth and predicted 0/1 labels.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn from_labels(y_true: &[u8], y_pred: &[u8]) -> Self {
        assert_eq!(y_true.len(), y_pred.len(), "label length mismatch");
        let mut cm = ConfusionMatrix::default();
        for (&t, &p) in y_true.iter().zip(y_pred) {
            match (t, p) {
                (1, 1) => cm.tp += 1,
                (0, 1) => cm.fp += 1,
                (1, 0) => cm.fn_ += 1,
                (0, 0) => cm.tn += 1,
                _ => panic!("labels must be 0/1"),
            }
        }
        cm
    }

    /// Total samples.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.fn_ + self.tn
    }

    /// Accuracy.
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.tp + self.tn) as f64 / self.total() as f64
    }

    /// Precision on the AF class (minimizing false positives).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            return 0.0;
        }
        self.tp as f64 / (self.tp + self.fp) as f64
    }

    /// Recall / sensitivity on the AF class (minimizing false
    /// negatives — the stroke-care priority in the paper's conclusions).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            return 0.0;
        }
        self.tp as f64 / (self.tp + self.fn_) as f64
    }

    /// F1 score (the CinC-2017 challenge metric).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }

    /// The paper's Table I presentation: fractions of the grand total,
    /// rows = true (AF, Normal), columns = predicted (AF, Normal).
    pub fn normalized(&self) -> [[f64; 2]; 2] {
        let n = self.total().max(1) as f64;
        [
            [self.tp as f64 / n, self.fn_ as f64 / n],
            [self.fp as f64 / n, self.tn as f64 / n],
        ]
    }

    /// Element-wise sum (for averaging across CV folds).
    pub fn merged(&self, other: &ConfusionMatrix) -> ConfusionMatrix {
        ConfusionMatrix {
            tp: self.tp + other.tp,
            fp: self.fp + other.fp,
            fn_: self.fn_ + other.fn_,
            tn: self.tn + other.tn,
        }
    }

    /// Formats the matrix like the paper's Table I cells.
    pub fn to_table(&self) -> String {
        let n = self.normalized();
        format!(
            "          Pred AF   Pred N\n  AF      {:.3}     {:.3}\n  N       {:.3}     {:.3}",
            n[0][0], n[0][1], n[1][0], n[1][1]
        )
    }
}

/// Fraction of matching labels.
pub fn accuracy(y_true: &[u8], y_pred: &[u8]) -> f64 {
    ConfusionMatrix::from_labels(y_true, y_pred).accuracy()
}

/// One operating point of a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// False-positive rate at this threshold.
    pub fpr: f64,
    /// True-positive rate (recall) at this threshold.
    pub tpr: f64,
    /// Score threshold (predict AF when `score >= threshold`).
    pub threshold: f64,
}

/// ROC curve from AF scores (higher = more AF-like), one point per
/// distinct threshold, ordered from strictest to most permissive.
///
/// # Panics
/// Panics if lengths mismatch, either class is absent, or a score is
/// NaN (it equals no threshold, so the tie loop could never pass it).
pub fn roc_curve(y_true: &[u8], scores: &[f64]) -> Vec<RocPoint> {
    assert_eq!(y_true.len(), scores.len(), "label/score length mismatch");
    let pos = y_true.iter().filter(|&&l| l == 1).count();
    let neg = y_true.len() - pos;
    assert!(pos > 0 && neg > 0, "ROC needs both classes");
    assert!(
        scores.iter().all(|s| !s.is_nan()),
        "ROC scores must not be NaN"
    );

    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));

    let mut points = Vec::new();
    let (mut tp, mut fp) = (0usize, 0usize);
    let mut i = 0;
    while i < order.len() {
        let thr = scores[order[i]];
        // Consume all samples tied at this threshold.
        while i < order.len() && scores[order[i]] == thr {
            if y_true[order[i]] == 1 {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        points.push(RocPoint {
            fpr: fp as f64 / neg as f64,
            tpr: tp as f64 / pos as f64,
            threshold: thr,
        });
    }
    points
}

/// Area under the ROC curve (trapezoidal rule over [`roc_curve`]).
pub fn roc_auc(y_true: &[u8], scores: &[f64]) -> f64 {
    let pts = roc_curve(y_true, scores);
    let mut auc = 0.0;
    let (mut prev_fpr, mut prev_tpr) = (0.0, 0.0);
    for p in pts {
        auc += (p.fpr - prev_fpr) * (p.tpr + prev_tpr) / 2.0;
        prev_fpr = p.fpr;
        prev_tpr = p.tpr;
    }
    auc
}

/// Smallest-FPR threshold reaching at least `target_recall` — the
/// recall-focused operating point the paper's conclusions recommend for
/// stroke care ("it is preferable for a classifier to predict a normal
/// signal as AF ... rather than predicting AF as a normal signal").
/// Returns `None` if no threshold reaches the target.
pub fn threshold_for_recall(y_true: &[u8], scores: &[f64], target_recall: f64) -> Option<f64> {
    roc_curve(y_true, scores)
        .into_iter()
        .find(|p| p.tpr >= target_recall)
        .map(|p| p.threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_prediction() {
        let y = vec![1, 0, 1, 0];
        let cm = ConfusionMatrix::from_labels(&y, &y);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.precision(), 1.0);
        assert_eq!(cm.recall(), 1.0);
        assert_eq!(cm.f1(), 1.0);
    }

    #[test]
    fn known_counts() {
        let y_true = vec![1, 1, 1, 0, 0, 0];
        let y_pred = vec![1, 1, 0, 1, 0, 0];
        let cm = ConfusionMatrix::from_labels(&y_true, &y_pred);
        assert_eq!((cm.tp, cm.fn_, cm.fp, cm.tn), (2, 1, 1, 2));
        assert!((cm.accuracy() - 4.0 / 6.0).abs() < 1e-12);
        assert!((cm.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.recall() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_sums_to_one() {
        let cm = ConfusionMatrix {
            tp: 762,
            fn_: 251,
            fp: 251,
            tn: 742,
        };
        let n = cm.normalized();
        let s: f64 = n.iter().flatten().sum();
        assert!((s - 1.0).abs() < 1e-12);
        // Paper Table Ia values (CSVM): 0.379 / 0.125 / 0.125 / 0.369.
        assert!((n[0][0] - 0.379).abs() < 5e-3);
        assert!((cm.accuracy() - 0.749).abs() < 5e-3);
    }

    #[test]
    fn degenerate_all_positive_prediction() {
        // The paper's KNN regime: predicts nearly everything as AF.
        let y_true = vec![1, 1, 0, 0];
        let y_pred = vec![1, 1, 1, 1];
        let cm = ConfusionMatrix::from_labels(&y_true, &y_pred);
        assert_eq!(cm.recall(), 1.0);
        assert_eq!(cm.precision(), 0.5);
        assert_eq!(cm.accuracy(), 0.5);
    }

    #[test]
    fn merged_adds_counts() {
        let a = ConfusionMatrix {
            tp: 1,
            fp: 2,
            fn_: 3,
            tn: 4,
        };
        let b = ConfusionMatrix {
            tp: 10,
            fp: 20,
            fn_: 30,
            tn: 40,
        };
        let m = a.merged(&b);
        assert_eq!((m.tp, m.fp, m.fn_, m.tn), (11, 22, 33, 44));
    }

    #[test]
    fn empty_metrics_are_zero() {
        let cm = ConfusionMatrix::default();
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.precision(), 0.0);
        assert_eq!(cm.recall(), 0.0);
        assert_eq!(cm.f1(), 0.0);
    }

    #[test]
    fn roc_perfect_separation() {
        let y = vec![0, 0, 1, 1];
        let scores = vec![0.1, 0.2, 0.8, 0.9];
        assert!((roc_auc(&y, &scores) - 1.0).abs() < 1e-12);
        // Reversed scores: AUC 0.
        let rev: Vec<f64> = scores.iter().map(|s| -s).collect();
        assert!(roc_auc(&y, &rev).abs() < 1e-12);
    }

    #[test]
    fn roc_chance_level() {
        // Constant scores: a single tie-point, AUC = 0.5.
        let y = vec![0, 1, 0, 1];
        let scores = vec![0.5; 4];
        assert!((roc_auc(&y, &scores) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn roc_curve_monotone() {
        let y = vec![0, 1, 0, 1, 1, 0, 1, 0];
        let scores = vec![0.2, 0.9, 0.4, 0.6, 0.55, 0.5, 0.3, 0.1];
        let pts = roc_curve(&y, &scores);
        for w in pts.windows(2) {
            assert!(w[1].fpr >= w[0].fpr - 1e-12);
            assert!(w[1].tpr >= w[0].tpr - 1e-12);
            assert!(w[1].threshold <= w[0].threshold);
        }
        assert!((pts.last().unwrap().tpr - 1.0).abs() < 1e-12);
        assert!((pts.last().unwrap().fpr - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recall_threshold_reaches_target() {
        let y = vec![0, 1, 0, 1, 1, 0];
        let scores = vec![0.1, 0.9, 0.3, 0.55, 0.45, 0.6];
        let thr = threshold_for_recall(&y, &scores, 1.0).unwrap();
        let preds: Vec<u8> = scores.iter().map(|&s| u8::from(s >= thr)).collect();
        let cm = ConfusionMatrix::from_labels(&y, &preds);
        assert_eq!(cm.recall(), 1.0);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn roc_rejects_single_class() {
        let _ = roc_curve(&[1, 1], &[0.1, 0.2]);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn roc_rejects_nan_score() {
        let _ = roc_curve(&[1, 0, 1], &[0.3, f64::NAN, 0.7]);
    }

    proptest! {
        #[test]
        fn prop_roc_auc_in_unit_interval(
            labels in proptest::collection::vec(0u8..2, 4..40),
            scores in proptest::collection::vec(0.0f64..1.0, 40),
        ) {
            prop_assume!(labels.contains(&0) && labels.contains(&1));
            let scores = &scores[..labels.len()];
            let auc = roc_auc(&labels, scores);
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&auc));
        }

        #[test]
        fn prop_accuracy_in_unit_interval(
            labels in proptest::collection::vec(0u8..2, 1..50),
            preds_seed in 0u64..100,
        ) {
            let preds: Vec<u8> = labels
                .iter()
                .enumerate()
                .map(|(i, &l)| if (i as u64 + preds_seed).is_multiple_of(3) { 1 - l } else { l })
                .collect();
            let acc = accuracy(&labels, &preds);
            prop_assert!((0.0..=1.0).contains(&acc));
        }

        #[test]
        fn prop_confusion_total_matches(
            labels in proptest::collection::vec(0u8..2, 1..50),
        ) {
            let preds: Vec<u8> = labels.iter().map(|&l| 1 - l).collect();
            let cm = ConfusionMatrix::from_labels(&labels, &preds);
            prop_assert_eq!(cm.total(), labels.len());
            prop_assert_eq!(cm.accuracy(), 0.0);
        }
    }
}
