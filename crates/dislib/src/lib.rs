//! # dislib — distributed machine-learning estimators over ds-arrays
//!
//! Rust reproduction of the dislib library the paper builds on (§II-B):
//! scikit-learn-style estimators (`fit` / `predict` / `score`) whose
//! internals are [`taskrt`] task graphs over blocked [`dsarray`] data,
//! so "communications, data transfers, and parallelism are automatically
//! handled behind the scenes by the runtime".
//!
//! Estimators (one per paper section):
//!
//! | paper | module | parallel structure |
//! |---|---|---|
//! | §III-C1 CSVM | [`csvm`] | task per row block + pairwise cascade |
//! | §III-C2 KNN | [`knn`] | task per row block, merge + vote |
//! | §III-C3 RF | [`rf`] | task per estimator (+ `distr_depth`) |
//! | §III-B4 PCA | [`pca`] | two map-reduce phases + single `eigh` task |
//! | §IV-B scaler | [`scaler`] | per-block stats + reduction |
//!
//! Support modules: [`svm`] (the in-task SMO solver), [`metrics`]
//! (Table I confusion matrices), [`model_selection`] (5-fold CV).
//! [`pca_dist`] re-expresses the PCA pipeline as a `taskrt::dist` plan
//! of registered kinds, runnable across worker processes.

pub mod csvm;
pub mod knn;
pub mod metrics;
pub mod model_selection;
pub mod pca;
pub mod pca_dist;
pub mod rf;
pub mod scaler;
pub mod svm;

#[cfg(test)]
pub(crate) mod testutil;

pub use csvm::{CascadeSvm, CascadeSvmParams};
pub use knn::{KnnClassifier, KnnParams, Weights};
pub use metrics::{accuracy, roc_auc, roc_curve, threshold_for_recall, ConfusionMatrix, RocPoint};
pub use model_selection::{cross_validate, KFold};
pub use pca::{Components, Pca};
pub use pca_dist::{pca_plan, register_pca_kinds, PcaPlanOutputs};
pub use rf::{RandomForest, RfParams, Tree};
pub use scaler::StandardScaler;
pub use svm::{fit_svc, SvcModel, SvcParams};
