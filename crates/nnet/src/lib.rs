//! # nnet — a minimal deep-learning library with data-parallel training
//! (EDDL equivalent)
//!
//! The paper trains its AF-detection CNN with EDDL, "a deep learning
//! library that enables the parallelization of data between the
//! resources of the same node", orchestrated by PyCOMPSs across nodes
//! (§III-D). This crate provides the pieces that experiment needs, from
//! scratch:
//!
//! * [`layers`] — 1-D convolution, max-pooling, dense, ReLU, and the
//!   softmax/cross-entropy head, with full backpropagation over
//!   channels-last mini-batches (every conv / dense pass is one GEMM).
//! * [`network`] — the sequential [`Network`] container, SGD training,
//!   and the paper's architecture ("two 1-dimensional convolutional
//!   layers with 32 filters and a final dense layer with 32 neurons").
//! * [`parallel`] — data-parallel epoch training over [`taskrt`] tasks:
//!   per-worker `cnn_train` tasks, per-epoch `cnn_merge` weight
//!   averaging, the **driver-side epoch synchronization** that blocks
//!   fold-level parallelism (Fig. 9), and the **nested** variant that
//!   encapsulates those syncs inside one task per fold (Fig. 10).

pub mod layers;
pub mod network;
pub mod parallel;

pub use layers::{Conv1d, Dense, Layer};
pub use network::{Network, TrainParams};
pub use parallel::{
    train_data_parallel, train_kfold, train_kfold_handles, train_kfold_nested,
    train_kfold_nested_handles, FoldData, FoldResult, ParallelConfig,
};
