//! # bench — experiment harness reproducing the paper's evaluation
//!
//! Binaries (run from the repo root):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table I a–d: per-algorithm confusion matrices + accuracy |
//! | `fig11` | Fig. 11 a–c: training-time-vs-cores curves on the simulated MareNostrum 4 |
//! | `fig12` | Fig. 12: CNN training-time bars on the simulated CTE-Power |
//! | `graphs` | Figs. 4, 6, 8, 9, 10: execution graphs as Graphviz DOT |
//! | `pca_cost` | §IV-B: constant PCA cost across algorithms |
//! | `dist` | multi-process PCA over `taskrt::dist`: bit-identity vs the inline oracle, DES divergence gate, chaos SIGKILL arm — writes `out/dist.json` |
//! | `chaos` | fault injection on the threaded runtime + node-failure replay in the DES — writes `out/chaos.json` |
//! | `profile` | observability exporter: one ECG → PCA run, every `taskrt::obs` / `taskrt::telemetry` artifact — writes `out/profile.json` and two Chrome traces |
//!
//! Nothing here times the code for a verdict: that is `benchmark/`
//! (`bash benchmark/run.sh`), and properties are `cargo test`.
//!
//! Library modules: [`pipeline`] (the end-to-end AF workflow at `small`
//! scale), [`costs`] (the analytic duration scaling that lifts measured
//! small-scale traces to paper-scale), [`report`] (table/series
//! formatting and artifact output).

pub mod costs;
pub mod pipeline;
pub mod report;
