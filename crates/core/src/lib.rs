//! # taskrt — a task-based workflow runtime with a cluster simulator
//!
//! `taskrt` is the Rust reproduction of the task-based programming model
//! the paper builds on (PyCOMPSs): a driver program submits tasks whose
//! data dependencies are detected automatically from their input/output
//! arguments; the runtime executes the resulting DAG in parallel, records
//! a full execution trace, and can **replay** that trace on a simulated
//! cluster of arbitrary size to study scalability.
//!
//! ```
//! use taskrt::{Runtime, sim::{simulate, ClusterSpec, SimOptions}};
//!
//! let rt = Runtime::new();
//! let x = rt.put(vec![1.0f64, 2.0, 3.0]);
//! let doubled = rt.task("double").run1(x, |v| {
//!     v.iter().map(|a| a * 2.0).collect::<Vec<f64>>()
//! });
//! let sum = rt.task("sum").run1(doubled, |v| v.iter().sum::<f64>());
//! assert_eq!(*rt.wait(sum), 12.0);
//!
//! // Replay the recorded DAG on a 4-node MareNostrum-like cluster.
//! let trace = rt.trace();
//! let report = simulate(&trace, &ClusterSpec::marenostrum4(4), &SimOptions::default());
//! assert!(report.makespan_s >= 0.0);
//! ```
//!
//! ## Module map
//!
//! | module | contents |
//! |---|---|
//! | [`runtime`] | [`Runtime`], [`TaskBuilder`], execution modes, nesting |
//! | [`dist`] | multi-process driver/worker executor over Unix sockets |
//! | [`arena`] | the paged, push-only store behind the task, data, input and edge tables |
//! | [`fault`] | [`OnFailure`] / [`RetryPolicy`] policies, [`FaultPlan`] injection |
//! | [`handle`] | [`Handle`], [`DataId`], [`TaskId`] |
//! | [`payload`] | the [`Payload`] trait (what can flow between tasks) |
//! | [`trace`] | [`Trace`] / [`TaskRecord`] — the replayable artifact |
//! | [`sim`] | discrete-event cluster simulator and [`sim::ClusterSpec`] |
//! | [`dot`] | Graphviz export of execution graphs |
//! | [`gantt`] | ASCII/JSON timelines of simulated schedules |
//! | [`obs`] | views derived from the records and the DES schedule: statistics, Chrome traces, profiles, stragglers, divergence |
//! | [`json`] | self-contained JSON tree, parser, and printer |
//!
//! ## Runtime internals & performance
//!
//! The scheduler is built for fine-grained task graphs (10k+ tasks)
//! where per-task overhead dominates; see [`runtime`] for the data
//! structures (dense id-indexed tables, one queue monitor — a FIFO of
//! ready tasks and the workers asleep on it behind one lock —,
//! continuations, batched ready release, token-counted wakeups) and
//! `bash benchmark/run.sh --workload sched_fine` for the measured
//! throughput.

pub mod arena;
pub mod dist;
pub mod dot;
pub mod fault;
pub mod gantt;
pub mod handle;
pub mod json;
pub mod obs;
pub mod payload;
pub mod runtime;
pub mod sim;
mod tables;
pub mod trace;

pub use dist::{DistConfig, DistReport, DistRuntime, KindRegistry, Plan, WireValue};
pub use fault::{FaultPlan, OnFailure, RetryPolicy, TaskFault};
pub use handle::{DataId, Handle, TaskId};
pub use obs::{Divergence, Profile, RuntimeStats, Straggler, Utilization};
pub use payload::Payload;
pub use runtime::{live_worker_threads, ExecMode, Runtime, RuntimeConfig, TaskBuilder, TaskCtx};
pub use trace::{TaskRecord, Trace};
