//! Multi-process distributed execution: a driver ships registered task
//! kinds to worker processes over Unix-domain sockets.
//!
//! This is the `taskrt` answer to COMPSs's agent deployment: where the
//! in-process runtime (`crate::runtime`) dispatches closures to
//! threads, `dist` dispatches **named kinds** ([`KindRegistry`]) to
//! worker *processes* and moves payloads over a real data plane —
//! workers pull inputs peer-to-peer from the replica owner, the driver
//! relays only its own seeds. See `DESIGN.md` §5.16 for the frame
//! format, the replica/pull protocol, and the heartbeat → fault
//! mapping.
//!
//! Layer map:
//!
//! * [`wire`] — the one codec: length-prefixed frames, the
//!   closed-universe [`WireValue`] payload, and the primitives every
//!   message is walked with (`encoded_len` *is* `Payload::approx_bytes`,
//!   pinning the DES transfer model to real wire bytes).
//! * [`proto`] — the driver ⇄ worker message set.
//! * [`kind`] — the named-kind registry replacing serialized closures,
//!   carrying `crate::fault` policies per kind.
//! * [`plan`] — DAG description + the inline oracle a distributed run
//!   must match bit for bit.
//! * [`worker`] — the worker loop: local store, peer listener,
//!   heartbeat beacon.
//! * `place` — owner-computes placement, a pure function of the ready
//!   tasks, the bytes each worker holds of them and who is busy; only
//!   `state` calls it (the DES replays a `dist` run on the workers its
//!   records name, `sim::Policy::Recorded`).
//! * `state` — the driver's decisions as an I/O-free state machine:
//!   dispatch by `place`, retries, lineage re-execution, trace capture.
//! * [`driver`] — the shell around it: sockets, threads, worker
//!   processes and heartbeat failure detection.
//!
//! ```no_run
//! use std::sync::Arc;
//! use taskrt::dist::{self, DistConfig, DistRuntime, KindRegistry, Plan, WireValue};
//!
//! fn kinds() -> Arc<KindRegistry> {
//!     let mut reg = KindRegistry::new();
//!     reg.register("square", |ins| {
//!         let x = ins[0].as_f64();
//!         Ok(WireValue::F64(x * x))
//!     });
//!     Arc::new(reg)
//! }
//!
//! fn main() {
//!     let registry = kinds();
//!     dist::maybe_worker(&registry); // worker children exit here
//!     let mut plan = Plan::new();
//!     let x = plan.put(WireValue::F64(3.0));
//!     let y = plan.task("square", &[x]);
//!     plan.mark_output(y);
//!     let mut rt = DistRuntime::launch(DistConfig::with_workers(2), &registry).unwrap();
//!     let report = rt.run(&plan, &registry).unwrap();
//!     assert_eq!(report.outputs[&y].as_f64(), 9.0);
//!     let shutdown = rt.shutdown();
//!     assert_eq!(shutdown.workers_reaped, 2);
//! }
//! ```

pub mod driver;
pub mod kind;
mod place;
pub mod plan;
pub mod proto;
mod state;
pub mod wire;
pub mod worker;

pub use driver::{DistConfig, DistReport, DistRuntime, DistStats, ShutdownReport};
pub use kind::{Kind, KindFn, KindRegistry, CRASH_DROP, CRASH_TRUNCATE};
pub use plan::{fingerprint, Plan, PlanTask};
pub use proto::{InputSpec, Msg};
pub use wire::{WireError, WireValue, MAX_FRAME_BYTES, MAX_LIST_DEPTH};
pub use worker::{maybe_worker, run_worker, WorkerOpts};
