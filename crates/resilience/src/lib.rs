//! Flow resilience: typed errors, deterministic failure injection, bounded
//! retry policies, and checkpoint/resume — the layer that lets the
//! resynthesis flow degrade gracefully instead of crashing.
//!
//! The paper's own robustness mechanism is the Section III-C backtracking
//! procedure: when `PDesign()` rejects a resynthesized subcircuit, the flow
//! falls back to a smaller replacement set. This crate generalises that
//! discipline to the whole flow:
//!
//! * [`error`] — the [`FlowError`] hierarchy every flow-reachable failure
//!   path maps into, with an explicit recoverable/fatal split;
//! * [`inject`] — a deterministic failure-injection registry (in the
//!   spirit of SYNFI's systematic pre-silicon fault injection): keyed by
//!   the run seed, it forces `PDesign()` rejections, PODEM aborts,
//!   timing inflation and server-side failures at chosen call ordinals
//!   so recovery paths can be exercised end-to-end in CI;
//! * [`retry`] — the deterministic, jittered [`BackoffPolicy`] the flow
//!   service spaces its retries with;
//! * [`checkpoint`] — the serialised state of the iterative resynthesis
//!   loop (replaced-gate log, fault-verdict dictionary, iteration cursor,
//!   deterministic counters), written after every accepted iteration so
//!   `run_resumed()` can restart byte-identically;
//! * [`control`] — the [`RunControl`] handle for cooperative
//!   cancellation, deadlines, and checkpoint-backed preemption, polled by
//!   the run driver at iteration boundaries.
//!
//! The crate depends only on `rsyn-observe` (for the JSON codec and the
//! counter registry); the flow crates (`rsyn-atpg`, `rsyn-pdesign`,
//! `rsyn-core`) consume it, never the other way around.

pub mod checkpoint;
pub mod control;
pub mod error;
pub mod inject;
pub mod retry;

pub use checkpoint::{Checkpoint, RemapRecord, ResumeCursor, CHECKPOINT_SCHEMA};
pub use control::{RunControl, StopCause};
pub use error::{FlowError, Severity};
pub use inject::{ArmedPlan, InjectionPlan};
pub use retry::BackoffPolicy;
