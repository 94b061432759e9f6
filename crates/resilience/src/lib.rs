//! Flow resilience: typed errors, bounded retry policies, and
//! checkpoint/resume — the layer that lets the resynthesis flow degrade
//! gracefully instead of crashing.
//!
//! The paper's own robustness mechanism is the Section III-C backtracking
//! procedure: when `PDesign()` rejects a resynthesized subcircuit, the flow
//! falls back to a smaller replacement set. This crate generalises that
//! discipline to the whole flow:
//!
//! * [`error`] — the [`FlowError`] hierarchy every flow-reachable failure
//!   path maps into, with an explicit recoverable/fatal split;
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
//! counter registry); `rsyn-core` and `rsyn-server` consume it, never the
//! other way around. It holds no failure-injection hooks: the flow's
//! recovery paths are the ones its own runs take (backtracking,
//! placement rejections, SAT decisions, checkpoint-write errors), and the
//! service's injected fates live in `rsyn-server`.

pub mod checkpoint;
pub mod control;
pub mod error;
pub mod retry;

pub use checkpoint::{Checkpoint, RemapRecord, ResumeCursor, CHECKPOINT_SCHEMA};
pub use control::{RunControl, StopCause};
pub use error::{FlowError, Severity};
pub use retry::BackoffPolicy;
