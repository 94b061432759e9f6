//! Fault-tolerant multi-tenant flow service.
//!
//! Turns the single-shot resilient flow entry points of `rsyn-core`
//! ([`run`](fn@rsyn_core::run) / [`run_resumed`](rsyn_core::run_resumed))
//! into a long-lived service: a bounded worker pool pulls (netlist,
//! options) jobs from a priority queue and executes them with the full
//! containment discipline a shared service needs.
//!
//! * **Coalescing** — jobs are identified by a content-addressed key
//!   (reusing the `rsyn-cache` stable hash over the canonical netlist),
//!   so identical in-flight requests from different tenants share one
//!   execution and one [`JobOutcome`].
//! * **Deadlines & cancellation** — each job carries a
//!   [`RunControl`](rsyn_core::RunControl) the flow driver polls at
//!   iteration boundaries; expired or cancelled jobs stop cooperatively.
//! * **Backoff retry** — contained worker panics and watchdog losses
//!   retry under the deterministic jittered [`BackoffPolicy`], keyed by
//!   the job key so schedules are replayable. A
//!   [`FlowError`](rsyn_core::FlowError) the driver returns ends the job
//!   `Failed` at once: it follows from the job's input, so a retry would
//!   reproduce it.
//! * **Checkpoint-backed preemption** — a `High` submission arriving at a
//!   saturated pool preempts the lowest-priority running job at its next
//!   checkpoint boundary; the victim requeues and later resumes
//!   byte-identically (same manifests as an uninterrupted run).
//! * **Panic containment** — a worker panic is caught, the job requeued;
//!   the pool never shrinks.
//! * **Graceful degradation** — the client queue path is bounded; under
//!   saturation submissions shed with an explicit
//!   [`SubmitVerdict::Shed`] instead of queueing without bound.
//!
//! * **Crash durability** — with a journal directory configured, every
//!   job state transition is written ahead to checksummed, rotating
//!   journal segments; [`Server::recover`] replays them on restart,
//!   re-admitting incomplete jobs (which resume from their checkpoints)
//!   so a process crash loses no accepted work.
//! * **Poison-job quarantine** — a job that crashes its worker
//!   repeatedly is parked with a terminal [`JobOutcome::Poisoned`]
//!   verdict instead of being requeued forever.
//! * **Stuck-worker watchdog** — a heartbeat-monitored running set; a
//!   job past its deadline on a non-beating worker is declared lost,
//!   its attempt burned, and the job requeued or quarantined.
//! * **Live event plane** — every lifecycle transition (and the flow's
//!   own deterministic progress) streams to the event bus of the scope
//!   the server was started in;
//!   [`Server::subscribe`] tails one job with a seeded terminal for
//!   late subscribers, [`Server::metrics_snapshot`] reads counters
//!   mid-run without double-counting at shutdown.
//!
//! * **Failure injection** — [`inject`] arms deterministic server fates
//!   (worker crashes, queue-full sheds, torn and truncated journal
//!   appends, poison and stalled jobs) so each containment path above
//!   runs in tests and storms; the flow crates carry no such hooks.
//!
//! The `server_storm` bin in `rsyn-bench` hammers all of this at once
//! under failure injection and gates on zero lost jobs plus result
//! equivalence with direct `rsyn_core::run` calls (compare
//! [`report_digest`]); the `crash_storm` bin adds real process-level
//! SIGKILLs across recover generations and asserts the conservation
//! law — every accepted job terminal exactly once.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod inject;
pub mod job;
pub mod journal;
mod queue;
mod retry;
pub mod server;

pub use job::{job_key, report_digest, JobHandle, JobOutcome, JobSpec, Priority};
pub use journal::{
    digest_fingerprint, replay, AcceptedSpec, JobJournal, JournalEvent, Replay, ReplayedJob,
    TerminalKind,
};
pub use retry::BackoffPolicy;
pub use server::{
    MetricsSnapshot, RecoveryReport, Server, ServerConfig, ServerStats, SubmitVerdict,
};
