//! Job descriptions, content-addressed keys, and completion handles.
//!
//! A [`JobSpec`] bundles everything a flow execution needs — the seed
//! netlist, the circuit name it can be rebuilt from, the relaxation `q`
//! and the physical-design seed — plus two *scheduling* attributes (priority and deadline) that are
//! deliberately **not** part of the job identity: two tenants asking for
//! the same resynthesis at different priorities should share one
//! execution, not run it twice.
//!
//! [`job_key`] derives that identity content-addressed, reusing the
//! cross-run cache's [`StableHasher`] and the canonical netlist hash, so
//! net-id renumberings that leave the circuit unchanged still coalesce.
//! When the netlist has no canonical encoding the key is `None` and the
//! server falls back to a unique serial key — never a wrong coalescing,
//! at worst a missed sharing opportunity.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rsyn_atpg::fault::FaultStatus;
use rsyn_cache::StableHasher;
use rsyn_core::{FlowError, FlowReport, RunControl};
use rsyn_netlist::{library_hash, CanonicalView, Library, Netlist};

/// Scheduling priority of a job. Higher priorities pop first; a `High`
/// submission may preempt a running `Low`/`Normal` job (see the server's
/// preemption policy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work; preemptable, never preempts anyone.
    Low,
    /// The default.
    Normal,
    /// Latency-sensitive; may preempt lower-priority running jobs.
    High,
}

impl Priority {
    /// Stable lower-case label (used in logs).
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    fn from_u8(v: u8) -> Priority {
        match v {
            0 => Priority::Low,
            1 => Priority::Normal,
            _ => Priority::High,
        }
    }
}

/// One flow request: what to resynthesize and how urgently.
#[derive(Clone)]
pub struct JobSpec {
    /// The seed netlist the flow starts from.
    pub netlist: Netlist,
    /// Benchmark/circuit name (recorded in checkpoints; a resumed job
    /// validates it).
    pub circuit: String,
    /// Delay/power relaxation `q` in percent.
    pub q_percent: f64,
    /// Physical-design master seed override. `None` uses
    /// [`rsyn_core::DEFAULT_SEED`]; the two spell the same identity, but
    /// distinct explicit seeds are distinct jobs — different seeds reach
    /// different designs and must not falsely coalesce.
    pub seed: Option<u64>,
    /// Scheduling priority — not part of the job identity.
    pub priority: Priority,
    /// Relative deadline, measured from submission — not part of the job
    /// identity. A job past its deadline stops at the next iteration
    /// boundary (or is skipped outright if it never started).
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// A spec with default flow options (`q = 5`), `Normal` priority, and
    /// no deadline.
    pub fn new(netlist: Netlist, circuit: &str) -> Self {
        Self {
            netlist,
            circuit: circuit.to_string(),
            q_percent: 5.0,
            seed: None,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Sets the relaxation `q` in percent.
    pub fn with_q(mut self, q_percent: f64) -> Self {
        self.q_percent = q_percent;
        self
    }

    /// Sets an explicit physical-design master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets a relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Content-addressed identity of a job: canonical netlist hash, library
/// hash, circuit name, and every spec field that affects the result
/// (`q` and the seed; the resynthesis options are the flow's defaults).
/// Priority, deadline, and thread counts are deliberately excluded —
/// they change *scheduling*, not the answer — so identical in-flight
/// requests coalesce across tenants.
///
/// Returns `None` when the netlist has no canonical encoding (unknown
/// net/gate codes); the server then uses a unique non-coalescing key.
pub fn job_key(spec: &JobSpec, lib: &Library) -> Option<u128> {
    let view = spec.netlist.comb_view().ok()?;
    let canon = CanonicalView::of(&spec.netlist, &view)?;
    let mut h = StableHasher::new();
    h.write_str("server-job-key-v3");
    let vh = canon.hash();
    h.write_u64(vh as u64);
    h.write_u64((vh >> 64) as u64);
    let lh = library_hash(lib);
    h.write_u64(lh as u64);
    h.write_u64((lh >> 64) as u64);
    h.write_str(&spec.circuit);
    h.write_f64(spec.q_percent);
    // An omitted seed hashes as the default: "no override" and "explicit
    // default" are the same work and must coalesce.
    h.write_u64(spec.seed.unwrap_or(rsyn_core::DEFAULT_SEED));
    Some(h.finish())
}

/// Result-defining digest of a [`FlowReport`]: the fault-verdict
/// dictionary plus every headline metric, floats by bit pattern. Two
/// reports with equal digests accepted the same iteration sequence and
/// landed on the same design — this is the equivalence the storm gate
/// checks between server executions (including preempted-then-resumed
/// ones) and direct `rsyn_core::run` calls. Deliberately excludes
/// `replayed`/`checkpoints_written`/`trace` (they legitimately differ
/// between a resumed and an uninterrupted run) and global counters.
pub fn report_digest(report: &FlowReport) -> String {
    use std::fmt::Write as _;
    let verdicts: String = report
        .state
        .atpg
        .statuses
        .iter()
        .map(|s| match s {
            FaultStatus::Undetected => 'N',
            FaultStatus::Detected => 'D',
            FaultStatus::Undetectable => 'U',
            FaultStatus::Aborted => 'A',
        })
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "verdicts {verdicts}");
    let _ = writeln!(out, "accepted {}", report.accepted);
    let _ = writeln!(out, "aborted {}", report.aborted);
    let _ = writeln!(out, "undetectable {}", report.state.undetectable_count());
    let _ = writeln!(out, "s_max {}", report.state.s_max_size());
    let _ = writeln!(out, "coverage {:016x}", report.state.coverage().to_bits());
    let _ = writeln!(out, "delay_ps {:016x}", report.state.delay_ps().to_bits());
    let _ = writeln!(out, "power_uw {:016x}", report.state.power_uw().to_bits());
    out
}

/// Terminal outcome of a job, as observed through a [`JobHandle`].
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The flow ran to completion; all coalesced handles share the report.
    Completed(Arc<FlowReport>),
    /// The flow driver returned an error, or worker crashes exhausted
    /// the retry budget.
    Failed(FlowError),
    /// The owner cancelled the job before it finished.
    Cancelled,
    /// The job's deadline passed before it finished.
    DeadlineExceeded,
    /// The job was quarantined: its worker panicked or was declared lost
    /// too many times. Terminal — a poison pill is never requeued.
    Poisoned {
        /// Worker crashes/losses this job caused before quarantine.
        crashes: u32,
    },
}

impl JobOutcome {
    /// Stable lower-case label (used in logs).
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Completed(_) => "completed",
            JobOutcome::Failed(_) => "failed",
            JobOutcome::Cancelled => "cancelled",
            JobOutcome::DeadlineExceeded => "deadline",
            JobOutcome::Poisoned { .. } => "poisoned",
        }
    }

    /// The completed report, when there is one.
    pub fn report(&self) -> Option<&FlowReport> {
        match self {
            JobOutcome::Completed(report) => Some(report),
            _ => None,
        }
    }
}

/// Where a job currently is in its lifecycle.
pub(crate) enum JobPhase {
    /// In the priority queue (or between a failure and its requeue).
    Queued,
    /// Claimed by a worker.
    Running,
    /// Finished; the outcome is final.
    Done(JobOutcome),
}

/// The shared state behind every handle to one deduplicated job.
pub(crate) struct JobInner {
    /// Content-addressed identity (or a unique serial key).
    pub(crate) key: u128,
    pub(crate) circuit: String,
    pub(crate) netlist: Netlist,
    pub(crate) q_percent: f64,
    pub(crate) seed: Option<u64>,
    /// Relative deadline from the spec, kept for journaling (the armed
    /// absolute instant lives in `control`).
    pub(crate) deadline: Option<Duration>,
    /// Stop handle shared with the flow driver; the deadline is armed at
    /// submission time.
    pub(crate) control: RunControl,
    /// Failed execution attempts so far (retry budget accounting).
    pub(crate) attempts: AtomicU32,
    /// Worker crashes (panics) and watchdog losses this job caused; at
    /// the poison threshold the job is quarantined.
    pub(crate) crashes: AtomicU32,
    /// Claim epoch. The watchdog bumps it when it declares the running
    /// execution lost; the worker then discards its stale result.
    epoch: AtomicU64,
    /// Whether a `Checkpointed` journal record was already appended for
    /// this job (one is enough — it only flags that a resume is possible).
    pub(crate) checkpoint_logged: AtomicBool,
    /// Current effective priority; coalesced higher-priority submissions
    /// bump it (never lower it).
    priority: AtomicU8,
    phase: Mutex<JobPhase>,
    done_cv: Condvar,
}

impl JobInner {
    pub(crate) fn new(key: u128, spec: JobSpec) -> Self {
        let control = RunControl::new();
        if let Some(deadline) = spec.deadline {
            control.set_deadline(Instant::now() + deadline);
        }
        Self {
            key,
            circuit: spec.circuit,
            netlist: spec.netlist,
            q_percent: spec.q_percent,
            seed: spec.seed,
            deadline: spec.deadline,
            control,
            attempts: AtomicU32::new(0),
            crashes: AtomicU32::new(0),
            epoch: AtomicU64::new(0),
            checkpoint_logged: AtomicBool::new(false),
            priority: AtomicU8::new(spec.priority.as_u8()),
            phase: Mutex::new(JobPhase::Queued),
            done_cv: Condvar::new(),
        }
    }

    /// The current claim epoch (see [`JobInner::bump_epoch`]).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Invalidates the in-flight execution: the worker that claimed the
    /// job under the previous epoch must discard its result.
    pub(crate) fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn priority(&self) -> Priority {
        Priority::from_u8(self.priority.load(Ordering::SeqCst))
    }

    /// Raises the effective priority to `to` if it is currently lower.
    /// Returns true when the priority actually changed *and* the job is
    /// still queued — the caller then pushes a duplicate queue entry at
    /// the new priority (the stale one is skipped at pickup).
    pub(crate) fn raise_priority(&self, to: Priority) -> bool {
        let raised = self.priority.fetch_max(to.as_u8(), Ordering::SeqCst) < to.as_u8();
        raised && matches!(*self.phase_lock(), JobPhase::Queued)
    }

    /// Atomically claims the job for execution. False when another entry
    /// already claimed it (stale duplicate) or it is already done.
    pub(crate) fn begin_running(&self) -> bool {
        let mut phase = self.phase_lock();
        match *phase {
            JobPhase::Queued => {
                *phase = JobPhase::Running;
                true
            }
            _ => false,
        }
    }

    /// Puts the job back into the queued phase (retry / preemption /
    /// watchdog requeue). Must precede the queue push. Returns false —
    /// and changes nothing — when the job already finished: a terminal
    /// outcome is sticky and a done job must never be resurrected.
    pub(crate) fn mark_queued(&self) -> bool {
        let mut phase = self.phase_lock();
        if matches!(*phase, JobPhase::Done(_)) {
            return false;
        }
        *phase = JobPhase::Queued;
        true
    }

    /// Finalises the job and wakes every waiter. Returns true for the
    /// call that installed the outcome; later calls are ignored (first
    /// terminal outcome wins) and return false.
    ///
    /// `before_wake` runs under the phase lock after winning the
    /// install race and before the outcome becomes observable —
    /// `wait`/`try_outcome` need that lock to read the phase, so side
    /// effects in the closure (storing the terminal event for late
    /// subscribers) are guaranteed to land before any waiter can act on
    /// the outcome. Losing calls skip the closure.
    pub(crate) fn finish_with(&self, outcome: JobOutcome, before_wake: impl FnOnce()) -> bool {
        let mut phase = self.phase_lock();
        if matches!(*phase, JobPhase::Done(_)) {
            return false;
        }
        before_wake();
        *phase = JobPhase::Done(outcome);
        self.done_cv.notify_all();
        true
    }

    pub(crate) fn wait(&self) -> JobOutcome {
        let mut phase = self.phase_lock();
        loop {
            if let JobPhase::Done(outcome) = &*phase {
                return outcome.clone();
            }
            phase = self.done_cv.wait(phase).unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub(crate) fn try_outcome(&self) -> Option<JobOutcome> {
        match &*self.phase_lock() {
            JobPhase::Done(outcome) => Some(outcome.clone()),
            _ => None,
        }
    }

    fn phase_lock(&self) -> MutexGuard<'_, JobPhase> {
        self.phase.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A client's handle to a submitted (possibly coalesced) job.
///
/// Cloning shares the job. Note that [`JobHandle::cancel`] cancels the
/// *job*, which every coalesced submitter shares — multi-tenant callers
/// that need per-tenant cancellation should track it client-side.
#[derive(Clone)]
pub struct JobHandle {
    pub(crate) job: Arc<JobInner>,
}

impl JobHandle {
    /// The job's content-addressed key.
    pub fn key(&self) -> u128 {
        self.job.key
    }

    /// The job's current effective priority.
    pub fn priority(&self) -> Priority {
        self.job.priority()
    }

    /// Blocks until the job reaches a terminal outcome.
    pub fn wait(&self) -> JobOutcome {
        self.job.wait()
    }

    /// The outcome, if the job already finished.
    pub fn try_outcome(&self) -> Option<JobOutcome> {
        self.job.try_outcome()
    }

    /// Requests cancellation: a queued job is dropped at pickup, a
    /// running one stops at its next iteration boundary.
    pub fn cancel(&self) {
        self.job.control.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsyn_circuits::build_benchmark_with;
    use rsyn_core::FlowContext;

    fn spec(circuit: &str) -> (JobSpec, Arc<Library>) {
        let ctx = FlowContext::new(Library::osu018());
        let nl = build_benchmark_with(circuit, &ctx.lib, &ctx.mapper).expect("benchmark");
        (JobSpec::new(nl, circuit), ctx.lib.clone())
    }

    #[test]
    fn identical_specs_share_a_key_and_scheduling_attributes_do_not() {
        let (a, lib) = spec("sparc_ffu");
        let (b, _) = spec("sparc_ffu");
        let ka = job_key(&a, &lib).expect("canonical");
        assert_eq!(ka, job_key(&b, &lib).expect("canonical"), "same work, same key");

        let hurried = b.clone().with_priority(Priority::High).with_deadline(Duration::from_secs(1));
        assert_eq!(
            ka,
            job_key(&hurried, &lib).expect("canonical"),
            "priority and deadline are scheduling attributes, not identity"
        );

        let relaxed = b.with_q(7.5);
        assert_ne!(ka, job_key(&relaxed, &lib).expect("canonical"), "q changes the result");
    }

    #[test]
    fn seed_overrides_are_identity_but_the_default_coalesces() {
        let (a, lib) = spec("sparc_ffu");
        let ka = job_key(&a, &lib).expect("canonical");

        let explicit_default = a.clone().with_seed(rsyn_core::DEFAULT_SEED);
        assert_eq!(
            ka,
            job_key(&explicit_default, &lib).expect("canonical"),
            "an explicit default seed is the same work as no override"
        );

        let reseeded = a.clone().with_seed(0x5EED);
        let kr = job_key(&reseeded, &lib).expect("canonical");
        assert_ne!(ka, kr, "a different seed reaches a different design");
        let reseeded_again = a.with_seed(0x5EED);
        assert_eq!(kr, job_key(&reseeded_again, &lib).expect("canonical"));
    }

    #[test]
    fn priority_orders_and_bumps_monotonically() {
        assert!(Priority::Low < Priority::Normal && Priority::Normal < Priority::High);
        let (s, _) = spec("sparc_ffu");
        let job = JobInner::new(1, s.with_priority(Priority::Low));
        assert!(job.raise_priority(Priority::Normal), "raise while queued");
        assert_eq!(job.priority(), Priority::Normal);
        assert!(!job.raise_priority(Priority::Low), "never lowered");
        assert_eq!(job.priority(), Priority::Normal);
        assert!(job.begin_running());
        assert!(!job.raise_priority(Priority::High), "no requeue hint while running");
        assert_eq!(job.priority(), Priority::High, "but the level itself still rises");
    }

    #[test]
    fn phase_machine_claims_once_and_first_outcome_wins() {
        let (s, _) = spec("sparc_ffu");
        let job = JobInner::new(2, s);
        assert!(job.try_outcome().is_none());
        assert!(job.begin_running(), "queued job is claimable");
        assert!(!job.begin_running(), "stale duplicate entry is skipped");
        assert!(job.finish_with(JobOutcome::Cancelled, || {}), "first finish installs the outcome");
        assert!(
            !job.finish_with(JobOutcome::DeadlineExceeded, || {}),
            "later finishes are ignored"
        );
        let outcome = job.try_outcome().expect("done");
        assert_eq!(outcome.label(), "cancelled", "first terminal outcome wins");
        assert!(!job.begin_running(), "done job is not claimable");
        assert_eq!(job.wait().label(), "cancelled", "wait on a done job returns at once");
    }

    #[test]
    fn done_jobs_cannot_be_requeued_and_epochs_invalidate_claims() {
        let (s, _) = spec("sparc_ffu");
        let job = JobInner::new(3, s);
        assert!(job.begin_running());
        assert!(job.mark_queued(), "a live job requeues");
        assert!(job.begin_running());

        let claim = job.epoch();
        job.bump_epoch();
        assert_ne!(job.epoch(), claim, "a bumped epoch invalidates the claim");

        assert!(job.finish_with(JobOutcome::Poisoned { crashes: 3 }, || {}));
        assert!(!job.mark_queued(), "a terminal job is never resurrected");
        assert!(!job.begin_running());
        assert_eq!(job.wait().label(), "poisoned");
    }
}
