//! Cooperative run control: cancellation, deadlines, and preemption.
//!
//! A [`RunControl`] is a cheap cloneable handle shared between the party
//! that owns a flow execution (a server worker, a test) and the flow
//! driver itself. The driver polls it at *iteration boundaries* — right
//! after an accepted resynthesis iteration has been checkpointed — and
//! stops early when a stop has been requested, reporting the
//! [`StopCause`]. Stopping at checkpoint boundaries is what makes
//! preemption lossless: the latest checkpoint replays byte-identically
//! via `run_resumed`, so a preempted job resumes exactly where it left
//! off.
//!
//! The protocol is cooperative: a flow that never accepts an iteration
//! (or is between polls) runs to its next boundary before noticing the
//! request. Cancellation is sticky; preemption is a one-shot edge that
//! the poll consumes, so a requeued job does not immediately stop again.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Why a flow stopped before running to completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCause {
    /// The owner cancelled the run; its partial result is discarded.
    Cancelled,
    /// The run's deadline passed; its partial result is discarded.
    Deadline,
    /// The run was preempted to free a worker; it is expected to resume
    /// later from its latest checkpoint.
    Preempted,
}

impl StopCause {
    /// Stable lower-case label (used in counters and logs).
    pub fn label(self) -> &'static str {
        match self {
            StopCause::Cancelled => "cancelled",
            StopCause::Deadline => "deadline",
            StopCause::Preempted => "preempted",
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    preempt: AtomicBool,
    deadline: Mutex<Option<Instant>>,
    pulses: AtomicU64,
}

/// Shared stop-request handle polled by the flow driver.
///
/// Cloning shares the underlying state. The default handle never
/// requests a stop, so plumbing it through [`Default`]-constructed
/// options costs one relaxed load per poll.
#[derive(Clone, Debug, Default)]
pub struct RunControl {
    inner: Arc<Inner>,
}

impl RunControl {
    /// A fresh handle with nothing requested.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests permanent cancellation. Wins over every other cause and
    /// cannot be undone.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// True once [`RunControl::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Requests preemption: stop at the next iteration boundary, leaving
    /// the latest checkpoint behind for a later resume.
    pub fn preempt(&self) {
        self.inner.preempt.store(true, Ordering::SeqCst);
    }

    /// Clears a pending (un-consumed) preemption request, e.g. before
    /// requeueing a job that already stopped for it.
    pub fn clear_preempt(&self) {
        self.inner.preempt.store(false, Ordering::SeqCst);
    }

    /// True while a preemption request is pending (not yet consumed by
    /// [`RunControl::poll`]). Unlike `poll`, this does not consume the
    /// edge — schedulers use it to avoid re-signalling the same victim.
    pub fn preempt_pending(&self) -> bool {
        self.inner.preempt.load(Ordering::SeqCst)
    }

    /// Sets (or moves) the absolute deadline.
    pub fn set_deadline(&self, at: Instant) {
        *self.deadline_lock() = Some(at);
    }

    /// True when a deadline is set and already in the past.
    pub fn deadline_passed(&self) -> bool {
        self.deadline_lock().is_some_and(|at| Instant::now() >= at)
    }

    /// Checks for a pending stop request, strongest cause first:
    /// cancellation, then deadline expiry, then preemption. A returned
    /// `Preempted` consumes the preemption edge; cancellation and an
    /// expired deadline keep reporting on every poll.
    pub fn poll(&self) -> Option<StopCause> {
        self.inner.pulses.fetch_add(1, Ordering::Relaxed);
        if self.is_cancelled() {
            return Some(StopCause::Cancelled);
        }
        if self.deadline_passed() {
            return Some(StopCause::Deadline);
        }
        if self.inner.preempt.swap(false, Ordering::SeqCst) {
            return Some(StopCause::Preempted);
        }
        None
    }

    /// Number of [`RunControl::poll`] calls so far — a liveness pulse.
    ///
    /// The flow driver polls at iteration boundaries, so a rising count
    /// proves the run is still making progress. The server's stuck-worker
    /// watchdog folds this into each worker's heartbeat: a job whose
    /// pulse count stops rising has stopped reaching boundaries.
    pub fn pulse_count(&self) -> u64 {
        self.inner.pulses.load(Ordering::Relaxed)
    }

    fn deadline_lock(&self) -> std::sync::MutexGuard<'_, Option<Instant>> {
        self.inner.deadline.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_handle_never_stops() {
        let c = RunControl::new();
        assert_eq!(c.poll(), None);
        assert_eq!(c.poll(), None);
        assert!(!c.is_cancelled());
    }

    #[test]
    fn cancel_is_sticky_and_shared_across_clones() {
        let c = RunControl::new();
        let clone = c.clone();
        clone.cancel();
        assert_eq!(c.poll(), Some(StopCause::Cancelled));
        assert_eq!(c.poll(), Some(StopCause::Cancelled), "cancel reports forever");
    }

    #[test]
    fn preempt_is_consumed_by_poll() {
        let c = RunControl::new();
        c.preempt();
        assert_eq!(c.poll(), Some(StopCause::Preempted));
        assert_eq!(c.poll(), None, "the edge is one-shot");
        c.preempt();
        assert!(c.preempt_pending(), "pending query does not consume");
        assert!(c.preempt_pending());
        c.clear_preempt();
        assert!(!c.preempt_pending());
        assert_eq!(c.poll(), None, "cleared before being observed");
    }

    #[test]
    fn deadline_expiry_reports_and_cancel_outranks_it() {
        let c = RunControl::new();
        c.set_deadline(Instant::now() + Duration::from_secs(3600));
        assert_eq!(c.poll(), None, "future deadline does not stop");
        c.set_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(c.poll(), Some(StopCause::Deadline));
        assert_eq!(c.poll(), Some(StopCause::Deadline), "expired deadline persists");
        c.cancel();
        assert_eq!(c.poll(), Some(StopCause::Cancelled), "cancel wins");
    }

    #[test]
    fn preempt_pending_is_purely_observational() {
        let c = RunControl::new();
        c.preempt();
        // Any number of pending queries later, the edge must still be
        // there for poll — and visible through clones.
        for _ in 0..10 {
            assert!(c.preempt_pending());
        }
        assert!(c.clone().preempt_pending(), "clones share the pending edge");
        assert_eq!(c.poll(), Some(StopCause::Preempted));
        assert!(!c.preempt_pending(), "poll consumed the edge");
    }

    #[test]
    fn pulse_count_rises_once_per_poll_across_clones() {
        let c = RunControl::new();
        assert_eq!(c.pulse_count(), 0);
        let clone = c.clone();
        let _ = clone.poll();
        let _ = c.poll();
        assert_eq!(c.pulse_count(), 2, "polls pulse regardless of outcome");
        c.cancel();
        let _ = c.poll();
        assert_eq!(clone.pulse_count(), 3, "stop-reporting polls still pulse");
        assert!(!c.preempt_pending(), "pending query is not a poll");
        assert_eq!(c.pulse_count(), 3);
    }

    #[test]
    fn stop_cause_labels_are_stable() {
        assert_eq!(StopCause::Cancelled.label(), "cancelled");
        assert_eq!(StopCause::Deadline.label(), "deadline");
        assert_eq!(StopCause::Preempted.label(), "preempted");
    }
}
