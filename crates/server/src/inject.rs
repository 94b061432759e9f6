//! Deterministic failure injection into the flow service — SYNFI's
//! systematic-injection idea applied to the server's own containment.
//!
//! An [`InjectionPlan`] names the exact sites where the service must
//! fail: the *n*-th worker pickup crashes, the *n*-th submission is shed
//! as if the queue were full, the *n*-th journal append is torn or
//! truncated, and the jobs with given keys panic (poison) or stall on
//! every execution. Sites are keyed by deterministic serial ordinals or
//! by content-addressed job keys, never by wall-clock or thread
//! identity, so an injected failure fires at the same place on every
//! run. The flow itself (`rsyn-core` and below) has no injection sites:
//! its recovery paths are the ones its own runs take.
//!
//! [`arm`] installs a plan process-globally and returns an [`ArmedPlan`]
//! guard; dropping the guard disarms injection. The guard also holds a
//! process-wide mutex so concurrent tests cannot observe each other's
//! plans. With no plan armed, the server pays one relaxed atomic load per
//! query site.
//!
//! Every fired site bumps its `inject.fired.*` counter (see
//! [`FATE_COUNTERS`]) in the current `rsyn_observe` scope *and* a
//! process-wide tally readable via [`ArmedPlan::fired_counts`] — the
//! latter counts across scopes, and across the counter restore of a
//! checkpoint resume.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Where and how the service should be made to fail.
///
/// All ordinals are 0-based and count since arming: worker-crash
/// ordinals count job executions picked up by server workers;
/// queue-full ordinals count server submissions; journal ordinals count
/// journal record appends.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InjectionPlan {
    /// Server job-execution ordinals whose worker panics before running
    /// the flow; the server's `catch_unwind` containment requeues them.
    pub worker_crashes: BTreeSet<u64>,
    /// Server submission ordinals shed as if the queue were at capacity;
    /// clients observe an explicit `Shed` verdict and may retry.
    pub queue_full: BTreeSet<u64>,
    /// Journal append ordinals torn mid-record (roughly half the encoded
    /// bytes reach disk), as a crash during the write would leave them.
    pub torn_journal_writes: BTreeSet<u64>,
    /// Journal append ordinals truncated by one byte — the subtler form
    /// of the same damage, caught only by the record checksum.
    pub truncated_journal_writes: BTreeSet<u64>,
    /// Content-addressed job keys whose every execution panics — the
    /// poison-pill tenant the quarantine must park. Keyed by job key, not
    /// ordinal, so the fate follows the job across restarts and requeues.
    pub poison_jobs: BTreeSet<u128>,
    /// Content-addressed job keys whose worker stalls (stops beating)
    /// instead of running the flow; the watchdog must declare them lost.
    pub stall_jobs: BTreeSet<u128>,
}

impl InjectionPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Crashes the worker picking up the `ordinal`-th job execution.
    pub fn crash_worker(mut self, ordinal: u64) -> Self {
        self.worker_crashes.insert(ordinal);
        self
    }

    /// Sheds the `ordinal`-th server submission as queue-full.
    pub fn reject_submit(mut self, ordinal: u64) -> Self {
        self.queue_full.insert(ordinal);
        self
    }

    /// Tears the `ordinal`-th journal append mid-record.
    pub fn tear_journal_write(mut self, ordinal: u64) -> Self {
        self.torn_journal_writes.insert(ordinal);
        self
    }

    /// Truncates the `ordinal`-th journal append by its final byte.
    pub fn truncate_journal_write(mut self, ordinal: u64) -> Self {
        self.truncated_journal_writes.insert(ordinal);
        self
    }

    /// Makes every execution of job `key` panic (poison pill).
    pub fn poison_job(mut self, key: u128) -> Self {
        self.poison_jobs.insert(key);
        self
    }

    /// Makes every execution of job `key` stall without heartbeats.
    pub fn stall_job(mut self, key: u128) -> Self {
        self.stall_jobs.insert(key);
        self
    }
}

/// Every `inject.fired.*` counter an armed plan can bump, one per fate.
/// The injection-site completeness test iterates this list to prove no
/// site has gone dead.
pub const FATE_COUNTERS: [&str; 6] = [
    "inject.fired.worker_crash",
    "inject.fired.queue_full",
    "inject.fired.torn_journal",
    "inject.fired.journal_truncate",
    "inject.fired.poison_job",
    "inject.fired.worker_stall",
];

struct ActivePlan {
    plan: InjectionPlan,
    /// Process-wide per-fate tallies, keyed by [`FATE_COUNTERS`] names.
    fired: BTreeMap<&'static str, u64>,
}

/// Fast-path gate: `false` means no plan is armed and every query returns
/// "do not inject" after a single atomic load.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Serial ordinal of server job executions since arming.
static WORKER_ORDINAL: AtomicU64 = AtomicU64::new(0);
/// Serial ordinal of server submissions since arming.
static SUBMIT_ORDINAL: AtomicU64 = AtomicU64::new(0);
/// Serial ordinal of journal record appends since arming.
static JOURNAL_ORDINAL: AtomicU64 = AtomicU64::new(0);

fn active() -> &'static Mutex<Option<ActivePlan>> {
    static ACTIVE: OnceLock<Mutex<Option<ActivePlan>>> = OnceLock::new();
    ACTIVE.get_or_init(|| Mutex::new(None))
}

fn active_lock() -> MutexGuard<'static, Option<ActivePlan>> {
    active().lock().unwrap_or_else(PoisonError::into_inner)
}

fn session() -> &'static Mutex<()> {
    static SESSION: OnceLock<Mutex<()>> = OnceLock::new();
    SESSION.get_or_init(|| Mutex::new(()))
}

fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Bumps the process-wide tally under `guard`, then (after releasing the
/// lock) the deterministic counter of the same name.
fn record_fired(mut guard: MutexGuard<'static, Option<ActivePlan>>, name: &'static str) {
    if let Some(active) = guard.as_mut() {
        *active.fired.entry(name).or_insert(0) += 1;
    }
    drop(guard);
    rsyn_observe::add(name, 1);
}

/// Guard returned by [`arm`]; injection stays active until it drops.
///
/// Holding the guard also holds a process-wide session lock, serialising
/// tests that arm plans against each other.
pub struct ArmedPlan {
    _session: MutexGuard<'static, ()>,
}

impl ArmedPlan {
    /// Per-fate fired tallies since arming, keyed by the
    /// [`FATE_COUNTERS`] names. Unlike the `inject.fired.*` counters,
    /// which land in the scope a site fired in (a server job's own
    /// scope, replaced by its checkpoint snapshot on resume), these are
    /// the process-wide tally across scopes and resumes: the
    /// authoritative record of which sites actually fired.
    pub fn fired_counts(&self) -> BTreeMap<&'static str, u64> {
        active_lock().as_ref().map(|a| a.fired.clone()).unwrap_or_default()
    }
}

impl Drop for ArmedPlan {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *active_lock() = None;
    }
}

/// Installs `plan` process-globally and resets the ordinals.
///
/// Returns a guard; the plan is disarmed when it drops. Blocks until any
/// previously armed plan is dropped.
pub fn arm(plan: InjectionPlan) -> ArmedPlan {
    let session = session().lock().unwrap_or_else(PoisonError::into_inner);
    *active_lock() = Some(ActivePlan { plan, fired: BTreeMap::new() });
    WORKER_ORDINAL.store(0, Ordering::SeqCst);
    SUBMIT_ORDINAL.store(0, Ordering::SeqCst);
    JOURNAL_ORDINAL.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    ArmedPlan { _session: session }
}

/// True when the server worker picking up the next job execution must
/// panic, advancing the execution ordinal. The server's `catch_unwind`
/// containment turns the panic into a retry.
pub(crate) fn should_crash_worker() -> bool {
    if !is_armed() {
        return false;
    }
    let ordinal = WORKER_ORDINAL.fetch_add(1, Ordering::SeqCst);
    let guard = active_lock();
    let Some(active) = guard.as_ref() else { return false };
    if active.plan.worker_crashes.contains(&ordinal) {
        record_fired(guard, "inject.fired.worker_crash");
        return true;
    }
    false
}

/// True when the next server submission must be shed as queue-full,
/// advancing the submission ordinal. Clients see an explicit `Shed`
/// verdict and retry with backoff.
pub(crate) fn should_shed_submit() -> bool {
    if !is_armed() {
        return false;
    }
    let ordinal = SUBMIT_ORDINAL.fetch_add(1, Ordering::SeqCst);
    let guard = active_lock();
    let Some(active) = guard.as_ref() else { return false };
    if active.plan.queue_full.contains(&ordinal) {
        record_fired(guard, "inject.fired.queue_full");
        return true;
    }
    false
}

/// Decides the fate of the next journal record append.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum JournalWriteFate {
    /// Write the whole record.
    Full,
    /// Write roughly half the record, then stop — a crash mid-write.
    Torn,
    /// Write all but the final byte — damage only the checksum catches.
    Truncated,
}

/// Consults the armed plan for the next journal append, advancing the
/// append ordinal. Fires `inject.fired.torn_journal` /
/// `inject.fired.journal_truncate`.
pub(crate) fn journal_write_fate() -> JournalWriteFate {
    if !is_armed() {
        return JournalWriteFate::Full;
    }
    let ordinal = JOURNAL_ORDINAL.fetch_add(1, Ordering::SeqCst);
    let guard = active_lock();
    let Some(active) = guard.as_ref() else { return JournalWriteFate::Full };
    if active.plan.torn_journal_writes.contains(&ordinal) {
        record_fired(guard, "inject.fired.torn_journal");
        return JournalWriteFate::Torn;
    }
    if active.plan.truncated_journal_writes.contains(&ordinal) {
        record_fired(guard, "inject.fired.journal_truncate");
        return JournalWriteFate::Truncated;
    }
    JournalWriteFate::Full
}

/// Decides the fate of one execution of a job, by content-addressed key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum JobFate {
    /// Run normally.
    Normal,
    /// Panic before running the flow (every execution — a poison pill).
    Poison,
    /// Stall without heartbeats until declared lost.
    Stall,
}

/// Consults the armed plan for an execution of job `key`. Keyed by the
/// job's content address rather than an ordinal so the fate is stable
/// across requeues and process restarts. Fires `inject.fired.poison_job`
/// / `inject.fired.worker_stall` once per afflicted execution.
pub(crate) fn job_fate(key: u128) -> JobFate {
    if !is_armed() {
        return JobFate::Normal;
    }
    let guard = active_lock();
    let Some(active) = guard.as_ref() else { return JobFate::Normal };
    if active.plan.poison_jobs.contains(&key) {
        record_fired(guard, "inject.fired.poison_job");
        return JobFate::Poison;
    }
    if active.plan.stall_jobs.contains(&key) {
        record_fired(guard, "inject.fired.worker_stall");
        return JobFate::Stall;
    }
    JobFate::Normal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_queries_inject_nothing() {
        // No plan armed in this test; all sites must be pass-through. Hold
        // the session so no parallel test arms a plan (or has its ordinals
        // consumed) meanwhile.
        let _session = session().lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!should_crash_worker());
        assert!(!should_shed_submit());
        assert_eq!(journal_write_fate(), JournalWriteFate::Full);
        assert_eq!(job_fate(42), JobFate::Normal);
    }

    #[test]
    fn server_fates_fire_at_exact_ordinals() {
        let plan = InjectionPlan::new().crash_worker(1).reject_submit(2);
        let armed = arm(plan);

        assert!(!should_crash_worker()); // execution 0
        assert!(should_crash_worker()); // execution 1
        assert!(!should_crash_worker());

        assert!(!should_shed_submit()); // submit 0
        assert!(!should_shed_submit()); // submit 1
        assert!(should_shed_submit()); // submit 2
        assert!(!should_shed_submit());

        let fired = armed.fired_counts();
        assert_eq!(fired.get("inject.fired.worker_crash"), Some(&1));
        assert_eq!(fired.get("inject.fired.queue_full"), Some(&1));

        drop(armed);
        assert!(!is_armed());
        assert!(!should_crash_worker());
    }

    #[test]
    fn journal_fates_fire_at_exact_append_ordinals() {
        let plan = InjectionPlan::new().tear_journal_write(0).truncate_journal_write(2);
        let armed = arm(plan);

        assert_eq!(journal_write_fate(), JournalWriteFate::Torn); // append 0
        assert_eq!(journal_write_fate(), JournalWriteFate::Full); // append 1
        assert_eq!(journal_write_fate(), JournalWriteFate::Truncated); // append 2
        assert_eq!(journal_write_fate(), JournalWriteFate::Full);

        let fired = armed.fired_counts();
        assert_eq!(fired.get("inject.fired.torn_journal"), Some(&1));
        assert_eq!(fired.get("inject.fired.journal_truncate"), Some(&1));
    }

    #[test]
    fn job_fates_follow_the_key_across_executions() {
        let plan = InjectionPlan::new().poison_job(7).stall_job(9);
        let armed = arm(plan);

        assert_eq!(job_fate(7), JobFate::Poison);
        assert_eq!(job_fate(7), JobFate::Poison, "poison sticks to every execution");
        assert_eq!(job_fate(9), JobFate::Stall);
        assert_eq!(job_fate(8), JobFate::Normal);

        let fired = armed.fired_counts();
        assert_eq!(fired.get("inject.fired.poison_job"), Some(&2));
        assert_eq!(fired.get("inject.fired.worker_stall"), Some(&1));
    }
}
