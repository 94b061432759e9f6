//! Deterministic failure injection — SYNFI's systematic-injection idea
//! applied to the flow itself.
//!
//! An [`InjectionPlan`] names the exact sites where the flow must fail:
//! the *n*-th `PDesign()` call rejects, the PODEM search for global fault
//! *i* of ATPG run *r* is skipped (the fault goes straight to the SAT
//! prover), shard *s* of run *r* errors, a
//! `PDesign()` call reports inflated timing, the *n*-th server worker
//! pickup crashes, the *n*-th flow checkpoint write fails, or the *n*-th
//! server submission is shed as if the queue were full. Sites are keyed
//! by deterministic serial ordinals (call counts, fault indices, shard
//! indices), never by wall-clock or thread identity, so an injected
//! failure fires at the same place on every run and every thread count.
//!
//! [`arm`] installs a plan process-globally and returns an [`ArmedPlan`]
//! guard; dropping the guard disarms injection. The guard also holds a
//! process-wide mutex so concurrent tests cannot observe each other's
//! plans. With no plan armed, the flow pays one relaxed atomic load per
//! query site.
//!
//! Every fired site bumps its `inject.fired.*` counter (see
//! [`FATE_COUNTERS`]) *and* a pause-immune tally readable via
//! [`ArmedPlan::fired_counts`] — the latter survives
//! `rsyn_observe::pause()` windows (checkpoint replay) that drop
//! counter increments process-wide.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Where and how the flow should be made to fail.
///
/// All ordinals are 0-based and deterministic: `pdesign` ordinals count
/// `physical_design_in` calls process-wide since arming; ATPG run ordinals
/// count `run_atpg` entries since arming; fault indices are positions in
/// the run's full fault list; shard indices are positions in the run's
/// deterministic shard split; worker-crash ordinals count job executions
/// picked up by server workers; checkpoint ordinals count flow checkpoint
/// writes; queue-full ordinals count server submissions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InjectionPlan {
    /// `physical_design_in` call ordinals that return a placement error.
    pub pdesign_rejects: BTreeSet<u64>,
    /// `physical_design_in` call ordinals whose reported critical delay is
    /// inflated, yielding accepted-but-constraint-violating candidates
    /// (the trigger for Section III-C backtracking).
    pub pdesign_inflations: BTreeSet<u64>,
    /// Delay multiplier (in percent) for inflated calls; 300 = 3×.
    pub inflation_percent: u64,
    /// `(atpg run ordinal, global fault index)` pairs whose PODEM attempt
    /// is skipped as if it had given up: the fault goes straight to the SAT
    /// prover, which exercises the path a genuine backtrack-limit hit
    /// takes. Consume-once.
    pub podem_aborts: BTreeSet<(u64, u64)>,
    /// `(atpg run ordinal, shard index)` pairs whose first execution
    /// fails; the engine's shard retry then recovers them.
    pub shard_failures: BTreeSet<(u64, u64)>,
    /// Server job-execution ordinals whose worker panics before running
    /// the flow; the server's `catch_unwind` containment requeues them.
    pub worker_crashes: BTreeSet<u64>,
    /// Flow checkpoint-write ordinals that fail with a checkpoint error;
    /// the driver absorbs the failure and keeps iterating.
    pub checkpoint_write_failures: BTreeSet<u64>,
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
        Self { inflation_percent: 300, ..Self::default() }
    }

    /// Rejects the `ordinal`-th `PDesign()` call.
    pub fn reject_pdesign(mut self, ordinal: u64) -> Self {
        self.pdesign_rejects.insert(ordinal);
        self
    }

    /// Inflates the reported critical delay of the `ordinal`-th
    /// `PDesign()` call by [`InjectionPlan::inflation_percent`].
    pub fn inflate_pdesign(mut self, ordinal: u64) -> Self {
        self.pdesign_inflations.insert(ordinal);
        self
    }

    /// Sets the delay inflation factor in percent (300 = 3×).
    pub fn inflation_percent(mut self, percent: u64) -> Self {
        self.inflation_percent = percent;
        self
    }

    /// Skips the PODEM attempt for `fault_index` during ATPG run `run`,
    /// sending the fault straight to the SAT prover.
    pub fn abort_podem(mut self, run: u64, fault_index: u64) -> Self {
        self.podem_aborts.insert((run, fault_index));
        self
    }

    /// Fails shard `shard` of ATPG run `run` on its first execution.
    pub fn fail_shard(mut self, run: u64, shard: u64) -> Self {
        self.shard_failures.insert((run, shard));
        self
    }

    /// Crashes the worker picking up the `ordinal`-th job execution.
    pub fn crash_worker(mut self, ordinal: u64) -> Self {
        self.worker_crashes.insert(ordinal);
        self
    }

    /// Fails the `ordinal`-th flow checkpoint write.
    pub fn fail_checkpoint_write(mut self, ordinal: u64) -> Self {
        self.checkpoint_write_failures.insert(ordinal);
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

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.pdesign_rejects.is_empty()
            && self.pdesign_inflations.is_empty()
            && self.podem_aborts.is_empty()
            && self.shard_failures.is_empty()
            && self.worker_crashes.is_empty()
            && self.checkpoint_write_failures.is_empty()
            && self.queue_full.is_empty()
            && self.torn_journal_writes.is_empty()
            && self.truncated_journal_writes.is_empty()
            && self.poison_jobs.is_empty()
            && self.stall_jobs.is_empty()
    }
}

/// Every `inject.fired.*` counter an armed plan can bump, one per fate.
/// The injection-site completeness test iterates this list to prove no
/// site has gone dead.
pub const FATE_COUNTERS: [&str; 11] = [
    "inject.fired.pdesign_reject",
    "inject.fired.pdesign_inflate",
    "inject.fired.podem_abort",
    "inject.fired.shard",
    "inject.fired.worker_crash",
    "inject.fired.checkpoint_write",
    "inject.fired.queue_full",
    "inject.fired.torn_journal",
    "inject.fired.journal_truncate",
    "inject.fired.poison_job",
    "inject.fired.worker_stall",
];

struct ActivePlan {
    plan: InjectionPlan,
    /// `(run, fault)` aborts already fired (consume-once).
    fired_aborts: BTreeSet<(u64, u64)>,
    /// `(run, shard)` failures already fired (consume-once).
    fired_shards: BTreeSet<(u64, u64)>,
    /// Pause-immune per-fate tallies, keyed by [`FATE_COUNTERS`] names.
    fired: BTreeMap<&'static str, u64>,
}

/// Fast-path gate: `false` means no plan is armed and every query returns
/// "do not inject" after a single atomic load.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Serial ordinal of `physical_design_in` calls since arming.
static PDESIGN_ORDINAL: AtomicU64 = AtomicU64::new(0);
/// Serial ordinal of `run_atpg` entries since arming.
static ATPG_ORDINAL: AtomicU64 = AtomicU64::new(0);
/// Serial ordinal of server job executions since arming.
static WORKER_ORDINAL: AtomicU64 = AtomicU64::new(0);
/// Serial ordinal of flow checkpoint writes since arming.
static CHECKPOINT_ORDINAL: AtomicU64 = AtomicU64::new(0);
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

/// Bumps the pause-immune tally under `guard`, then (after releasing the
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
    /// Pause-immune per-fate fired tallies, keyed by the
    /// [`FATE_COUNTERS`] names. Unlike the `inject.fired.*` counters,
    /// these survive process-global `rsyn_observe::pause()` windows, so
    /// they are the authoritative record of which sites actually fired.
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

/// Installs `plan` process-globally and resets the call ordinals.
///
/// Returns a guard; the plan is disarmed when it drops. Blocks until any
/// previously armed plan is dropped.
pub fn arm(plan: InjectionPlan) -> ArmedPlan {
    let session = session().lock().unwrap_or_else(PoisonError::into_inner);
    *active_lock() = Some(ActivePlan {
        plan,
        fired_aborts: BTreeSet::new(),
        fired_shards: BTreeSet::new(),
        fired: BTreeMap::new(),
    });
    PDESIGN_ORDINAL.store(0, Ordering::SeqCst);
    ATPG_ORDINAL.store(0, Ordering::SeqCst);
    WORKER_ORDINAL.store(0, Ordering::SeqCst);
    CHECKPOINT_ORDINAL.store(0, Ordering::SeqCst);
    SUBMIT_ORDINAL.store(0, Ordering::SeqCst);
    JOURNAL_ORDINAL.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    ArmedPlan { _session: session }
}

/// True when a plan is currently armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Claims the next ATPG run ordinal (0 when injection is disarmed).
///
/// Called once per `run_atpg` entry; the returned ordinal keys
/// [`should_abort_podem`] and [`should_fail_shard`] for that run.
pub fn next_atpg_run() -> u64 {
    if !is_armed() {
        return 0;
    }
    ATPG_ORDINAL.fetch_add(1, Ordering::SeqCst)
}

/// Decides the fate of the next `physical_design_in` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PdesignFate {
    /// Run normally.
    Normal,
    /// Return a forced placement rejection.
    Reject,
    /// Run normally, then multiply the reported critical delay by
    /// `percent`/100.
    InflateDelay {
        /// Delay multiplier in percent (300 = 3×).
        percent: u64,
    },
}

/// Consults the armed plan for the next `PDesign()` call, advancing the
/// call ordinal. Fires the `inject.fired.pdesign_*` counters.
pub fn pdesign_fate() -> PdesignFate {
    if !is_armed() {
        return PdesignFate::Normal;
    }
    let ordinal = PDESIGN_ORDINAL.fetch_add(1, Ordering::SeqCst);
    let guard = active_lock();
    let Some(active) = guard.as_ref() else { return PdesignFate::Normal };
    if active.plan.pdesign_rejects.contains(&ordinal) {
        record_fired(guard, "inject.fired.pdesign_reject");
        return PdesignFate::Reject;
    }
    if active.plan.pdesign_inflations.contains(&ordinal) {
        let percent = active.plan.inflation_percent;
        record_fired(guard, "inject.fired.pdesign_inflate");
        return PdesignFate::InflateDelay { percent };
    }
    PdesignFate::Normal
}

/// True when the PODEM attempt for `fault_index` in ATPG run `run` must be
/// skipped, as if it had given up: the engine sends the fault straight to
/// the SAT prover. Consume-once per site.
pub fn should_abort_podem(run: u64, fault_index: u64) -> bool {
    if !is_armed() {
        return false;
    }
    let mut guard = active_lock();
    let Some(active) = guard.as_mut() else { return false };
    let key = (run, fault_index);
    if active.plan.podem_aborts.contains(&key) && active.fired_aborts.insert(key) {
        record_fired(guard, "inject.fired.podem_abort");
        return true;
    }
    false
}

/// True when shard `shard` of ATPG run `run` must fail this execution.
/// Consume-once per site: the engine's retry of the same shard succeeds.
pub fn should_fail_shard(run: u64, shard: u64) -> bool {
    if !is_armed() {
        return false;
    }
    let mut guard = active_lock();
    let Some(active) = guard.as_mut() else { return false };
    let key = (run, shard);
    if active.plan.shard_failures.contains(&key) && active.fired_shards.insert(key) {
        record_fired(guard, "inject.fired.shard");
        return true;
    }
    false
}

/// True when the server worker picking up the next job execution must
/// panic, advancing the execution ordinal. The server's `catch_unwind`
/// containment turns the panic into a retry.
pub fn should_crash_worker() -> bool {
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

/// True when the next flow checkpoint write must fail, advancing the
/// write ordinal. The run driver absorbs the failure (the previous
/// checkpoint stays in place) and keeps iterating.
pub fn should_fail_checkpoint_write() -> bool {
    if !is_armed() {
        return false;
    }
    let ordinal = CHECKPOINT_ORDINAL.fetch_add(1, Ordering::SeqCst);
    let guard = active_lock();
    let Some(active) = guard.as_ref() else { return false };
    if active.plan.checkpoint_write_failures.contains(&ordinal) {
        record_fired(guard, "inject.fired.checkpoint_write");
        return true;
    }
    false
}

/// True when the next server submission must be shed as queue-full,
/// advancing the submission ordinal. Clients see an explicit `Shed`
/// verdict and retry with backoff.
pub fn should_shed_submit() -> bool {
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
pub enum JournalWriteFate {
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
pub fn journal_write_fate() -> JournalWriteFate {
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
pub enum JobFate {
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
pub fn job_fate(key: u128) -> JobFate {
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
        assert_eq!(pdesign_fate(), PdesignFate::Normal);
        assert!(!should_abort_podem(0, 0));
        assert!(!should_fail_shard(0, 0));
        assert!(!should_crash_worker());
        assert!(!should_fail_checkpoint_write());
        assert!(!should_shed_submit());
        assert_eq!(journal_write_fate(), JournalWriteFate::Full);
        assert_eq!(job_fate(42), JobFate::Normal);
    }

    #[test]
    fn plan_fires_at_exact_ordinals_and_consumes_once() {
        let plan = InjectionPlan::new()
            .reject_pdesign(1)
            .inflate_pdesign(2)
            .abort_podem(0, 7)
            .fail_shard(1, 0);
        let armed = arm(plan);
        assert!(is_armed());

        assert_eq!(pdesign_fate(), PdesignFate::Normal); // ordinal 0
        assert_eq!(pdesign_fate(), PdesignFate::Reject); // ordinal 1
        assert_eq!(pdesign_fate(), PdesignFate::InflateDelay { percent: 300 });
        assert_eq!(pdesign_fate(), PdesignFate::Normal);

        assert!(should_abort_podem(0, 7));
        assert!(!should_abort_podem(0, 7), "abort sites are consume-once");
        assert!(!should_abort_podem(0, 8));

        assert!(should_fail_shard(1, 0));
        assert!(!should_fail_shard(1, 0), "shard sites are consume-once");

        let fired = armed.fired_counts();
        assert_eq!(fired.get("inject.fired.pdesign_reject"), Some(&1));
        assert_eq!(fired.get("inject.fired.pdesign_inflate"), Some(&1));
        assert_eq!(fired.get("inject.fired.podem_abort"), Some(&1));
        assert_eq!(fired.get("inject.fired.shard"), Some(&1));

        drop(armed);
        assert!(!is_armed());
        assert_eq!(pdesign_fate(), PdesignFate::Normal);
    }

    #[test]
    fn server_fates_fire_at_exact_ordinals() {
        let plan = InjectionPlan::new().crash_worker(1).fail_checkpoint_write(0).reject_submit(2);
        assert!(!plan.is_empty());
        let armed = arm(plan);

        assert!(!should_crash_worker()); // execution 0
        assert!(should_crash_worker()); // execution 1
        assert!(!should_crash_worker());

        assert!(should_fail_checkpoint_write()); // write 0
        assert!(!should_fail_checkpoint_write());

        assert!(!should_shed_submit()); // submit 0
        assert!(!should_shed_submit()); // submit 1
        assert!(should_shed_submit()); // submit 2
        assert!(!should_shed_submit());

        let fired = armed.fired_counts();
        assert_eq!(fired.get("inject.fired.worker_crash"), Some(&1));
        assert_eq!(fired.get("inject.fired.checkpoint_write"), Some(&1));
        assert_eq!(fired.get("inject.fired.queue_full"), Some(&1));
    }

    #[test]
    fn journal_fates_fire_at_exact_append_ordinals() {
        let plan = InjectionPlan::new().tear_journal_write(0).truncate_journal_write(2);
        assert!(!plan.is_empty());
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
        assert!(!plan.is_empty());
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
