//! The flow service itself: worker pool, scheduling, fault containment.
//!
//! # Lifecycle of a submission
//!
//! 1. `submit` derives the job's content-addressed key; an identical
//!    in-flight job coalesces (sharing one execution and outcome).
//! 2. Fresh jobs go through the *bounded* client queue path; at capacity
//!    the submission is shed with an explicit verdict instead of growing
//!    an unbounded backlog.
//! 3. A worker claims the job, builds `FlowOptions` with the job's
//!    [`RunControl`](rsyn_core::RunControl) (deadline armed at
//!    submission) and a per-job checkpoint directory, and runs the flow —
//!    resuming from the latest checkpoint when one exists.
//! 4. Failures are contained: a worker panic is caught with
//!    `catch_unwind`, and panics and watchdog losses retry with
//!    deterministic jittered exponential backoff (`RETRY_BACKOFF`) until
//!    `MAX_ATTEMPTS` are spent. An error the flow driver returns ends the
//!    job `Failed` at once: it follows from the job's input, so a retry
//!    would reproduce it. A preempted job requeues at its current attempt
//!    and resumes byte-identically from its checkpoint.
//!    A job that crashes its worker [`ServerConfig::poison_threshold`]
//!    times is quarantined with a terminal
//!    [`JobOutcome::Poisoned`] verdict —
//!    the cap holds even when the retry budget would allow more requeues.
//!
//! # Crash durability
//!
//! With [`ServerConfig::journal_dir`] set (or `RSYN_JOURNAL_DIR` in the
//! environment), every state transition is appended to a write-ahead
//! journal (see [`crate::journal`]) *before* the transition is relied
//! upon. [`Server::recover`] replays the journal at startup: jobs with a
//! terminal record are left terminal, jobs without one are re-admitted
//! at their recorded priority and — when a checkpoint record exists —
//! resume byte-identically through the normal `run_resumed` path.
//! Journal appends are fail-soft: an I/O error degrades durability (and
//! bumps `server.journal.write_err`), it never takes down the service.
//! With no journal configured the server behaves exactly as before —
//! nothing is written and recovery has nothing to replay.
//!
//! Recovery also **compacts** the journal: every surviving fact (each
//! re-admission and its checkpoint flag) is first rewritten into the
//! fresh post-recovery segment chain, and only then — and only if that
//! rewrite saw no damage or write errors — are the pre-recovery segments
//! deleted. Terminal history does not
//! survive compaction; auditors that need it must read the journal
//! before the next recovery. Segments removed are tallied as
//! `server.journal.compacted`.
//!
//! # Stuck-worker watchdog
//!
//! Each worker bumps a heartbeat around every pickup and completion, and
//! every running job's `RunControl` pulses at iteration boundaries. The
//! watchdog thread (interval [`ServerConfig::watchdog_interval`]) scans
//! the running set: a job past its deadline whose combined beat has not
//! moved across two consecutive scans is declared **lost** — its claim
//! epoch is bumped (so the stuck worker's eventual result is discarded
//! as stale), an attempt is burned, and the job is requeued, failed, or
//! quarantined exactly as a crashed execution would be.
//!
//! # Event plane
//!
//! Every lifecycle transition is also published to the live event bus
//! ([`rsyn_observe::events`]) of the scope [`Server::start`] was called
//! in — workers, the watchdog, and every entry point record there, so
//! a submission from any client thread lands on the same bus and
//! registry as the flows it starts: admission, coalescing,
//! shedding, claims, retries, requeues, preemptions, resumes, losses,
//! quarantines, and exactly one terminal per accepted job. Subscribe
//! with [`Server::subscribe`] — a subscriber that arrives *after* the
//! job finished is seeded with the stored terminal event, so the
//! one-terminal contract holds for late tails too. Deterministic flow
//! progress (stages, iterations, shards, checkpoints) is published by
//! the flow itself under the same job key.
//!
//! # Counters
//!
//! Scheduling decisions are timing-dependent, so the server tallies
//! them in internal atomics and publishes them as `server.*` counters —
//! keeping the per-run deterministic counter contract intact while the
//! pool races. Publication happens at shutdown *and* whenever
//! [`Server::metrics_snapshot`] is taken; each publication adds only
//! the delta since the previous one, so counters are never
//! double-counted:
//!
//! | counter | meaning |
//! |---|---|
//! | `server.submitted` | submissions received (incl. shed/coalesced) |
//! | `server.coalesced` | submissions joined to an in-flight job |
//! | `server.shed`      | submissions rejected (queue full / injected) |
//! | `server.completed` | jobs that finished with a report |
//! | `server.failed`    | jobs whose flow returned an error or whose crashes exhausted retries |
//! | `server.cancelled` | jobs cancelled by their owner |
//! | `server.deadline`  | jobs that hit their deadline |
//! | `server.retry`     | backoff retries scheduled |
//! | `server.requeue`   | re-entries into the queue (retry + preempt) |
//! | `server.panic`     | worker panics contained by `catch_unwind` |
//! | `server.preempt`   | preemption signals sent to running jobs |
//! | `server.resume`    | executions resumed from a checkpoint |
//! | `server.poisoned`  | jobs quarantined as poison pills |
//! | `server.lost`      | running executions declared lost by the watchdog |
//! | `server.recovered.jobs` | jobs re-admitted by [`Server::recover`] |
//! | `server.recovered.terminal` | journaled jobs already terminal at recovery |
//! | `server.journal.write_err` | journal appends lost to real I/O errors |
//! | `server.journal.compacted` | journal segments deleted by recovery compaction |
//!
//! Queue depth is published as the `hist.server.queue_depth.*` histogram;
//! journaled record sizes as `hist.server.journal_record_bytes.*` (both
//! at shutdown only).

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rsyn_core::{
    run, run_resumed, Checkpoint, FlowContext, FlowError, FlowOptions, FlowReport, StopCause,
};
use rsyn_netlist::{Library, Netlist};
use rsyn_observe::events::{self, EventReceiver, FlowEvent, TerminalOutcome};
use rsyn_observe::Hist;

use crate::inject::{self, JobFate};
use crate::job::{job_key, report_digest, JobHandle, JobInner, JobOutcome, JobSpec, Priority};
use crate::journal::{digest_fingerprint, replay, AcceptedSpec, JobJournal, JournalEvent};
use crate::queue::{JobQueue, QueueFull};
use crate::retry::BackoffPolicy;

/// Execution attempts per job before a crash (panic or watchdog loss)
/// becomes terminal.
const MAX_ATTEMPTS: u32 = 4;

/// Backoff schedule between retry attempts, keyed by the job key.
const RETRY_BACKOFF: BackoffPolicy =
    BackoffPolicy { base_ms: 10, factor: 2, cap_ms: 500, jitter_percent: 25, seed: 0xB0FF };

/// Tuning of one [`Server`] instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads in the pool (min 1).
    pub workers: usize,
    /// Bound of the client submission queue; beyond it submissions shed.
    pub queue_capacity: usize,
    /// Root for per-job checkpoint directories (`<work_dir>/jobs/<key>`).
    pub work_dir: PathBuf,
    /// ATPG threads *per worker* (jobs are bit-identical across thread
    /// counts, so this only trades latency for parallelism).
    pub atpg_threads: usize,
    /// Write-ahead journal directory. `None` (and no `RSYN_JOURNAL_DIR`
    /// in the environment) disables journaling entirely — the server
    /// then behaves byte-identically to the non-durable flow.
    pub journal_dir: Option<PathBuf>,
    /// Worker crashes (panics or watchdog losses) one job may cause
    /// before it is quarantined with a terminal `Poisoned` verdict
    /// (min 1). This cap is independent of the attempt budget: a
    /// panicking job is parked even when that budget would allow more
    /// requeues.
    pub poison_threshold: u32,
    /// Scan interval of the stuck-worker watchdog.
    pub watchdog_interval: Duration,
}

impl ServerConfig {
    /// A small default pool: 2 workers, capacity 64, 1 ATPG thread per
    /// worker, journaling from `RSYN_JOURNAL_DIR` (disabled when unset),
    /// poison threshold 3, 50 ms watchdog.
    pub fn new(work_dir: impl Into<PathBuf>) -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            work_dir: work_dir.into(),
            atpg_threads: 1,
            journal_dir: std::env::var_os("RSYN_JOURNAL_DIR").map(PathBuf::from),
            poison_threshold: 3,
            watchdog_interval: Duration::from_millis(50),
        }
    }
}

/// What happened to one `submit` call.
pub enum SubmitVerdict {
    /// A fresh job was queued.
    Queued(JobHandle),
    /// The request joined an identical in-flight job.
    Coalesced(JobHandle),
    /// The request was rejected under load (bounded queue full). The
    /// caller owns the retry decision — nothing was enqueued.
    Shed,
}

impl SubmitVerdict {
    /// The handle, unless the submission was shed.
    pub fn handle(&self) -> Option<&JobHandle> {
        match self {
            SubmitVerdict::Queued(h) | SubmitVerdict::Coalesced(h) => Some(h),
            SubmitVerdict::Shed => None,
        }
    }

    /// True when the submission was rejected under load.
    pub fn is_shed(&self) -> bool {
        matches!(self, SubmitVerdict::Shed)
    }
}

#[derive(Default)]
struct StatsCells {
    submitted: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    deadline: AtomicU64,
    retries: AtomicU64,
    requeues: AtomicU64,
    panics: AtomicU64,
    preempts: AtomicU64,
    resumes: AtomicU64,
    poisoned: AtomicU64,
    lost: AtomicU64,
    recovered_jobs: AtomicU64,
    recovered_terminal: AtomicU64,
    journal_compacted: AtomicU64,
}

/// Snapshot of the server's scheduling tallies (see the module docs for
/// the meaning of each field).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct ServerStats {
    pub submitted: u64,
    pub coalesced: u64,
    pub shed: u64,
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub deadline: u64,
    pub retries: u64,
    pub requeues: u64,
    pub panics: u64,
    pub preempts: u64,
    pub resumes: u64,
    pub poisoned: u64,
    pub lost: u64,
    pub recovered_jobs: u64,
    pub recovered_terminal: u64,
    pub journal_compacted: u64,
}

impl StatsCells {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            deadline: self.deadline.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            requeues: self.requeues.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            preempts: self.preempts.load(Ordering::Relaxed),
            resumes: self.resumes.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
            lost: self.lost.load(Ordering::Relaxed),
            recovered_jobs: self.recovered_jobs.load(Ordering::Relaxed),
            recovered_terminal: self.recovered_terminal.load(Ordering::Relaxed),
            journal_compacted: self.journal_compacted.load(Ordering::Relaxed),
        }
    }
}

struct ServerInner {
    cfg: ServerConfig,
    lib: Arc<Library>,
    queue: JobQueue,
    /// Open (not yet terminal) jobs by key — the coalescing map.
    inflight: Mutex<HashMap<u128, Arc<JobInner>>>,
    /// What each worker is executing right now (preemption victims).
    running: Mutex<Vec<Option<Arc<JobInner>>>>,
    /// Open-job count + condvar for `drain`.
    open: Mutex<usize>,
    drain_cv: Condvar,
    stats: StatsCells,
    depth_hist: Mutex<Hist>,
    /// Fallback identity source for non-canonical netlists.
    serial: AtomicU64,
    /// Write-ahead journal; `None` when durability is disabled.
    journal: Option<Mutex<JobJournal>>,
    /// Per-worker liveness beats (bumped at pickup and completion).
    heartbeats: Vec<AtomicU64>,
    /// Terminal events by key, for seeding late subscribers. Insertion
    /// and [`Server::subscribe`] both hold this lock across the bus
    /// operation, so a subscriber either sees the live terminal or is
    /// seeded with the stored one — never neither, never both.
    terminal_events: Mutex<HashMap<u128, events::Event>>,
    /// Counter values already published to the `server.*` counters, so
    /// each publication (snapshot or shutdown) adds only its delta.
    published: Mutex<PublishedTally>,
    /// Tells the watchdog thread to exit.
    stop: AtomicBool,
    /// The starting thread's observability scope: workers, the watchdog,
    /// and every entry point record into its recorder and event bus.
    observe: rsyn_observe::Scope,
}

#[derive(Default)]
struct PublishedTally {
    stats: ServerStats,
    journal_write_errs: u64,
}

/// A live look at a running [`Server`], safe to take while the pool
/// races. Taking one also publishes the `server.*` counter deltas since
/// the previous publication (see the module docs), so manifests written
/// mid-run carry current values without double-counting at shutdown.
#[derive(Clone, Copy, Debug)]
pub struct MetricsSnapshot {
    /// Scheduling tallies at snapshot time.
    pub stats: ServerStats,
    /// Client-queue depth (entries, including stale duplicates).
    pub queue_depth: usize,
    /// Jobs being executed by a worker right now.
    pub in_flight: usize,
    /// Events published on the event bus of the scope the server started in.
    pub events_published: u64,
}

/// What [`Server::recover`] reconstructed from the journal.
#[derive(Default)]
pub struct RecoveryReport {
    /// Handles to the re-admitted (accepted-but-not-terminal) jobs, in
    /// journal acceptance order.
    pub readmitted: Vec<JobHandle>,
    /// Journaled jobs that already had a terminal record.
    pub terminal: u64,
    /// Open jobs that could not be re-admitted: the acceptance record
    /// was lost to damage, or the netlist source had no circuit by that
    /// name.
    pub lost_spec: u64,
    /// Journal segments with damage (torn tails, bad headers).
    pub damaged_segments: u64,
    /// Total journal records replayed.
    pub records: u64,
}

/// A running flow service. Dropping it closes the queue and joins the
/// workers (finishing whatever is still queued); prefer
/// [`Server::shutdown`], which also publishes the `server.*` counters.
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    watchdog: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool (and, when configured, the journal and the
    /// stuck-worker watchdog).
    pub fn start(cfg: ServerConfig, lib: Arc<Library>) -> Server {
        let worker_count = cfg.workers.max(1);
        let capacity = cfg.queue_capacity.max(1);
        // Opening the journal is fail-soft like every other journal
        // operation: a service that cannot journal still serves.
        let journal =
            cfg.journal_dir.as_deref().and_then(|dir| JobJournal::open(dir).ok()).map(Mutex::new);
        let inner = Arc::new(ServerInner {
            cfg,
            lib,
            queue: JobQueue::new(capacity),
            inflight: Mutex::new(HashMap::new()),
            running: Mutex::new(vec![None; worker_count]),
            open: Mutex::new(0),
            drain_cv: Condvar::new(),
            stats: StatsCells::default(),
            depth_hist: Mutex::new(Hist::default()),
            serial: AtomicU64::new(0),
            journal,
            heartbeats: (0..worker_count).map(|_| AtomicU64::new(0)).collect(),
            terminal_events: Mutex::new(HashMap::new()),
            published: Mutex::new(PublishedTally::default()),
            stop: AtomicBool::new(false),
            observe: rsyn_observe::Scope::current(),
        });
        let workers = (0..worker_count)
            .map(|wid| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("rsyn-server-{wid}"))
                    .spawn(move || {
                        let _observe = inner.observe.enter();
                        worker_loop(&inner, wid);
                    })
                    .expect("spawn server worker")
            })
            .collect();
        let watchdog = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("rsyn-server-watchdog".to_string())
                .spawn(move || {
                    let _observe = inner.observe.enter();
                    watchdog_loop(&inner);
                })
                .expect("spawn server watchdog")
        };
        Server { inner, workers, watchdog: Some(watchdog) }
    }

    /// Starts the pool after replaying the write-ahead journal under the
    /// configured [`ServerConfig::journal_dir`].
    ///
    /// Jobs with a terminal record stay terminal. Accepted jobs without
    /// one are re-admitted at their *recorded* priority (bypassing the
    /// bounded client path — they were already accepted once), with any
    /// relative deadline re-armed from recovery time; jobs with an
    /// on-disk checkpoint then resume byte-identically through the
    /// normal `run_resumed` path because the journaled key addresses the
    /// same checkpoint directory. `source` rebuilds the seed netlist
    /// from a journaled circuit name; returning `None` marks the job as
    /// `lost_spec` rather than inventing work.
    ///
    /// With no journal configured (or an empty directory) this is
    /// exactly [`Server::start`].
    pub fn recover(
        cfg: ServerConfig,
        lib: Arc<Library>,
        source: &dyn Fn(&str) -> Option<Netlist>,
    ) -> (Server, RecoveryReport) {
        let mut report = RecoveryReport::default();
        let replayed = cfg.journal_dir.as_deref().map(|dir| {
            let (events, read, undecodable) = JobJournal::read(dir).unwrap_or_default();
            report.damaged_segments = read.damaged_segments + undecodable;
            report.records = read.records;
            replay(&events)
        });
        // The writer side opens a *fresh* segment after the replay read,
        // so recovery events never append behind a torn tail.
        let server = Server::start(cfg, lib);
        let Some(replayed) = replayed else { return (server, report) };
        let inner = &*server.inner;
        for job in &replayed.jobs {
            if job.terminal.is_some() {
                report.terminal += 1;
                inner.stats.recovered_terminal.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let Some(spec) = &job.spec else {
                report.lost_spec += 1;
                continue;
            };
            let Some(netlist) = source(&spec.circuit) else {
                report.lost_spec += 1;
                continue;
            };
            let mut respec = JobSpec::new(netlist, &spec.circuit)
                .with_q(spec.q_percent)
                .with_priority(spec.priority());
            respec.seed = spec.seed;
            if let Some(ms) = spec.deadline_ms {
                respec.deadline = Some(Duration::from_millis(ms));
            }
            // Re-admission reuses the *journaled* key: it addresses the
            // job's existing checkpoint directory, and recomputing it
            // would anyway give the same content hash.
            let readmitted = Arc::new(JobInner::new(job.key, respec));
            // Rewrite the acceptance (and checkpoint flag) into the
            // fresh segment chain *before* the job becomes claimable, so
            // compaction below can drop the pre-recovery segments
            // without losing the only copy of an open job's spec.
            journal_event(inner, accepted_event(&readmitted));
            if job.checkpointed {
                readmitted.checkpoint_logged.store(true, Ordering::Relaxed);
                journal_event(inner, JournalEvent::Checkpointed { key: job.key });
            }
            let mut inflight = lock(&inner.inflight);
            inflight.insert(job.key, Arc::clone(&readmitted));
            *lock(&inner.open) += 1;
            inner.queue.push_internal(Arc::clone(&readmitted));
            drop(inflight);
            events::publish_for(job.key, FlowEvent::Admitted { priority: spec.priority });
            inner.stats.recovered_jobs.fetch_add(1, Ordering::Relaxed);
            report.readmitted.push(JobHandle { job: readmitted });
        }
        // Compaction: every surviving fact now lives in the fresh
        // segment chain, so the pre-recovery segments are pure history.
        // Delete them — unless the rewrite itself was damaged or lost
        // appends, in which case the old segments may hold the only
        // intact copy of a fact and are kept for the next recovery.
        if let Some(journal) = &inner.journal {
            let mut journal = lock(journal);
            if journal.write_errs() + journal.damaged() == 0 {
                let removed = journal.compact();
                inner.stats.journal_compacted.fetch_add(removed, Ordering::Relaxed);
            }
        }
        (server, report)
    }

    /// Submits one job. See [`SubmitVerdict`] for the three possible
    /// fates; on [`SubmitVerdict::Coalesced`] the *first* submission's
    /// execution is shared, with the priority bumped to the maximum of
    /// all coalesced requests (never lowered).
    pub fn submit(&self, spec: JobSpec) -> SubmitVerdict {
        let inner = &*self.inner;
        let _observe = inner.observe.enter();
        inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
        if inject::should_shed_submit() {
            inner.stats.shed.fetch_add(1, Ordering::Relaxed);
            journal_event(inner, JournalEvent::Shed);
            // Shed before the key is derived: published against job 0.
            events::publish_for(0, FlowEvent::Shed);
            return SubmitVerdict::Shed;
        }
        let priority = spec.priority;
        let (key, coalescable) = match job_key(&spec, &inner.lib) {
            Some(key) => (key, true),
            // No canonical encoding: unique serial key, never coalesces.
            None => {
                ((1u128 << 127) | u128::from(inner.serial.fetch_add(1, Ordering::Relaxed)), false)
            }
        };

        // Hold the inflight lock across lookup + insert + queue push so a
        // racing identical submission either coalesces or finds the queue
        // entry installed (lock order: inflight -> queue, never reversed).
        let mut inflight = lock(&inner.inflight);
        if coalescable {
            if let Some(job) = inflight.get(&key) {
                inner.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                if job.raise_priority(priority) {
                    // Lazy reprioritisation: duplicate entry at the new
                    // priority; the stale one is skipped at pickup.
                    inner.queue.push_internal(Arc::clone(job));
                }
                events::publish_for(key, FlowEvent::Coalesced);
                return SubmitVerdict::Coalesced(JobHandle { job: Arc::clone(job) });
            }
        }
        let job = Arc::new(JobInner::new(key, spec));
        match inner.queue.push_client(Arc::clone(&job)) {
            Ok(depth) => {
                inflight.insert(key, Arc::clone(&job));
                *lock(&inner.open) += 1;
                // Journal the acceptance inside the inflight critical
                // section: once any later event for this key can exist,
                // the acceptance is already (being) written.
                journal_event(inner, accepted_event(&job));
                drop(inflight);
                events::publish_for(key, FlowEvent::Admitted { priority: priority_code(priority) });
                lock(&inner.depth_hist).record(depth as u64);
                self.maybe_preempt(priority);
                SubmitVerdict::Queued(JobHandle { job })
            }
            Err(QueueFull) => {
                drop(inflight);
                inner.stats.shed.fetch_add(1, Ordering::Relaxed);
                journal_event(inner, JournalEvent::Shed);
                events::publish_for(key, FlowEvent::Shed);
                SubmitVerdict::Shed
            }
        }
    }

    /// When every worker is busy and the incoming priority outranks a
    /// running job, signal the lowest-priority victim to stop at its next
    /// checkpoint boundary — it requeues and later resumes byte-identically.
    fn maybe_preempt(&self, incoming: Priority) {
        let inner = &*self.inner;
        if incoming == Priority::Low {
            return;
        }
        let running = lock(&inner.running);
        if running.iter().any(Option::is_none) {
            return; // an idle worker will pick the job up
        }
        let victim = running
            .iter()
            .flatten()
            .filter(|job| job.priority() < incoming && !job.control.preempt_pending())
            .min_by_key(|job| job.priority());
        if let Some(victim) = victim {
            inner.stats.preempts.fetch_add(1, Ordering::Relaxed);
            victim.control.preempt();
            events::publish_for(victim.key, FlowEvent::Preempted);
        }
    }

    /// Blocks until no job is open (queued, running, or between retries).
    pub fn drain(&self) {
        let mut open = lock(&self.inner.open);
        while *open > 0 {
            open = self.inner.drain_cv.wait(open).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Drains, stops the workers and watchdog, publishes the `server.*`
    /// counters (the delta since the last [`Server::metrics_snapshot`])
    /// and histograms, and returns the final tallies.
    pub fn shutdown(mut self) -> ServerStats {
        self.drain();
        self.stop_threads();
        let _observe = self.inner.observe.enter();
        let stats = publish_counters(&self.inner);
        if let Some(journal) = &self.inner.journal {
            rsyn_observe::record_hist("server.journal_record_bytes", lock(journal).record_bytes());
        }
        rsyn_observe::record_hist("server.queue_depth", &lock(&self.inner.depth_hist));
        stats
    }

    /// A live metrics snapshot: scheduling tallies, queue/in-flight
    /// gauges, and the event plane's publish count. Also publishes the
    /// `server.*` counter deltas since the previous publication, so a
    /// manifest written mid-run carries current counter values.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let _observe = self.inner.observe.enter();
        let stats = publish_counters(&self.inner);
        MetricsSnapshot {
            stats,
            queue_depth: self.inner.queue.depth(),
            in_flight: lock(&self.inner.running).iter().flatten().count(),
            events_published: events::published(),
        }
    }

    /// Subscribes to the live event plane filtered to `job_key`. A
    /// subscriber that arrives after the job already finished is seeded
    /// with the stored terminal event, so every subscriber observes
    /// exactly one terminal per job regardless of timing.
    pub fn subscribe(&self, job_key: u128) -> EventReceiver {
        let _observe = self.inner.observe.enter();
        let terminals = lock(&self.inner.terminal_events);
        let rx = events::subscribe(Some(job_key));
        if let Some(ev) = terminals.get(&job_key) {
            rx.seed(*ev);
        }
        rx
    }

    fn stop_threads(&mut self) {
        self.inner.queue.close();
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(watchdog) = self.watchdog.take() {
            watchdog.thread().unpark();
            let _ = watchdog.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The wire encoding of a [`Priority`], shared by the journal's
/// `AcceptedSpec` and the event plane's `Admitted`.
fn priority_code(priority: Priority) -> u8 {
    match priority {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    }
}

/// Publishes the `server.*` counter deltas accumulated since the last
/// publication (a metrics snapshot or shutdown) and returns the current
/// tallies. Delta-based so mid-run snapshots plus the shutdown
/// publication never double-count (`add_many` skips zero deltas, so an
/// idle snapshot publishes nothing).
fn publish_counters(inner: &ServerInner) -> ServerStats {
    let stats = inner.stats.snapshot();
    let mut published = lock(&inner.published);
    let prev = published.stats;
    let d = |now: u64, before: u64| now.saturating_sub(before);
    rsyn_observe::add_many(&[
        ("server.submitted", d(stats.submitted, prev.submitted)),
        ("server.coalesced", d(stats.coalesced, prev.coalesced)),
        ("server.shed", d(stats.shed, prev.shed)),
        ("server.completed", d(stats.completed, prev.completed)),
        ("server.failed", d(stats.failed, prev.failed)),
        ("server.cancelled", d(stats.cancelled, prev.cancelled)),
        ("server.deadline", d(stats.deadline, prev.deadline)),
        ("server.retry", d(stats.retries, prev.retries)),
        ("server.requeue", d(stats.requeues, prev.requeues)),
        ("server.panic", d(stats.panics, prev.panics)),
        ("server.preempt", d(stats.preempts, prev.preempts)),
        ("server.resume", d(stats.resumes, prev.resumes)),
        ("server.poisoned", d(stats.poisoned, prev.poisoned)),
        ("server.lost", d(stats.lost, prev.lost)),
        ("server.recovered.jobs", d(stats.recovered_jobs, prev.recovered_jobs)),
        ("server.recovered.terminal", d(stats.recovered_terminal, prev.recovered_terminal)),
        ("server.journal.compacted", d(stats.journal_compacted, prev.journal_compacted)),
    ]);
    published.stats = stats;
    if let Some(journal) = &inner.journal {
        let errs = lock(journal).write_errs();
        rsyn_observe::add(
            "server.journal.write_err",
            errs.saturating_sub(published.journal_write_errs),
        );
        published.journal_write_errs = errs;
    }
    stats
}

fn set_running(inner: &ServerInner, wid: usize, job: Option<Arc<JobInner>>) {
    lock(&inner.running)[wid] = job;
}

/// Appends one event to the journal, when one is configured. Never
/// blocks on anything but the journal's own mutex and never errors —
/// the append itself is fail-soft (see [`JobJournal::append`]).
fn journal_event(inner: &ServerInner, event: JournalEvent) {
    if let Some(journal) = &inner.journal {
        lock(journal).append(&event);
    }
}

/// The `Accepted` record for a freshly admitted job: everything recovery
/// needs to rebuild and re-admit it.
fn accepted_event(job: &JobInner) -> JournalEvent {
    JournalEvent::Accepted {
        key: job.key,
        spec: AcceptedSpec {
            circuit: job.circuit.clone(),
            q_percent: job.q_percent,
            seed: job.seed,
            priority: priority_code(job.priority()),
            deadline_ms: job.deadline.map(|d| d.as_millis() as u64),
        },
    }
}

/// Books one crash (panic or watchdog loss) against the job and decides
/// its fate: quarantine at the poison threshold, otherwise the normal
/// retry-or-fail path. The poison cap is checked *first* so a panicking
/// job is parked even when the retry budget would allow more requeues.
fn crash_or_quarantine(inner: &ServerInner, job: Arc<JobInner>, err: FlowError) {
    let crashes = job.crashes.fetch_add(1, Ordering::Relaxed) + 1;
    if crashes >= inner.cfg.poison_threshold.max(1) {
        events::publish_for(job.key, FlowEvent::Quarantined { crashes });
        finish(inner, &job, JobOutcome::Poisoned { crashes });
        return;
    }
    retry_or_fail(inner, job, err);
}

/// Injected stall: stop beating until the watchdog bumps the claim epoch
/// (or a generous cap expires, so a stalled job without a deadline, which
/// the watchdog never reclaims, still drains: it ends `Failed`).
fn stall_execution(job: &JobInner, claim: u64) {
    let cap = Instant::now() + Duration::from_secs(20);
    while job.epoch() == claim && Instant::now() < cap {
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn worker_loop(inner: &Arc<ServerInner>, wid: usize) {
    // One analysis context per worker, reused across jobs.
    let ctx = FlowContext::new(Arc::clone(&inner.lib)).with_threads(inner.cfg.atpg_threads);
    while let Some(job) = inner.queue.pop() {
        if !job.begin_running() {
            continue; // stale duplicate entry (reprioritised or finished)
        }
        inner.heartbeats[wid].fetch_add(1, Ordering::Relaxed);
        if job.control.is_cancelled() {
            finish(inner, &job, JobOutcome::Cancelled);
            continue;
        }
        if job.control.deadline_passed() {
            finish(inner, &job, JobOutcome::DeadlineExceeded);
            continue;
        }
        let attempt = job.attempts.load(Ordering::Relaxed);
        journal_event(inner, JournalEvent::Started { key: job.key, attempt });
        events::publish_for(job.key, FlowEvent::Claimed { attempt });
        // The claim epoch is read before the job becomes visible to the
        // watchdog; if the watchdog later declares this execution lost it
        // bumps the epoch and this worker's result is dropped as stale.
        let claim = job.epoch();
        set_running(inner, wid, Some(Arc::clone(&job)));
        let crash = inject::should_crash_worker();
        let fate = inject::job_fate(job.key);
        let result = catch_unwind(AssertUnwindSafe(|| {
            // Everything the flow publishes inside this child scope —
            // stages, iterations, shards, checkpoints — attributes to this
            // job; it counts into the job's own registry (the one its
            // checkpoints snapshot and a resume restores), which merges
            // into the server's when the scope ends.
            let _job_scope = events::job_scope(job.key);
            let _zone = rsyn_observe::trace::zone("server.job.execute", job.key as u64);
            if crash || fate == JobFate::Poison {
                panic!("injected worker crash");
            }
            if fate == JobFate::Stall {
                stall_execution(&job, claim);
                return Err(FlowError::Internal {
                    stage: "server.worker".to_string(),
                    message: "injected worker stall".to_string(),
                });
            }
            let result = execute(inner, &ctx, &job);
            if matches!(&result, Ok(report) if report.stopped == Some(StopCause::Preempted)) {
                // The resumed execution restores the checkpoint's snapshot
                // of these counts: merged now, they would count twice.
                rsyn_observe::restore_counters(&BTreeMap::new());
            }
            result
        }));
        set_running(inner, wid, None);
        inner.heartbeats[wid].fetch_add(1, Ordering::Relaxed);
        maybe_log_checkpoint(inner, &job);
        if job.epoch() != claim {
            // The watchdog declared this execution lost and already
            // requeued (or quarantined) the job: whatever this worker
            // produced is stale and must not double-finish the job.
            continue;
        }
        match result {
            Err(payload) => {
                // Contained worker panic: the job survives the worker.
                inner.stats.panics.fetch_add(1, Ordering::Relaxed);
                let err = FlowError::Internal {
                    stage: "server.worker".to_string(),
                    message: panic_message(payload.as_ref()),
                };
                crash_or_quarantine(inner, job, err);
            }
            Ok(Err(err)) => finish(inner, &job, JobOutcome::Failed(err)),
            Ok(Ok(report)) => match report.stopped {
                Some(StopCause::Preempted) => {
                    // The checkpoint written at the stop boundary carries
                    // the state; requeue without burning an attempt.
                    job.control.clear_preempt();
                    if job.mark_queued() {
                        inner.stats.requeues.fetch_add(1, Ordering::Relaxed);
                        journal_event(inner, JournalEvent::Requeued { key: job.key });
                        events::publish_for(job.key, FlowEvent::Requeued);
                        inner.queue.push_internal(job);
                    }
                }
                Some(StopCause::Cancelled) => finish(inner, &job, JobOutcome::Cancelled),
                Some(StopCause::Deadline) => finish(inner, &job, JobOutcome::DeadlineExceeded),
                None => finish(inner, &job, JobOutcome::Completed(Arc::new(report))),
            },
        }
    }
}

/// Watchdog scan loop: declares running jobs lost when they are past
/// their deadline and their liveness beat (worker heartbeat + flow
/// control pulses) has not moved across two consecutive scans.
fn watchdog_loop(inner: &Arc<ServerInner>) {
    // Per-worker (key, beat, consecutive-stale-scans) memory.
    let mut last: Vec<(u128, u64, u32)> = vec![(0, 0, 0); inner.cfg.workers.max(1)];
    while !inner.stop.load(Ordering::SeqCst) {
        std::thread::park_timeout(inner.cfg.watchdog_interval);
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let snapshot: Vec<Option<Arc<JobInner>>> = lock(&inner.running).clone();
        for (wid, slot) in snapshot.into_iter().enumerate() {
            let Some(job) = slot else {
                last[wid] = (0, 0, 0);
                continue;
            };
            let beat = inner.heartbeats[wid].load(Ordering::Relaxed) + job.control.pulse_count();
            let (seen_key, seen_beat, stale) = last[wid];
            if seen_key != job.key || seen_beat != beat {
                last[wid] = (job.key, beat, 0);
                continue;
            }
            last[wid] = (job.key, beat, stale + 1);
            // Two consecutive frozen scans of the same past-deadline job:
            // declare the execution lost. (A live flow pulses its control
            // at every iteration boundary; deadline-expired live flows
            // stop on their own, so they never sit here frozen.)
            if stale + 1 < 2 || !job.control.deadline_passed() || job.try_outcome().is_some() {
                continue;
            }
            declare_lost(inner, wid, &job);
            last[wid] = (0, 0, 0);
        }
    }
}

/// Declares worker `wid`'s current execution of `job` lost: invalidate
/// the claim (the stuck worker's eventual result drops as stale), burn
/// an attempt, and requeue/fail/quarantine like a crashed execution.
fn declare_lost(inner: &ServerInner, wid: usize, job: &Arc<JobInner>) {
    job.bump_epoch();
    set_running(inner, wid, None);
    inner.stats.lost.fetch_add(1, Ordering::Relaxed);
    events::publish_for(job.key, FlowEvent::Lost);
    let err = FlowError::Internal {
        stage: "server.watchdog".to_string(),
        message: "worker declared lost (no heartbeat past deadline)".to_string(),
    };
    crash_or_quarantine(inner, Arc::clone(job), err);
}

/// The latest-checkpoint path for a job key under `work_dir` — the file
/// `execute` writes through the flow's checkpoint machinery and reads
/// back on resume.
fn checkpoint_path(work_dir: &Path, key: u128) -> PathBuf {
    work_dir
        .join("jobs")
        .join(format!("{key:032x}"))
        .join(format!("checkpoint-job-{key:032x}-latest.json"))
}

/// One execution attempt: resume from the job's latest checkpoint when a
/// valid one exists, otherwise run fresh. A checkpoint that fails
/// validation (stale, injected write damage) falls back to a fresh run
/// rather than failing the job.
fn execute(
    inner: &ServerInner,
    ctx: &FlowContext,
    job: &JobInner,
) -> Result<FlowReport, FlowError> {
    // Per-job seed override: jobs with a non-default seed run under their
    // own context (they are distinct jobs by key, so they never coalesce
    // with default-seed work).
    let seeded;
    let ctx = match job.seed {
        Some(seed) if seed != ctx.seed => {
            seeded = FlowContext::new(Arc::clone(&inner.lib))
                .with_threads(inner.cfg.atpg_threads)
                .with_seed(seed);
            &seeded
        }
        _ => ctx,
    };
    let run_name = format!("job-{:032x}", job.key);
    let dir = inner.cfg.work_dir.join("jobs").join(format!("{:032x}", job.key));
    let mut options = FlowOptions::new(&job.circuit, &run_name);
    options.q_percent = job.q_percent;
    options.checkpoint_dir = Some(dir.clone());
    options.control = job.control.clone();

    let latest = checkpoint_path(&inner.cfg.work_dir, job.key);
    if latest.exists() {
        if let Ok(cp) = Checkpoint::read(&latest) {
            match run_resumed(job.netlist.clone(), ctx, &options, &cp) {
                Ok(report) => {
                    inner.stats.resumes.fetch_add(1, Ordering::Relaxed);
                    events::publish_for(job.key, FlowEvent::Resumed);
                    return Ok(report);
                }
                Err(FlowError::Checkpoint { .. }) => {} // stale: run fresh
                Err(err) => return Err(err),
            }
        }
    }
    run(job.netlist.clone(), ctx, &options)
}

/// Logs the job's first on-disk checkpoint to the journal, exactly once.
fn maybe_log_checkpoint(inner: &ServerInner, job: &JobInner) {
    if inner.journal.is_none() || job.checkpoint_logged.load(Ordering::Relaxed) {
        return;
    }
    if checkpoint_path(&inner.cfg.work_dir, job.key).exists()
        && !job.checkpoint_logged.swap(true, Ordering::Relaxed)
    {
        journal_event(inner, JournalEvent::Checkpointed { key: job.key });
    }
}

/// Books a crash against the attempt budget: either a deterministic
/// jittered-backoff retry, or a terminal `Failed`.
fn retry_or_fail(inner: &ServerInner, job: Arc<JobInner>, err: FlowError) {
    let attempt = job.attempts.fetch_add(1, Ordering::Relaxed);
    if attempt + 1 >= MAX_ATTEMPTS {
        finish(inner, &job, JobOutcome::Failed(err));
        return;
    }
    if !job.mark_queued() {
        return; // finished concurrently (first terminal outcome stands)
    }
    inner.stats.retries.fetch_add(1, Ordering::Relaxed);
    journal_event(inner, JournalEvent::Retried { key: job.key, attempt });
    events::publish_for(job.key, FlowEvent::Retried { attempt });
    let delay = RETRY_BACKOFF.delay_ms(job.key as u64, attempt);
    if delay > 0 {
        std::thread::sleep(Duration::from_millis(delay));
    }
    inner.stats.requeues.fetch_add(1, Ordering::Relaxed);
    inner.queue.push_internal(job);
}

/// Finalises a job: tally, journal the terminal record, wake waiters,
/// leave the coalescing map, and credit the drain count. Idempotent —
/// only the call that installs the outcome has any effect.
fn finish(inner: &ServerInner, job: &Arc<JobInner>, outcome: JobOutcome) {
    let event = match &outcome {
        JobOutcome::Completed(report) => JournalEvent::Completed {
            key: job.key,
            fingerprint: digest_fingerprint(&report_digest(report)),
        },
        JobOutcome::Failed(_) => JournalEvent::Failed { key: job.key },
        JobOutcome::Cancelled => JournalEvent::Cancelled { key: job.key },
        JobOutcome::DeadlineExceeded => JournalEvent::DeadlineExceeded { key: job.key },
        JobOutcome::Poisoned { crashes } => {
            JournalEvent::Poisoned { key: job.key, crashes: *crashes }
        }
    };
    let cell = match &outcome {
        JobOutcome::Completed(_) => &inner.stats.completed,
        JobOutcome::Failed(_) => &inner.stats.failed,
        JobOutcome::Cancelled => &inner.stats.cancelled,
        JobOutcome::DeadlineExceeded => &inner.stats.deadline,
        JobOutcome::Poisoned { .. } => &inner.stats.poisoned,
    };
    let terminal = match &outcome {
        JobOutcome::Completed(_) => TerminalOutcome::Completed,
        JobOutcome::Failed(_) => TerminalOutcome::Failed,
        JobOutcome::Cancelled => TerminalOutcome::Cancelled,
        JobOutcome::DeadlineExceeded => TerminalOutcome::DeadlineExceeded,
        JobOutcome::Poisoned { .. } => TerminalOutcome::Poisoned,
    };
    // Publish and store the terminal inside the install critical
    // section, before the outcome becomes observable through
    // `wait`/`try_outcome`: a caller that subscribes right after
    // `wait()` returns must find the stored terminal. Holding
    // `terminal_events` across the bus publish keeps the other half of
    // the contract — a `Server::subscribe` racing with this either sees
    // the live broadcast or is seeded with the stored event, exactly
    // one terminal either way. (Lock order is phase → terminal_events;
    // no path takes them in reverse.) The outcome tally is bumped in the
    // same section, so a caller woken by `wait` finds it counted.
    let installed = job.finish_with(outcome, || {
        cell.fetch_add(1, Ordering::Relaxed);
        let mut terminals = lock(&inner.terminal_events);
        let ev = events::publish_for_returning(job.key, FlowEvent::Terminal { outcome: terminal });
        terminals.insert(job.key, ev);
    });
    if !installed {
        return; // another path finished the job first
    }
    journal_event(inner, event);
    lock(&inner.inflight).remove(&job.key);
    let mut open = lock(&inner.open);
    *open -= 1;
    if *open == 0 {
        inner.drain_cv.notify_all();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
