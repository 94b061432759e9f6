//! The live event plane: a broadcast bus streaming typed per-job
//! [`FlowEvent`]s out of the flow driver, the ATPG shard loop, and the
//! server's job lifecycle — so a long-running resynthesis job is
//! watchable *while it runs*, not only post-mortem through manifests.
//!
//! # Model
//!
//! Every root recorder (see the crate root's scopes) carries one bus,
//! shared by its child scopes. Producers call [`publish`] (or
//! [`publish_for`]) with a [`FlowEvent`]; the bus of the current scope's
//! root stamps it with its next sequence number and the current job key
//! (set by [`job_scope`]) and fans it out to every live subscriber whose
//! filter matches. Each subscriber owns a **bounded ring**: when a slow
//! consumer falls behind, the oldest queued event is dropped and a drop
//! tally accumulates; the next receive returns an explicit
//! [`Delivery::Lagged`] marker carrying that tally *before* the next
//! event. Publishing never blocks on consumers.
//!
//! # Hot path
//!
//! With no subscribers, [`publish`] is one thread-local read and one
//! relaxed atomic load — flows that nobody watches pay nothing, and no
//! sequence numbers are minted. The one high-frequency producer
//! (per-shard ATPG completion, [`FlowEvent::is_hot`]) buffers in the
//! thread's record buffer (next to its metrics) and is delivered at the
//! next non-hot publish from the same thread, keeping per-thread order
//! intact — a job's `Terminal` event is always that thread's last — or
//! whenever the buffer flushes ([`crate::flush`], a scope exit).
//!
//! # Determinism contract
//!
//! Events split the same way counters do (crate root): a *deterministic*
//! event ([`FlowEvent::is_deterministic`]) has a payload that is a pure
//! function of the job identity — stage names, iteration index and
//! metrics, shard verdict tallies, the terminal outcome — while
//! *volatile* events (admission, claims, retries, preemption) describe
//! scheduling and legitimately vary run-to-run. [`StreamDigest`] builds
//! on this: it digests the **set of distinct deterministic payloads**
//! per job, which is byte-identical across worker counts and across
//! retried/preempted/resumed executions (a retry re-emits a prefix of
//! the same payload sequence; the set union is unchanged). A checkpoint
//! resume replays the accepted iterations' analyses, and their shard
//! events repeat payloads the job already streamed, so the digest does
//! not change either.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::json::{self, Json};
use crate::{Records, Root, RootState, Scope, ScopeGuard};

/// Terminal verdict of a job, mirrored from the server's outcome
/// taxonomy (labels match `JobOutcome::label`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminalOutcome {
    /// The flow ran to completion.
    Completed,
    /// The flow failed fatally or exhausted its retry budget.
    Failed,
    /// The owner cancelled the job.
    Cancelled,
    /// The deadline passed before the job finished.
    DeadlineExceeded,
    /// The job was quarantined as a poison pill.
    Poisoned,
}

impl TerminalOutcome {
    /// Stable lower-case label (matches the server's outcome labels).
    pub fn label(self) -> &'static str {
        match self {
            TerminalOutcome::Completed => "completed",
            TerminalOutcome::Failed => "failed",
            TerminalOutcome::Cancelled => "cancelled",
            TerminalOutcome::DeadlineExceeded => "deadline",
            TerminalOutcome::Poisoned => "poisoned",
        }
    }
}

/// One typed event on the plane. Deterministic variants carry payloads
/// that are pure functions of the job identity; volatile variants
/// describe scheduling. Float metrics travel as IEEE-754 bit patterns so
/// the payload text is exact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlowEvent {
    /// A flow stage began (deterministic).
    StageEnter {
        /// Stage name (`flow.run`, `resynth.p1`, ...).
        stage: &'static str,
    },
    /// A flow stage finished (deterministic).
    StageExit {
        /// Stage name.
        stage: &'static str,
    },
    /// One resynthesis iteration was accepted (deterministic): the
    /// paper's iterate-until-converged loop, live.
    Iteration {
        /// 1-based accepted-iteration index.
        index: u64,
        /// Resynthesis phase (1 or 2).
        phase: u8,
        /// `|U|` — undetectable faults remaining.
        undetectable: u64,
        /// Number of `U`-clusters.
        clusters: u64,
        /// Largest cluster size `s_max`.
        s_max: u64,
        /// Best-so-far delay in ps, as `f64` bits.
        delay_ps_bits: u64,
        /// Best-so-far power in µW, as `f64` bits.
        power_uw_bits: u64,
    },
    /// One ATPG fault shard finished (deterministic, high-frequency —
    /// buffered thread-locally, see [`FlowEvent::is_hot`]).
    ShardDone {
        /// Shard index.
        shard: u64,
        /// Faults evaluated in the shard.
        faults: u64,
    },
    /// The job reached a terminal outcome (deterministic; exactly one
    /// per accepted job).
    Terminal {
        /// The verdict.
        outcome: TerminalOutcome,
    },
    /// The server admitted the job into its queue (volatile).
    Admitted {
        /// Effective priority at admission (0 low / 1 normal / 2 high).
        priority: u8,
    },
    /// A duplicate submission coalesced onto an in-flight job (volatile).
    Coalesced,
    /// A submission was shed — queue full or injected rejection
    /// (volatile).
    Shed,
    /// A worker claimed the job for execution (volatile).
    Claimed {
        /// Prior failed attempts at claim time.
        attempt: u32,
    },
    /// A checkpoint was written at an iteration boundary (volatile: a
    /// resumed run legitimately writes fewer).
    CheckpointWritten {
        /// Accepted iterations covered by the checkpoint.
        iteration: u64,
    },
    /// A failed execution was scheduled for a backoff retry (volatile).
    Retried {
        /// The attempt number that just failed (1-based).
        attempt: u32,
    },
    /// A preempted/lost execution was pushed back into the queue
    /// (volatile).
    Requeued,
    /// A higher-priority job preempted this running job (volatile).
    Preempted,
    /// Execution resumed from a checkpoint instead of restarting
    /// (volatile).
    Resumed,
    /// The watchdog declared the running execution lost (volatile).
    Lost,
    /// The job was quarantined as a poison pill (volatile; a terminal
    /// event follows).
    Quarantined {
        /// Worker crashes/losses the job caused.
        crashes: u32,
    },
}

impl FlowEvent {
    /// Stable dotted kind label, the NDJSON `kind` field.
    pub fn kind(&self) -> &'static str {
        match self {
            FlowEvent::StageEnter { .. } => "stage.enter",
            FlowEvent::StageExit { .. } => "stage.exit",
            FlowEvent::Iteration { .. } => "iteration",
            FlowEvent::ShardDone { .. } => "shard",
            FlowEvent::Terminal { .. } => "terminal",
            FlowEvent::Admitted { .. } => "admitted",
            FlowEvent::Coalesced => "coalesced",
            FlowEvent::Shed => "shed",
            FlowEvent::Claimed { .. } => "claimed",
            FlowEvent::CheckpointWritten { .. } => "checkpoint",
            FlowEvent::Retried { .. } => "retried",
            FlowEvent::Requeued => "requeued",
            FlowEvent::Preempted => "preempted",
            FlowEvent::Resumed => "resumed",
            FlowEvent::Lost => "lost",
            FlowEvent::Quarantined { .. } => "quarantined",
        }
    }

    /// True for events whose payload is a pure function of the job
    /// identity — the half a [`StreamDigest`] compares across runs and
    /// worker counts.
    pub fn is_deterministic(&self) -> bool {
        matches!(
            self,
            FlowEvent::StageEnter { .. }
                | FlowEvent::StageExit { .. }
                | FlowEvent::Iteration { .. }
                | FlowEvent::ShardDone { .. }
                | FlowEvent::Terminal { .. }
        )
    }

    /// True for high-frequency events that buffer thread-locally instead
    /// of taking the bus lock per publish.
    pub fn is_hot(&self) -> bool {
        matches!(self, FlowEvent::ShardDone { .. })
    }

    /// Canonical `key=value` payload text. Deterministic events render
    /// deterministically (floats by bit pattern); this string is what a
    /// [`StreamDigest`] hashes.
    pub fn detail(&self) -> String {
        match self {
            FlowEvent::StageEnter { stage } | FlowEvent::StageExit { stage } => {
                format!("stage={stage}")
            }
            FlowEvent::Iteration {
                index,
                phase,
                undetectable,
                clusters,
                s_max,
                delay_ps_bits,
                power_uw_bits,
            } => format!(
                "index={index} phase={phase} undetectable={undetectable} clusters={clusters} \
                 s_max={s_max} delay_ps={delay_ps_bits:016x} power_uw={power_uw_bits:016x}"
            ),
            FlowEvent::ShardDone { shard, faults } => format!("shard={shard} faults={faults}"),
            FlowEvent::Terminal { outcome } => format!("outcome={}", outcome.label()),
            FlowEvent::Admitted { priority } => format!("priority={priority}"),
            FlowEvent::Claimed { attempt } => format!("attempt={attempt}"),
            FlowEvent::CheckpointWritten { iteration } => format!("iteration={iteration}"),
            FlowEvent::Retried { attempt } => format!("attempt={attempt}"),
            FlowEvent::Quarantined { crashes } => format!("crashes={crashes}"),
            FlowEvent::Coalesced
            | FlowEvent::Shed
            | FlowEvent::Requeued
            | FlowEvent::Preempted
            | FlowEvent::Resumed
            | FlowEvent::Lost => String::new(),
        }
    }
}

/// A published event: the payload plus its sequence number and
/// the job it belongs to (0 when published outside any job scope).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// The recorder's publish sequence (1-based; 0 marks an event
    /// constructed while no subscriber existed, e.g. a stored terminal).
    pub seq: u64,
    /// Content-addressed job key (0 = no job context).
    pub job: u128,
    /// The typed payload.
    pub data: FlowEvent,
}

impl Event {
    /// One NDJSON line (no trailing newline). The job key and `f64` bit
    /// patterns travel as hex *strings* — they exceed JSON's exact
    /// integer range — and the payload as the canonical
    /// [`FlowEvent::detail`] text.
    pub fn to_ndjson(&self) -> String {
        format!(
            "{{\"seq\":{},\"job\":\"{:032x}\",\"det\":{},\"kind\":\"{}\",\"ev\":\"{}\"}}",
            self.seq,
            self.job,
            self.data.is_deterministic(),
            self.data.kind(),
            json::escape(&self.data.detail())
        )
    }
}

/// What a receiver hands back: an event, or an explicit gap marker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Delivery {
    /// The next queued event.
    Event(Event),
    /// `dropped` events were discarded from this subscriber's ring since
    /// the last receive — the consumer lagged. Delivered *before* the
    /// next event, so gaps are always visible in-stream.
    Lagged {
        /// Number of discarded events.
        dropped: u64,
    },
}

impl Delivery {
    /// One NDJSON line (no trailing newline).
    pub fn to_ndjson(&self) -> String {
        match self {
            Delivery::Event(ev) => ev.to_ndjson(),
            Delivery::Lagged { dropped } => {
                format!("{{\"kind\":\"lagged\",\"dropped\":{dropped}}}")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bus
// ---------------------------------------------------------------------------

/// Default per-subscriber ring capacity.
pub const DEFAULT_CAPACITY: usize = 1024;

/// How many hot events a thread buffers before delivering them.
const HOT_FLUSH_AT: usize = 256;

struct SubState {
    queue: VecDeque<Event>,
    dropped: u64,
}

pub(crate) struct Subscriber {
    /// `Some(key)` delivers only that job's events.
    filter: Option<u128>,
    capacity: usize,
    state: Mutex<SubState>,
    cv: Condvar,
}

impl Subscriber {
    fn wants(&self, job: u128) -> bool {
        self.filter.map_or(true, |f| f == job)
    }

    fn push(&self, event: Event) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.queue.len() >= self.capacity {
            st.queue.pop_front();
            st.dropped += 1;
        }
        st.queue.push_back(event);
        drop(st);
        self.cv.notify_all();
    }

    /// Takes the pending lag marker or the next event, if any.
    fn take(st: &mut SubState) -> Option<Delivery> {
        if st.dropped > 0 {
            let dropped = std::mem::take(&mut st.dropped);
            return Some(Delivery::Lagged { dropped });
        }
        st.queue.pop_front().map(Delivery::Event)
    }
}

/// Total events the current root's bus published to at least one live
/// subscriber (monotonic, never reset). The conservation invariant every
/// subscriber obeys: events it received + the sum of its `Lagged.dropped`
/// markers + events filtered away from it == this delta over its
/// lifetime. For an unfiltered subscriber that is `received + dropped ==
/// published`.
pub fn published() -> u64 {
    crate::with_buf(|scope, _| scope.recorder.root.published.load(Ordering::Relaxed)).unwrap_or(0)
}

/// Stamps and fans out the thread's buffered events, in order, to
/// `root`'s subscribers; returns the last one stamped. No sequence is
/// minted without subscribers. The caller holds `root`'s lock (`st`), so
/// every ring observes events in sequence order.
pub(crate) fn deliver_buffered(
    root: &Root,
    st: &RootState,
    records: &mut Records,
) -> Option<Event> {
    let mut last = None;
    for (job, data) in records.events.drain(..).filter(|_| !st.subs.is_empty()) {
        let seq = root.published.fetch_add(1, Ordering::Relaxed) + 1;
        let event = Event { seq, job, data };
        for sub in st.subs.iter().filter(|sub| sub.wants(job)) {
            sub.push(event);
        }
        last = Some(event);
    }
    last
}

// ---------------------------------------------------------------------------
// Job context + publish paths
// ---------------------------------------------------------------------------

/// Attributes events published on this thread to `job` until the guard
/// drops, in a child scope of the current one ([`crate::child_scope`]):
/// the job's counters, checkpoint snapshots and [`crate::restore_counters`]
/// stay its own, its events reach the root's bus, and its registry merges
/// into the parent's when the guard drops. Scopes nest; worker closures
/// capture [`crate::Scope::current`] and re-enter it, job key included.
#[must_use = "the job context ends when the guard drops"]
pub fn job_scope(job: u128) -> ScopeGuard {
    Scope::current().enter_child(job)
}

/// Publishes `data` under the current thread's job scope.
pub fn publish(data: FlowEvent) {
    crate::with_buf(|scope, records| publish_in(scope, records, scope.job, data));
}

/// Publishes `data` for an explicit job key to the current root's
/// subscribers.
///
/// Fast path: one relaxed load when no subscriber exists. Hot events
/// buffer thread-locally; a non-hot publish delivers behind the thread's
/// buffered ones, so per-thread order (and terminal-last) is preserved.
pub fn publish_for(job: u128, data: FlowEvent) {
    crate::with_buf(|scope, records| publish_in(scope, records, job, data));
}

fn publish_in(scope: &Scope, records: &mut Records, job: u128, data: FlowEvent) {
    let root = &*scope.recorder.root;
    if root.subscribers.load(Ordering::Relaxed) == 0 {
        return;
    }
    records.events.push((job, data));
    if !data.is_hot() || records.events.len() >= HOT_FLUSH_AT {
        deliver_buffered(root, &root.lock(), records);
    }
}

/// Publishes `data` and returns the stamped [`Event`] — the terminal
/// path: the server stores the returned event so late subscribers can be
/// seeded with it. Always constructs the event; without subscribers it
/// carries `seq == 0` and nothing is delivered.
pub fn publish_for_returning(job: u128, data: FlowEvent) -> Event {
    crate::with_buf(|scope, records| {
        let root = &*scope.recorder.root;
        records.events.push((job, data));
        deliver_buffered(root, &root.lock(), records)
    })
    .flatten()
    .unwrap_or(Event { seq: 0, job, data })
}

// ---------------------------------------------------------------------------
// Subscription
// ---------------------------------------------------------------------------

/// A subscriber's receiving half. Dropping it unsubscribes.
pub struct EventReceiver {
    sub: Arc<Subscriber>,
    root: Arc<Root>,
}

/// Subscribes to the current root's event bus with the default ring
/// capacity. `filter: Some(key)` delivers only that job's events; `None`
/// delivers everything.
pub fn subscribe(filter: Option<u128>) -> EventReceiver {
    subscribe_with_capacity(filter, DEFAULT_CAPACITY)
}

/// Subscribes with an explicit per-subscriber ring capacity (min 1).
/// When the ring is full the oldest event is dropped and the gap
/// surfaces as [`Delivery::Lagged`] — publishing never blocks.
pub fn subscribe_with_capacity(filter: Option<u128>, capacity: usize) -> EventReceiver {
    let sub = Arc::new(Subscriber {
        filter,
        capacity: capacity.max(1),
        state: Mutex::new(SubState { queue: VecDeque::new(), dropped: 0 }),
        cv: Condvar::new(),
    });
    let root = Arc::clone(&Scope::current().recorder.root);
    root.lock().subs.push(Arc::clone(&sub));
    root.subscribers.fetch_add(1, Ordering::Relaxed);
    EventReceiver { sub, root }
}

impl EventReceiver {
    fn state(&self) -> MutexGuard<'_, SubState> {
        self.sub.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next delivery, if one is queued. A pending lag marker is
    /// returned before the next event.
    pub fn try_recv(&self) -> Option<Delivery> {
        Subscriber::take(&mut self.state())
    }

    /// Blocks up to `timeout` for the next delivery.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Delivery> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state();
        loop {
            if let Some(d) = Subscriber::take(&mut st) {
                return Some(d);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            st = self
                .sub
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Takes everything currently queued, lag marker first.
    pub fn drain(&self) -> Vec<Delivery> {
        let mut st = self.state();
        let mut out = Vec::with_capacity(st.queue.len() + 1);
        while let Some(d) = Subscriber::take(&mut st) {
            out.push(d);
        }
        out
    }

    /// Injects an event directly into this subscriber's ring — the
    /// subscribe-after-terminal path: the server seeds a late subscriber
    /// with the stored terminal event.
    pub fn seed(&self, event: Event) {
        self.sub.push(event);
    }
}

impl Drop for EventReceiver {
    fn drop(&mut self) {
        self.root.lock().subs.retain(|s| !Arc::ptr_eq(s, &self.sub));
        self.root.subscribers.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// NDJSON decode + stream digest
// ---------------------------------------------------------------------------

/// One parsed NDJSON stream line — the decode-side mirror of
/// [`Delivery::to_ndjson`], with owned strings (a consumer cannot
/// reconstruct `&'static str` stage names).
#[derive(Clone, Debug, PartialEq)]
pub enum StreamRecord {
    /// A published event.
    Event {
        /// Publish sequence.
        seq: u64,
        /// Job key.
        job: u128,
        /// Kind label ([`FlowEvent::kind`]).
        kind: String,
        /// Whether the payload is deterministic.
        det: bool,
        /// Canonical payload text ([`FlowEvent::detail`]).
        payload: String,
    },
    /// A subscriber lag gap.
    Lagged {
        /// Number of dropped events.
        dropped: u64,
    },
}

impl StreamRecord {
    /// Parses one NDJSON line.
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not valid JSON or is missing a
    /// required field.
    pub fn parse(line: &str) -> Result<StreamRecord, String> {
        let v = json::parse(line)?;
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing \"kind\"".to_string())?
            .to_string();
        if kind == "lagged" {
            let dropped = v
                .get("dropped")
                .and_then(Json::as_u64)
                .ok_or_else(|| "missing \"dropped\"".to_string())?;
            return Ok(StreamRecord::Lagged { dropped });
        }
        let seq =
            v.get("seq").and_then(Json::as_u64).ok_or_else(|| "missing \"seq\"".to_string())?;
        let job = v
            .get("job")
            .and_then(Json::as_str)
            .and_then(|s| u128::from_str_radix(s, 16).ok())
            .ok_or_else(|| "missing or malformed \"job\"".to_string())?;
        let det = matches!(v.get("det"), Some(Json::Bool(true)));
        let payload = v
            .get("ev")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing \"ev\"".to_string())?
            .to_string();
        Ok(StreamRecord::Event { seq, job, kind, det, payload })
    }

    /// Converts an in-process delivery to its record form (what the
    /// NDJSON round-trip would produce).
    pub fn from_delivery(delivery: &Delivery) -> StreamRecord {
        match delivery {
            Delivery::Event(ev) => StreamRecord::Event {
                seq: ev.seq,
                job: ev.job,
                kind: ev.data.kind().to_string(),
                det: ev.data.is_deterministic(),
                payload: ev.data.detail(),
            },
            Delivery::Lagged { dropped } => StreamRecord::Lagged { dropped: *dropped },
        }
    }
}

#[derive(Default)]
struct JobStream {
    /// Distinct deterministic records, as `kind|payload`. A retried or
    /// resumed execution re-emits a prefix of the same sequence, so the
    /// set union is invariant — this is what makes the digest
    /// byte-identical across worker counts and injection schedules.
    distinct: BTreeSet<String>,
    /// Volatile event tallies (reported, never digested).
    volatile: BTreeMap<String, u64>,
    /// Terminal arrivals, in order (conservation: exactly one).
    terminals: Vec<String>,
    /// Iteration indices seen (contiguity check).
    iterations: BTreeSet<u64>,
    /// Highest iteration index so far.
    max_iteration: u64,
    /// Iteration indices that arrived non-monotonically (a new per-job
    /// maximum may only ever be `max + 1`).
    monotone_breaks: Vec<u64>,
}

/// Accumulates a stream into a per-job digest: deterministic payload
/// sets (hashed), volatile tallies, terminal accounting, and
/// iteration-progress monotonicity. [`StreamDigest::render`] is
/// byte-identical across worker counts for the same job set;
/// [`StreamDigest::violations`] is the event-conservation gate.
#[derive(Default)]
pub struct StreamDigest {
    jobs: BTreeMap<u128, JobStream>,
    lagged: u64,
    records: u64,
}

impl StreamDigest {
    /// A fresh, empty digest.
    pub fn new() -> StreamDigest {
        StreamDigest::default()
    }

    /// Folds one record in.
    pub fn observe(&mut self, record: &StreamRecord) {
        self.records += 1;
        match record {
            StreamRecord::Lagged { dropped } => self.lagged += dropped,
            StreamRecord::Event { job, kind, det, payload, .. } => {
                let js = self.jobs.entry(*job).or_default();
                if kind == "iteration" {
                    if let Some(index) = parse_index(payload) {
                        if index > js.max_iteration {
                            if index != js.max_iteration + 1 {
                                js.monotone_breaks.push(index);
                            }
                            js.max_iteration = index;
                        }
                        js.iterations.insert(index);
                    }
                }
                if kind == "terminal" {
                    js.terminals
                        .push(payload.strip_prefix("outcome=").unwrap_or(payload).to_string());
                }
                if *det {
                    js.distinct.insert(format!("{kind}|{payload}"));
                } else {
                    *js.volatile.entry(kind.clone()).or_insert(0) += 1;
                }
            }
        }
    }

    /// Folds one in-process delivery in.
    pub fn observe_delivery(&mut self, delivery: &Delivery) {
        self.observe(&StreamRecord::from_delivery(delivery));
    }

    /// Total lagged-away events seen in the stream.
    pub fn lagged(&self) -> u64 {
        self.lagged
    }

    /// Total records folded in (events + lag markers).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Job keys seen.
    pub fn job_keys(&self) -> Vec<u128> {
        self.jobs.keys().copied().collect()
    }

    /// The **deterministic** digest: one line per job — distinct
    /// deterministic-event counts per kind, an order-independent FNV-1a
    /// hash over the sorted distinct payloads, and the terminal
    /// outcome(s). Byte-identical across worker counts, retries, and
    /// resumed executions for the same job set.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, js) in &self.jobs {
            let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
            for entry in &js.distinct {
                let kind = entry.split('|').next().unwrap_or(entry);
                *counts.entry(kind).or_insert(0) += 1;
            }
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for entry in &js.distinct {
                hash = fnv1a64(entry, hash);
                hash = fnv1a64("\n", hash);
            }
            let outcomes: BTreeSet<&str> = js.terminals.iter().map(String::as_str).collect();
            let _ = write!(out, "job {key:032x}");
            for (kind, n) in &counts {
                let _ = write!(out, " {kind}={n}");
            }
            let _ = write!(out, " digest={hash:016x}");
            if !outcomes.is_empty() {
                let joined: Vec<&str> = outcomes.into_iter().collect();
                let _ = write!(out, " outcome={}", joined.join(","));
            }
            out.push('\n');
        }
        out
    }

    /// The full report: the deterministic digest plus per-job volatile
    /// tallies and the stream's lag total — for humans, not for
    /// byte-comparison.
    pub fn render_full(&self) -> String {
        let mut out = self.render();
        for (key, js) in &self.jobs {
            if js.volatile.is_empty() {
                continue;
            }
            let _ = write!(out, "sched {key:032x}");
            for (kind, n) in &js.volatile {
                let _ = write!(out, " {kind}={n}");
            }
            out.push('\n');
        }
        let _ = writeln!(out, "lagged {}", self.lagged);
        out
    }

    /// The event-conservation check: every `accepted` job must have
    /// exactly one terminal event **per admission** — job keys are
    /// content-addressed, so a re-submission of finished work re-admits
    /// the same key and legitimately reaches a second terminal. Streams
    /// with no `admitted` events (pure-flow runs, no server) expect
    /// exactly one terminal. Iteration indices must be contiguous from
    /// 1 with monotone arrival (a new per-job maximum only ever
    /// `max + 1`; re-emitting an index at or below the maximum is a
    /// legal resume replay). Returns human-readable violations; empty
    /// means the stream conserves.
    pub fn violations(&self, accepted: &[u128]) -> Vec<String> {
        let mut out = Vec::new();
        for key in accepted {
            let Some(js) = self.jobs.get(key) else {
                out.push(format!("job {key:032x}: accepted but no events in stream"));
                continue;
            };
            let admissions = js.volatile.get("admitted").copied().unwrap_or(1).max(1);
            if js.terminals.len() as u64 != admissions {
                out.push(format!(
                    "job {key:032x}: expected {admissions} terminal event(s) for {admissions} \
                     admission(s), saw {} ({:?})",
                    js.terminals.len(),
                    js.terminals
                ));
            }
            if !js.monotone_breaks.is_empty() {
                out.push(format!(
                    "job {key:032x}: non-monotone iteration progress at indices {:?}",
                    js.monotone_breaks
                ));
            }
            if js.max_iteration > 0 {
                let missing: Vec<u64> =
                    (1..=js.max_iteration).filter(|i| !js.iterations.contains(i)).collect();
                if !missing.is_empty() {
                    out.push(format!(
                        "job {key:032x}: iteration indices not contiguous, missing {missing:?}"
                    ));
                }
            }
        }
        out
    }
}

/// Extracts `index=N` from an iteration payload.
fn parse_index(payload: &str) -> Option<u64> {
    payload.split_whitespace().find_map(|kv| kv.strip_prefix("index=")).and_then(|v| v.parse().ok())
}

/// FNV-1a 64-bit, folded over `s` from state `h`. Local copy — the
/// digest must not depend on other crates.
fn fnv1a64(s: &str, mut h: u64) -> u64 {
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iteration(index: u64) -> FlowEvent {
        FlowEvent::Iteration {
            index,
            phase: 1,
            undetectable: 10 - index,
            clusters: 3,
            s_max: 4,
            delay_ps_bits: 0x4030_0000_0000_0000,
            power_uw_bits: 0x4020_0000_0000_0000,
        }
    }

    #[test]
    fn publish_without_subscribers_mints_no_sequence() {
        let before = published();
        publish_for(7, iteration(1));
        publish_for(7, FlowEvent::ShardDone { shard: 0, faults: 64 });
        crate::flush();
        assert_eq!(published(), before, "no subscriber, nothing published");
    }

    #[test]
    fn drop_oldest_lag_accounting_conserves() {
        let rx = subscribe_with_capacity(Some(42), 4);
        let before = published();
        for i in 1..=10 {
            publish_for(42, iteration(i));
        }
        let deliveries = rx.drain();
        let published_delta = published() - before;
        assert_eq!(published_delta, 10);
        let mut dropped = 0;
        let mut received = Vec::new();
        for d in &deliveries {
            match d {
                Delivery::Lagged { dropped: n } => dropped += n,
                Delivery::Event(ev) => received.push(*ev),
            }
        }
        assert_eq!(dropped, 6, "ring of 4 dropped the 6 oldest");
        assert_eq!(received.len() as u64 + dropped, published_delta, "conservation");
        assert_eq!(
            deliveries.first(),
            Some(&Delivery::Lagged { dropped: 6 }),
            "the gap marker precedes the surviving events"
        );
        // The survivors are the newest, in order.
        let indices: Vec<u64> = received
            .iter()
            .map(|ev| match ev.data {
                FlowEvent::Iteration { index, .. } => index,
                _ => panic!("unexpected event"),
            })
            .collect();
        assert_eq!(indices, vec![7, 8, 9, 10]);
    }

    #[test]
    fn filters_isolate_jobs_and_sequences_are_shared() {
        let rx_a = subscribe(Some(1));
        let rx_b = subscribe(Some(2));
        publish_for(1, FlowEvent::StageEnter { stage: "flow.run" });
        publish_for(2, FlowEvent::StageEnter { stage: "flow.run" });
        publish_for(3, FlowEvent::StageEnter { stage: "flow.run" });
        let a = rx_a.drain();
        let b = rx_b.drain();
        assert_eq!(a.len(), 1, "subscriber A sees only job 1");
        assert_eq!(b.len(), 1, "subscriber B sees only job 2");
        let (Delivery::Event(ea), Delivery::Event(eb)) = (&a[0], &b[0]) else {
            panic!("expected events");
        };
        assert_eq!(ea.job, 1);
        assert_eq!(eb.job, 2);
        assert!(eb.seq > ea.seq, "one sequence across jobs");
    }

    #[test]
    fn hot_events_buffer_until_a_non_hot_publish_or_flush() {
        let rx = subscribe(Some(9));
        publish_for(9, FlowEvent::ShardDone { shard: 0, faults: 8 });
        assert!(rx.try_recv().is_none(), "hot events buffer thread-locally");
        publish_for(9, FlowEvent::Terminal { outcome: TerminalOutcome::Completed });
        let got = rx.drain();
        assert_eq!(got.len(), 2, "the non-hot publish flushed the buffer first");
        let (Delivery::Event(first), Delivery::Event(second)) = (&got[0], &got[1]) else {
            panic!("expected events");
        };
        assert!(matches!(first.data, FlowEvent::ShardDone { .. }), "order preserved");
        assert!(matches!(second.data, FlowEvent::Terminal { .. }), "terminal last");

        publish_for(9, FlowEvent::ShardDone { shard: 1, faults: 8 });
        crate::flush();
        assert_eq!(rx.drain().len(), 1, "crate::flush drains the hot buffer too");
    }

    #[test]
    fn job_scope_nests_and_restores() {
        let job = || Scope::current().job;
        assert_eq!(job(), 0);
        let outer = job_scope(5);
        assert_eq!(job(), 5);
        {
            let _inner = job_scope(6);
            assert_eq!(job(), 6);
        }
        assert_eq!(job(), 5);
        drop(outer);
        assert_eq!(job(), 0);
    }

    #[test]
    fn a_jobs_restore_replaces_only_that_jobs_counters() {
        crate::reset();
        crate::add("server", 1);
        let rx = subscribe(None);
        let parent = Scope::current();
        let snapshot = BTreeMap::from([("job.a".to_string(), 7u64)]);
        let counted = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for (job, own) in [(1u128, "job.a"), (2, "job.b")] {
                let (parent, snapshot, counted) = (&parent, &snapshot, &counted);
                s.spawn(move || {
                    let _observe = parent.enter();
                    let _job = job_scope(job);
                    crate::add(own, 1);
                    crate::add("shared", 1);
                    crate::flush();
                    counted.wait();
                    if job == 1 {
                        crate::restore_counters(snapshot);
                        assert_eq!(crate::counters(), *snapshot, "job 1 holds its snapshot");
                    }
                    counted.wait();
                    if job == 2 {
                        let own = BTreeMap::from([("job.b".to_string(), 1), ("shared".into(), 1)]);
                        assert_eq!(crate::counters(), own, "job 1's restore left job 2 alone");
                    }
                    publish(FlowEvent::Terminal { outcome: TerminalOutcome::Completed });
                });
            }
        });
        let merged = BTreeMap::from([
            ("job.a".to_string(), 7),
            ("job.b".to_string(), 1),
            ("server".to_string(), 1),
            ("shared".to_string(), 1),
        ]);
        assert_eq!(crate::counters(), merged, "the parent holds both jobs' counters");
        let mut jobs: Vec<u128> = rx
            .drain()
            .iter()
            .filter_map(|d| match d {
                Delivery::Event(ev) => Some(ev.job),
                Delivery::Lagged { .. } => None,
            })
            .collect();
        jobs.sort_unstable();
        assert_eq!(jobs, [1, 2], "both jobs published to the parent's bus");
    }

    #[test]
    fn returning_publish_with_a_subscriber_mints_a_sequence() {
        let rx = subscribe(Some(11));
        let ev =
            publish_for_returning(11, FlowEvent::Terminal { outcome: TerminalOutcome::Failed });
        assert_ne!(ev.seq, 0, "a live subscriber existed, so a real sequence was minted");
        assert_eq!(rx.drain().len(), 1);
    }

    #[test]
    fn returning_publish_without_subscribers_carries_seq_zero() {
        let before = published();
        let ev =
            publish_for_returning(13, FlowEvent::Terminal { outcome: TerminalOutcome::Completed });
        assert_eq!(ev.seq, 0);
        assert_eq!(ev.job, 13);
        assert_eq!(published(), before);
    }

    #[test]
    fn seeding_replays_a_stored_terminal() {
        let stored = Event {
            seq: 0,
            job: 21,
            data: FlowEvent::Terminal { outcome: TerminalOutcome::Poisoned },
        };
        let rx = subscribe(Some(21));
        rx.seed(stored);
        assert_eq!(rx.try_recv(), Some(Delivery::Event(stored)));
    }

    #[test]
    fn ndjson_round_trips_events_and_lag_markers() {
        let ev =
            Event { seq: 17, job: 0xDEAD_BEEF_0000_0000_0000_0000_0000_0001, data: iteration(4) };
        let line = ev.to_ndjson();
        let rec = StreamRecord::parse(&line).expect("parse");
        assert_eq!(
            rec,
            StreamRecord::Event {
                seq: 17,
                job: ev.job,
                kind: "iteration".to_string(),
                det: true,
                payload: ev.data.detail(),
            }
        );
        assert_eq!(rec, StreamRecord::from_delivery(&Delivery::Event(ev)));

        let lag = Delivery::Lagged { dropped: 9 };
        assert_eq!(
            StreamRecord::parse(&lag.to_ndjson()).expect("parse"),
            StreamRecord::Lagged { dropped: 9 }
        );
        assert!(StreamRecord::parse("{\"no\":\"kind\"}").is_err());
    }

    #[test]
    fn digest_is_invariant_under_replay_and_detects_gaps() {
        let mut clean = StreamDigest::new();
        let mut replayed = StreamDigest::new();
        let job = 77u128;
        let feed = |d: &mut StreamDigest, data: FlowEvent| {
            d.observe_delivery(&Delivery::Event(Event { seq: 0, job, data }));
        };
        for i in 1..=3 {
            feed(&mut clean, iteration(i));
        }
        feed(&mut clean, FlowEvent::Terminal { outcome: TerminalOutcome::Completed });
        // A retried execution replays iterations 1..=2, then continues.
        for i in [1u64, 2, 1, 2, 3].into_iter() {
            feed(&mut replayed, iteration(i));
        }
        feed(&mut replayed, FlowEvent::Claimed { attempt: 1 });
        feed(&mut replayed, FlowEvent::Terminal { outcome: TerminalOutcome::Completed });
        assert_eq!(clean.render(), replayed.render(), "digest ignores replays and volatiles");
        assert!(clean.violations(&[job]).is_empty());
        assert!(replayed.violations(&[job]).is_empty(), "replaying a prefix is legal");

        // A hole in the progression is a violation.
        let mut gappy = StreamDigest::new();
        feed(&mut gappy, iteration(1));
        feed(&mut gappy, iteration(3));
        feed(&mut gappy, FlowEvent::Terminal { outcome: TerminalOutcome::Completed });
        let v = gappy.violations(&[job]);
        assert!(v.iter().any(|m| m.contains("non-monotone")), "{v:?}");

        // A missing terminal is a violation; an unknown job too.
        let mut silent = StreamDigest::new();
        feed(&mut silent, iteration(1));
        assert!(silent.violations(&[job]).iter().any(|m| m.contains("terminal")));
        assert!(StreamDigest::new().violations(&[1]).iter().any(|m| m.contains("no events")));
    }

    #[test]
    fn digest_render_orders_jobs_and_counts_kinds() {
        let mut d = StreamDigest::new();
        for job in [2u128, 1] {
            d.observe_delivery(&Delivery::Event(Event {
                seq: 0,
                job,
                data: FlowEvent::StageEnter { stage: "flow.run" },
            }));
            d.observe_delivery(&Delivery::Event(Event {
                seq: 0,
                job,
                data: FlowEvent::Terminal { outcome: TerminalOutcome::Completed },
            }));
        }
        d.observe_delivery(&Delivery::Lagged { dropped: 3 });
        let rendered = d.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(&format!("job {:032x}", 1u128)), "jobs sorted by key");
        assert!(lines[0].contains("stage.enter=1"));
        assert!(lines[0].contains("terminal=1"));
        assert!(lines[0].contains("outcome=completed"));
        assert_eq!(d.lagged(), 3);
        assert!(d.render_full().contains("lagged 3"));
    }
}
