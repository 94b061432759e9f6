//! Write-ahead job journal: event schema, replay, and recovery facts.
//!
//! Every job state transition the server performs is appended to a
//! journal segment (see `segment.rs`: checksummed, length-prefixed
//! records in rotating files) *before* the in-memory effect is relied
//! upon, so a process crash can lose at most the transition being
//! written — never an accepted job. [`JobJournal`] owns the writer side
//! (fail-soft: a journal I/O error degrades durability, it never takes
//! down the service); [`replay`] folds a recorded event stream back into
//! per-job facts for [`Server::recover`](crate::Server::recover).
//!
//! The replay is deliberately order-tolerant and damage-tolerant:
//!
//! * Events may reference a key before its `Accepted` record (worker
//!   threads race the submitter into the journal, and an injected torn
//!   write can eat the acceptance). Unknown keys get placeholder
//!   entries; a job whose spec never arrives is reported, not invented.
//! * The first terminal event for a key wins. A *matching* later
//!   terminal (same kind, same fingerprint) is idempotent — the benign
//!   signature of a re-run whose earlier terminal record was torn away —
//!   while a *conflicting* one counts as a duplicate, which the
//!   crash-storm gate asserts never happens.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use rsyn_cache::{Reader, StableHasher, Writer};
use rsyn_observe::Hist;

use crate::job::Priority;

mod segment;

pub use segment::ReadReport;
use segment::{read_dir, AppendOutcome, JournalWriter};

/// Spec facts persisted with an `Accepted` event — everything needed to
/// rebuild and re-admit the job after a crash (the netlist itself is
/// rebuilt from the circuit name by the recovery caller).
#[derive(Clone, Debug, PartialEq)]
pub struct AcceptedSpec {
    /// Benchmark/circuit name the netlist is rebuilt from.
    pub circuit: String,
    /// Relaxation `q` in percent.
    pub q_percent: f64,
    /// Physical-design seed override (`None` = default seed).
    pub seed: Option<u64>,
    /// Scheduling priority at acceptance, as its stable `u8` code.
    pub priority: u8,
    /// Relative deadline in milliseconds, re-armed from recovery time.
    pub deadline_ms: Option<u64>,
}

impl AcceptedSpec {
    /// The recorded priority as a [`Priority`].
    pub fn priority(&self) -> Priority {
        match self.priority {
            0 => Priority::Low,
            1 => Priority::Normal,
            _ => Priority::High,
        }
    }
}

/// One journaled job state transition.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalEvent {
    /// The submission was admitted to the queue.
    Accepted {
        /// Content-addressed job key.
        key: u128,
        /// Everything needed to re-admit the job after a crash.
        spec: AcceptedSpec,
    },
    /// A worker claimed the job for execution attempt `attempt`.
    Started {
        /// Content-addressed job key.
        key: u128,
        /// 0-based execution attempt.
        attempt: u32,
    },
    /// The job has at least one checkpoint on disk (logged once).
    Checkpointed {
        /// Content-addressed job key.
        key: u128,
    },
    /// A crash (panic or watchdog loss) consumed an attempt; the job
    /// requeued.
    Retried {
        /// Content-addressed job key.
        key: u128,
        /// The attempt that failed (0-based).
        attempt: u32,
    },
    /// The job requeued without burning an attempt (preemption) or after
    /// the watchdog declared its worker lost.
    Requeued {
        /// Content-addressed job key.
        key: u128,
    },
    /// A submission was shed (not accepted; carries no key on purpose —
    /// a shed submission has no durable identity to conserve).
    Shed,
    /// Terminal: the flow completed.
    Completed {
        /// Content-addressed job key.
        key: u128,
        /// Compact fingerprint of the result digest (see
        /// [`digest_fingerprint`]).
        fingerprint: String,
    },
    /// Terminal: the flow returned an error, or crashes exhausted the
    /// retry budget.
    Failed {
        /// Content-addressed job key.
        key: u128,
    },
    /// Terminal: cancelled by the owner.
    Cancelled {
        /// Content-addressed job key.
        key: u128,
    },
    /// Terminal: deadline passed.
    DeadlineExceeded {
        /// Content-addressed job key.
        key: u128,
    },
    /// Terminal: quarantined as a poison pill after `crashes` worker
    /// crashes/losses.
    Poisoned {
        /// Content-addressed job key.
        key: u128,
        /// Crashes/losses that led to quarantine.
        crashes: u32,
    },
}

/// Compact, stable fingerprint of a [`report_digest`](crate::report_digest)
/// string: a 32-hex-digit stable hash. Journaled with `Completed` events
/// so recovery can compare results against direct runs without storing
/// whole digests.
pub fn digest_fingerprint(digest: &str) -> String {
    let mut h = StableHasher::new();
    h.write_str("server-digest-fingerprint-v1");
    h.write_str(digest);
    format!("{:032x}", h.finish())
}

const TAG_ACCEPTED: u8 = 0;
const TAG_STARTED: u8 = 1;
const TAG_CHECKPOINTED: u8 = 2;
const TAG_RETRIED: u8 = 3;
const TAG_REQUEUED: u8 = 4;
const TAG_SHED: u8 = 5;
const TAG_COMPLETED: u8 = 6;
const TAG_FAILED: u8 = 7;
const TAG_CANCELLED: u8 = 8;
const TAG_DEADLINE: u8 = 9;
const TAG_POISONED: u8 = 10;

/// Writes a job key as two little-endian `u64` halves, low half first —
/// the bytes of `key.to_le_bytes()`.
fn put_key(w: &mut Writer, key: u128) {
    w.put_u64(key as u64);
    w.put_u64((key >> 64) as u64);
}

fn get_key(r: &mut Reader) -> Option<u128> {
    let low = r.get_u64()?;
    let high = r.get_u64()?;
    Some(u128::from(high) << 64 | u128::from(low))
}

/// Writes an optional value as a flag byte (0 = absent, 1 = present)
/// followed, when present, by the value.
fn put_opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        None => w.put_u8(0),
        Some(v) => {
            w.put_u8(1);
            w.put_u64(v);
        }
    }
}

fn get_opt_u64(r: &mut Reader) -> Option<Option<u64>> {
    match r.get_u8()? {
        0 => Some(None),
        1 => Some(Some(r.get_u64()?)),
        _ => None,
    }
}

impl JournalEvent {
    fn tag(&self) -> u8 {
        match self {
            JournalEvent::Accepted { .. } => TAG_ACCEPTED,
            JournalEvent::Started { .. } => TAG_STARTED,
            JournalEvent::Checkpointed { .. } => TAG_CHECKPOINTED,
            JournalEvent::Retried { .. } => TAG_RETRIED,
            JournalEvent::Requeued { .. } => TAG_REQUEUED,
            JournalEvent::Shed => TAG_SHED,
            JournalEvent::Completed { .. } => TAG_COMPLETED,
            JournalEvent::Failed { .. } => TAG_FAILED,
            JournalEvent::Cancelled { .. } => TAG_CANCELLED,
            JournalEvent::DeadlineExceeded { .. } => TAG_DEADLINE,
            JournalEvent::Poisoned { .. } => TAG_POISONED,
        }
    }

    /// Serialises the event to its record payload: the tag byte, the job
    /// key (every event but `Shed`), then the event's own fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(self.tag());
        if let Some(key) = self.key() {
            put_key(&mut w, key);
        }
        match self {
            JournalEvent::Accepted { spec, .. } => {
                w.put_str(&spec.circuit);
                w.put_f64(spec.q_percent);
                put_opt_u64(&mut w, spec.seed);
                w.put_u8(spec.priority);
                put_opt_u64(&mut w, spec.deadline_ms);
            }
            JournalEvent::Started { attempt, .. } | JournalEvent::Retried { attempt, .. } => {
                w.put_u32(*attempt);
            }
            JournalEvent::Completed { fingerprint, .. } => w.put_str(fingerprint),
            JournalEvent::Poisoned { crashes, .. } => w.put_u32(*crashes),
            JournalEvent::Checkpointed { .. }
            | JournalEvent::Requeued { .. }
            | JournalEvent::Shed
            | JournalEvent::Failed { .. }
            | JournalEvent::Cancelled { .. }
            | JournalEvent::DeadlineExceeded { .. } => {}
        }
        w.into_bytes()
    }

    /// Parses a record payload. `None` on any malformation (unknown tag,
    /// short buffer, trailing bytes) — never panics on arbitrary input.
    pub fn decode(payload: &[u8]) -> Option<JournalEvent> {
        let mut r = Reader::new(payload);
        let tag = r.get_u8()?;
        if tag == TAG_SHED {
            return r.finished().then_some(JournalEvent::Shed);
        }
        let key = get_key(&mut r)?;
        let event = match tag {
            TAG_ACCEPTED => {
                let circuit = r.get_str()?.to_owned();
                let q_percent = r.get_f64()?;
                let seed = get_opt_u64(&mut r)?;
                let priority = r.get_u8()?;
                let deadline_ms = get_opt_u64(&mut r)?;
                JournalEvent::Accepted {
                    key,
                    spec: AcceptedSpec { circuit, q_percent, seed, priority, deadline_ms },
                }
            }
            TAG_STARTED => JournalEvent::Started { key, attempt: r.get_u32()? },
            TAG_CHECKPOINTED => JournalEvent::Checkpointed { key },
            TAG_RETRIED => JournalEvent::Retried { key, attempt: r.get_u32()? },
            TAG_REQUEUED => JournalEvent::Requeued { key },
            TAG_COMPLETED => JournalEvent::Completed { key, fingerprint: r.get_str()?.to_owned() },
            TAG_FAILED => JournalEvent::Failed { key },
            TAG_CANCELLED => JournalEvent::Cancelled { key },
            TAG_DEADLINE => JournalEvent::DeadlineExceeded { key },
            TAG_POISONED => JournalEvent::Poisoned { key, crashes: r.get_u32()? },
            _ => return None,
        };
        r.finished().then_some(event)
    }

    /// The job key the event concerns (`None` for `Shed`).
    pub fn key(&self) -> Option<u128> {
        match self {
            JournalEvent::Accepted { key, .. }
            | JournalEvent::Started { key, .. }
            | JournalEvent::Checkpointed { key }
            | JournalEvent::Retried { key, .. }
            | JournalEvent::Requeued { key }
            | JournalEvent::Completed { key, .. }
            | JournalEvent::Failed { key }
            | JournalEvent::Cancelled { key }
            | JournalEvent::DeadlineExceeded { key }
            | JournalEvent::Poisoned { key, .. } => Some(*key),
            JournalEvent::Shed => None,
        }
    }
}

/// The writer half: appends events fail-soft and keeps local telemetry.
///
/// A journal write error (or injected damage) is recorded, never raised:
/// losing one record degrades what recovery can reconstruct, while an
/// error path through the scheduler would lose the job *now*.
pub struct JobJournal {
    writer: JournalWriter,
    record_bytes: Hist,
    write_errs: u64,
    damaged: u64,
}

impl JobJournal {
    /// Opens (or creates) the journal under `dir`. Always starts a fresh
    /// segment — a previous process's torn tail is never extended.
    pub fn open(dir: &Path) -> io::Result<Self> {
        Ok(Self {
            writer: JournalWriter::open(dir)?,
            record_bytes: Hist::default(),
            write_errs: 0,
            damaged: 0,
        })
    }

    /// Appends one event. Damage (injected or real I/O failure) is
    /// tallied, not raised.
    pub fn append(&mut self, event: &JournalEvent) {
        let payload = event.encode();
        self.record_bytes.record(payload.len() as u64);
        match self.writer.append(&payload) {
            Ok(AppendOutcome::Written) => {}
            Ok(AppendOutcome::Damaged) => self.damaged += 1,
            Err(_) => self.write_errs += 1,
        }
    }

    /// Distribution of encoded record sizes appended so far.
    pub fn record_bytes(&self) -> &Hist {
        &self.record_bytes
    }

    /// Appends that failed with a real I/O error.
    pub fn write_errs(&self) -> u64 {
        self.write_errs
    }

    /// Deletes every segment written before this journal was opened —
    /// the compaction step, once recovery has rewritten surviving open
    /// jobs into the current segment chain. Fail-soft like [`append`]:
    /// an I/O error is tallied as a write error and compaction simply
    /// removes less. Returns how many segments were removed.
    ///
    /// [`append`]: JobJournal::append
    pub fn compact(&mut self) -> u64 {
        match self.writer.remove_segments_below_base() {
            Ok(removed) => removed,
            Err(_) => {
                self.write_errs += 1;
                0
            }
        }
    }

    /// Appends lost to injected torn/truncated writes.
    pub fn damaged(&self) -> u64 {
        self.damaged
    }

    /// Reads and decodes every event under `dir`, in journal order.
    /// Returns the events, the segment-level report, and the count of
    /// checksum-valid records that failed event decoding.
    pub fn read(dir: &Path) -> io::Result<(Vec<JournalEvent>, ReadReport, u64)> {
        let (payloads, report) = read_dir(dir)?;
        let mut events = Vec::with_capacity(payloads.len());
        let mut undecodable = 0u64;
        for payload in &payloads {
            match JournalEvent::decode(payload) {
                Some(ev) => events.push(ev),
                None => undecodable += 1,
            }
        }
        Ok((events, report, undecodable))
    }
}

/// How a replayed job ended, when it did.
#[derive(Clone, Debug, PartialEq)]
pub enum TerminalKind {
    /// Completed with this digest fingerprint.
    Completed(String),
    /// The flow returned an error, or crashes ran out of retries.
    Failed,
    /// Cancelled by the owner.
    Cancelled,
    /// Deadline passed.
    DeadlineExceeded,
    /// Quarantined after this many crashes/losses.
    Poisoned(u32),
}

/// Everything the journal proves about one job.
#[derive(Clone, Debug)]
pub struct ReplayedJob {
    /// Content-addressed job key.
    pub key: u128,
    /// Acceptance facts; `None` when no (intact) `Accepted` record was
    /// found — such a job is reported but never re-admitted or invented.
    pub spec: Option<AcceptedSpec>,
    /// Whether a `Checkpointed` record was seen (a resume is possible).
    pub checkpointed: bool,
    /// The winning (first) terminal, if any.
    pub terminal: Option<TerminalKind>,
}

impl ReplayedJob {
    /// True when the job was accepted but never reached a terminal:
    /// recovery must re-admit it.
    pub fn is_open(&self) -> bool {
        self.spec.is_some() && self.terminal.is_none()
    }
}

/// Replay outcome over a full event stream.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per-job facts, in first-seen order.
    pub jobs: Vec<ReplayedJob>,
    /// `Shed` records seen (not conserved — sheds have no identity).
    pub sheds: u64,
    /// Matching repeat terminals (benign re-run after a torn terminal).
    pub idempotent_terminals: u64,
    /// Conflicting repeat terminals — a conservation violation.
    pub duplicate_terminals: u64,
}

impl Replay {
    /// The job with `key`, if the journal mentions it.
    pub fn job(&self, key: u128) -> Option<&ReplayedJob> {
        self.jobs.iter().find(|j| j.key == key)
    }

    /// Events that referenced a key whose acceptance never surfaced.
    pub fn lost_spec(&self) -> u64 {
        self.jobs.iter().filter(|j| j.spec.is_none()).count() as u64
    }
}

/// Folds an event stream into per-job facts (see the module docs for the
/// ordering and damage tolerances).
pub fn replay(events: &[JournalEvent]) -> Replay {
    let mut out = Replay::default();
    let mut index: BTreeMap<u128, usize> = BTreeMap::new();
    let mut job_at = |jobs: &mut Vec<ReplayedJob>, key: u128| -> usize {
        *index.entry(key).or_insert_with(|| {
            jobs.push(ReplayedJob { key, spec: None, checkpointed: false, terminal: None });
            jobs.len() - 1
        })
    };
    for event in events {
        let terminal = match event {
            JournalEvent::Shed => {
                out.sheds += 1;
                continue;
            }
            JournalEvent::Accepted { key, spec } => {
                let at = job_at(&mut out.jobs, *key);
                let job = &mut out.jobs[at];
                if job.spec.is_none() {
                    job.spec = Some(spec.clone());
                }
                continue;
            }
            JournalEvent::Checkpointed { key } => {
                let at = job_at(&mut out.jobs, *key);
                out.jobs[at].checkpointed = true;
                continue;
            }
            // Execution progress proves the key was journaled; whether
            // the job is open depends only on acceptance and terminals.
            JournalEvent::Started { key, .. }
            | JournalEvent::Retried { key, .. }
            | JournalEvent::Requeued { key } => {
                job_at(&mut out.jobs, *key);
                continue;
            }
            JournalEvent::Completed { key, fingerprint } => {
                (*key, TerminalKind::Completed(fingerprint.clone()))
            }
            JournalEvent::Failed { key } => (*key, TerminalKind::Failed),
            JournalEvent::Cancelled { key } => (*key, TerminalKind::Cancelled),
            JournalEvent::DeadlineExceeded { key } => (*key, TerminalKind::DeadlineExceeded),
            JournalEvent::Poisoned { key, crashes } => (*key, TerminalKind::Poisoned(*crashes)),
        };
        let (key, kind) = terminal;
        let at = job_at(&mut out.jobs, key);
        let job = &mut out.jobs[at];
        match &job.terminal {
            None => job.terminal = Some(kind),
            Some(existing) if *existing == kind => out.idempotent_terminals += 1,
            Some(_) => out.duplicate_terminals += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(circuit: &str) -> AcceptedSpec {
        AcceptedSpec {
            circuit: circuit.to_string(),
            q_percent: 5.0,
            seed: Some(0x5EED),
            priority: 2,
            deadline_ms: Some(1500),
        }
    }

    fn all_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Accepted { key: 7, spec: spec("sparc_ffu") },
            JournalEvent::Started { key: 7, attempt: 0 },
            JournalEvent::Checkpointed { key: 7 },
            JournalEvent::Retried { key: 7, attempt: 0 },
            JournalEvent::Requeued { key: 7 },
            JournalEvent::Shed,
            JournalEvent::Completed { key: 7, fingerprint: "ab".repeat(16) },
            JournalEvent::Failed { key: 8 },
            JournalEvent::Cancelled { key: 9 },
            JournalEvent::DeadlineExceeded { key: 10 },
            JournalEvent::Poisoned { key: 11, crashes: 3 },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for event in all_events() {
            let bytes = event.encode();
            assert_eq!(JournalEvent::decode(&bytes), Some(event.clone()), "{event:?}");
            // Any strict prefix must fail cleanly, never panic.
            for cut in 0..bytes.len() {
                assert_eq!(JournalEvent::decode(&bytes[..cut]), None, "{event:?} cut at {cut}");
            }
            let mut padded = bytes.clone();
            padded.push(0);
            assert_eq!(JournalEvent::decode(&padded), None, "trailing bytes are malformation");
        }
    }

    #[test]
    fn fingerprints_are_stable_and_digest_sensitive() {
        let a = digest_fingerprint("verdicts DDU\naccepted 3\n");
        assert_eq!(a, digest_fingerprint("verdicts DDU\naccepted 3\n"));
        assert_eq!(a.len(), 32);
        assert_ne!(a, digest_fingerprint("verdicts DDN\naccepted 3\n"));
    }

    #[test]
    fn replay_reconstructs_lifecycles() {
        let fp = "cd".repeat(16);
        let events = vec![
            JournalEvent::Accepted { key: 1, spec: spec("sparc_ffu") },
            JournalEvent::Started { key: 1, attempt: 0 },
            // killed here: no follow-up for attempt 0
            JournalEvent::Started { key: 1, attempt: 0 },
            JournalEvent::Completed { key: 1, fingerprint: fp.clone() },
            JournalEvent::Accepted { key: 2, spec: spec("sparc_tlu") },
            JournalEvent::Started { key: 2, attempt: 0 },
            JournalEvent::Shed,
        ];
        let replay = replay(&events);
        assert_eq!(replay.sheds, 1);
        assert_eq!(replay.duplicate_terminals, 0);
        let done = replay.job(1).expect("job 1");
        assert_eq!(done.terminal, Some(TerminalKind::Completed(fp)));
        assert!(!done.is_open());
        let open = replay.job(2).expect("job 2");
        assert!(open.is_open(), "accepted without terminal must be re-admitted");
        assert_eq!(replay.jobs.len(), 2);
    }

    #[test]
    fn replay_tolerates_reordering_and_flags_conflicts() {
        // A worker's Started can land before the submitter's Accepted.
        let events = vec![
            JournalEvent::Started { key: 3, attempt: 0 },
            JournalEvent::Accepted { key: 3, spec: spec("sparc_ffu") },
            JournalEvent::Completed { key: 3, fingerprint: "00".repeat(16) },
            // Idempotent repeat (torn terminal, benign re-run)...
            JournalEvent::Completed { key: 3, fingerprint: "00".repeat(16) },
            // ...versus a conflicting one (must be flagged).
            JournalEvent::Completed { key: 3, fingerprint: "11".repeat(16) },
            // An orphan: its Accepted was eaten by a torn write.
            JournalEvent::Failed { key: 4 },
        ];
        let replay = replay(&events);
        assert_eq!(replay.idempotent_terminals, 1);
        assert_eq!(replay.duplicate_terminals, 1);
        let job = replay.job(3).expect("job 3");
        assert_eq!(job.terminal, Some(TerminalKind::Completed("00".repeat(16))), "first wins");
        assert_eq!(replay.lost_spec(), 1, "the orphan is reported");
        assert!(replay.job(4).expect("orphan").spec.is_none(), "never invented");
        assert!(replay.jobs.iter().all(|job| !job.is_open()));
    }

    #[test]
    fn journal_round_trips_through_segments() {
        // Journal writes consume injection ordinals: hold a session, so a
        // test arming a tear plan in parallel neither sees these writes
        // nor tears them.
        let _session = crate::inject::arm(crate::inject::InjectionPlan::new());
        let dir = std::env::temp_dir().join(format!("rsyn-server-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let events = all_events();
        {
            let mut journal = JobJournal::open(&dir).expect("open");
            for event in &events {
                journal.append(event);
            }
            assert_eq!(journal.write_errs(), 0);
            assert_eq!(journal.damaged(), 0);
            assert_eq!(journal.record_bytes().count, events.len() as u64);
        }
        let (read, report, undecodable) = JobJournal::read(&dir).expect("read");
        assert_eq!(read, events);
        assert_eq!(report.damaged_segments, 0);
        assert_eq!(undecodable, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
