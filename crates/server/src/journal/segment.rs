//! Write-ahead journal segments: checksummed, length-prefixed records.
//!
//! The flow service journals every job state transition so a process
//! crash loses no accepted work (the server replays the journal on
//! restart). This module owns the *byte-level* codec and segment
//! discipline; the parent module owns event semantics.
//!
//! The on-disk idiom mirrors the `rsyn-cache` entry format: a fixed
//! magic + format-version header, then length-prefixed, checksummed
//! payloads. What a journal adds on top is *torn-tail tolerance*:
//!
//! * A writer never appends to an existing segment. [`JournalWriter::open`]
//!   always starts a fresh segment (`wal-NNNNNN.rsj`, monotonically
//!   numbered), so a tail torn by a crash is never extended — the damage
//!   stays confined to the dead process's last segment.
//! * Segments are created as a temp file, given their header, synced,
//!   then renamed into place, so a reader never observes a half-written
//!   header.
//! * Each record is `len: u32 LE | checksum: u64 LE | payload`, synced
//!   after the write. A reader stops at the first damaged record *within
//!   a segment* but keeps reading later segments: one torn write cannot
//!   shadow records that were durably appended after rotation.
//!
//! Failure injection ([`rsyn_resilience::inject`]) can tear or truncate
//! an append mid-record; the writer then abandons the segment and
//! rotates, exactly as a crashed-and-restarted process would.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use rsyn_resilience::inject::{self, JournalWriteFate};

/// Magic bytes opening every journal segment.
const JOURNAL_MAGIC: [u8; 4] = *b"RSJ1";
/// On-disk format version recorded in each segment header. A segment
/// written under another version reads as damaged, so a record layout
/// change never half-decodes old records.
const JOURNAL_FORMAT: u32 = 3;
/// Bytes in a segment header: magic, format version, reserved word.
const SEGMENT_HEADER_LEN: usize = 16;
/// Bytes prefixed to every record payload: length + checksum.
const RECORD_HEADER_LEN: usize = 12;
/// Upper bound on a single record payload; longer lengths in a segment
/// are treated as damage (a torn length prefix must not trigger a huge
/// allocation).
const MAX_RECORD_LEN: u32 = 1 << 26;

/// Records per segment before the writer rotates to a fresh file.
const ROTATE_EVERY: u64 = 1024;

/// FNV-1a 64-bit checksum. Stable across platforms and fast enough to
/// run on every append. (`rsyn-cache` guards its entries with a 128-bit
/// `StableHasher` digest instead.)
fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encodes one record (header + payload) ready to append to a segment.
fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Splits a segment *body* (bytes after the header) into payloads.
///
/// Returns the records decoded before the first damage, plus whether
/// damage was found. A clean end-of-body is not damage; a partial
/// header, an absurd length, a payload running past the buffer, or a
/// checksum mismatch all are. Decoding never panics on arbitrary input.
fn decode_records(body: &[u8]) -> (Vec<Vec<u8>>, bool) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < body.len() {
        let rem = body.len() - pos;
        if rem < RECORD_HEADER_LEN {
            return (records, true);
        }
        let len = u32::from_le_bytes([body[pos], body[pos + 1], body[pos + 2], body[pos + 3]]);
        if len > MAX_RECORD_LEN || (len as usize) > rem - RECORD_HEADER_LEN {
            return (records, true);
        }
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&body[pos + 4..pos + 12]);
        let start = pos + RECORD_HEADER_LEN;
        let payload = &body[start..start + len as usize];
        if checksum64(payload) != u64::from_le_bytes(sum) {
            return (records, true);
        }
        records.push(payload.to_vec());
        pos = start + len as usize;
    }
    (records, false)
}

/// What [`JournalWriter::append`] actually did, so callers can count
/// injected damage without re-deriving it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum AppendOutcome {
    /// The record is durably on disk.
    Written,
    /// An injected fault tore the write mid-record; the record is lost
    /// and the writer has abandoned the segment (the next append opens a
    /// fresh one).
    Damaged,
}

/// Aggregate result of reading a journal directory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadReport {
    /// Segments visited (including fully damaged ones).
    pub segments: u64,
    /// Records decoded across all segments.
    pub records: u64,
    /// Segments with a bad header or at least one damaged record.
    pub damaged_segments: u64,
}

/// Appends checksummed records to rotating journal segments.
pub(super) struct JournalWriter {
    dir: PathBuf,
    next_seq: u64,
    /// First segment number this writer can own, recorded at open: every
    /// segment written by a previous process is numbered below it.
    base_seq: u64,
    file: Option<File>,
    seg_records: u64,
}

impl JournalWriter {
    /// Opens a writer over `dir`, creating the directory if needed. The
    /// first append lands in a brand-new segment numbered after every
    /// existing one — a prior process's torn tail is never extended.
    pub(super) fn open(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let next_seq = max_segment_seq(dir)?.map_or(0, |s| s + 1);
        Ok(Self {
            dir: dir.to_path_buf(),
            next_seq,
            base_seq: next_seq,
            file: None,
            seg_records: 0,
        })
    }

    /// Deletes every segment written *before* this writer opened (those
    /// numbered below its base) — the compaction step, once surviving
    /// state has been rewritten into this writer's own segment chain.
    /// Returns how many segments were removed.
    pub(super) fn remove_segments_below_base(&self) -> io::Result<u64> {
        let mut removed = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(seq) = entry.file_name().to_str().and_then(segment_seq) {
                if seq < self.base_seq {
                    fs::remove_file(entry.path())?;
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }

    /// Appends one record, rotating segments as needed. Injection can
    /// tear or truncate the write; the caller learns via the outcome.
    pub(super) fn append(&mut self, payload: &[u8]) -> io::Result<AppendOutcome> {
        if self.file.is_none() || self.seg_records >= ROTATE_EVERY {
            self.rotate()?;
        }
        let rec = encode_record(payload);
        let fate = inject::journal_write_fate();
        let file = self.file.as_mut().expect("segment opened above");
        let cut = match fate {
            JournalWriteFate::Full => rec.len(),
            // A torn write loses roughly half the record; a truncation
            // loses only the final byte. Both leave an undecodable tail.
            JournalWriteFate::Torn => rec.len() / 2,
            JournalWriteFate::Truncated => rec.len() - 1,
        };
        file.write_all(&rec[..cut])?;
        file.sync_data()?;
        if cut == rec.len() {
            self.seg_records += 1;
            Ok(AppendOutcome::Written)
        } else {
            // Abandon the damaged segment so later records do not land
            // behind an undecodable tail.
            self.file = None;
            Ok(AppendOutcome::Damaged)
        }
    }

    fn rotate(&mut self) -> io::Result<()> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tmp = self.dir.join(format!("wal-{seq:06}.rsj.tmp"));
        let fin = self.dir.join(segment_name(seq));
        let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        let mut header = [0u8; SEGMENT_HEADER_LEN];
        header[..4].copy_from_slice(&JOURNAL_MAGIC);
        header[4..8].copy_from_slice(&JOURNAL_FORMAT.to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        fs::rename(&tmp, &fin)?;
        self.file = Some(file);
        self.seg_records = 0;
        Ok(())
    }
}

/// Name of segment number `seq`.
fn segment_name(seq: u64) -> String {
    format!("wal-{seq:06}.rsj")
}

fn segment_seq(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("wal-")?.strip_suffix(".rsj")?;
    stem.parse().ok()
}

fn max_segment_seq(dir: &Path) -> io::Result<Option<u64>> {
    let mut max = None;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(segment_seq) {
            max = Some(max.map_or(seq, |m: u64| m.max(seq)));
        }
    }
    Ok(max)
}

/// Reads every record from every segment under `dir`, in segment order.
///
/// Damage (bad header, torn record) stops decoding within that segment
/// only; later segments still contribute their records. A missing
/// directory reads as an empty journal.
pub(super) fn read_dir(dir: &Path) -> io::Result<(Vec<Vec<u8>>, ReadReport)> {
    let mut report = ReadReport::default();
    let mut records = Vec::new();
    let mut seqs: Vec<u64> = match fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().and_then(segment_seq))
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    seqs.sort_unstable();
    for seq in seqs {
        report.segments += 1;
        let mut bytes = Vec::new();
        File::open(dir.join(segment_name(seq)))?.read_to_end(&mut bytes)?;
        if bytes.len() < SEGMENT_HEADER_LEN
            || bytes[..4] != JOURNAL_MAGIC
            || bytes[4..8] != JOURNAL_FORMAT.to_le_bytes()
        {
            report.damaged_segments += 1;
            continue;
        }
        let (recs, damaged) = decode_records(&bytes[SEGMENT_HEADER_LEN..]);
        report.records += recs.len() as u64;
        records.extend(recs);
        if damaged {
            report.damaged_segments += 1;
        }
    }
    Ok((records, report))
}

#[cfg(test)]
mod tests {
    // Appends consult the process-global journal-write fate. Every test
    // that appends therefore holds the injection session (arming an empty
    // plan when it injects nothing): an unarmed append while an armed test
    // runs would consume that test's append ordinals, or be handed its
    // fates.

    use super::*;
    use rsyn_resilience::inject::InjectionPlan;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rsyn-segment-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_records_across_writer_reopens() {
        let _session = inject::arm(InjectionPlan::new());
        let dir = tmp_dir("roundtrip");
        {
            let mut w = JournalWriter::open(&dir).expect("open");
            assert_eq!(w.append(b"alpha").expect("append"), AppendOutcome::Written);
            assert_eq!(w.append(b"").expect("append"), AppendOutcome::Written);
        }
        {
            let mut w = JournalWriter::open(&dir).expect("reopen");
            assert_eq!(w.append(b"beta").expect("append"), AppendOutcome::Written);
        }
        let (records, report) = read_dir(&dir).expect("read");
        assert_eq!(records, vec![b"alpha".to_vec(), Vec::new(), b"beta".to_vec()]);
        assert_eq!(report.segments, 2, "each open starts a fresh segment");
        assert_eq!(report.damaged_segments, 0);
        assert_eq!(report.records, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_reads_as_empty() {
        let dir = tmp_dir("missing");
        let (records, report) = read_dir(&dir).expect("read");
        assert!(records.is_empty());
        assert_eq!(report, ReadReport::default());
    }

    #[test]
    fn torn_tail_is_confined_to_its_segment() {
        let _session = inject::arm(InjectionPlan::new());
        let dir = tmp_dir("torn");
        {
            let mut w = JournalWriter::open(&dir).expect("open");
            w.append(b"before").expect("append");
            // Tear the next record by hand: write a partial encoding at
            // the segment tail, as a crash mid-write would leave behind.
            let rec = encode_record(b"lost-to-the-crash");
            let file = w.file.as_mut().expect("open segment");
            file.write_all(&rec[..rec.len() / 2]).expect("torn write");
        }
        {
            let mut w = JournalWriter::open(&dir).expect("reopen");
            w.append(b"after").expect("append");
        }
        let (records, report) = read_dir(&dir).expect("read");
        assert_eq!(records, vec![b"before".to_vec(), b"after".to_vec()]);
        assert_eq!(report.damaged_segments, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let _session = inject::arm(InjectionPlan::new());
        let dir = tmp_dir("corrupt");
        {
            let mut w = JournalWriter::open(&dir).expect("open");
            w.append(b"pristine").expect("append");
        }
        let seg = dir.join(segment_name(0));
        let mut bytes = fs::read(&seg).expect("segment");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&seg, &bytes).expect("rewrite");
        let (records, report) = read_dir(&dir).expect("read");
        assert!(records.is_empty(), "flipped byte must fail the checksum");
        assert_eq!(report.damaged_segments, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_tear_rotates_and_preserves_later_records() {
        let dir = tmp_dir("inject");
        let plan = InjectionPlan::new().tear_journal_write(1).truncate_journal_write(3);
        let armed = inject::arm(plan);
        let mut w = JournalWriter::open(&dir).expect("open");
        assert_eq!(w.append(b"first").expect("append"), AppendOutcome::Written);
        assert_eq!(w.append(b"torn").expect("append"), AppendOutcome::Damaged);
        assert_eq!(w.append(b"second").expect("append"), AppendOutcome::Written);
        assert_eq!(w.append(b"truncated").expect("append"), AppendOutcome::Damaged);
        assert_eq!(w.append(b"third").expect("append"), AppendOutcome::Written);
        drop(w);
        let fired = armed.fired_counts();
        drop(armed);
        let (records, report) = read_dir(&dir).expect("read");
        assert_eq!(records, vec![b"first".to_vec(), b"second".to_vec(), b"third".to_vec()]);
        assert_eq!(report.damaged_segments, 2, "each injected fault damages one segment");
        assert_eq!(fired.get("inject.fired.torn_journal"), Some(&1));
        assert_eq!(fired.get("inject.fired.journal_truncate"), Some(&1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_removes_only_pre_open_segments() {
        let _session = inject::arm(InjectionPlan::new());
        let dir = tmp_dir("compact");
        {
            let mut w = JournalWriter::open(&dir).expect("open");
            w.append(b"old-one").expect("append");
        }
        {
            let mut w = JournalWriter::open(&dir).expect("reopen");
            w.append(b"old-two").expect("append");
        }
        let mut w = JournalWriter::open(&dir).expect("third open");
        assert_eq!(w.base_seq, 2);
        w.append(b"survivor").expect("append");
        assert_eq!(w.remove_segments_below_base().expect("compact"), 2);
        // Idempotent: nothing below base remains.
        assert_eq!(w.remove_segments_below_base().expect("compact again"), 0);
        w.append(b"after-compaction").expect("append");
        let (records, report) = read_dir(&dir).expect("read");
        assert_eq!(records, vec![b"survivor".to_vec(), b"after-compaction".to_vec()]);
        assert_eq!(report.damaged_segments, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn previous_format_segments_read_as_damaged() {
        let dir = tmp_dir("old-format");
        fs::create_dir_all(&dir).expect("dir");
        // A well-formed segment in every respect but its format version:
        // its records must not be decoded under the current layout.
        let mut bytes = vec![0u8; SEGMENT_HEADER_LEN];
        bytes[..4].copy_from_slice(&JOURNAL_MAGIC);
        bytes[4..8].copy_from_slice(&(JOURNAL_FORMAT - 1).to_le_bytes());
        bytes.extend(encode_record(b"old-layout"));
        fs::write(dir.join(segment_name(0)), &bytes).expect("segment");
        let (records, report) = read_dir(&dir).expect("read");
        assert!(records.is_empty(), "an old-format segment contributes no records");
        assert_eq!(report, ReadReport { segments: 1, records: 0, damaged_segments: 1 });
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_tolerates_arbitrary_garbage() {
        let (records, damaged) = decode_records(&[0xFF; 7]);
        assert!(records.is_empty());
        assert!(damaged);
        let huge = [0xFFu8; 64];
        let (records, damaged) = decode_records(&huge);
        assert!(records.is_empty());
        assert!(damaged, "absurd length prefix is damage, not an allocation");
    }
}
