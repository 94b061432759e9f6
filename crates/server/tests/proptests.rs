//! Property tests for the write-ahead job journal: arbitrary events
//! round-trip through the record codec, and *any* byte-level truncation
//! of a valid journal — the on-disk shape of a crash mid-append —
//! recovers to a clean prefix without panicking and without inventing
//! jobs that were never accepted.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rsyn_server::{replay, AcceptedSpec, JobJournal, JournalEvent};

/// SplitMix64 — all event content derives from one drawn seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn spec(state: &mut u64) -> AcceptedSpec {
    AcceptedSpec {
        // Names stress the string codec: empty, multi-byte, long.
        circuit: match mix(state) % 4 {
            0 => String::new(),
            1 => "sparc_ffu".to_string(),
            2 => "漢字\"\\\n".to_string(),
            _ => "x".repeat((mix(state) % 300) as usize),
        },
        q_percent: {
            // Bit-level float edge cases, minus NaN (the round-trip
            // assertion compares with PartialEq; the codec itself is
            // bit-preserving either way).
            let q = f64::from_bits(mix(state));
            if q.is_nan() {
                -0.0
            } else {
                q
            }
        },
        seed: (mix(state) % 2 == 0).then(|| mix(state)),
        priority: (mix(state) % 3) as u8,
        deadline_ms: (mix(state) % 2 == 0).then(|| mix(state)),
    }
}

fn event(state: &mut u64, keys: &[u128]) -> JournalEvent {
    let key = keys[(mix(state) % keys.len() as u64) as usize];
    match mix(state) % 11 {
        0 => JournalEvent::Accepted { key, spec: spec(state) },
        1 => JournalEvent::Started { key, attempt: mix(state) as u32 },
        2 => JournalEvent::Checkpointed { key },
        3 => JournalEvent::Retried { key, attempt: mix(state) as u32 },
        4 => JournalEvent::Requeued { key },
        5 => JournalEvent::Shed,
        6 => {
            JournalEvent::Completed { key, fingerprint: format!("{:032x}", u128::from(mix(state))) }
        }
        7 => JournalEvent::Failed { key },
        8 => JournalEvent::Cancelled { key },
        9 => JournalEvent::DeadlineExceeded { key },
        _ => JournalEvent::Poisoned { key, crashes: mix(state) as u32 },
    }
}

fn keys(state: &mut u64) -> Vec<u128> {
    (0..1 + mix(state) % 5)
        .map(|_| (u128::from(mix(state)) << 64) | u128::from(mix(state)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// encode → decode is the identity on every event shape, and no
    /// strict prefix of an encoding decodes (torn records are detected,
    /// never misread).
    #[test]
    fn journal_events_round_trip(seed in any::<u64>(), n in 1usize..24) {
        let mut state = seed;
        let pool = keys(&mut state);
        for _ in 0..n {
            let e = event(&mut state, &pool);
            let bytes = e.encode();
            prop_assert_eq!(JournalEvent::decode(&bytes).as_ref(), Some(&e));
            for cut in 0..bytes.len() {
                prop_assert!(
                    JournalEvent::decode(&bytes[..cut]).is_none(),
                    "strict prefix of length {} decoded",
                    cut
                );
            }
        }
    }

    /// Truncating a valid journal at ANY byte position (a crash mid-write
    /// tears the tail arbitrarily) still recovers: reading never panics,
    /// the surviving events are exactly a prefix of what was written, and
    /// replay never invents a job key that was never journaled.
    #[test]
    fn any_truncation_recovers_a_clean_prefix(
        seed in any::<u64>(),
        n in 1usize..32,
        cut_sel in any::<u64>(),
    ) {
        let mut state = seed;
        let pool = keys(&mut state);
        let written: Vec<JournalEvent> = (0..n).map(|_| event(&mut state, &pool)).collect();

        let dir = std::env::temp_dir()
            .join(format!("rsyn-journal-prop-{}-{seed:x}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut journal = JobJournal::open(&dir).expect("journal opens");
            for e in &written {
                journal.append(e);
            }
            prop_assert_eq!(journal.write_errs(), 0);
        }
        // One segment (n < ROTATE_EVERY): truncate it anywhere.
        let seg = std::fs::read_dir(&dir)
            .expect("dir listing")
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "rsj"))
            .expect("one journal segment");
        let bytes = std::fs::read(&seg).expect("segment reads");
        let cut = (cut_sel % (bytes.len() as u64 + 1)) as usize;
        std::fs::write(&seg, &bytes[..cut]).expect("truncated rewrite");

        let (events, report, undecodable) = JobJournal::read(&dir).expect("read never fails");
        prop_assert_eq!(undecodable, 0, "well-formed payloads always decode");
        prop_assert!(
            events.len() <= written.len(),
            "truncation cannot add records"
        );
        prop_assert_eq!(&events[..], &written[..events.len()], "surviving events are a prefix");
        // A cut exactly on a record boundary is a valid shorter journal;
        // any other cut leaves torn bytes that must be reported as damage.
        let mut boundaries = BTreeSet::from([16usize]); // segment header
        let mut off = 16usize;
        for e in &written {
            off += 12 + e.encode().len(); // record header + payload
            boundaries.insert(off);
        }
        prop_assert_eq!(
            report.damaged_segments >= 1,
            !boundaries.contains(&cut),
            "cut {} (boundaries {:?})",
            cut,
            boundaries
        );

        // Replay invents nothing: every replayed job key was journaled.
        let journaled: BTreeSet<u128> = written.iter().filter_map(|e| e.key()).collect();
        let replayed = replay(&events);
        for job in &replayed.jobs {
            prop_assert!(
                journaled.contains(&job.key),
                "replay invented job {:032x}",
                job.key
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
