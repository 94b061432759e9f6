//! Cross-run verdict caching for [`run_atpg`](crate::engine::run_atpg).
//!
//! A complete ATPG evaluation is a pure function of the combinational view,
//! the fault list, and the (thread-count-independent) options — so a run
//! whose subject hashes to a previously-stored key can return the recorded
//! verdicts, test set, and deterministic counter deltas without touching
//! the simulator. The key is derived from the *canonical* view hash
//! ([`rsyn_netlist::CanonicalView`]), so net-id renumberings that leave the
//! circuit unchanged still hit.
//!
//! # Correctness contract
//!
//! A hit must be byte-identical to a recompute: statuses and tests are
//! stored verbatim, and the deterministic counters the engine would have
//! bumped are stored as a delta and replayed through
//! [`rsyn_observe::add_counters`] (only `cache.*` counters diverge between
//! a cold and a warm run). Situations where that contract cannot hold
//! bypass the cache entirely:
//!
//! * failure injection armed — retry counters depend on injection ordinals;
//! * a fault net/gate outside the canonical view — no stable code exists;
//! * counters paused (checkpoint replay) — the recorded delta would be
//!   empty, so nothing is stored (hits are still served: `add_counters`
//!   drops the delta exactly as a paused recompute would);
//! * the run extended a deterministic histogram that already existed in
//!   the registry — per-run `.min`/`.max` extremes cannot be recovered
//!   from the cumulative merge, so the store is skipped (hits recorded
//!   from clean runs replay exactly).

use std::collections::BTreeMap;

use rsyn_cache::{Reader, StableHasher, Writer};
use rsyn_netlist::{CanonicalView, CombView, Netlist};

use crate::engine::{AtpgOptions, AtpgResult, BACKTRACK_LIMIT, RANDOM_WORDS};
use crate::fault::{BridgeKind, Fault, FaultKind, FaultOrigin, FaultStatus};
use crate::testset::{Pattern, TestSet};

/// Payload layout version (bump on any format change; combined with the
/// entry version in the on-disk path this invalidates stale entries).
const PAYLOAD_TAG: &str = "verdict-payload-v1";

/// Derives the cache key for an ATPG run, or `None` when the subject
/// cannot be canonically encoded (unknown net/gate codes) — never a wrong
/// key, at worst a missed sharing opportunity.
pub(crate) fn verdict_key(
    nl: &Netlist,
    view: &CombView,
    faults: &[Fault],
    options: &AtpgOptions,
) -> Option<u128> {
    let canon = CanonicalView::of(nl, view)?;
    let mut h = StableHasher::new();
    h.write_str("verdict-key-v3");
    let vh = canon.hash();
    h.write_u64(vh as u64);
    h.write_u64((vh >> 64) as u64);
    // `threads` is deliberately absent: results are bit-identical for every
    // thread count (see the engine module docs), so all counts share a key.
    // The engine's constants are hashed too, so changing one retires every
    // verdict computed under the old value.
    h.write_usize(RANDOM_WORDS);
    h.write_usize(BACKTRACK_LIMIT);
    h.write_u64(options.seed);
    h.write_bool(options.compact);
    h.write_usize(faults.len());
    for fault in faults {
        absorb_fault(&mut h, &canon, fault)?;
    }
    Some(h.finish())
}

fn absorb_fault(h: &mut StableHasher, canon: &CanonicalView, fault: &Fault) -> Option<()> {
    match &fault.kind {
        FaultKind::StuckAt { net, value } => {
            h.write_u8(0);
            h.write_u64(canon.net_code(*net)?);
            h.write_bool(*value);
        }
        FaultKind::Transition { net, rising } => {
            h.write_u8(1);
            h.write_u64(canon.net_code(*net)?);
            h.write_bool(*rising);
        }
        FaultKind::Bridge { a, b, kind } => {
            h.write_u8(2);
            h.write_u64(canon.net_code(*a)?);
            h.write_u64(canon.net_code(*b)?);
            h.write_u8(match kind {
                BridgeKind::WiredAnd => 0,
                BridgeKind::WiredOr => 1,
            });
        }
        FaultKind::CellAware { gate, conditions } => {
            h.write_u8(3);
            h.write_u32(canon.gate_code(*gate)?);
            h.write_usize(conditions.len());
            for c in conditions {
                h.write_u64(c.pattern);
                h.write_u8(c.output);
            }
        }
    }
    match &fault.origin {
        FaultOrigin::Internal { gate } => {
            h.write_u8(0);
            h.write_u32(canon.gate_code(*gate)?);
        }
        FaultOrigin::External { nets } => {
            h.write_u8(1);
            h.write_usize(nets.len());
            for n in nets {
                h.write_u64(canon.net_code(*n)?);
            }
        }
    }
    h.write_u16(fault.guideline);
    Some(())
}

fn status_tag(s: FaultStatus) -> u8 {
    match s {
        FaultStatus::Undetected => 0,
        FaultStatus::Detected => 1,
        FaultStatus::Undetectable => 2,
        FaultStatus::Aborted => 3,
    }
}

fn status_from_tag(t: u8) -> Option<FaultStatus> {
    match t {
        0 => Some(FaultStatus::Undetected),
        1 => Some(FaultStatus::Detected),
        2 => Some(FaultStatus::Undetectable),
        3 => Some(FaultStatus::Aborted),
        _ => None,
    }
}

/// Serialises a result plus the deterministic counter delta its
/// computation produced.
pub(crate) fn encode(
    result: &AtpgResult,
    npis: usize,
    counter_delta: &BTreeMap<String, u64>,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str(PAYLOAD_TAG);
    w.put_u64(result.statuses.len() as u64);
    for &s in &result.statuses {
        w.put_u8(status_tag(s));
    }
    w.put_u64(npis as u64);
    w.put_u64(result.tests.len() as u64);
    for p in result.tests.patterns() {
        // Patterns are bit-packed little-endian into whole u64 words, the
        // same shape `Pattern` uses internally.
        let mut word = 0u64;
        for i in 0..npis {
            if p.get(i) {
                word |= 1 << (i % 64);
            }
            if i % 64 == 63 {
                w.put_u64(word);
                word = 0;
            }
        }
        if npis % 64 != 0 {
            w.put_u64(word);
        }
    }
    w.put_u64(counter_delta.len() as u64);
    for (name, n) in counter_delta {
        w.put_str(name);
        w.put_u64(*n);
    }
    w.into_bytes()
}

/// Inverse of [`encode`]. Returns `None` (treated as a miss) on any
/// mismatch with the expected fault count or PI count — a hash collision
/// or stale entry must never surface as a wrong result.
pub(crate) fn decode(
    bytes: &[u8],
    fault_count: usize,
    npis: usize,
) -> Option<(AtpgResult, BTreeMap<String, u64>)> {
    let mut r = Reader::new(bytes);
    if r.get_str()? != PAYLOAD_TAG {
        return None;
    }
    let n_statuses = r.get_len()?;
    if n_statuses != fault_count {
        return None;
    }
    let mut statuses = Vec::with_capacity(n_statuses);
    for _ in 0..n_statuses {
        statuses.push(status_from_tag(r.get_u8()?)?);
    }
    if r.get_len()? != npis {
        return None;
    }
    let n_tests = r.get_len()?;
    let words = npis.div_ceil(64);
    let mut tests = TestSet::new();
    for _ in 0..n_tests {
        let mut p = Pattern::zeros(npis);
        for wi in 0..words {
            let word = r.get_u64()?;
            for b in 0..64 {
                let i = wi * 64 + b;
                if i < npis && (word >> b) & 1 == 1 {
                    p.set(i, true);
                }
            }
        }
        tests.push(p);
    }
    let n_counters = r.get_len()?;
    let mut delta = BTreeMap::new();
    for _ in 0..n_counters {
        let name = r.get_str()?.to_owned();
        let n = r.get_u64()?;
        delta.insert(name, n);
    }
    if !r.finished() {
        return None;
    }
    Some((AtpgResult { statuses, tests }, delta))
}

/// Serves a run from the verdict cache if possible; otherwise computes it
/// via `compute` and stores the result (with its deterministic counter
/// delta) for future runs.
pub(crate) fn run_cached(
    nl: &Netlist,
    view: &CombView,
    faults: &[Fault],
    options: &AtpgOptions,
    compute: impl FnOnce() -> AtpgResult,
) -> AtpgResult {
    use rsyn_resilience::inject;
    if !rsyn_cache::enabled() || inject::is_armed() {
        return compute();
    }
    let Some(key) = verdict_key(nl, view, faults, options) else {
        return compute();
    };
    let npis = view.pis.len();
    if let Some(payload) = rsyn_cache::lookup(key) {
        if let Some((result, delta)) = decode(&payload, faults.len(), npis) {
            rsyn_observe::add_counters(&delta);
            return result;
        }
        // Undecodable despite passing the checksum (stale layout within the
        // same version, or a key collision): recompute and overwrite below.
        rsyn_observe::add("cache.verdicts.decode_failed", 1);
    }
    let before = rsyn_observe::counters();
    let result = compute();
    if rsyn_observe::is_paused() {
        // Checkpoint replay: counters were dropped, so the delta below
        // would understate a genuine run. Serve hits, never store.
        return result;
    }
    let after = rsyn_observe::counters();
    if let Some(delta) = counter_delta(&before, &after) {
        rsyn_cache::store(key, &encode(&result, npis, &delta));
    }
    result
}

/// Computes the counter delta a run produced, in the form
/// [`rsyn_observe::add_counters`] replays: additive differences for plain
/// counters (zero kept when the run *created* the key), absolute values
/// for `hist.*.{min,max}` extremes. Returns `None` when the delta cannot
/// be represented faithfully — the run extended a histogram that already
/// existed, so its per-run extremes are unrecoverable from the cumulative
/// registry (min/max cannot be un-merged); such a run is simply not
/// stored.
fn counter_delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> Option<BTreeMap<String, u64>> {
    let mut delta = BTreeMap::new();
    for (name, &n) in after {
        // `cache.*` counters describe this process's cache traffic, not the
        // computation; replaying them would skew warm-run accounting.
        if name.starts_with("cache.") {
            continue;
        }
        let extreme =
            name.starts_with("hist.") && (name.ends_with(".min") || name.ends_with(".max"));
        if extreme {
            let base = &name[..name.len() - 4];
            let count_key = format!("{base}.count");
            let touched = after.get(&count_key).copied().unwrap_or(0)
                > before.get(&count_key).copied().unwrap_or(0);
            if !touched {
                continue;
            }
            if before.contains_key(name) {
                return None;
            }
            delta.insert(name.clone(), n);
        } else {
            let d = n - before.get(name).copied().unwrap_or(0);
            if d > 0 || !before.contains_key(name) {
                delta.insert(name.clone(), d);
            }
        }
    }
    Some(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsyn_netlist::Library;

    fn adder() -> Netlist {
        let lib = Library::osu018();
        let mut nl = Netlist::new("c", lib.clone());
        let fa = lib.cell_id("FAX1").unwrap();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let cin = nl.add_input("cin");
        let s = nl.add_named_net("s");
        let cout = nl.add_named_net("cout");
        nl.add_gate("fa", fa, &[a, b, cin], &[s, cout]).unwrap();
        nl.mark_output(s);
        nl.mark_output(cout);
        nl
    }

    fn sample_faults(nl: &Netlist) -> Vec<Fault> {
        let s = nl.find_net("s").unwrap();
        let cout = nl.find_net("cout").unwrap();
        let fa = nl.find_gate("fa").unwrap();
        vec![
            Fault::external(FaultKind::StuckAt { net: s, value: true }, 1),
            Fault::external(FaultKind::Transition { net: cout, rising: false }, 2),
            Fault::external(FaultKind::Bridge { a: s, b: cout, kind: BridgeKind::WiredOr }, 3),
            Fault::internal(fa, vec![crate::fault::CellCondition { pattern: 0b101, output: 0 }], 4),
        ]
    }

    #[test]
    fn key_is_stable_and_sensitive() {
        let nl = adder();
        let view = nl.comb_view().unwrap();
        let faults = sample_faults(&nl);
        let opts = AtpgOptions::default();
        let k1 = verdict_key(&nl, &view, &faults, &opts).unwrap();
        let k2 = verdict_key(&nl, &view, &faults, &opts).unwrap();
        assert_eq!(k1, k2, "same subject must rehash identically");

        let seeded = AtpgOptions { seed: opts.seed ^ 1, ..opts };
        assert_ne!(k1, verdict_key(&nl, &view, &faults, &seeded).unwrap(), "seed must key");

        let fewer = &faults[..3];
        assert_ne!(k1, verdict_key(&nl, &view, fewer, &opts).unwrap(), "fault list must key");

        // Thread count must NOT key: any count shares the cached verdicts.
        let threaded = opts.with_threads(7);
        assert_eq!(k1, verdict_key(&nl, &view, &faults, &threaded).unwrap());
    }

    #[test]
    fn key_rejects_out_of_view_subjects() {
        let nl = adder();
        let view = nl.comb_view().unwrap();
        let mut other = adder();
        let extra = other.add_input("extra");
        let faults = vec![Fault::external(FaultKind::StuckAt { net: extra, value: false }, 0)];
        assert_eq!(verdict_key(&nl, &view, &faults, &AtpgOptions::default()), None);
    }

    #[test]
    fn counter_delta_is_histogram_aware() {
        let mut before = BTreeMap::new();
        before.insert("atpg.runs".to_owned(), 2);
        let mut after = BTreeMap::new();
        after.insert("atpg.runs".to_owned(), 3);
        after.insert("atpg.tests.final".to_owned(), 0); // created at zero
        after.insert("cache.miss".to_owned(), 1); // never replayed
        after.insert("hist.x.count".to_owned(), 4);
        after.insert("hist.x.sum".to_owned(), 0); // all-zero samples
        after.insert("hist.x.min".to_owned(), 0);
        after.insert("hist.x.max".to_owned(), 0);
        let delta = counter_delta(&before, &after).expect("clean run");
        assert_eq!(delta.get("atpg.runs"), Some(&1), "additive difference");
        assert_eq!(delta.get("atpg.tests.final"), Some(&0), "key created at zero");
        assert_eq!(delta.get("cache.miss"), None, "cache traffic excluded");
        assert_eq!(delta.get("hist.x.min"), Some(&0), "absolute extreme kept");
        assert_eq!(delta.get("hist.x.sum"), Some(&0), "zero sum creates its key");

        // A run extending a pre-existing histogram is unrepresentable:
        // its per-run extremes were merged away.
        let mut seen = after.clone();
        seen.retain(|k, _| !k.starts_with("cache."));
        let mut later = seen.clone();
        later.insert("hist.x.count".to_owned(), 9);
        assert_eq!(counter_delta(&seen, &later), None);
    }

    #[test]
    fn payload_roundtrip_preserves_everything() {
        let npis = 70; // straddles a word boundary
        let mut tests = TestSet::new();
        let mut p = Pattern::zeros(npis);
        p.set(0, true);
        p.set(63, true);
        p.set(64, true);
        p.set(69, true);
        tests.push(p);
        tests.push(Pattern::zeros(npis));
        let result = AtpgResult {
            statuses: vec![
                FaultStatus::Detected,
                FaultStatus::Undetectable,
                FaultStatus::Aborted,
                FaultStatus::Undetected,
            ],
            tests,
        };
        let mut delta = BTreeMap::new();
        delta.insert("atpg.runs".to_owned(), 1);
        delta.insert("atpg.detected".to_owned(), 17);
        let bytes = encode(&result, npis, &delta);
        let (back, back_delta) = decode(&bytes, 4, npis).expect("roundtrip");
        assert_eq!(back.statuses, result.statuses);
        assert_eq!(back.tests.patterns(), result.tests.patterns());
        assert_eq!(back_delta, delta);
        // Shape mismatches must read as misses, not wrong results.
        assert!(decode(&bytes, 5, npis).is_none(), "fault count mismatch");
        assert!(decode(&bytes, 4, npis + 1).is_none(), "PI count mismatch");
        assert!(decode(&bytes[..bytes.len() - 1], 4, npis).is_none(), "truncation");
    }
}
