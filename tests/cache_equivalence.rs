//! Cross-run cache transparency: with `RSYN_CACHE_DIR` set, a cold run
//! (populating the cache), a warm run (served from it), and a run with the
//! cache disabled must all produce identical verdicts, test sets, and
//! deterministic counters — only `cache.*` counters may differ.
//!
//! Every test holds [`cache_lock`] because the cache root and the
//! in-memory shards are process-global; counters are per test thread.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use proptest::prelude::*;
use rsyn::atpg::engine::{run_atpg, AtpgOptions, AtpgResult};
use rsyn::atpg::fault::{BridgeKind, Fault, FaultKind};
use rsyn::netlist::{Library, NetId, Netlist};

/// Serialises this file's tests around the process-global cache root.
fn cache_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with the disk cache rooted at a fresh scratch directory, then
/// disables the cache and removes the directory. The caller must already
/// hold [`cache_lock`].
fn with_scratch_cache<R>(f: impl FnOnce(&std::path::Path) -> R) -> R {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "rsyn-cache-eq-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    rsyn::cache::clear_memory();
    rsyn::cache::set_disk_root(Some(&dir));
    let out = f(&dir);
    rsyn::cache::set_disk_root(None);
    rsyn::cache::clear_memory();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Deterministic random netlist (same generator idiom as the ATPG
/// proptests): `gates` two-to-four-input cells over `pis` inputs.
fn random_netlist(seed: u64, gates: usize, pis: usize) -> Netlist {
    let lib = Library::osu018();
    let mut nl = Netlist::new("rnd", lib.clone());
    let mut nets: Vec<NetId> = (0..pis).map(|i| nl.add_input(format!("i{i}"))).collect();
    let names = ["NAND2X1", "NOR2X1", "XOR2X1", "AOI21X1", "OAI22X1", "AND2X2"];
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for k in 0..gates {
        let cell = lib.cell_id(names[(next() % names.len() as u64) as usize]).unwrap();
        let c = lib.cell(cell);
        let ins: Vec<NetId> =
            (0..c.input_count()).map(|_| nets[(next() % nets.len() as u64) as usize]).collect();
        let out = nl.add_net();
        nl.add_gate(format!("g{k}"), cell, &ins, &[out]).unwrap();
        nets.push(out);
    }
    for &n in nets.iter().rev().take(2) {
        nl.mark_output(n);
    }
    nl
}

fn gate_output_faults(nl: &Netlist) -> Vec<Fault> {
    let mut out = Vec::new();
    let mut driven: Vec<NetId> = Vec::new();
    for (id, net) in nl.nets() {
        if matches!(net.driver, Some(rsyn::netlist::Driver::Gate(..))) {
            driven.push(id);
            for v in [false, true] {
                out.push(Fault::external(FaultKind::StuckAt { net: id, value: v }, 0));
            }
            out.push(Fault::external(FaultKind::Transition { net: id, rising: true }, 1));
        }
    }
    if let [a, b, ..] = driven[..] {
        out.push(Fault::external(FaultKind::Bridge { a, b, kind: BridgeKind::WiredAnd }, 2));
    }
    out
}

/// Runs ATPG from a clean counter recorder; returns the result plus the
/// non-`cache.` counters the run produced.
fn measured_run(
    nl: &Netlist,
    faults: &[Fault],
    options: &AtpgOptions,
) -> (AtpgResult, BTreeMap<String, u64>) {
    let view = nl.comb_view().unwrap();
    rsyn_observe::reset();
    let result = run_atpg(nl, &view, faults, options);
    let counters: BTreeMap<String, u64> =
        rsyn_observe::counters().into_iter().filter(|(k, _)| !k.starts_with("cache.")).collect();
    (result, counters)
}

fn assert_equivalent(
    tag: &str,
    a: &(AtpgResult, BTreeMap<String, u64>),
    b: &(AtpgResult, BTreeMap<String, u64>),
) {
    assert_eq!(a.0.statuses, b.0.statuses, "{tag}: verdicts diverged");
    assert_eq!(a.0.tests.patterns(), b.0.tests.patterns(), "{tag}: test sets diverged");
    assert_eq!(a.1, b.1, "{tag}: deterministic counters diverged");
}

#[test]
fn cold_warm_and_disabled_runs_are_byte_equivalent() {
    let _cache = cache_lock();
    let nl = random_netlist(0xC0FFEE, 24, 6);
    let faults = gate_output_faults(&nl);
    let options = AtpgOptions::default().with_threads(1);

    let disabled = measured_run(&nl, &faults, &options);
    assert_eq!(rsyn_observe::counter("cache.hit") + rsyn_observe::counter("cache.miss"), 0);

    with_scratch_cache(|_root| {
        let cold = measured_run(&nl, &faults, &options);
        assert!(rsyn_observe::counter("cache.miss") > 0, "cold run must miss");
        assert_equivalent("cold vs disabled", &cold, &disabled);

        // Warm via the in-memory tier.
        let warm_mem = measured_run(&nl, &faults, &options);
        assert!(rsyn_observe::counter("cache.hit") > 0, "warm run must hit");
        assert_equivalent("warm(mem) vs disabled", &warm_mem, &disabled);

        // Warm via disk only (fresh process simulation: drop the memory tier).
        rsyn::cache::clear_memory();
        let warm_disk = measured_run(&nl, &faults, &options);
        assert!(rsyn_observe::counter("cache.hit") > 0, "disk warm run must hit");
        assert_equivalent("warm(disk) vs disabled", &warm_disk, &disabled);
    });
}

#[test]
fn warm_hits_are_thread_count_independent() {
    let _cache = cache_lock();
    let nl = random_netlist(0xBEEF, 24, 6);
    let faults = gate_output_faults(&nl);

    with_scratch_cache(|_root| {
        let cold = measured_run(&nl, &faults, &AtpgOptions::default().with_threads(1));
        // A run at a different thread count shares the verdict key.
        rsyn::cache::clear_memory();
        let warm4 = measured_run(&nl, &faults, &AtpgOptions::default().with_threads(4));
        assert!(rsyn_observe::counter("cache.hit") > 0, "threads must not key");
        assert_equivalent("warm(4 threads) vs cold(1 thread)", &warm4, &cold);
    });
}

#[test]
fn corrupted_entries_fall_back_to_recompute() {
    let _cache = cache_lock();
    let nl = random_netlist(0xD00D, 20, 5);
    let faults = gate_output_faults(&nl);
    let options = AtpgOptions::default().with_threads(1);

    with_scratch_cache(|root| {
        let cold = measured_run(&nl, &faults, &options);
        // Mangle every stored entry, then force disk reads.
        let mut mangled = 0;
        for entry in walk_bins(root) {
            let data = std::fs::read(&entry).unwrap();
            std::fs::write(&entry, &data[..data.len() - 1]).unwrap();
            mangled += 1;
        }
        assert!(mangled > 0, "cold run must have persisted entries");
        rsyn::cache::clear_memory();
        let recomputed = measured_run(&nl, &faults, &options);
        assert!(rsyn_observe::counter("cache.corrupt") > 0, "corruption must be detected");
        assert_eq!(rsyn_observe::counter("cache.hit"), 0);
        assert_equivalent("recompute-after-corruption vs cold", &recomputed, &cold);
    });
}

fn walk_bins(root: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "bin") {
                out.push(p);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary circuits, fault subsets, and seeds: disabled ≡ cold ≡
    /// warm on verdicts, test sets, and deterministic counters.
    #[test]
    fn cache_is_transparent_for_arbitrary_runs(
        seed in 1u64..5000,
        gates in 10usize..28,
        atpg_seed in 0u64..100,
    ) {
        let _cache = cache_lock();
        let nl = random_netlist(seed, gates, 5);
        let faults = gate_output_faults(&nl);
        let options =
            AtpgOptions { seed: atpg_seed, ..AtpgOptions::default() }.with_threads(1);

        let disabled = measured_run(&nl, &faults, &options);
        with_scratch_cache(|_root| {
            let cold = measured_run(&nl, &faults, &options);
            rsyn::cache::clear_memory();
            let warm = measured_run(&nl, &faults, &options);
            prop_assert!(rsyn_observe::counter("cache.hit") > 0);
            assert_equivalent("cold vs disabled", &cold, &disabled);
            assert_equivalent("warm vs disabled", &warm, &disabled);
        });
    }
}
