//! Multi-threaded stress tests for the thread-local metric layer: the
//! deterministic section (counters + histograms) must be byte-identical
//! across worker-thread counts, and the record hot path must stay off the
//! recorder lock.
//!
//! Each test records into its own thread's recorder; workers enter the
//! test thread's scope.

use std::collections::BTreeMap;

use rsyn_observe::manifest::{Manifest, SCHEMA_VERSION};
use rsyn_observe::{
    add, counter, counters, hist_add, lock_acquisitions, reset, span, volatile_add, volatiles,
    Hist, Scope,
};

const ITEMS: usize = 9_000;
const KEYS: [&str; 4] = ["stress.alpha", "stress.beta", "stress.gamma", "stress.delta"];

/// The per-item workload. Everything recorded here depends only on the
/// item index, never on which worker runs it — the producer-side contract
/// the whole deterministic registry rests on.
fn work_item(i: usize) {
    add(KEYS[i % KEYS.len()], (i % 7 + 1) as u64);
    hist_add("stress.value", ((i * i) % 5_000) as u64);
    hist_add("stress.zeroes", (i % 3 == 0) as u64);
    if i % 16 == 0 {
        let _s = span("stress.unit");
    }
}

/// Runs the fixed workload partitioned over `threads` workers and returns
/// the deterministic counter snapshot rendered as a stable manifest.
fn run_partitioned(threads: usize) -> (String, BTreeMap<String, u64>, BTreeMap<String, f64>) {
    reset();
    let scope = Scope::current();
    std::thread::scope(|s| {
        for w in 0..threads {
            let scope = &scope;
            s.spawn(move || {
                let _scope = scope.enter();
                volatile_add("stress.threads.used", 1.0);
                for i in (w..ITEMS).step_by(threads) {
                    work_item(i);
                }
            });
        }
    });
    let counters = counters();
    let manifest = Manifest {
        schema: SCHEMA_VERSION,
        name: "stress".to_string(),
        seed: 1,
        counters: counters.clone(),
        results: BTreeMap::new(),
        timings: volatiles(),
    };
    (manifest.stable_json(), counters, manifest.timings)
}

#[test]
fn deterministic_section_is_byte_identical_across_worker_counts() {
    let (stable1, counters1, timings1) = run_partitioned(1);
    let (stable2, counters2, timings2) = run_partitioned(2);
    let (stable8, counters8, _) = run_partitioned(8);

    assert_eq!(stable1, stable2, "stable manifest must not depend on the worker count");
    assert_eq!(stable1, stable8, "stable manifest must not depend on the worker count");
    assert_eq!(counters1, counters2);
    assert_eq!(counters1, counters8);

    // The histograms rode along in the counter namespace.
    let h = Hist::from_counters(&counters1, "stress.value").expect("histogram encoded");
    assert_eq!(h.count, ITEMS as u64);
    assert_eq!(h, Hist::from_counters(&counters8, "stress.value").unwrap());
    assert!(counters1.contains_key("hist.stress.zeroes.b00"), "zero samples land in b00");
    assert_eq!(counters1.get("span.stress.unit.calls"), Some(&(ITEMS.div_ceil(16) as u64)));

    // Volatile metrics legitimately differ: each worker marked itself.
    assert_eq!(timings1.get("stress.threads.used"), Some(&1.0));
    assert_eq!(timings2.get("stress.threads.used"), Some(&2.0));
    assert!(timings1.contains_key("span.stress.unit.wall_ms"));
}

#[test]
fn record_hot_path_takes_no_registry_lock() {
    reset();
    // Touch every key once so first-use pushes are done, then flush.
    work_item(0);
    rsyn_observe::flush();

    let before = lock_acquisitions();
    for i in 0..10_000 {
        work_item(i);
    }
    let after = lock_acquisitions();
    assert_eq!(
        after - before,
        0,
        "span/add/hist_add must buffer thread-locally, not hit the registry mutex"
    );

    // Reads flush the thread-local buffer (taking the lock is fine here).
    let expected: u64 =
        1 + (0..10_000).step_by(KEYS.len()).map(|i| (i % 7 + 1) as u64).sum::<u64>();
    assert_eq!(counter(KEYS[0]), expected);
}
