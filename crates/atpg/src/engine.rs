//! The full ATPG flow: random phase with fault dropping, deterministic
//! PODEM phase, and reverse-order test-set compaction — executed over a
//! sharded fault list so independent shards run on worker threads.
//!
//! # Parallelism and determinism
//!
//! The fault list is split into contiguous shards whose boundaries depend
//! only on the fault count — never on the thread count. Each shard runs
//! the complete random + PODEM pipeline with its own [`FaultSim`] and
//! [`Podem`] instance and an RNG stream derived from
//! `(options.seed, shard_index)`; shard results are merged back in fault
//! order and compacted globally, by a reverse pass whose workers split the
//! Detected faults into chunks (a fault's last detecting test does not
//! depend on which worker finds it). Because no state flows between shards
//! and the merge order is fixed, [`run_atpg`] returns bit-identical results
//! for every `threads` setting, including 1.
//!
//! # Deciding every fault
//!
//! A fault whose PODEM search gives up at [`BACKTRACK_LIMIT`] without a
//! detection is decided by the [`sat`](crate::sat) prover inside the same
//! shard: a model becomes a test that the shard's fault simulator confirms,
//! UNSAT proves the fault Undetectable. The prover is complete, so a fault
//! ends `Aborted` only when the simulator rejects a model
//! (`atpg.sat.unconfirmed`, which the tests assert never happens). Each
//! verdict depends only on the netlist and the fault, so statuses stay
//! thread-count independent.
//!
//! A shard is deterministic, so a shard that panics would panic again on a
//! retry: the panic propagates out of [`run_atpg`] (through the worker
//! join) to the flow driver's or the server's containment.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsyn_netlist::{CombView, LaneBlock, Netlist, SimArena, LANES, LANE_WORDS};

use crate::fault::{Fault, FaultKind, FaultStatus};
use crate::podem::{Podem, PodemOutcome, Target};
use crate::sat::{SatAtpg, SatOutcome};
use crate::sim::FaultSim;
use crate::testset::{pack, window_mask, window_offsets, Pattern, TestSet};

/// Number of 64-pattern random words each shard simulates before PODEM.
pub const RANDOM_WORDS: usize = 8;

/// PODEM backtrack limit per target; a fault whose search passes it
/// without a detection is decided by SAT. Of 16, 32, 64, 128 and 256, 16
/// spent the least time in PODEM and SAT together on Table I, and it beat
/// 32 on the twelve-circuit Table II (EXPERIMENTS.md E22).
pub const BACKTRACK_LIMIT: usize = 16;

/// Options controlling the ATPG run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AtpgOptions {
    /// Seed for the random phase.
    pub seed: u64,
    /// Whether to run reverse-order test compaction.
    pub compact: bool,
    /// Worker threads for fault-sharded evaluation; `0` means
    /// [`std::thread::available_parallelism`]. Results are identical for
    /// every value (see the module docs).
    pub threads: usize,
}

impl Default for AtpgOptions {
    fn default() -> Self {
        Self { seed: 0xDA7E, compact: true, threads: 0 }
    }
}

impl AtpgOptions {
    /// The worker-thread count this option set resolves to.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    /// Returns a copy with `threads` set.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The outcome of an ATPG run.
#[derive(Clone, Debug)]
pub struct AtpgResult {
    /// Per-fault status, parallel to the input fault list.
    pub statuses: Vec<FaultStatus>,
    /// The generated (compacted) test set.
    pub tests: TestSet,
}

impl AtpgResult {
    /// Number of detected faults.
    pub fn detected_count(&self) -> usize {
        self.statuses.iter().filter(|s| **s == FaultStatus::Detected).count()
    }

    /// Number of provably undetectable faults (the paper's `U`).
    pub fn undetectable_count(&self) -> usize {
        self.statuses.iter().filter(|s| **s == FaultStatus::Undetectable).count()
    }

    /// Number of aborted searches (reported, never counted in `U`).
    pub fn aborted_count(&self) -> usize {
        self.statuses.iter().filter(|s| **s == FaultStatus::Aborted).count()
    }

    /// Fault coverage as the paper defines it: `1 − U/F`.
    pub fn coverage(&self) -> f64 {
        if self.statuses.is_empty() {
            return 1.0;
        }
        1.0 - self.undetectable_count() as f64 / self.statuses.len() as f64
    }

    /// Indices of the undetectable faults.
    pub fn undetectable_indices(&self) -> Vec<usize> {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == FaultStatus::Undetectable)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Expands a fault into its PODEM targets (any one detection suffices).
pub fn targets_of(fault: &Fault) -> Vec<Target> {
    match &fault.kind {
        FaultKind::StuckAt { net, value } => vec![Target::StuckAt { net: *net, value: *value }],
        FaultKind::Transition { net, rising } => {
            vec![Target::StuckAt { net: *net, value: !*rising }]
        }
        FaultKind::Bridge { a, b, kind } => vec![
            Target::BridgeVictim { a: *a, b: *b, kind: *kind, victim_is_a: true },
            Target::BridgeVictim { a: *a, b: *b, kind: *kind, victim_is_a: false },
        ],
        FaultKind::CellAware { gate, conditions } => conditions
            .iter()
            .map(|cond| Target::CellCondition { gate: *gate, cond: *cond })
            .collect(),
    }
}

/// Checks which faults the given test set detects (overlapping 64-lane
/// windows preserve transition-fault pattern pairs; four windows ride in
/// each 256-lane simulation call). Independent of the engine's reverse
/// pass, and exposed as a cross-check of it for tests and benchmarks.
pub fn covers(nl: &Netlist, view: &CombView, faults: &[Fault], tests: &TestSet) -> Vec<bool> {
    let mut covered = vec![false; faults.len()];
    if tests.is_empty() {
        return covered;
    }
    let mut sim = FaultSim::new(nl, view);
    for windows in window_offsets(tests.len()).chunks(LANE_WORDS) {
        let lanes = tests.lane_blocks(windows, view.pis.len());
        sim.set_patterns(&lanes);
        // Only count lanes that map to real test indices.
        let mask = window_mask(windows, tests.len());
        for (fi, fault) in faults.iter().enumerate() {
            if covered[fi] {
                continue;
            }
            if (sim.detect_lanes(fault) & mask).any() {
                covered[fi] = true;
            }
        }
    }
    covered
}

/// Smallest shard worth its per-shard `FaultSim`/`Podem` setup cost.
const MIN_SHARD_FAULTS: usize = 32;

/// Upper bound on shard count (bounds merge overhead on huge fault lists).
const MAX_SHARDS: usize = 64;

/// Splits `0..n` into contiguous shard ranges. The split depends only on
/// `n`, never on the thread count — the cornerstone of deterministic
/// parallel ATPG.
fn shard_spans(n: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let size = n.div_ceil(MAX_SHARDS).max(MIN_SHARD_FAULTS);
    (0..n.div_ceil(size)).map(|i| i * size..((i + 1) * size).min(n)).collect()
}

/// Derives shard `i`'s RNG seed. Shard 0 keeps the user seed unchanged so
/// a single-shard run reproduces the historical serial engine exactly.
fn shard_seed(seed: u64, shard: u64) -> u64 {
    if shard == 0 {
        return seed;
    }
    // SplitMix64 over the (seed, shard) pair.
    let mut z = seed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One shard's contribution before the merge.
struct ShardPart {
    statuses: Vec<FaultStatus>,
    tests: TestSet,
}

/// Runs the full ATPG flow on a fault list.
///
/// Fault statuses come back parallel to `faults`; `Undetectable` is a proof
/// (a complete PODEM search, or SAT's UNSAT), and `Aborted` appears only
/// when the simulator rejects a SAT model.
///
/// The fault list is evaluated in deterministic shards spread over
/// `options.threads` workers (see the module docs); the returned result is
/// bit-identical for every thread count.
///
/// When the cross-run cache is enabled (`RSYN_CACHE_DIR`), a run whose
/// canonical subject — circuit, fault list, and options minus `threads` —
/// was evaluated before returns the recorded verdicts, tests, and
/// deterministic counter deltas instead of recomputing (see the `vcache`
/// module for the contract and bypass conditions).
pub fn run_atpg(
    nl: &Netlist,
    view: &CombView,
    faults: &[Fault],
    options: &AtpgOptions,
) -> AtpgResult {
    crate::vcache::run_cached(nl, view, faults, options, || {
        run_atpg_uncached(nl, view, faults, options)
    })
}

/// The actual flow behind [`run_atpg`], always computed.
fn run_atpg_uncached(
    nl: &Netlist,
    view: &CombView,
    faults: &[Fault],
    options: &AtpgOptions,
) -> AtpgResult {
    let _span = rsyn_observe::span("atpg.run");
    // One flat simulation arena per run, shared read-only by every shard's
    // fault simulator (volatile span: timing only, no deterministic counter).
    let arena = {
        let _build = rsyn_observe::span_volatile("sim.build");
        Arc::new(SimArena::build(nl, view))
    };
    let spans = shard_spans(faults.len());
    let mut parts: Vec<ShardPart> = Vec::new();
    let workers = options.effective_threads().min(spans.len()).max(1);
    if workers <= 1 {
        let t0 = std::time::Instant::now();
        for (i, span) in spans.iter().enumerate() {
            parts.push(run_shard(
                nl,
                view,
                &arena,
                &faults[span.clone()],
                options,
                ShardIdentity { index: i, base_fault: span.start },
            ));
            rsyn_observe::events::publish(rsyn_observe::events::FlowEvent::ShardDone {
                shard: i as u64,
                faults: span.len() as u64,
            });
        }
        rsyn_observe::volatile_add("atpg.worker0.shards", spans.len() as f64);
        rsyn_observe::volatile_add("atpg.worker0.busy_ms", t0.elapsed().as_secs_f64() * 1e3);
    } else {
        let slots: Vec<Mutex<Option<ShardPart>>> = spans.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        // Workers record into the spawning thread's recorder under its job
        // key; leaving the scope publishes their buffers before the join.
        let observe = rsyn_observe::Scope::current();
        std::thread::scope(|scope| {
            let spans = &spans;
            let slots = &slots;
            let next = &next;
            let arena = &arena;
            let observe = &observe;
            for w in 0..workers {
                scope.spawn(move || {
                    let _observe = observe.enter();
                    let t0 = std::time::Instant::now();
                    let mut processed = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(span) = spans.get(i) else { break };
                        let part = run_shard(
                            nl,
                            view,
                            arena,
                            &faults[span.clone()],
                            options,
                            ShardIdentity { index: i, base_fault: span.start },
                        );
                        *slots[i].lock().expect("shard slot") = Some(part);
                        rsyn_observe::events::publish(rsyn_observe::events::FlowEvent::ShardDone {
                            shard: i as u64,
                            faults: span.len() as u64,
                        });
                        processed += 1;
                    }
                    // Which worker ran which shard is scheduling-dependent:
                    // per-worker tallies are volatile by design.
                    rsyn_observe::volatile_add(&format!("atpg.worker{w}.shards"), processed as f64);
                    rsyn_observe::volatile_add(
                        &format!("atpg.worker{w}.busy_ms"),
                        t0.elapsed().as_secs_f64() * 1e3,
                    );
                });
            }
        });
        parts = slots
            .into_iter()
            .map(|s| s.into_inner().expect("shard slot").expect("all shards computed"))
            .collect();
    }

    // Merge in shard (= fault) order: statuses concatenate back into a
    // vector parallel to `faults`, test sets concatenate shard by shard
    // (transition launch patterns stay adjacent to their initialisation
    // patterns because pairs never straddle a shard boundary).
    let mut statuses = Vec::with_capacity(faults.len());
    let mut tests = TestSet::new();
    for part in parts {
        statuses.extend(part.statuses);
        tests.extend(part.tests.patterns().iter().cloned());
    }
    let tests_merged = tests.len() as u64;

    // --- compaction -----------------------------------------------------------------
    if options.compact && !tests.is_empty() {
        compact_with_arena(
            &arena,
            view,
            faults,
            &statuses,
            &mut tests,
            options.effective_threads(),
        );
    }

    rsyn_observe::add_many(&[
        ("atpg.runs", 1),
        ("atpg.tests.merged", tests_merged),
        ("atpg.tests.final", tests.len() as u64),
    ]);
    AtpgResult { statuses, tests }
}

/// Deterministic coordinates of a shard within its ATPG run — the keys
/// the shard's RNG stream and the trace zones are addressed by.
#[derive(Clone, Copy)]
struct ShardIdentity {
    /// Shard index within the run's deterministic split.
    index: usize,
    /// Global index of the shard's first fault.
    base_fault: usize,
}

/// Whether the fault simulator detects `fault` with `patterns` loaded in
/// consecutive lanes (a transition fault's initialisation pattern first).
///
/// Every PODEM and SAT detection is confirmed this way before it is
/// trusted (standard pattern verification).
fn confirms(sim: &mut FaultSim, fault: &Fault, patterns: &[Pattern], npis: usize) -> bool {
    let _t = rsyn_observe::span_volatile("sim.confirm");
    sim.set_patterns(&pack(patterns, npis));
    (sim.detect_lanes(fault) & LaneBlock::mask_lanes(patterns.len())).any()
}

/// One fault's PODEM evaluation at [`BACKTRACK_LIMIT`]: every target is
/// tried, and a confirmed detection pushes its patterns into
/// `tests`/`drop_buffer`. Returns `(detected, any_aborted)`; neither flag
/// set means every target search completed, i.e. the fault is proven
/// undetectable. A detection the simulator cannot confirm counts as
/// aborted, never as undetectable.
fn attempt_fault(
    podem: &mut Podem<'_>,
    sim: &mut FaultSim,
    tests: &mut TestSet,
    drop_buffer: &mut Vec<Pattern>,
    fault: &Fault,
    npis: usize,
) -> (bool, bool) {
    let mut any_aborted = false;
    for target in targets_of(fault) {
        match podem.run(&target) {
            PodemOutcome::Detected(p) => {
                // Transition faults need a preceding initialisation
                // pattern; justify it (completeness: if initialisation
                // is impossible the fault is undetectable).
                let test = if let FaultKind::Transition { net, rising } = fault.kind {
                    match podem.run(&Target::Justify { net, value: !rising }) {
                        PodemOutcome::Detected(init) => vec![init, p],
                        PodemOutcome::Undetectable => continue,
                        PodemOutcome::Aborted => {
                            any_aborted = true;
                            continue;
                        }
                    }
                } else {
                    vec![p]
                };
                if confirms(sim, fault, &test, npis) {
                    drop_buffer.extend(test.iter().cloned());
                    tests.extend(test);
                    return (true, false);
                }
                any_aborted = true;
            }
            PodemOutcome::Undetectable => {}
            PodemOutcome::Aborted => any_aborted = true,
        }
    }
    (false, any_aborted)
}

/// Per-shard tallies of the SAT decisions, flushed as `atpg.sat.*`.
#[derive(Default)]
struct SatTally {
    calls: u64,
    detected: u64,
    undetectable: u64,
    unconfirmed: u64,
    conflicts: u64,
}

/// Decides a fault PODEM gave up on: a model's patterns are confirmed and
/// pushed like PODEM's, UNSAT proves the fault Undetectable, and a model
/// the simulator rejects leaves it `Aborted`.
fn decide_by_sat(
    prover: &mut SatAtpg,
    sim: &mut FaultSim,
    tests: &mut TestSet,
    drop_buffer: &mut Vec<Pattern>,
    fault: &Fault,
    npis: usize,
    tally: &mut SatTally,
) -> FaultStatus {
    let outcome = prover.decide(fault);
    tally.calls += 1;
    tally.conflicts += prover.conflicts();
    rsyn_observe::hist_add("atpg.sat.conflicts_per_fault", prover.conflicts());
    match outcome {
        SatOutcome::Undetectable => {
            tally.undetectable += 1;
            FaultStatus::Undetectable
        }
        SatOutcome::Detected(test) => {
            if confirms(sim, fault, &test, npis) {
                tally.detected += 1;
                drop_buffer.extend(test.iter().cloned());
                tests.extend(test);
                FaultStatus::Detected
            } else {
                tally.unconfirmed += 1;
                FaultStatus::Aborted
            }
        }
    }
}

/// The serial random + PODEM pipeline over one shard of the fault list.
fn run_shard(
    nl: &Netlist,
    view: &CombView,
    arena: &Arc<SimArena>,
    faults: &[Fault],
    options: &AtpgOptions,
    id: ShardIdentity,
) -> ShardPart {
    let _zone = rsyn_observe::trace::zone("atpg.shard", id.index as u64);
    let seed = shard_seed(options.seed, id.index as u64);
    let mut statuses = vec![FaultStatus::Undetected; faults.len()];
    let mut tests = TestSet::new();
    // One simulator for the random phase and for the PODEM phase's
    // confirm and drop calls.
    let mut sim = FaultSim::with_arena(Arc::clone(arena));
    let npis = view.pis.len();

    // --- random phase ---------------------------------------------------------
    let random_span = rsyn_observe::span("atpg.random");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut remaining = RANDOM_WORDS;
    while remaining > 0 {
        // Up to four 64-pattern words ride in one 256-lane block. Word-major
        // draws keep the RNG stream identical to the historical
        // one-word-per-call loop, and the word-major lane order below keeps
        // detection lanes and pattern emission byte-identical to it.
        let nw = remaining.min(LANE_WORDS);
        remaining -= nw;
        let mut lanes = vec![LaneBlock::ZERO; npis];
        for j in 0..nw {
            for lane in lanes.iter_mut() {
                lane.set_word(j, rng.gen());
            }
        }
        {
            let _good = rsyn_observe::span_volatile("sim.good");
            sim.set_patterns(&lanes);
        }
        let valid = LaneBlock::mask_words(nw);
        let mut used_lanes: Vec<(usize, bool)> = Vec::new(); // (lane, needs predecessor)
        for (fi, fault) in faults.iter().enumerate() {
            if statuses[fi] != FaultStatus::Undetected {
                continue;
            }
            let det = sim.detect_lanes(fault) & valid;
            if let Some(lane) = det.first_lane() {
                statuses[fi] = FaultStatus::Detected;
                used_lanes.push((lane, matches!(fault.kind, FaultKind::Transition { .. })));
            }
        }
        // Emit the union of detecting lanes (plus each transition launch's
        // predecessor — always within the same 64-lane word, since word
        // boundaries start fresh launch sequences) in ascending word-major
        // lane order, so initialisation patterns always precede their
        // launch patterns in the test set.
        let mut emit = [false; LANES];
        for (lane, needs_pred) in used_lanes {
            emit[lane] = true;
            if needs_pred && lane % 64 > 0 {
                emit[lane - 1] = true;
            }
        }
        for (lane, &e) in emit.iter().enumerate().take(nw * 64) {
            if e {
                tests.push(lane_pattern(&lanes, lane, npis));
            }
        }
    }

    let random_detected = statuses.iter().filter(|s| **s == FaultStatus::Detected).count() as u64;
    drop(random_span);

    // --- deterministic phase -----------------------------------------------------
    // SAT runs inside this span, under its own `atpg.sat` span: it decides
    // the faults PODEM gives up on.
    let podem_span = rsyn_observe::span("atpg.podem");
    let mut podem = Podem::with_arena(nl, view, Arc::clone(arena), BACKTRACK_LIMIT);
    // Built on the first fault that needs it: most shards never do.
    let mut prover: Option<SatAtpg> = None;
    let mut sat = SatTally::default();
    let mut proved_by_podem = 0u64;
    let mut drop_buffer: Vec<Pattern> = Vec::new();
    for fi in 0..faults.len() {
        if statuses[fi] != FaultStatus::Undetected {
            continue;
        }
        let fault = &faults[fi];
        let global = (id.base_fault + fi) as u64;
        // Per-fault attribution: the zone id is the fault's global index,
        // so a slow search in the trace names the exact fault; the effort
        // histograms below are deterministic because each search depends
        // only on the netlist and the fault.
        let fault_zone = rsyn_observe::trace::zone("atpg.fault", global);
        let backtracks_before = podem.backtracks();
        let decisions_before = podem.decisions();
        let (detected, aborted) =
            attempt_fault(&mut podem, &mut sim, &mut tests, &mut drop_buffer, fault, npis);
        rsyn_observe::hist_add(
            "atpg.podem.backtracks_per_fault",
            podem.backtracks() - backtracks_before,
        );
        rsyn_observe::hist_add(
            "atpg.podem.decisions_per_fault",
            podem.decisions() - decisions_before,
        );
        drop(fault_zone);

        statuses[fi] = if detected {
            FaultStatus::Detected
        } else if !aborted {
            proved_by_podem += 1;
            FaultStatus::Undetectable
        } else {
            // The zone names the fault in the trace; the span times SAT
            // apart from PODEM in manifests (`span.atpg.sat.calls` =
            // `atpg.sat.calls`).
            let _zone = rsyn_observe::trace::zone("atpg.sat.fault", global);
            let _span = rsyn_observe::span("atpg.sat");
            let prover = prover.get_or_insert_with(|| SatAtpg::with_arena(Arc::clone(arena)));
            decide_by_sat(prover, &mut sim, &mut tests, &mut drop_buffer, fault, npis, &mut sat)
        };

        // Periodically fault-drop with the freshly generated patterns.
        let detected = statuses[fi] == FaultStatus::Detected;
        if drop_buffer.len() >= 64 || (detected && drop_buffer.len() >= 32) {
            drop_faults(&mut sim, faults, &mut statuses, &drop_buffer, npis);
            drop_buffer.clear();
        }
    }
    if !drop_buffer.is_empty() {
        drop_faults(&mut sim, faults, &mut statuses, &drop_buffer, npis);
    }
    podem.publish_phase_times();
    drop(podem_span);

    // One registry flush per shard (not per fault): counters stay off the
    // hot path, and per-shard totals are thread-count independent because
    // shard boundaries are.
    let count = |status: FaultStatus| statuses.iter().filter(|s| **s == status).count() as u64;
    rsyn_observe::add_many(&[
        ("atpg.shards", 1),
        ("atpg.faults", faults.len() as u64),
        ("atpg.random.detected", random_detected),
        ("atpg.podem.backtracks", podem.backtracks()),
        ("atpg.podem.decisions", podem.decisions()),
        ("atpg.sat.calls", sat.calls),
        ("atpg.sat.detected", sat.detected),
        ("atpg.sat.undetectable", sat.undetectable),
        ("atpg.sat.unconfirmed", sat.unconfirmed),
        ("atpg.sat.conflicts", sat.conflicts),
        ("atpg.proof.podem", proved_by_podem),
        ("atpg.proof.sat", sat.undetectable),
        ("atpg.detected", count(FaultStatus::Detected)),
        ("atpg.undetectable", count(FaultStatus::Undetectable)),
        ("atpg.aborted", count(FaultStatus::Aborted)),
    ]);
    ShardPart { statuses, tests }
}

fn lane_pattern(lanes: &[LaneBlock], lane: usize, npis: usize) -> Pattern {
    let mut p = Pattern::zeros(npis);
    for (i, w) in lanes.iter().enumerate() {
        p.set(i, w.lane(lane));
    }
    p
}

/// Marks Detected every Undetected fault that one of `patterns` detects, a
/// transition fault only through a pattern pair inside one 64-lane word
/// (the patterns fill the words of each block in order).
fn drop_faults(
    sim: &mut FaultSim,
    faults: &[Fault],
    statuses: &mut [FaultStatus],
    patterns: &[Pattern],
    npis: usize,
) {
    let _t = rsyn_observe::span_volatile("sim.drop");
    for chunk in patterns.chunks(LANES) {
        sim.set_patterns(&pack(chunk, npis));
        let valid = LaneBlock::mask_lanes(chunk.len());
        for (fi, fault) in faults.iter().enumerate() {
            if statuses[fi] == FaultStatus::Undetected && (sim.detect_lanes(fault) & valid).any() {
                statuses[fi] = FaultStatus::Detected;
            }
        }
    }
}

/// Reverse-order compaction: walk tests from last to first, keeping a test
/// only if it detects a fault no later-kept test detects. Initialisation
/// predecessors of kept transition-detecting tests are kept as well.
#[cfg(test)]
pub(crate) fn compact(
    nl: &Netlist,
    view: &CombView,
    faults: &[Fault],
    statuses: &[FaultStatus],
    tests: &mut TestSet,
    threads: usize,
) {
    let arena = Arc::new(SimArena::build(nl, view));
    compact_with_arena(&arena, view, faults, statuses, tests, threads);
}

/// Reverse-order compaction over a prebuilt (possibly shared) arena: one
/// [`last_detections`] pass, then [`retain_last_detections`].
fn compact_with_arena(
    arena: &Arc<SimArena>,
    view: &CombView,
    faults: &[Fault],
    statuses: &[FaultStatus],
    tests: &mut TestSet,
    threads: usize,
) {
    let _span = rsyn_observe::span("atpg.compact");
    let (keep, undetected) = last_detections(arena, view, faults, statuses, tests, threads);
    retain_last_detections(tests, &keep, &undetected);
}

/// Applies a [`last_detections`] pass to the test set it ran over: keeps
/// the marked tests, or the whole set when some Detected fault is detected
/// by no test (correctness over minimality). No Detected fault at all
/// leaves the set empty.
pub(crate) fn retain_last_detections(tests: &mut TestSet, keep: &[bool], undetected: &[usize]) {
    if undetected.is_empty() {
        let kept: Vec<usize> = (0..keep.len()).filter(|&i| keep[i]).collect();
        tests.retain_indices(&kept);
    }
}

/// Smallest chunk of pending faults a reverse-pass worker claims: each
/// chunk pays one good-machine sweep per window block it reaches.
const MIN_CHUNK_FAULTS: usize = 16;

/// Upper bound on the number of reverse-pass chunks.
const MAX_CHUNKS: usize = 16;

/// One block of up to four 64-pattern windows, packed once per pass and
/// shared by every worker.
struct WindowBlock<'a> {
    offsets: &'a [usize],
    lanes: Vec<LaneBlock>,
    mask: LaneBlock,
}

/// Finds each Detected fault's *last* detecting test in `tests`.
///
/// Returns `(keep, undetected)`: `keep[t]` marks every test that is some
/// Detected fault's last detection, plus the predecessor of a transition
/// fault's test; `undetected` lists, in ascending order, the Detected
/// faults that no test detects. The set reverse-order compaction keeps is
/// `keep` (see [`retain_last_detections`]); `undetected` is what a
/// [`covers`] check of the Detected faults would report uncovered.
///
/// The last detecting test is found by reverse-order fault simulation with
/// fault dropping: window blocks are simulated from the last to the first,
/// and a fault leaves the pending list at its first hit. Windows advance
/// by 63 so that every consecutive pattern pair sits fully inside some
/// window (transition faults need their predecessor); four windows ride in
/// each 256-lane simulation call. Lane 0 of a window is lane 63 of the one
/// before it, and a transition fault's lane 0 is masked as having no
/// predecessor, so the highest detecting lane is the last detecting test.
///
/// The pending faults are split into contiguous chunks sized from their
/// count alone, and up to `threads` workers claim chunks from an atomic
/// counter, each with its own [`FaultSim`] over the shared arena. A
/// fault's outcome depends only on the fault and the tests, so the marks
/// the workers make, merged by OR, are identical for every thread count.
pub(crate) fn last_detections(
    arena: &Arc<SimArena>,
    view: &CombView,
    faults: &[Fault],
    statuses: &[FaultStatus],
    tests: &TestSet,
    threads: usize,
) -> (Vec<bool>, Vec<usize>) {
    let pending: Vec<usize> = statuses
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == FaultStatus::Detected)
        .map(|(i, _)| i)
        .collect();
    let n_tests = tests.len();
    let mut keep = vec![false; n_tests];
    if pending.is_empty() || n_tests == 0 {
        return (keep, pending);
    }
    let offsets = window_offsets(n_tests);
    let blocks: Vec<WindowBlock<'_>> = offsets
        .chunks(LANE_WORDS)
        .map(|windows| WindowBlock {
            offsets: windows,
            lanes: tests.lane_blocks(windows, view.pis.len()),
            mask: window_mask(windows, n_tests),
        })
        .collect();
    let chunk_len = pending.len().div_ceil(MAX_CHUNKS).max(MIN_CHUNK_FAULTS);
    let chunks: Vec<&[usize]> = pending.chunks(chunk_len).collect();
    let next = AtomicUsize::new(0);
    let work = |worker: &mut Worker| {
        while let Some(chunk) = chunks.get(next.fetch_add(1, Ordering::Relaxed)) {
            worker.walk(&blocks, faults, chunk);
        }
    };
    // Every worker's state is allocated here, worklists included, and the
    // workers allocate nothing. A block a worker thread allocated and this
    // thread frees goes to this thread's malloc cache; a later small
    // allocation here that grows by reallocation then stays in the
    // worker's arena, which varied the peak RSS from run to run. The
    // calling thread is worker 0. No metrics are recorded; the caller's
    // span times the whole pass.
    let mut workers: Vec<Worker> = (0..threads.min(chunks.len()).max(1))
        .map(|_| {
            let mut sim = FaultSim::with_arena(Arc::clone(arena));
            sim.reserve_worklists();
            Worker {
                sim,
                pending: Vec::with_capacity(chunk_len),
                keep: vec![false; n_tests],
                undetected: vec![false; faults.len()],
            }
        })
        .collect();
    std::thread::scope(|scope| {
        let work = &work;
        let (first, rest) = workers.split_first_mut().expect("at least one worker");
        let handles: Vec<_> = rest.iter_mut().map(|w| scope.spawn(move || work(w))).collect();
        work(first);
        for handle in handles {
            handle.join().expect("reverse-pass worker");
        }
    });
    let mut undetected = vec![false; faults.len()];
    for worker in &workers {
        for (k, w) in keep.iter_mut().zip(&worker.keep) {
            *k |= w;
        }
        for (u, w) in undetected.iter_mut().zip(&worker.undetected) {
            *u |= w;
        }
    }
    (keep, (0..faults.len()).filter(|&i| undetected[i]).collect())
}

/// One [`last_detections`] worker: its simulator, a reusable pending list,
/// and the tests and faults it has marked.
struct Worker {
    sim: FaultSim,
    pending: Vec<usize>,
    keep: Vec<bool>,
    undetected: Vec<bool>,
}

impl Worker {
    /// The reverse walk for one chunk of pending faults: marks each one's
    /// last detecting test (and a transition's predecessor) in `keep`, and
    /// the faults no block detects in `undetected`.
    fn walk(&mut self, blocks: &[WindowBlock<'_>], faults: &[Fault], chunk: &[usize]) {
        let Self { sim, pending, keep, undetected } = self;
        pending.clear();
        pending.extend_from_slice(chunk);
        for block in blocks.iter().rev() {
            if pending.is_empty() {
                break;
            }
            sim.set_patterns(&block.lanes);
            let windows = block.offsets;
            pending.retain(|&fi| {
                let det = sim.detect_lanes(&faults[fi]) & block.mask;
                // Window offsets ascend within the block: the highest
                // non-zero word holds the last detecting test.
                let Some(j) = (0..windows.len()).rev().find(|&j| det.word(j) != 0) else {
                    return true;
                };
                let ti = windows[j] + 63 - det.word(j).leading_zeros() as usize;
                keep[ti] = true;
                // Transition detections rely on the preceding pattern.
                if matches!(faults[fi].kind, FaultKind::Transition { .. }) && ti > 0 {
                    keep[ti - 1] = true;
                }
                false
            });
        }
        for &fi in pending.iter() {
            undetected[fi] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{BridgeKind, CellCondition, FaultOrigin};
    use rsyn_netlist::{GateId, Library, NetId};

    /// A 4-bit ripple-carry adder-ish circuit with some redundancy.
    fn build_circuit() -> Netlist {
        let lib = Library::osu018();
        let mut nl = Netlist::new("c", lib.clone());
        let fa = lib.cell_id("FAX1").unwrap();
        let inv = lib.cell_id("INVX1").unwrap();
        let and = lib.cell_id("AND2X2").unwrap();
        let a: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("a{i}"))).collect();
        let b: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("b{i}"))).collect();
        let mut carry = nl.const0();
        for i in 0..4 {
            let s = nl.add_named_net(format!("s{i}"));
            let c = nl.add_net();
            nl.add_gate(format!("fa{i}"), fa, &[a[i], b[i], carry], &[s, c]).unwrap();
            nl.mark_output(s);
            carry = c;
        }
        nl.mark_output(carry);
        // Redundant cone: r = a0 & !a0 (constant 0) feeding an inverter.
        let a0n = nl.add_net();
        nl.add_gate("ri", inv, &[a[0]], &[a0n]).unwrap();
        let r = nl.add_named_net("r");
        nl.add_gate("rg", and, &[a[0], a0n], &[r]).unwrap();
        let rout = nl.add_named_net("rout");
        nl.add_gate("ro", inv, &[r], &[rout]).unwrap();
        nl.mark_output(rout);
        nl
    }

    fn all_stuck_at(nl: &Netlist) -> Vec<Fault> {
        let mut out = Vec::new();
        for (id, net) in nl.nets() {
            if net.driver.is_some() && !matches!(net.driver, Some(rsyn_netlist::Driver::Const(_))) {
                for v in [false, true] {
                    out.push(Fault::external(FaultKind::StuckAt { net: id, value: v }, 0));
                }
            }
        }
        out
    }

    #[test]
    fn full_run_classifies_every_fault() {
        let nl = build_circuit();
        let view = nl.comb_view().unwrap();
        let faults = all_stuck_at(&nl);
        let r = run_atpg(&nl, &view, &faults, &AtpgOptions::default());
        assert_eq!(r.statuses.len(), faults.len());
        assert!(r.statuses.iter().all(|s| *s != FaultStatus::Undetected));
        // The redundant net r is constant 0: r SA0 undetectable.
        let r_net = nl.find_net("r").unwrap();
        let idx = faults
            .iter()
            .position(|f| f.kind == FaultKind::StuckAt { net: r_net, value: false })
            .unwrap();
        assert_eq!(r.statuses[idx], FaultStatus::Undetectable);
        // Adder nets are all testable.
        let s0 = nl.find_net("s0").unwrap();
        let idx = faults
            .iter()
            .position(|f| f.kind == FaultKind::StuckAt { net: s0, value: true })
            .unwrap();
        assert_eq!(r.statuses[idx], FaultStatus::Detected);
        assert!(r.undetectable_count() >= 1);
        assert!(r.coverage() < 1.0);
        assert!(!r.tests.is_empty());
    }

    /// Every detected fault must actually be detected by the final test set.
    #[test]
    fn final_test_set_covers_all_detected_faults() {
        let nl = build_circuit();
        let view = nl.comb_view().unwrap();
        let faults = all_stuck_at(&nl);
        let r = run_atpg(&nl, &view, &faults, &AtpgOptions::default());
        let covered = covers(&nl, &view, &faults, &r.tests);
        for (fi, f) in faults.iter().enumerate() {
            if r.statuses[fi] == FaultStatus::Detected {
                assert!(covered[fi], "fault {fi} {:?} not covered by final tests", f.kind);
            }
        }
    }

    #[test]
    fn compaction_shrinks_or_keeps_test_count() {
        let nl = build_circuit();
        let view = nl.comb_view().unwrap();
        let faults = all_stuck_at(&nl);
        let uncompacted =
            run_atpg(&nl, &view, &faults, &AtpgOptions { compact: false, ..Default::default() });
        let compacted = run_atpg(&nl, &view, &faults, &AtpgOptions::default());
        assert!(compacted.tests.len() <= uncompacted.tests.len());
        assert_eq!(compacted.detected_count(), uncompacted.detected_count());
    }

    #[test]
    fn cell_aware_and_bridge_and_transition_mix() {
        let nl = build_circuit();
        let view = nl.comb_view().unwrap();
        let fa0: GateId = nl.find_gate("fa0").unwrap();
        let s0 = nl.find_net("s0").unwrap();
        let s1 = nl.find_net("s1").unwrap();
        let r_net = nl.find_net("r").unwrap();
        let faults = vec![
            Fault::internal(fa0, vec![CellCondition { pattern: 0b011, output: 1 }], 1),
            Fault::external(FaultKind::Bridge { a: s0, b: s1, kind: BridgeKind::WiredAnd }, 2),
            Fault::external(FaultKind::Transition { net: s0, rising: true }, 3),
            // Transition on a constant-0 net: cannot rise, undetectable.
            Fault::external(FaultKind::Transition { net: r_net, rising: true }, 3),
        ];
        let r = run_atpg(&nl, &view, &faults, &AtpgOptions::default());
        assert_eq!(r.statuses[0], FaultStatus::Detected, "cell-aware carry flip");
        assert_eq!(r.statuses[1], FaultStatus::Detected, "bridge s0/s1");
        assert_eq!(r.statuses[2], FaultStatus::Detected, "slow-to-rise s0");
        assert_eq!(r.statuses[3], FaultStatus::Undetectable, "transition on constant net");
    }

    #[test]
    fn deterministic_across_runs() {
        let nl = build_circuit();
        let view = nl.comb_view().unwrap();
        let faults = all_stuck_at(&nl);
        let a = run_atpg(&nl, &view, &faults, &AtpgOptions::default());
        let b = run_atpg(&nl, &view, &faults, &AtpgOptions::default());
        assert_eq!(a.statuses, b.statuses);
        assert_eq!(a.tests.len(), b.tests.len());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let nl = build_circuit();
        let view = nl.comb_view().unwrap();
        // Replicate the fault list so it spans several shards.
        let base = all_stuck_at(&nl);
        let mut faults = Vec::new();
        for _ in 0..4 {
            faults.extend(base.iter().cloned());
        }
        let reference = run_atpg(&nl, &view, &faults, &AtpgOptions::default().with_threads(1));
        for threads in [2, 4, 8] {
            let r = run_atpg(&nl, &view, &faults, &AtpgOptions::default().with_threads(threads));
            assert_eq!(r.statuses, reference.statuses, "threads={threads} diverged");
            assert_eq!(
                r.tests.patterns(),
                reference.tests.patterns(),
                "threads={threads} test set diverged"
            );
        }
    }

    #[test]
    fn shard_spans_cover_exactly() {
        for n in [0usize, 1, 31, 32, 33, 64, 1000, 64 * 32, 64 * 32 + 1, 10_000] {
            let spans = shard_spans(n);
            let mut next = 0usize;
            for s in &spans {
                assert_eq!(s.start, next, "n={n}");
                assert!(s.end > s.start, "n={n}");
                next = s.end;
            }
            assert_eq!(next, n, "n={n}");
            assert!(spans.len() <= MAX_SHARDS + 1, "n={n}: {} shards", spans.len());
        }
    }

    #[test]
    fn shard_seed_distinct_and_stable() {
        assert_eq!(shard_seed(0xDA7E, 0), 0xDA7E, "shard 0 keeps the user seed");
        let seeds: Vec<u64> = (0..64).map(|i| shard_seed(0xDA7E, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "shard seeds collide");
    }

    #[test]
    fn sharded_run_covers_all_detected() {
        let nl = build_circuit();
        let view = nl.comb_view().unwrap();
        let base = all_stuck_at(&nl);
        let mut faults = Vec::new();
        for _ in 0..4 {
            faults.extend(base.iter().cloned());
        }
        assert!(shard_spans(faults.len()).len() > 1, "test needs multiple shards");
        let r = run_atpg(&nl, &view, &faults, &AtpgOptions::default());
        let covered = covers(&nl, &view, &faults, &r.tests);
        for (fi, s) in r.statuses.iter().enumerate() {
            if *s == FaultStatus::Detected {
                assert!(covered[fi], "fault {fi} uncovered after sharded run");
            }
        }
    }

    /// A confirm counts only the lanes it loaded: the all-zero pattern in
    /// the lanes after them detects `s0` stuck-at-1, the loaded one does
    /// not.
    #[test]
    fn confirms_reads_only_the_loaded_lanes() {
        let nl = build_circuit();
        let view = nl.comb_view().unwrap();
        let s0 = nl.find_net("s0").unwrap();
        let fault = Fault::external(FaultKind::StuckAt { net: s0, value: true }, 0);
        let npis = view.pis.len();
        let mut sim = FaultSim::new(&nl, &view);
        let mut a0 = Pattern::zeros(npis);
        a0.set(view.pis.iter().position(|&p| p == nl.find_net("a0").unwrap()).unwrap(), true);
        assert!(!confirms(&mut sim, &fault, &[a0], npis), "s0 = 1 hides stuck-at-1");
        assert!(confirms(&mut sim, &fault, &[Pattern::zeros(npis)], npis));
    }

    /// SAT reaches the same verdict as the engine's PODEM-and-SAT run for
    /// every fault kind, and the simulator confirms every SAT test.
    #[test]
    fn sat_agrees_with_the_engine_on_every_kind() {
        let nl = build_circuit();
        let view = nl.comb_view().unwrap();
        let fa0: GateId = nl.find_gate("fa0").unwrap();
        let (s0, s1) = (nl.find_net("s0").unwrap(), nl.find_net("s1").unwrap());
        let r_net = nl.find_net("r").unwrap();
        let mut faults = all_stuck_at(&nl);
        faults.extend([
            Fault::internal(fa0, vec![CellCondition { pattern: 0b011, output: 1 }], 1),
            Fault::external(FaultKind::Bridge { a: s0, b: s1, kind: BridgeKind::WiredAnd }, 2),
            Fault::external(FaultKind::Bridge { a: s0, b: s1, kind: BridgeKind::WiredOr }, 2),
            Fault::external(FaultKind::Transition { net: s0, rising: true }, 3),
            Fault::external(FaultKind::Transition { net: r_net, rising: true }, 3),
        ]);
        let result = run_atpg(&nl, &view, &faults, &AtpgOptions::default());
        let mut prover = SatAtpg::new(&nl, &view);
        let mut sim = FaultSim::new(&nl, &view);
        for (fi, fault) in faults.iter().enumerate() {
            match prover.decide(fault) {
                SatOutcome::Detected(test) => {
                    assert_eq!(result.statuses[fi], FaultStatus::Detected, "fault {fi}");
                    assert!(confirms(&mut sim, fault, &test, view.pis.len()), "fault {fi}");
                }
                SatOutcome::Undetectable => {
                    assert_eq!(result.statuses[fi], FaultStatus::Undetectable, "fault {fi}");
                }
            }
        }
    }

    /// The detection-matrix compaction that last-detection dropping
    /// replaced: per-test detection lists, then a reverse walk in which each
    /// test claims the still-needed faults it detects. The reference for
    /// `compaction_matches_detection_matrix`.
    fn compact_reference(
        nl: &Netlist,
        view: &CombView,
        faults: &[Fault],
        statuses: &[FaultStatus],
        tests: &mut TestSet,
    ) {
        let detected: Vec<usize> = statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == FaultStatus::Detected)
            .map(|(i, _)| i)
            .collect();
        if detected.is_empty() {
            tests.retain_indices(&[]);
            return;
        }
        let mut sim = FaultSim::new(nl, view);
        let n_tests = tests.len();
        let mut detects_by_test: Vec<Vec<usize>> = vec![Vec::new(); n_tests];
        for windows in window_offsets(n_tests).chunks(LANE_WORDS) {
            sim.set_patterns(&tests.lane_blocks(windows, view.pis.len()));
            for &fi in &detected {
                let det = sim.detect_lanes(&faults[fi]);
                for (j, &offset) in windows.iter().enumerate() {
                    let mut bits = det.word(j);
                    while bits != 0 {
                        let ti = offset + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if ti < n_tests && !detects_by_test[ti].contains(&fi) {
                            detects_by_test[ti].push(fi);
                        }
                    }
                }
            }
        }
        let mut needed = vec![false; faults.len()];
        for &fi in &detected {
            needed[fi] = true;
        }
        let mut keep = vec![false; n_tests];
        for ti in (0..n_tests).rev() {
            for &fi in &detects_by_test[ti] {
                if needed[fi] {
                    needed[fi] = false;
                    keep[ti] = true;
                    if matches!(faults[fi].kind, FaultKind::Transition { .. }) && ti > 0 {
                        keep[ti - 1] = true;
                    }
                }
            }
        }
        if needed.iter().any(|&n| n) {
            return;
        }
        let kept: Vec<usize> = (0..n_tests).filter(|&i| keep[i]).collect();
        tests.retain_indices(&kept);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Last-detection compaction keeps exactly the tests the
        /// detection-matrix reference keeps: random netlists, random test
        /// sets of 1–600 patterns (crossing the 63-stride window and the
        /// four-window block boundaries, up to three blocks), all four fault
        /// kinds, transitions whose last detection sits at a window's lane
        /// 63 (= the next window's lane 0), Detected faults that no test
        /// detects, and 1, 2, 3 or 8 reverse-pass workers over fault lists
        /// long enough to split into several chunks.
        #[test]
        fn compaction_matches_detection_matrix(seed in 0u64..u64::MAX) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            // A buffer observes input i0 directly, so the test set can place
            // the last detection of a transition on i0 exactly.
            let mut nl = crate::podem::tests::random_netlist(seed, &mut next);
            let i0 = nl.find_net("i0").unwrap();
            let obs = nl.add_named_net("obs");
            let buf = nl.lib().cell_id("BUFX2").unwrap();
            nl.add_gate("buf", buf, &[i0], &[obs]).unwrap();
            nl.mark_output(obs);
            let view = nl.comb_view().unwrap();

            // Sparse patterns spread the last detections over the set.
            let n = 1 + (next() % 600) as usize;
            let sparsity = [2, 8, 32][(next() % 3) as usize];
            let mut bits: Vec<Vec<bool>> = (0..n)
                .map(|_| view.pis.iter().map(|_| next() % sparsity == 0).collect())
                .collect();
            // The last rising edge of i0 at test 63m: lane 63 of window m-1
            // and lane 0 of window m (across a block boundary when m = 4).
            let pi0 = view.pis.iter().position(|&p| p == i0).unwrap();
            if n > 63 && next() % 2 == 0 {
                let edge = 63 * (1 + (next() % ((n as u64 - 1) / 63)) as usize);
                bits[edge - 1][pi0] = false;
                for p in &mut bits[edge..] {
                    p[pi0] = true;
                }
            }
            let tests: TestSet = bits.iter().map(|b| Pattern::from_bools(b)).collect();

            let mut faults = vec![
                // Never detected: stuck-at-1 on the constant-1 source.
                Fault::external(FaultKind::StuckAt { net: nl.const1(), value: true }, 0),
                Fault::external(FaultKind::Transition { net: i0, rising: true }, 0),
                Fault::external(FaultKind::Transition { net: i0, rising: false }, 0),
                Fault::external(FaultKind::Transition { net: obs, rising: true }, 0),
            ];
            let nets = nl.net_count() as u64;
            for _ in 0..8 + next() % 40 {
                let net = NetId::from_index((next() % nets) as usize);
                faults.push(Fault::external(FaultKind::StuckAt { net, value: next() % 2 == 0 }, 0));
                let net = NetId::from_index((next() % nets) as usize);
                let rising = next() % 2 == 0;
                faults.push(Fault::external(FaultKind::Transition { net, rising }, 0));
            }
            for kind in [BridgeKind::WiredAnd, BridgeKind::WiredOr] {
                for _ in 0..2 {
                    let a = NetId::from_index((next() % nets) as usize);
                    let b = NetId::from_index((next() % nets) as usize);
                    faults.push(Fault::external(FaultKind::Bridge { a, b, kind }, 0));
                }
            }
            for _ in 0..4 {
                let gate = view.order[(next() % view.order.len() as u64) as usize];
                let g = nl.gate(gate).unwrap();
                let pattern = next() % (1 << g.inputs.len());
                let output = (next() % g.outputs.len() as u64) as u8;
                faults.push(Fault::internal(gate, vec![CellCondition { pattern, output }], 0));
            }

            let covered = covers(&nl, &view, &faults, &tests);
            let mut statuses: Vec<FaultStatus> = covered
                .iter()
                .map(|&c| {
                    if c && next() % 8 != 0 { FaultStatus::Detected } else { FaultStatus::Undetectable }
                })
                .collect();
            // A quarter of the cases claim the undetected fault as Detected.
            if next() % 4 == 0 {
                statuses[0] = FaultStatus::Detected;
            }

            let threads = [1, 2, 3, 8][(next() % 4) as usize];
            let mut got = tests.clone();
            compact(&nl, &view, &faults, &statuses, &mut got, threads);
            let mut want = tests;
            compact_reference(&nl, &view, &faults, &statuses, &mut want);
            proptest::prop_assert!(
                got == want,
                "n={} threads={} kept {} tests, reference kept {}",
                n,
                threads,
                got.len(),
                want.len()
            );
        }

        /// `drop_faults` marks Detected exactly the faults that one of the
        /// patterns detects on its own or, for a transition fault, together
        /// with its predecessor in the same 64-lane word: random netlists,
        /// all four fault kinds, 1–300 dense random patterns (63, 64, 65,
        /// 128 and 129 in a third of the cases), so the patterns end inside
        /// a word, on a word boundary and past a block.
        #[test]
        fn drop_faults_marks_single_and_in_word_pair_detections(seed in 0u64..u64::MAX) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let nl = crate::podem::tests::random_netlist(seed, &mut next);
            let view = nl.comb_view().unwrap();
            let npis = view.pis.len();
            let n = if next() % 3 == 0 {
                [63, 64, 65, 128, 129][(next() % 5) as usize]
            } else {
                1 + (next() % 300) as usize
            };
            let patterns: Vec<Pattern> = (0..n)
                .map(|_| Pattern::from_bools(&(0..npis).map(|_| next() % 2 == 0).collect::<Vec<_>>()))
                .collect();

            let mut faults = Vec::new();
            for (net, _) in nl.nets() {
                for value in [false, true] {
                    faults.push(Fault::external(FaultKind::StuckAt { net, value }, 0));
                    faults.push(Fault::external(FaultKind::Transition { net, rising: value }, 0));
                }
            }
            let nets = nl.net_count() as u64;
            for kind in [BridgeKind::WiredAnd, BridgeKind::WiredOr] {
                for _ in 0..4 {
                    let a = NetId::from_index((next() % nets) as usize);
                    let b = NetId::from_index((next() % nets) as usize);
                    faults.push(Fault::external(FaultKind::Bridge { a, b, kind }, 0));
                }
            }
            for _ in 0..8 {
                let gate = view.order[(next() % view.order.len() as u64) as usize];
                let g = nl.gate(gate).unwrap();
                let pattern = next() % (1 << g.inputs.len());
                let output = (next() % g.outputs.len() as u64) as u8;
                faults.push(Fault::internal(gate, vec![CellCondition { pattern, output }], 0));
            }

            let mut sim = FaultSim::new(&nl, &view);
            let mut statuses = vec![FaultStatus::Undetected; faults.len()];
            drop_faults(&mut sim, &faults, &mut statuses, &patterns, npis);

            // One simulation per pattern: lane 1 holds it, lane 0 its
            // in-word predecessor, or the pattern itself at a word's first
            // lane (no transition launches from an unchanged pattern).
            let mut want = vec![false; faults.len()];
            for (k, p) in patterns.iter().enumerate() {
                let before = if k % 64 == 0 { p } else { &patterns[k - 1] };
                let lanes: Vec<LaneBlock> = (0..npis)
                    .map(|i| LaneBlock::from_word(u64::from(before.get(i)) | u64::from(p.get(i)) << 1))
                    .collect();
                sim.set_patterns(&lanes);
                for (w, fault) in want.iter_mut().zip(&faults) {
                    *w |= sim.detect_lanes(fault).lane(1);
                }
            }
            for (fi, fault) in faults.iter().enumerate() {
                proptest::prop_assert_eq!(
                    statuses[fi] == FaultStatus::Detected,
                    want[fi],
                    "n={} fault {:?}",
                    n,
                    fault.kind
                );
            }
        }
    }

    #[test]
    fn internal_faults_in_origin() {
        let nl = build_circuit();
        let fa0 = nl.find_gate("fa0").unwrap();
        let f = Fault::internal(fa0, vec![CellCondition { pattern: 0, output: 0 }], 0);
        assert_eq!(f.origin, FaultOrigin::Internal { gate: fa0 });
    }
}
