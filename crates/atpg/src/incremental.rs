//! Cone-of-influence incremental ATPG.
//!
//! The resynthesis inner loop (Section III-B of the paper) re-evaluates a
//! full design candidate for every banned-cell prefix, and each evaluation
//! used to re-run ATPG on the *entire* DFM fault set. But a candidate only
//! replaces one window of gates with a functionally equivalent
//! implementation: a fault whose site cannot reach the remapped region —
//! and which already existed, verbatim, in the previous fault set — keeps
//! its classification. [`run_atpg_incremental`] exploits this by
//! re-simulating only the faults in the remapped window's cone of
//! influence (the window's gates plus their transitive fanout) and any
//! fault with no match in the previous fault set, carrying every other
//! status over from the previous [`AtpgResult`].
//!
//! Carried-over `Detected` classifications are additionally *verified*
//! against the merged test set, by the same reverse fault-simulation pass
//! that compacts it: the pass finds each Detected fault's last detecting
//! test, so the Detected faults it cannot place are exactly the ones no
//! merged test detects. Any carried one among them (possible only if the
//! remap was not perfectly equivalence-preserving) is re-run through the
//! full engine, so the engine's invariant — the final test set covers
//! every fault reported detected — holds unconditionally.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use rsyn_netlist::{CombView, GateId, NetId, Netlist, SimArena};

use crate::engine::{last_detections, retain_last_detections, run_atpg, AtpgOptions, AtpgResult};
use crate::fault::{Fault, FaultKind, FaultOrigin, FaultStatus};
use crate::testset::TestSet;

/// The previous evaluation an incremental run carries statuses over from.
#[derive(Clone, Copy, Debug)]
pub struct PreviousEvaluation<'a> {
    /// The previous fault list.
    pub faults: &'a [Fault],
    /// The previous ATPG result (statuses parallel to `faults`).
    pub result: &'a AtpgResult,
}

/// The cone of influence of a set of remapped gates: the gates themselves
/// plus their transitive fanout, with every net they drive.
#[derive(Clone, Debug, Default)]
pub struct Cone {
    gates: HashSet<GateId>,
    nets: HashSet<NetId>,
}

impl Cone {
    /// Computes the cone of `changed` in `nl`. Gate ids not present in the
    /// netlist (e.g. the ids of *removed* window gates) are kept in the
    /// gate set — faults still referencing them must always re-run.
    pub fn of_changed_gates(nl: &Netlist, changed: &[GateId]) -> Self {
        let mut gates: HashSet<GateId> = changed.iter().copied().collect();
        let mut nets: HashSet<NetId> = HashSet::new();
        let mut queue: VecDeque<GateId> =
            changed.iter().copied().filter(|&g| nl.gate(g).is_some()).collect();
        let mut seen: HashSet<GateId> = queue.iter().copied().collect();
        while let Some(g) = queue.pop_front() {
            let gate = nl.gate(g).expect("queued gates are live");
            nets.extend(gate.outputs.iter().copied());
            for sink in nl.fanout_gates(g) {
                if seen.insert(sink) {
                    gates.insert(sink);
                    queue.push_back(sink);
                }
            }
        }
        Self { gates, nets }
    }

    /// True if the fault's support (site nets / site gate) intersects the
    /// cone, i.e. the fault's behaviour may have changed.
    pub fn touches(&self, fault: &Fault) -> bool {
        let kind_hit = match &fault.kind {
            FaultKind::StuckAt { net, .. } | FaultKind::Transition { net, .. } => {
                self.nets.contains(net)
            }
            FaultKind::Bridge { a, b, .. } => self.nets.contains(a) || self.nets.contains(b),
            FaultKind::CellAware { gate, .. } => self.gates.contains(gate),
        };
        if kind_hit {
            return true;
        }
        match &fault.origin {
            FaultOrigin::Internal { gate } => self.gates.contains(gate),
            FaultOrigin::External { nets } => nets.iter().any(|n| self.nets.contains(n)),
        }
    }

    /// Number of gates in the cone.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }
}

/// Incremental [`run_atpg`]: re-evaluates only the faults affected by the
/// remap of `changed_gates`, carrying all other statuses over from
/// `previous` and reusing its test set.
///
/// Falls back to a full run when the primary-input interface changed (the
/// previous patterns would not apply) or when there is no previous result
/// to carry from.
pub fn run_atpg_incremental(
    nl: &Netlist,
    view: &CombView,
    faults: &[Fault],
    options: &AtpgOptions,
    previous: &PreviousEvaluation<'_>,
    changed_gates: &[GateId],
) -> AtpgResult {
    let _span = rsyn_observe::span("atpg.incremental");
    let prev_pi_len = previous.result.tests.patterns().first().map(crate::testset::Pattern::len);
    let interface_changed = prev_pi_len.is_some_and(|n| n != view.pis.len());
    if previous.faults.len() != previous.result.statuses.len() || interface_changed {
        rsyn_observe::add("atpg.incremental.full_fallbacks", 1);
        return run_atpg(nl, view, faults, options);
    }

    // Carry every fault the remap cannot affect; `rerun` ascends.
    let classify = rsyn_observe::span_volatile("atpg.incremental.classify");
    let prev_index: HashMap<&Fault, usize> =
        previous.faults.iter().enumerate().map(|(i, f)| (f, i)).collect();
    let cone = Cone::of_changed_gates(nl, changed_gates);
    let mut statuses = vec![FaultStatus::Undetected; faults.len()];
    let mut rerun: Vec<usize> = Vec::new();
    for (i, f) in faults.iter().enumerate() {
        match prev_index.get(f) {
            Some(&pi) if !cone.touches(f) => statuses[i] = previous.result.statuses[pi],
            _ => rerun.push(i),
        }
    }
    drop(classify);

    rsyn_observe::add_many(&[
        ("atpg.incremental.runs", 1),
        ("atpg.incremental.carried", (faults.len() - rerun.len()) as u64),
        ("atpg.incremental.rerun", rerun.len() as u64),
    ]);
    rsyn_observe::hist_add("atpg.incremental.rerun_per_call", rerun.len() as u64);

    // Re-run the affected subset through the (parallel) engine, without
    // per-subset compaction: compaction happens once, globally, below.
    let sub_options = AtpgOptions { compact: false, ..*options };
    let sub_faults: Vec<Fault> = rerun.iter().map(|&i| faults[i].clone()).collect();
    let sub = run_atpg(nl, view, &sub_faults, &sub_options);
    for (k, &i) in rerun.iter().enumerate() {
        statuses[i] = sub.statuses[k];
    }

    let mut tests: TestSet = previous.result.tests.patterns().iter().cloned().collect();
    tests.extend(sub.tests.patterns().iter().cloned());
    verify_and_compact(nl, view, faults, options, &rerun, statuses, tests)
}

/// The tail of [`run_atpg_incremental`], given the merged statuses and
/// tests and the (ascending) indices of the re-run faults.
///
/// One reverse pass over the merged tests both verifies every carried
/// detection in the *new* netlist and finds the tests compaction keeps
/// (see [`last_detections`]). Carried Detected faults that no merged test
/// detects are rescued through the engine, after which the grown set is
/// compacted again.
fn verify_and_compact(
    nl: &Netlist,
    view: &CombView,
    faults: &[Fault],
    options: &AtpgOptions,
    rerun: &[usize],
    mut statuses: Vec<FaultStatus>,
    mut tests: TestSet,
) -> AtpgResult {
    if tests.is_empty() {
        return AtpgResult { statuses, tests };
    }
    let arena = {
        let _build = rsyn_observe::span_volatile("sim.build");
        Arc::new(SimArena::build(nl, view))
    };
    let threads = options.effective_threads();
    let pass = if options.compact {
        rsyn_observe::span("atpg.compact")
    } else {
        rsyn_observe::span_volatile("atpg.verify")
    };
    let (keep, undetected) = last_detections(&arena, view, faults, &statuses, &tests, threads);
    drop(pass);
    let rescue: Vec<usize> =
        undetected.iter().copied().filter(|i| rerun.binary_search(i).is_err()).collect();
    if rescue.is_empty() {
        if options.compact {
            retain_last_detections(&mut tests, &keep, &undetected);
        }
        return AtpgResult { statuses, tests };
    }

    // Rare path: carried detections the merged tests no longer reproduce.
    rsyn_observe::add("atpg.incremental.rescued", rescue.len() as u64);
    let rescue_options = AtpgOptions { compact: false, ..*options };
    let rescue_faults: Vec<Fault> = rescue.iter().map(|&i| faults[i].clone()).collect();
    let rescued = run_atpg(nl, view, &rescue_faults, &rescue_options);
    for (k, &i) in rescue.iter().enumerate() {
        statuses[i] = rescued.statuses[k];
    }
    tests.extend(rescued.tests.patterns().iter().cloned());
    if options.compact {
        // The first pass already counted as this run's compaction.
        let _recompact = rsyn_observe::span_volatile("atpg.compact");
        let (keep, undetected) = last_detections(&arena, view, faults, &statuses, &tests, threads);
        retain_last_detections(&mut tests, &keep, &undetected);
    }
    AtpgResult { statuses, tests }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{compact, covers};
    use crate::fault::{BridgeKind, CellCondition};
    use crate::testset::Pattern;
    use rsyn_netlist::Library;

    /// Two independent output cones: `x = !(a·b)` and `y = !(c·d)`, with a
    /// redundant constant branch on the second cone.
    fn split_circuit() -> Netlist {
        let lib = Library::osu018();
        let mut nl = Netlist::new("split", lib.clone());
        let nand = lib.cell_id("NAND2X1").unwrap();
        let inv = lib.cell_id("INVX1").unwrap();
        let and = lib.cell_id("AND2X2").unwrap();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let x = nl.add_named_net("x");
        nl.add_gate("gx", nand, &[a, b], &[x]).unwrap();
        nl.mark_output(x);
        let y = nl.add_named_net("y");
        nl.add_gate("gy", nand, &[c, d], &[y]).unwrap();
        nl.mark_output(y);
        // Redundant: r = c & !c, constant 0.
        let cn = nl.add_net();
        nl.add_gate("gi", inv, &[c], &[cn]).unwrap();
        let r = nl.add_named_net("r");
        nl.add_gate("gr", and, &[c, cn], &[r]).unwrap();
        nl.mark_output(r);
        nl
    }

    fn stuck_at_faults(nl: &Netlist) -> Vec<Fault> {
        let mut out = Vec::new();
        for (id, net) in nl.nets() {
            if matches!(net.driver, Some(rsyn_netlist::Driver::Gate(..))) {
                for v in [false, true] {
                    out.push(Fault::external(FaultKind::StuckAt { net: id, value: v }, 0));
                }
            }
        }
        out
    }

    #[test]
    fn cone_contains_fanout_not_siblings() {
        let nl = split_circuit();
        let gx = nl.find_gate("gx").unwrap();
        let cone = Cone::of_changed_gates(&nl, &[gx]);
        let x = nl.find_net("x").unwrap();
        let y = nl.find_net("y").unwrap();
        assert!(cone.nets.contains(&x));
        assert!(!cone.nets.contains(&y));
        assert!(cone.gates.contains(&gx));
        assert!(!cone.gates.contains(&nl.find_gate("gy").unwrap()));
    }

    #[test]
    fn incremental_matches_full_run() {
        let _session = crate::injection_session();
        let nl = split_circuit();
        let view = nl.comb_view().unwrap();
        let faults = stuck_at_faults(&nl);
        let options = AtpgOptions::default();
        let full = run_atpg(&nl, &view, &faults, &options);

        // Pretend gate `gx` was just remapped (to itself): the incremental
        // run may only re-evaluate the x-cone, yet must reproduce the full
        // classification.
        let previous = PreviousEvaluation { faults: &faults, result: &full };
        let gx = nl.find_gate("gx").unwrap();
        let inc = run_atpg_incremental(&nl, &view, &faults, &options, &previous, &[gx]);
        assert_eq!(inc.statuses, full.statuses);
        let covered = covers(&nl, &view, &faults, &inc.tests);
        for (i, s) in inc.statuses.iter().enumerate() {
            if *s == FaultStatus::Detected {
                assert!(covered[i], "fault {i} detected but uncovered");
            }
        }
    }

    #[test]
    fn cone_touches_only_changed_cone_faults() {
        let nl = split_circuit();
        let faults = stuck_at_faults(&nl);
        let gy = nl.find_gate("gy").unwrap();
        let cone = Cone::of_changed_gates(&nl, &[gy]);
        let x = nl.find_net("x").unwrap();
        let y = nl.find_net("y").unwrap();
        for f in &faults {
            if let FaultKind::StuckAt { net, .. } = f.kind {
                if net == x {
                    assert!(!cone.touches(f), "sibling-cone fault flagged");
                }
                if net == y {
                    assert!(cone.touches(f), "changed-cone fault not flagged");
                }
            }
        }
    }

    #[test]
    fn new_faults_always_rerun() {
        let _session = crate::injection_session();
        let nl = split_circuit();
        let view = nl.comb_view().unwrap();
        let faults = stuck_at_faults(&nl);
        let full = run_atpg(&nl, &view, &faults, &AtpgOptions::default());
        // Previous evaluation knew about none of the faults.
        let empty_result = AtpgResult { statuses: Vec::new(), tests: TestSet::new() };
        let previous = PreviousEvaluation { faults: &[], result: &empty_result };
        let inc =
            run_atpg_incremental(&nl, &view, &faults, &AtpgOptions::default(), &previous, &[]);
        assert_eq!(inc.statuses, full.statuses);
    }

    /// The tail the one-pass [`verify_and_compact`] replaced: [`covers`]
    /// checks every fault against the merged tests, the carried Detected
    /// faults it finds uncovered are rescued through the engine, and
    /// [`compact`] then runs over the grown set. The reference for
    /// `tail_matches_covers_rescue_compact`.
    fn verify_and_compact_reference(
        nl: &Netlist,
        view: &CombView,
        faults: &[Fault],
        options: &AtpgOptions,
        rerun: &[usize],
        mut statuses: Vec<FaultStatus>,
        mut tests: TestSet,
    ) -> AtpgResult {
        let sub_options = AtpgOptions { compact: false, ..*options };
        let rerun_set: HashSet<usize> = rerun.iter().copied().collect();
        if !tests.is_empty() {
            let covered = covers(nl, view, faults, &tests);
            let rescue: Vec<usize> = (0..faults.len())
                .filter(|i| {
                    statuses[*i] == FaultStatus::Detected && !covered[*i] && !rerun_set.contains(i)
                })
                .collect();
            if !rescue.is_empty() {
                rsyn_observe::add("atpg.incremental.rescued", rescue.len() as u64);
                let rescue_faults: Vec<Fault> = rescue.iter().map(|&i| faults[i].clone()).collect();
                let rescued = run_atpg(nl, view, &rescue_faults, &sub_options);
                for (k, &i) in rescue.iter().enumerate() {
                    statuses[i] = rescued.statuses[k];
                }
                tests.extend(rescued.tests.patterns().iter().cloned());
            }
        }
        if options.compact && !tests.is_empty() {
            compact(nl, view, faults, &statuses, &mut tests, 1);
        }
        AtpgResult { statuses, tests }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The one-pass tail returns the statuses, tests and rescue count
        /// of the `covers` → rescue → `compact` reference: random netlists,
        /// all four fault kinds, 1–1,200 merged tests (up to five window
        /// blocks), re-run faults, compaction on and off, 1–3 workers, and
        /// Detected verdicts — carried or re-run — that no merged test
        /// reproduces, so the rescue path and the undetected-fault rule of
        /// compaction both run.
        #[test]
        fn tail_matches_covers_rescue_compact(seed in 0u64..u64::MAX) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut nl = crate::podem::tests::random_netlist(seed, &mut next);
            let one = nl.const1();
            let view = nl.comb_view().unwrap();
            let nets = nl.net_count() as u64;
            let mut net = || NetId::from_index((next() % nets) as usize);
            let mut kinds = Vec::new();
            for k in 0..16 + seed % 64 {
                kinds.push(match k % 3 {
                    0 => FaultKind::StuckAt { net: net(), value: k % 2 == 0 },
                    1 => FaultKind::Transition { net: net(), rising: k % 4 == 1 },
                    _ => {
                        let kind = if k % 2 == 0 { BridgeKind::WiredAnd } else { BridgeKind::WiredOr };
                        FaultKind::Bridge { a: net(), b: net(), kind }
                    }
                });
            }
            // Never detected: stuck-at-1 on the constant-1 source.
            let mut faults =
                vec![Fault::external(FaultKind::StuckAt { net: one, value: true }, 0)];
            faults.extend(kinds.into_iter().map(|kind| Fault::external(kind, 0)));
            for _ in 0..4 {
                let gate = view.order[(next() % view.order.len() as u64) as usize];
                let g = nl.gate(gate).unwrap();
                let pattern = next() % (1 << g.inputs.len());
                let output = (next() % g.outputs.len() as u64) as u8;
                faults.push(Fault::internal(gate, vec![CellCondition { pattern, output }], 0));
            }

            let n = 1 + (next() % 1200) as usize;
            let sparsity = [2, 8, 32][(next() % 3) as usize];
            let tests: TestSet = (0..n)
                .map(|_| {
                    let bits: Vec<bool> = view.pis.iter().map(|_| next() % sparsity == 0).collect();
                    Pattern::from_bools(&bits)
                })
                .collect();
            // Verdicts: mostly what the tests show, plus stale Detected ones.
            let covered = covers(&nl, &view, &faults, &tests);
            let stale = [0, 16, 4][(next() % 3) as usize];
            let statuses: Vec<FaultStatus> = covered
                .iter()
                .map(|&c| match next() % 8 {
                    0 => FaultStatus::Undetectable,
                    1 => FaultStatus::Aborted,
                    _ if stale > 0 && next() % stale == 0 => FaultStatus::Detected,
                    _ if c => FaultStatus::Detected,
                    _ => FaultStatus::Undetectable,
                })
                .collect();
            let rerun: Vec<usize> = (0..faults.len()).filter(|_| next() % 4 == 0).collect();
            let options = AtpgOptions {
                compact: next() % 2 == 0,
                threads: 1 + (next() % 3) as usize,
                ..AtpgOptions::default()
            };

            let _session = crate::injection_session();
            rsyn_observe::reset();
            let want = verify_and_compact_reference(
                &nl, &view, &faults, &options, &rerun, statuses.clone(), tests.clone(),
            );
            let want_rescued = rsyn_observe::counter("atpg.incremental.rescued");
            rsyn_observe::reset();
            let got = verify_and_compact(&nl, &view, &faults, &options, &rerun, statuses, tests);
            let got_rescued = rsyn_observe::counter("atpg.incremental.rescued");
            proptest::prop_assert_eq!(&got.statuses, &want.statuses);
            proptest::prop_assert!(
                got.tests == want.tests,
                "n={} threads={} compact={}: kept {} tests, reference kept {}",
                n,
                options.threads,
                options.compact,
                got.tests.len(),
                want.tests.len()
            );
            proptest::prop_assert_eq!(got_rescued, want_rescued);
        }
    }
}
