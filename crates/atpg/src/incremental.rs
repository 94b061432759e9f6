//! Incremental ATPG for the resynthesis inner loop.
//!
//! The resynthesis inner loop (Section III-B of the paper) analyses a full
//! design candidate for every banned-cell prefix. A candidate replaces one
//! window of gates through `Window::resynthesize_with`, which maps the
//! window's logic over the window's own input nets onto the same output
//! nets, so the new gates compute the same function of the window inputs
//! on every input vector, faulty ones included. By substitution, a fault
//! that touches none of the *window* — the new gates, the nets they drive,
//! and every net no gate drives (the old window's internal nets are left
//! undriven, and an output may be tied to a constant) — behaves exactly as
//! it did before the remap: the same tests detect it, and it is
//! undetectable exactly when it was. A verdict depends only on the fault's
//! [`FaultKind`] and the netlist, so [`run_atpg_incremental`] works by
//! kind, in three steps:
//!
//! 1. A fault whose kind touches no window net or gate and occurs in the
//!    previous fault list takes that kind's previous status.
//! 2. Every other distinct kind is simulated once against the previous
//!    tests (one reverse fault-simulation pass, the one compaction uses);
//!    the kinds they detect are Detected.
//! 3. Only the kinds no previous test detects go through [`run_atpg`]
//!    (random phase, PODEM, SAT): one call per incremental run, so
//!    `atpg.runs` and the gated manifests count one run per candidate,
//!    whatever the number of re-run kinds.
//!
//! The result's tests are the previous tests followed by the new ones,
//! neither verified nor compacted: a candidate is scored on its verdicts
//! alone. [`verify_and_compact`] is the reverse pass that re-checks every
//! Detected verdict against the tests and compacts them; the resynthesis
//! loop runs it once per accepted design, not once per candidate.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use rsyn_netlist::{CombView, Driver, GateId, NetId, Netlist, SimArena};

use crate::engine::{last_detections, retain_last_detections, run_atpg, AtpgOptions, AtpgResult};
use crate::fault::{Fault, FaultKind, FaultStatus};

/// A map keyed by fault kind, hashed by [`KindHasher`].
type KindMap<'a, V> = HashMap<&'a FaultKind, V, BuildHasherDefault<KindHasher>>;

/// A multiply-rotate hasher (one `rotate ^ word * odd constant` step per
/// written word) for the classify maps. Their keys are net and gate ids
/// and condition patterns that the program assigns, not values an input
/// chooses, so SipHash's defence against crafted collisions buys nothing
/// there, and hashing every fault kind with it was most of the classify
/// span.
#[derive(Default)]
struct KindHasher(u64);

impl Hasher for KindHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The previous evaluation an incremental run carries statuses over from.
/// Every candidate evaluated against one design state shares one, so its
/// fault kind → status map is built once, by the first incremental run
/// that needs it (a candidate that fails placement never does).
#[derive(Debug)]
pub struct PreviousEvaluation<'a> {
    faults: &'a [Fault],
    result: &'a AtpgResult,
    statuses: OnceCell<KindMap<'a, FaultStatus>>,
}

impl<'a> PreviousEvaluation<'a> {
    /// The evaluation of `faults` that produced `result` (statuses parallel
    /// to `faults`).
    pub fn new(faults: &'a [Fault], result: &'a AtpgResult) -> Self {
        Self { faults, result, statuses: OnceCell::new() }
    }

    /// The previous status of every fault kind.
    fn statuses(&self) -> &KindMap<'a, FaultStatus> {
        self.statuses.get_or_init(|| {
            self.faults.iter().map(|f| &f.kind).zip(self.result.statuses.iter().copied()).collect()
        })
    }
}

/// The part of a netlist a remap changed: the gates it added, the nets
/// they drive, and every net no gate drives that is not a primary input.
#[derive(Debug)]
struct RemapWindow {
    /// Indexed by gate id.
    gates: Vec<bool>,
    /// Indexed by net id.
    nets: Vec<bool>,
}

impl RemapWindow {
    /// The window of the remap that added `changed` to `nl`.
    fn of(nl: &Netlist, changed: &[GateId]) -> Self {
        let mut gates = vec![false; nl.gate_capacity()];
        let mut nets: Vec<bool> = nl
            .nets()
            .map(|(_, net)| !matches!(net.driver, Some(Driver::Gate(..) | Driver::Input)))
            .collect();
        for &g in changed {
            if let Some(flag) = gates.get_mut(g.index()) {
                *flag = true;
            }
            for &o in nl.gate(g).map_or(&[][..], |gate| &gate.outputs) {
                nets[o.index()] = true;
            }
        }
        Self { gates, nets }
    }

    fn has_net(&self, net: NetId) -> bool {
        self.nets.get(net.index()) == Some(&true)
    }

    fn has_gate(&self, gate: GateId) -> bool {
        self.gates.get(gate.index()) == Some(&true)
    }

    /// True if a fault of this kind may behave differently after the remap.
    fn touches(&self, kind: &FaultKind) -> bool {
        match *kind {
            FaultKind::StuckAt { net, .. } | FaultKind::Transition { net, .. } => self.has_net(net),
            FaultKind::Bridge { a, b, .. } => self.has_net(a) || self.has_net(b),
            FaultKind::CellAware { gate, .. } => self.has_gate(gate),
        }
    }
}

/// Incremental [`run_atpg`] after a remap that added `changed_gates`:
/// carries the previous status of every fault kind outside the remap's
/// window, re-verifies the other kinds against the previous tests, and
/// generates tests only for the kinds those miss (see the module docs).
///
/// The returned tests are `previous`'s followed by the new ones, neither
/// verified nor compacted ([`verify_and_compact`] settles them).
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

    // Carry every kind outside the window. Of the others, the first fault
    // of each kind is pending: Detected until the previous tests miss it.
    let classify = rsyn_observe::span_volatile("atpg.incremental.classify");
    let window = RemapWindow::of(nl, changed_gates);
    let carried = previous.statuses();
    let mut statuses = vec![FaultStatus::Undetected; faults.len()];
    let mut pending = vec![FaultStatus::Undetected; faults.len()];
    let mut first_of: KindMap<'_, usize> = KindMap::default();
    // (fault index, index of its kind's first fault) per re-run fault.
    let mut rerun: Vec<(usize, usize)> = Vec::new();
    for (i, f) in faults.iter().enumerate() {
        if !window.touches(&f.kind) {
            if let Some(&status) = carried.get(&f.kind) {
                statuses[i] = status;
                continue;
            }
        }
        let first = *first_of.entry(&f.kind).or_insert(i);
        if first == i {
            pending[i] = FaultStatus::Detected;
        }
        rerun.push((i, first));
    }
    drop(classify);

    // The previous tests first: every kind one of them detects is Detected.
    let missed = {
        let _reuse = rsyn_observe::span_volatile("atpg.incremental.reuse");
        let arena = Arc::new(SimArena::build(nl, view));
        let threads = options.effective_threads();
        last_detections(&arena, view, faults, &pending, &previous.result.tests, threads).1
    };
    rsyn_observe::add_many(&[
        ("atpg.incremental.runs", 1),
        ("atpg.incremental.carried", (faults.len() - rerun.len()) as u64),
        ("atpg.incremental.rerun", rerun.len() as u64),
        ("atpg.incremental.rerun_kinds", first_of.len() as u64),
        ("atpg.incremental.engine_kinds", missed.len() as u64),
    ]);
    rsyn_observe::hist_add("atpg.incremental.rerun_per_call", rerun.len() as u64);

    // The rest through the engine, uncompacted: compaction waits for
    // `verify_and_compact`.
    let engine_options = AtpgOptions { compact: false, ..*options };
    let engine_faults: Vec<Fault> = missed.iter().map(|&i| faults[i].clone()).collect();
    let generated = run_atpg(nl, view, &engine_faults, &engine_options);
    for (&i, &status) in missed.iter().zip(&generated.statuses) {
        pending[i] = status;
    }
    for (i, first) in rerun {
        statuses[i] = pending[first];
    }
    let mut tests = previous.result.tests.clone();
    tests.extend(generated.tests.patterns().iter().cloned());
    AtpgResult { statuses, tests }
}

/// Verifies every Detected verdict of `result` against its tests in `nl`,
/// and compacts the tests when `options.compact` is set.
///
/// One reverse fault-simulation pass over the tests both checks each
/// Detected fault and finds the tests compaction keeps. A Detected
/// fault that no test detects is rescued through the engine
/// (`atpg.incremental.rescued`), after which the grown set is compacted
/// again. After [`run_atpg_incremental`] the substitution argument of the
/// module docs says no rescue is needed.
pub fn verify_and_compact(
    nl: &Netlist,
    view: &CombView,
    faults: &[Fault],
    options: &AtpgOptions,
    result: &mut AtpgResult,
) {
    let AtpgResult { statuses, tests } = result;
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
    let (keep, undetected) = last_detections(&arena, view, faults, statuses, tests, threads);
    drop(pass);
    if undetected.is_empty() {
        if options.compact {
            retain_last_detections(tests, &keep, &undetected);
        }
        return;
    }

    // Detected verdicts the tests no longer reproduce.
    rsyn_observe::add("atpg.incremental.rescued", undetected.len() as u64);
    let rescue_options = AtpgOptions { compact: false, ..*options };
    let rescue_faults: Vec<Fault> = undetected.iter().map(|&i| faults[i].clone()).collect();
    let rescued = run_atpg(nl, view, &rescue_faults, &rescue_options);
    for (&i, &status) in undetected.iter().zip(&rescued.statuses) {
        statuses[i] = status;
    }
    tests.extend(rescued.tests.patterns().iter().cloned());
    if options.compact {
        // The first pass already counted as this run's compaction.
        let _recompact = rsyn_observe::span_volatile("atpg.compact");
        let (keep, undetected) = last_detections(&arena, view, faults, statuses, tests, threads);
        retain_last_detections(tests, &keep, &undetected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{compact, covers};
    use crate::fault::{BridgeKind, CellCondition};
    use crate::testset::{Pattern, TestSet};
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
    fn window_is_the_new_gates_their_nets_and_undriven_nets() {
        let mut nl = split_circuit();
        let gx = nl.find_gate("gx").unwrap();
        let x = nl.find_net("x").unwrap();
        let y = nl.find_net("y").unwrap();
        let window = RemapWindow::of(&nl, &[gx]);
        assert!(window.has_net(x));
        assert!(!window.has_net(y), "a sibling cone is outside the window");
        assert!(window.has_gate(gx));
        assert!(!window.has_gate(nl.find_gate("gy").unwrap()));
        // Removing `gi` leaves its output undriven: in every window after.
        let cn = nl.gate(nl.find_gate("gi").unwrap()).unwrap().outputs[0];
        nl.remove_gate(nl.find_gate("gi").unwrap());
        assert!(RemapWindow::of(&nl, &[]).has_net(cn));
        assert!(!RemapWindow::of(&nl, &[]).has_net(nl.find_net("c").unwrap()));
    }

    #[test]
    fn incremental_matches_full_run() {
        let nl = split_circuit();
        let view = nl.comb_view().unwrap();
        let faults = stuck_at_faults(&nl);
        let options = AtpgOptions::default();
        let full = run_atpg(&nl, &view, &faults, &options);

        // Pretend gate `gx` was just remapped (to itself): the incremental
        // run may only re-evaluate the x-cone, yet must reproduce the full
        // classification.
        let previous = PreviousEvaluation::new(&faults, &full);
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
    fn window_touches_only_faults_on_the_remap() {
        let nl = split_circuit();
        let faults = stuck_at_faults(&nl);
        let window = RemapWindow::of(&nl, &[nl.find_gate("gy").unwrap()]);
        let x = nl.find_net("x").unwrap();
        let y = nl.find_net("y").unwrap();
        for f in &faults {
            if let FaultKind::StuckAt { net, .. } = f.kind {
                if net == x {
                    assert!(!window.touches(&f.kind), "sibling-cone fault flagged");
                }
                if net == y {
                    assert!(window.touches(&f.kind), "remapped-net fault not flagged");
                }
            }
        }
    }

    #[test]
    fn new_faults_always_rerun() {
        let nl = split_circuit();
        let view = nl.comb_view().unwrap();
        let faults = stuck_at_faults(&nl);
        let full = run_atpg(&nl, &view, &faults, &AtpgOptions::default());
        // Previous evaluation knew about none of the faults.
        let empty_result = AtpgResult { statuses: Vec::new(), tests: TestSet::new() };
        let previous = PreviousEvaluation::new(&[], &empty_result);
        let inc =
            run_atpg_incremental(&nl, &view, &faults, &AtpgOptions::default(), &previous, &[]);
        assert_eq!(inc.statuses, full.statuses);
    }

    /// The tail the one-pass [`verify_and_compact`] replaced: [`covers`]
    /// checks every fault against the tests, the Detected faults it finds
    /// uncovered are rescued through the engine, and [`compact`] then runs
    /// over the grown set. The reference for
    /// `tail_matches_covers_rescue_compact`.
    fn verify_and_compact_reference(
        nl: &Netlist,
        view: &CombView,
        faults: &[Fault],
        options: &AtpgOptions,
        mut statuses: Vec<FaultStatus>,
        mut tests: TestSet,
    ) -> AtpgResult {
        let sub_options = AtpgOptions { compact: false, ..*options };
        let covered = covers(nl, view, faults, &tests);
        let rescue: Vec<usize> = (0..faults.len())
            .filter(|i| statuses[*i] == FaultStatus::Detected && !covered[*i])
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
        if options.compact && !tests.is_empty() {
            compact(nl, view, faults, &statuses, &mut tests, 1);
        }
        AtpgResult { statuses, tests }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The one-pass tail returns the statuses, tests and rescue count
        /// of the `covers` → rescue → `compact` reference: random netlists,
        /// all four fault kinds, 1–1,200 tests (up to five window blocks),
        /// compaction on and off, 1–3 workers, and Detected verdicts that
        /// no test reproduces, so the rescue path and the undetected-fault
        /// rule of compaction both run.
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
            let options = AtpgOptions {
                compact: next() % 2 == 0,
                threads: 1 + (next() % 3) as usize,
                ..AtpgOptions::default()
            };

            rsyn_observe::reset();
            let want = verify_and_compact_reference(
                &nl, &view, &faults, &options, statuses.clone(), tests.clone(),
            );
            let want_rescued = rsyn_observe::counter("atpg.incremental.rescued");
            rsyn_observe::reset();
            let mut got = AtpgResult { statuses, tests };
            verify_and_compact(&nl, &view, &faults, &options, &mut got);
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
