//! 256-lane parallel fault simulation with cone-limited event propagation.
//!
//! For each fault, only the fanout cone of the fault site is re-evaluated.
//! The simulator runs on the flat [`SimArena`]: events are op indices pushed
//! into reusable per-level worklists and drained in one ascending level
//! sweep (an op's inputs come only from strictly lower levels, so the sweep
//! is a valid topological order — no priority queue). Epoch stamping avoids
//! clearing state between faults, and the hot loop performs no heap
//! allocation: gate inputs are gathered into a fixed stack array and the
//! worklist vectors are recycled across calls.
//!
//! The simulator is generic over the lane width ([`SimWord`]): the batch
//! phases (random patterns, compaction, coverage checks) run 256 patterns
//! per call ([`LaneBlock`]), while call sites that only ever load a pattern
//! or two (PODEM detection confirmation, fault dropping against freshly
//! generated tests) run the one-word `u64` width and skip three quarters of
//! the good-machine work. Each 64-lane word is an independent simulation
//! (see the determinism contract in `rsyn_netlist::lanes`), so the widths
//! are bit-interchangeable.

use std::sync::Arc;

use rsyn_netlist::arena::{eval_cell, SimArena};
use rsyn_netlist::tt::MAX_TT_INPUTS;
use rsyn_netlist::{CombView, LaneBlock, Netlist, SimWord};

use crate::fault::{BridgeKind, Fault, FaultKind};

/// A reusable fault simulator bound to one netlist + view, generic over
/// the lane width `W` (default: the 256-lane [`LaneBlock`]; use `u64` for
/// call sites that simulate only a handful of patterns per call).
#[derive(Debug)]
pub struct FaultSim<W: SimWord = LaneBlock> {
    arena: Arc<SimArena>,
    good: Vec<W>,
    faulty: Vec<W>,
    net_stamp: Vec<u32>,
    op_stamp: Vec<u32>,
    epoch: u32,
    /// Reusable per-level op worklists (all empty between calls).
    level_queue: Vec<Vec<u32>>,
}

impl<W: SimWord> FaultSim<W> {
    /// Creates a simulator, building a fresh arena for the view. Call
    /// [`FaultSim::set_patterns`] before simulating faults.
    pub fn new(nl: &Netlist, view: &CombView) -> Self {
        Self::with_arena(Arc::new(SimArena::build(nl, view)))
    }

    /// Creates a simulator over an existing (possibly shared) arena.
    pub fn with_arena(arena: Arc<SimArena>) -> Self {
        let nets = arena.net_count();
        let ops = arena.op_count();
        let levels = arena.level_count();
        Self {
            arena,
            good: vec![W::ZERO; nets],
            faulty: vec![W::ZERO; nets],
            net_stamp: vec![0; nets],
            op_stamp: vec![0; ops],
            epoch: 0,
            level_queue: vec![Vec::new(); levels],
        }
    }

    /// Sizes every per-level worklist for the widest fault effect (all ops
    /// of the level), so that later simulation never allocates. For a
    /// simulator built on one thread and run on another.
    pub(crate) fn reserve_worklists(&mut self) {
        for (level, queue) in self.level_queue.iter_mut().enumerate() {
            queue.reserve_exact(self.arena.ops_in_level(level).len());
        }
    }

    /// The underlying arena.
    #[inline]
    pub fn arena(&self) -> &Arc<SimArena> {
        &self.arena
    }

    /// Loads one pattern block per view PI (`lanes[i]` = values of
    /// `view.pis[i]`) and runs the good-machine simulation.
    ///
    /// # Panics
    ///
    /// Panics if `lanes.len()` differs from the view PI count.
    pub fn set_patterns(&mut self, lanes: &[W]) {
        let arena = Arc::clone(&self.arena);
        arena.set_inputs(&mut self.good, lanes);
        arena.eval_all(&mut self.good);
    }

    #[inline]
    fn faulty_value(&self, slot: u32) -> W {
        if self.net_stamp[slot as usize] == self.epoch {
            self.faulty[slot as usize]
        } else {
            self.good[slot as usize]
        }
    }

    fn write_faulty(&mut self, arena: &SimArena, slot: u32, value: W) {
        let changed = self.faulty_value(slot) != value;
        self.net_stamp[slot as usize] = self.epoch;
        self.faulty[slot as usize] = value;
        if changed {
            for &op in arena.net_loads(slot as usize) {
                if self.op_stamp[op as usize] != self.epoch {
                    self.op_stamp[op as usize] = self.epoch;
                    self.level_queue[arena.op_level(op as usize) as usize].push(op);
                }
            }
        }
    }

    /// Simulates one fault against the loaded patterns; returns the mask
    /// of lanes in which it is detected at any view PO.
    pub fn detect_lanes(&mut self, fault: &Fault) -> W {
        let arena = Arc::clone(&self.arena);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.net_stamp.fill(0);
            self.op_stamp.fill(0);
            self.epoch = 1;
        }

        // Inject. Stuck-at and bridge sites persist through propagation:
        // a site net re-driven by its own gate keeps the faulty value, so
        // the semantics are per-lane independent even for bridges whose
        // nets are topologically related.
        let mut sa_site: Option<(u32, W)> = None;
        let mut bridge_site: Option<(u32, u32, W)> = None;
        let mut ca_gate: Option<u32> = None;
        match &fault.kind {
            FaultKind::StuckAt { net, value } | FaultKind::Transition { net, rising: value } => {
                // StuckAt: the faulty value is `value`. Transition
                // slow-to-rise (rising=true): the net stays 0 when it should
                // rise, i.e. behaves as stuck-at-0 on the launch pattern;
                // slow-to-fall behaves as stuck-at-1.
                let stuck = *value ^ matches!(fault.kind, FaultKind::Transition { .. });
                let fv = W::splat(stuck);
                let slot = net.index() as u32;
                sa_site = Some((slot, fv));
                self.write_faulty(&arena, slot, fv);
            }
            FaultKind::Bridge { a, b, kind } => {
                let va = self.good[a.index()];
                let vb = self.good[b.index()];
                let resolved = match kind {
                    BridgeKind::WiredAnd => va & vb,
                    BridgeKind::WiredOr => va | vb,
                };
                let (sa, sb) = (a.index() as u32, b.index() as u32);
                bridge_site = Some((sa, sb, resolved));
                self.write_faulty(&arena, sa, resolved);
                self.write_faulty(&arena, sb, resolved);
            }
            FaultKind::CellAware { gate, .. } => {
                let ops = arena.gate_ops(gate.index());
                if ops.is_empty() {
                    return W::ZERO; // fault on a flop: not in the comb view
                }
                ca_gate = Some(gate.index() as u32);
                for k in ops {
                    self.op_stamp[k] = self.epoch;
                    self.level_queue[arena.op_level(k) as usize].push(k as u32);
                }
            }
        }

        // Propagate: one ascending level sweep. Every op enqueued while
        // processing level l sits at a level > l (its inputs are produced by
        // strictly lower levels), so each worklist is complete by the time
        // the sweep reaches it.
        let mut ins = [W::ZERO; MAX_TT_INPUTS];
        for lvl in 0..self.level_queue.len() {
            if self.level_queue[lvl].is_empty() {
                continue;
            }
            let mut work = std::mem::take(&mut self.level_queue[lvl]);
            for &k in &work {
                let k = k as usize;
                let slots = arena.op_inputs(k);
                for (i, &slot) in slots.iter().enumerate() {
                    ins[i] = self.faulty_value(slot);
                }
                let ins = &ins[..slots.len()];
                let mut v = eval_cell(arena.op_tt(k), ins);
                // Cell-aware activation: flip the output in lanes where the
                // faulty-machine inputs match a condition pattern.
                if ca_gate == Some(arena.op_gate(k)) {
                    if let FaultKind::CellAware { conditions, .. } = &fault.kind {
                        let mut flip = W::ZERO;
                        for cond in conditions {
                            if cond.output != arena.op_out_pin(k) {
                                continue;
                            }
                            let mut act = W::ONES;
                            for (i, &iv) in ins.iter().enumerate() {
                                let bit = (cond.pattern >> i) & 1 == 1;
                                act &= if bit { iv } else { !iv };
                            }
                            flip |= act;
                        }
                        v ^= flip;
                    }
                }
                // A stuck-at or bridged site driven by this gate keeps its
                // injected value.
                let out = arena.op_out(k);
                if let Some((net, fv)) = sa_site {
                    if out == net {
                        v = fv;
                    }
                }
                if let Some((a, b, fv)) = bridge_site {
                    if out == a || out == b {
                        v = fv;
                    }
                }
                self.write_faulty(&arena, out, v);
            }
            work.clear();
            self.level_queue[lvl] = work; // recycle the allocation
        }

        // Observe.
        let mut det = W::ZERO;
        for &po in arena.pos() {
            if self.net_stamp[po as usize] == self.epoch {
                det |= self.faulty[po as usize] ^ self.good[po as usize];
            }
        }

        // Transition faults additionally require the opposite initial value
        // on the preceding pattern. Each of the block's four words is its
        // own launch sequence: the shift does not carry across words and
        // lane 0 of every word has no predecessor.
        if let FaultKind::Transition { net, rising } = fault.kind {
            let prev = self.good[net.index()].shl1_words();
            let init_ok = if rising { !prev } else { prev } & !W::word_lsbs();
            det &= init_ok;
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CellCondition;
    use rsyn_netlist::Library;

    /// y = !(a & b), z = a ^ b
    fn sample() -> Netlist {
        let lib = Library::osu018();
        let mut nl = Netlist::new("s", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_named_net("y");
        let z = nl.add_named_net("z");
        let nand = lib.cell_id("NAND2X1").unwrap();
        let xor = lib.cell_id("XOR2X1").unwrap();
        nl.add_gate("u0", nand, &[a, b], &[y]).unwrap();
        nl.add_gate("u1", xor, &[a, b], &[z]).unwrap();
        nl.mark_output(y);
        nl.mark_output(z);
        nl
    }

    fn lanes(words: &[u64]) -> Vec<LaneBlock> {
        words.iter().map(|&w| LaneBlock::from_word(w)).collect()
    }

    fn exhaustive_lanes() -> Vec<LaneBlock> {
        // lanes 0..3 = minterms 00,01,10,11 of (a,b)
        lanes(&[0b1010, 0b1100])
    }

    #[test]
    fn stuck_at_detection_lanes() {
        let nl = sample();
        let view = nl.comb_view().unwrap();
        let mut fs = FaultSim::new(&nl, &view);
        fs.set_patterns(&exhaustive_lanes());
        let y = nl.find_net("y").unwrap();
        // y SA0: good y = 1 except a=b=1; detected in lanes where good y = 1.
        let f = Fault::external(FaultKind::StuckAt { net: y, value: false }, 0);
        let det = fs.detect_lanes(&f);
        assert_eq!(det.word(0) & 0xF, 0b0111);
        // y SA1: detected only in lane 3 (a=b=1).
        let f1 = Fault::external(FaultKind::StuckAt { net: y, value: true }, 0);
        assert_eq!(fs.detect_lanes(&f1).word(0) & 0xF, 0b1000);
    }

    #[test]
    fn input_stuck_at_propagates_to_both_outputs() {
        let nl = sample();
        let view = nl.comb_view().unwrap();
        let mut fs = FaultSim::new(&nl, &view);
        fs.set_patterns(&exhaustive_lanes());
        let a = nl.find_net("a").unwrap();
        let f = Fault::external(FaultKind::StuckAt { net: a, value: false }, 0);
        let det = fs.detect_lanes(&f);
        // a SA0 visible whenever a=1: lane 1 (a=1,b=0, z flips) and lane 3
        // (a=1,b=1: y flips 0->1 and z flips).
        assert_eq!(det.word(0) & 0xF, 0b1010);
    }

    #[test]
    fn bridge_wired_and_detection() {
        let nl = sample();
        let view = nl.comb_view().unwrap();
        let mut fs = FaultSim::new(&nl, &view);
        fs.set_patterns(&exhaustive_lanes());
        let a = nl.find_net("a").unwrap();
        let b = nl.find_net("b").unwrap();
        let f = Fault::external(FaultKind::Bridge { a, b, kind: BridgeKind::WiredAnd }, 0);
        let det = fs.detect_lanes(&f);
        // wired-AND corrupts lanes where a != b (lanes 1 and 2).
        assert_eq!(det.word(0) & 0xF, 0b0110);
    }

    #[test]
    fn cell_aware_condition_detection() {
        let nl = sample();
        let view = nl.comb_view().unwrap();
        let mut fs = FaultSim::new(&nl, &view);
        fs.set_patterns(&exhaustive_lanes());
        let g = nl.find_gate("u0").unwrap();
        // Flip NAND output only when inputs are 10 (a=1, b=0): pattern 0b01.
        let f = Fault::internal(g, vec![CellCondition { pattern: 0b01, output: 0 }], 0);
        let det = fs.detect_lanes(&f);
        assert_eq!(det.word(0) & 0xF, 0b0010, "only minterm a=1,b=0 (lane 1)");
    }

    #[test]
    fn transition_fault_needs_launch_sequence() {
        let nl = sample();
        let view = nl.comb_view().unwrap();
        let mut fs = FaultSim::new(&nl, &view);
        // lanes: a = 0,1,0,1 ; b = 0,0,0,0 → y = 1,1,1,1; z = a
        fs.set_patterns(&lanes(&[0b1010, 0b0000]));
        let z = nl.find_net("z").unwrap();
        // slow-to-rise on z: needs prev z=0, this z=1 → lanes 1 and 3.
        let f = Fault::external(FaultKind::Transition { net: z, rising: true }, 0);
        let det = fs.detect_lanes(&f);
        assert_eq!(det.word(0) & 0xF, 0b1010);
        // slow-to-fall on z: needs prev z=1, this z=0 → lane 2.
        let f2 = Fault::external(FaultKind::Transition { net: z, rising: false }, 0);
        assert_eq!(fs.detect_lanes(&f2).word(0) & 0xF, 0b0100);
    }

    #[test]
    fn transition_launch_sequences_are_per_word() {
        // The same (a,b) sequence in every word must detect identically in
        // every word — word boundaries start fresh launch sequences.
        let nl = sample();
        let view = nl.comb_view().unwrap();
        let mut fs = FaultSim::new(&nl, &view);
        let a = LaneBlock::from_words([0b1010; 4]);
        let b = LaneBlock::ZERO;
        fs.set_patterns(&[a, b]);
        let z = nl.find_net("z").unwrap();
        let f = Fault::external(FaultKind::Transition { net: z, rising: true }, 0);
        let det = fs.detect_lanes(&f);
        for w in 0..4 {
            assert_eq!(det.word(w) & 0xF, 0b1010, "word {w}");
        }
    }

    #[test]
    fn undetectable_fault_has_no_lanes() {
        // Tie both NAND inputs to the same net: y = !(a&a) = !a; a fault
        // requiring inputs 01 is unexcitable.
        let lib = Library::osu018();
        let mut nl = Netlist::new("r", lib.clone());
        let a = nl.add_input("a");
        let y = nl.add_named_net("y");
        let nand = lib.cell_id("NAND2X1").unwrap();
        let g = nl.add_gate("u", nand, &[a, a], &[y]).unwrap();
        nl.mark_output(y);
        let view = nl.comb_view().unwrap();
        let mut fs = FaultSim::new(&nl, &view);
        fs.set_patterns(&lanes(&[0b10]));
        let f = Fault::internal(g, vec![CellCondition { pattern: 0b01, output: 0 }], 0);
        assert_eq!(fs.detect_lanes(&f), LaneBlock::ZERO);
    }

    #[test]
    fn epoch_isolation_between_faults() {
        let nl = sample();
        let view = nl.comb_view().unwrap();
        let mut fs = FaultSim::new(&nl, &view);
        fs.set_patterns(&exhaustive_lanes());
        let y = nl.find_net("y").unwrap();
        let f0 = Fault::external(FaultKind::StuckAt { net: y, value: false }, 0);
        let d1 = fs.detect_lanes(&f0);
        let d2 = fs.detect_lanes(&f0);
        assert_eq!(d1, d2, "repeated simulation is stable");
    }

    #[test]
    fn wide_detection_matches_four_narrow_words() {
        // Drive all four words with different patterns and check each word
        // against an independent single-word run — for every fault kind.
        let nl = sample();
        let view = nl.comb_view().unwrap();
        let a_words = [0b1010u64, 0b1111_0000, 0x5555, 0b1100];
        let b_words = [0b1100u64, 0b1010_1010, 0x0F0F, 0b0110];
        let a = nl.find_net("a").unwrap();
        let b = nl.find_net("b").unwrap();
        let y = nl.find_net("y").unwrap();
        let g = nl.find_gate("u0").unwrap();
        let faults = vec![
            Fault::external(FaultKind::StuckAt { net: y, value: false }, 0),
            Fault::external(FaultKind::StuckAt { net: a, value: true }, 0),
            Fault::external(FaultKind::Transition { net: y, rising: true }, 0),
            Fault::external(FaultKind::Transition { net: b, rising: false }, 0),
            Fault::external(FaultKind::Bridge { a, b, kind: BridgeKind::WiredAnd }, 0),
            Fault::external(FaultKind::Bridge { a, b, kind: BridgeKind::WiredOr }, 0),
            Fault::internal(g, vec![CellCondition { pattern: 0b01, output: 0 }], 0),
        ];
        let mut wide = FaultSim::new(&nl, &view);
        wide.set_patterns(&[LaneBlock::from_words(a_words), LaneBlock::from_words(b_words)]);
        let mut narrow = FaultSim::new(&nl, &view);
        // The u64 width (the confirm/drop path) must also reproduce each
        // word — same kernel, one-word block.
        let mut narrow64: FaultSim<u64> = FaultSim::new(&nl, &view);
        for f in &faults {
            let dw = wide.detect_lanes(f);
            for w in 0..4 {
                narrow.set_patterns(&[
                    LaneBlock::from_word(a_words[w]),
                    LaneBlock::from_word(b_words[w]),
                ]);
                let dn = narrow.detect_lanes(f);
                assert_eq!(dw.word(w), dn.word(0), "fault {f:?} word {w}");
                narrow64.set_patterns(&[a_words[w], b_words[w]]);
                assert_eq!(dw.word(w), narrow64.detect_lanes(f), "fault {f:?} word {w} at u64");
            }
        }
    }
}
