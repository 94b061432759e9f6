//! Bit-parallel logic simulation (256 lanes per call).
//!
//! [`ParallelSim`] evaluates the combinational view of a netlist for one
//! [`LaneBlock`] of input vectors at once. It is used for equivalence
//! checking, for switching-activity estimation in the power model, and as a
//! reference model in tests.
//!
//! The simulator is a thin stateful wrapper over [`SimArena`]: the arena is
//! built once in [`ParallelSim::new`] (or shared via
//! [`ParallelSim::with_arena`]) and the hot loop runs entirely on flat
//! arrays — no per-gate netlist or library lookups.

use std::sync::Arc;

use crate::arena::SimArena;
use crate::ids::NetId;
use crate::lanes::LaneBlock;
use crate::netlist::{CombView, Netlist};

/// A reusable bit-parallel simulator for one netlist + view.
#[derive(Debug)]
pub struct ParallelSim {
    arena: Arc<SimArena>,
    values: Vec<LaneBlock>,
}

impl ParallelSim {
    /// Creates a simulator, building a fresh [`SimArena`] for the view.
    pub fn new(nl: &Netlist, view: &CombView) -> Self {
        Self::with_arena(Arc::new(SimArena::build(nl, view)))
    }

    /// Creates a simulator over an existing (possibly shared) arena.
    pub fn with_arena(arena: Arc<SimArena>) -> Self {
        let values = vec![LaneBlock::ZERO; arena.net_count()];
        Self { arena, values }
    }

    /// The underlying arena.
    #[inline]
    pub fn arena(&self) -> &Arc<SimArena> {
        &self.arena
    }

    /// Simulates one block of vectors: `pi_values[i]` holds the lane values
    /// of view PI `i`. After the call every net value is available through
    /// [`ParallelSim::value`].
    ///
    /// # Panics
    ///
    /// Panics if `pi_values.len()` differs from the number of view PIs.
    pub fn simulate(&mut self, pi_values: &[LaneBlock]) {
        self.arena.set_inputs(&mut self.values, pi_values);
        self.arena.eval_all(&mut self.values);
    }

    /// The simulated lane values of a net (valid after [`simulate`]).
    ///
    /// [`simulate`]: ParallelSim::simulate
    #[inline]
    pub fn value(&self, net: NetId) -> LaneBlock {
        self.values[net.index()]
    }

    /// The values of all view primary outputs, in view order.
    pub fn output_values(&self) -> Vec<LaneBlock> {
        self.arena.pos().iter().map(|&po| self.values[po as usize]).collect()
    }

    /// Immutable access to the full value array (indexed by `NetId`).
    pub fn values(&self) -> &[LaneBlock] {
        &self.values
    }
}

/// Convenience single-vector simulation: returns the value of every view PO
/// for one input assignment (`pis[i]` is the value of `view.pis[i]`), read
/// from lane 0.
pub fn simulate_one(nl: &Netlist, view: &CombView, pis: &[bool]) -> Vec<bool> {
    let lanes: Vec<LaneBlock> = pis.iter().map(|&b| LaneBlock::splat(b)).collect();
    let mut sim = ParallelSim::new(nl, view);
    sim.simulate(&lanes);
    view.pos.iter().map(|&po| sim.value(po).lane(0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;

    fn xor_netlist() -> Netlist {
        let lib = Library::osu018();
        let mut nl = Netlist::new("x", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_named_net("y");
        let xor = nl.lib().cell_id("XOR2X1").unwrap();
        nl.add_gate("g", xor, &[a, b], &[y]).unwrap();
        nl.mark_output(y);
        nl
    }

    #[test]
    fn xor_truth_table_via_sim() {
        let nl = xor_netlist();
        let view = nl.comb_view().unwrap();
        for (a, b, want) in
            [(false, false, false), (true, false, true), (false, true, true), (true, true, false)]
        {
            let out = simulate_one(&nl, &view, &[a, b]);
            assert_eq!(out, vec![want], "a={a} b={b}");
        }
    }

    #[test]
    fn parallel_lanes_are_independent() {
        let nl = xor_netlist();
        let view = nl.comb_view().unwrap();
        let mut sim = ParallelSim::new(&nl, &view);
        // lane i: a = bit i of 0b0101..., b = bit i of 0b0011...
        let a = 0x5555_5555_5555_5555u64;
        let b = 0x3333_3333_3333_3333u64;
        sim.simulate(&[LaneBlock::from_word(a), LaneBlock::from_word(b)]);
        let y = nl.find_net("y").unwrap();
        assert_eq!(sim.value(y), LaneBlock::from_word(a ^ b));
    }

    #[test]
    fn const_nets_simulate() {
        let lib = Library::osu018();
        let mut nl = Netlist::new("c", lib);
        let a = nl.add_input("a");
        let c1 = nl.const1();
        let y = nl.add_named_net("y");
        let nand = nl.lib().cell_id("NAND2X1").unwrap();
        nl.add_gate("g", nand, &[a, c1], &[y]).unwrap();
        nl.mark_output(y);
        let view = nl.comb_view().unwrap();
        let mut sim = ParallelSim::new(&nl, &view);
        sim.simulate(&[LaneBlock::from_word(0b10)]);
        let y = nl.find_net("y").unwrap();
        // y = !(a & 1) = !a
        assert_eq!(sim.value(y).word(0) & 0b11, 0b01);
    }

    #[test]
    fn multi_output_cell_sim() {
        let lib = Library::osu018();
        let mut nl = Netlist::new("fa", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let s = nl.add_named_net("s");
        let co = nl.add_named_net("co");
        let fa = nl.lib().cell_id("FAX1").unwrap();
        nl.add_gate("g", fa, &[a, b, c], &[s, co]).unwrap();
        nl.mark_output(s);
        nl.mark_output(co);
        let view = nl.comb_view().unwrap();
        for m in 0..8u64 {
            let pis = [m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1];
            let out = simulate_one(&nl, &view, &pis);
            let ones = pis.iter().filter(|&&x| x).count();
            assert_eq!(out[0], ones % 2 == 1, "sum m={m}");
            assert_eq!(out[1], ones >= 2, "carry m={m}");
        }
    }

    #[test]
    fn wide_sim_words_match_four_narrow_words() {
        // The 256-lane determinism contract: each word of a LaneBlock is an
        // independent 64-lane simulation.
        let nl = xor_netlist();
        let view = nl.comb_view().unwrap();
        let words_a = [0x5555u64, 0xFFFF_0000, 0, u64::MAX];
        let words_b = [0x3333u64, 0xFF00_FF00, u64::MAX, 0xDEAD_BEEF];
        let mut wide = ParallelSim::new(&nl, &view);
        wide.simulate(&[LaneBlock::from_words(words_a), LaneBlock::from_words(words_b)]);
        let y = nl.find_net("y").unwrap();
        let mut narrow = ParallelSim::new(&nl, &view);
        for w in 0..4 {
            narrow.simulate(&[LaneBlock::from_word(words_a[w]), LaneBlock::from_word(words_b[w])]);
            assert_eq!(wide.value(y).word(w), narrow.value(y).word(0), "word {w}");
        }
    }

    #[test]
    fn shared_arena_across_simulators() {
        let nl = xor_netlist();
        let view = nl.comb_view().unwrap();
        let arena = Arc::new(crate::arena::SimArena::build(&nl, &view));
        let mut s1 = ParallelSim::with_arena(Arc::clone(&arena));
        let mut s2 = ParallelSim::with_arena(arena);
        let lanes = |a, b| [LaneBlock::from_word(a), LaneBlock::from_word(b)];
        s1.simulate(&lanes(0b01, 0b01));
        s2.simulate(&lanes(0b01, 0b11));
        let y = nl.find_net("y").unwrap();
        assert_eq!(s1.value(y).word(0) & 0b11, 0b00);
        assert_eq!(s2.value(y).word(0) & 0b11, 0b10);
    }
}
