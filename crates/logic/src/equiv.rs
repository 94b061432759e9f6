//! Combinational equivalence checking between two netlists.
//!
//! `Synthesize()` must never change the circuit function; this module makes
//! that checkable as a first-class operation: exhaustive for small
//! interfaces, seeded-random vector comparison beyond that. The resynthesis
//! procedure's tests use it, and downstream users can assert it after any
//! netlist surgery.

use rsyn_netlist::{sim::ParallelSim, CombView, LaneBlock, Netlist, LANES, LANE_WORDS};

/// Outcome of an equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EquivResult {
    /// Proven equivalent by exhaustive enumeration.
    Equivalent,
    /// No mismatch found over the given number of random vectors (not a
    /// proof).
    ProbablyEquivalent {
        /// Vectors simulated.
        vectors: usize,
    },
    /// A distinguishing input assignment was found.
    NotEquivalent {
        /// PI values (in view order) exposing the difference.
        counterexample: Vec<bool>,
    },
    /// The interfaces differ (PI/PO counts), so the circuits are not
    /// comparable.
    InterfaceMismatch,
}

/// Interfaces with at most this many PIs are checked exhaustively.
pub const EXHAUSTIVE_PI_LIMIT: usize = 18;

/// Checks whether two netlists compute the same PO functions over matching
/// view interfaces (PIs and POs are matched by position).
pub fn check_equivalence(
    a: &Netlist,
    b: &Netlist,
    random_vectors: usize,
    seed: u64,
) -> EquivResult {
    let (Ok(va), Ok(vb)) = (a.comb_view(), b.comb_view()) else {
        return EquivResult::InterfaceMismatch;
    };
    if va.pis.len() != vb.pis.len() || va.pos.len() != vb.pos.len() {
        return EquivResult::InterfaceMismatch;
    }
    let n = va.pis.len();
    if n <= EXHAUSTIVE_PI_LIMIT {
        match find_mismatch_exhaustive(a, &va, b, &vb) {
            Some(cex) => EquivResult::NotEquivalent { counterexample: cex },
            None => EquivResult::Equivalent,
        }
    } else {
        match find_mismatch_random(a, &va, b, &vb, random_vectors, seed) {
            Some(cex) => EquivResult::NotEquivalent { counterexample: cex },
            None => EquivResult::ProbablyEquivalent { vectors: random_vectors },
        }
    }
}

fn find_mismatch_exhaustive(
    a: &Netlist,
    va: &CombView,
    b: &Netlist,
    vb: &CombView,
) -> Option<Vec<bool>> {
    let n = va.pis.len();
    let total: u64 = 1 << n;
    let mut sim_a = ParallelSim::new(a, va);
    let mut sim_b = ParallelSim::new(b, vb);
    let mut base = 0u64;
    while base < total {
        // Lane k holds minterm base + k.
        let lanes: Vec<LaneBlock> = (0..n)
            .map(|i| {
                let mut block = LaneBlock::ZERO;
                for k in 0..LANES {
                    block.set_lane(k, ((base + k as u64) >> i) & 1 == 1);
                }
                block
            })
            .collect();
        sim_a.simulate(&lanes);
        sim_b.simulate(&lanes);
        let valid = LaneBlock::mask_lanes((total - base).min(LANES as u64) as usize);
        if let Some(lane) = first_mismatch(&sim_a, va, &sim_b, vb, valid) {
            let m = base + lane as u64;
            return Some((0..n).map(|i| (m >> i) & 1 == 1).collect());
        }
        base += LANES as u64;
    }
    None
}

fn find_mismatch_random(
    a: &Netlist,
    va: &CombView,
    b: &Netlist,
    vb: &CombView,
    vectors: usize,
    seed: u64,
) -> Option<Vec<bool>> {
    let n = va.pis.len();
    let mut sim_a = ParallelSim::new(a, va);
    let mut sim_b = ParallelSim::new(b, vb);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut remaining = vectors.div_ceil(64);
    while remaining > 0 {
        // Up to four 64-vector words per block, drawn word-major (one word
        // per PI, then the next word), so the vectors and the first
        // mismatching one do not depend on how many words share a block.
        let nw = remaining.min(LANE_WORDS);
        remaining -= nw;
        let mut lanes = vec![LaneBlock::ZERO; n];
        for j in 0..nw {
            for lane in &mut lanes {
                lane.set_word(j, next());
            }
        }
        sim_a.simulate(&lanes);
        sim_b.simulate(&lanes);
        if let Some(lane) = first_mismatch(&sim_a, va, &sim_b, vb, LaneBlock::mask_words(nw)) {
            return Some(lanes.iter().map(|l| l.lane(lane)).collect());
        }
    }
    None
}

/// The lowest lane of `valid` in which some PO of `sim_a` differs from the
/// PO of `sim_b` at the same position.
fn first_mismatch(
    sim_a: &ParallelSim,
    va: &CombView,
    sim_b: &ParallelSim,
    vb: &CombView,
    valid: LaneBlock,
) -> Option<usize> {
    let mut diff = LaneBlock::ZERO;
    for (pa, pb) in va.pos.iter().zip(&vb.pos) {
        diff |= sim_a.value(*pa) ^ sim_b.value(*pb);
    }
    (diff & valid).first_lane()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::MapOptions;
    use crate::Window;
    use rsyn_netlist::Library;

    fn xor_pair() -> (Netlist, Netlist) {
        let lib = Library::osu018();
        // a: direct XOR cell.
        let mut a = Netlist::new("a", lib.clone());
        let x = a.add_input("x");
        let y = a.add_input("y");
        let z = a.add_named_net("z");
        let xor = lib.cell_id("XOR2X1").unwrap();
        a.add_gate("g", xor, &[x, y], &[z]).unwrap();
        a.mark_output(z);
        // b: the same circuit remapped without XOR cells.
        let mut b = a.clone();
        let gates: Vec<_> = b.gates().map(|(id, _)| id).collect();
        let w = Window::extract(&b, &gates);
        let allowed: Vec<_> = lib
            .comb_cells()
            .into_iter()
            .filter(|&c| lib.cell(c).name != "XOR2X1" && lib.cell(c).name != "XNOR2X1")
            .collect();
        w.resynthesize(&mut b, &allowed, &MapOptions::area()).unwrap();
        (a, b)
    }

    #[test]
    fn remapped_circuit_is_equivalent() {
        let (a, b) = xor_pair();
        assert_eq!(check_equivalence(&a, &b, 0, 0), EquivResult::Equivalent);
    }

    #[test]
    fn mutated_circuit_is_caught_with_counterexample() {
        let (a, _) = xor_pair();
        let lib = Library::osu018();
        // c computes NAND instead of XOR.
        let mut c = Netlist::new("c", lib.clone());
        let x = c.add_input("x");
        let y = c.add_input("y");
        let z = c.add_named_net("z");
        let nand = lib.cell_id("NAND2X1").unwrap();
        c.add_gate("g", nand, &[x, y], &[z]).unwrap();
        c.mark_output(z);
        match check_equivalence(&a, &c, 0, 0) {
            EquivResult::NotEquivalent { counterexample } => {
                // Verify the counterexample really distinguishes.
                let va = a.comb_view().unwrap();
                let vc = c.comb_view().unwrap();
                let oa = rsyn_netlist::sim::simulate_one(&a, &va, &counterexample);
                let oc = rsyn_netlist::sim::simulate_one(&c, &vc, &counterexample);
                assert_ne!(oa, oc);
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn interface_mismatch_detected() {
        let (a, _) = xor_pair();
        let lib = Library::osu018();
        let mut d = Netlist::new("d", lib.clone());
        let x = d.add_input("x");
        let z = d.add_named_net("z");
        let inv = lib.cell_id("INVX1").unwrap();
        d.add_gate("g", inv, &[x], &[z]).unwrap();
        d.mark_output(z);
        assert_eq!(check_equivalence(&a, &d, 0, 0), EquivResult::InterfaceMismatch);
    }
}
