//! Exhaustive fault verification for small circuits.
//!
//! For circuits with up to [`MAX_EXHAUSTIVE_PIS`] view inputs, every input
//! pattern can be simulated, giving a ground-truth detectability verdict
//! against which PODEM's and SAT's proofs are cross-checked (the property
//! tests do exactly that). Transition faults are checked over every *ordered pair*
//! of patterns via the lane-sequence trick.

use rsyn_netlist::{CombView, LaneBlock, Netlist, LANES, LANE_WORDS};

use crate::fault::{Fault, FaultKind};
use crate::sim::FaultSim;

/// Largest PI count accepted by [`exhaustive_detectable`] (2^20 patterns).
pub const MAX_EXHAUSTIVE_PIS: usize = 20;

/// Ground-truth detectability by full input enumeration.
///
/// Returns `Some(true)` if any pattern (or, for transition faults, any
/// adjacent pattern pair) detects the fault, `Some(false)` if none does,
/// and `None` when the view has too many inputs to enumerate.
pub fn exhaustive_detectable(nl: &Netlist, view: &CombView, fault: &Fault) -> Option<bool> {
    let n = view.pis.len();
    if n > MAX_EXHAUSTIVE_PIS {
        return None;
    }
    let mut sim = FaultSim::new(nl, view);
    let total: u64 = 1 << n;
    let is_transition = matches!(fault.kind, FaultKind::Transition { .. });

    // Static faults: enumerate patterns 256 at a time.
    if !is_transition {
        let mut base = 0u64;
        while base < total {
            let lanes: Vec<LaneBlock> = (0..n)
                .map(|i| {
                    let mut b = LaneBlock::ZERO;
                    for k in 0..LANES as u64 {
                        if base + k >= total {
                            break;
                        }
                        if ((base + k) >> i) & 1 == 1 {
                            b.set_lane(k as usize, true);
                        }
                    }
                    b
                })
                .collect();
            sim.set_patterns(&lanes);
            let mut det = sim.detect_lanes(fault);
            // Mask lanes beyond the pattern space.
            if base + LANES as u64 > total {
                det &= LaneBlock::mask_lanes((total - base) as usize);
            }
            if det.any() {
                return Some(true);
            }
            base += LANES as u64;
        }
        return Some(false);
    }

    // Transition faults need an initialisation pattern followed by the
    // launch pattern. Enumerate all ordered pairs (init, launch) by packing
    // 32 pairs per word (128 per block): lanes 2k = init, 2k+1 = launch
    // within each word; only odd-lane detections count (they have the
    // right predecessor, and launch shifts never cross word boundaries).
    const PAIRS_PER_WORD: u64 = 32;
    let pairs_per_block = PAIRS_PER_WORD * LANE_WORDS as u64;
    let odd_lanes = LaneBlock::from_words([0xAAAA_AAAA_AAAA_AAAA; LANE_WORDS]);
    let mut pair = 0u64; // pair index = init * total + launch
    let pairs = total * total;
    while pair < pairs {
        let lanes: Vec<LaneBlock> = (0..n)
            .map(|i| {
                let mut b = LaneBlock::ZERO;
                for j in 0..LANE_WORDS as u64 {
                    let mut w = 0u64;
                    for k in 0..PAIRS_PER_WORD {
                        let p = pair + j * PAIRS_PER_WORD + k;
                        if p >= pairs {
                            break;
                        }
                        let init = p / total;
                        let launch = p % total;
                        if (init >> i) & 1 == 1 {
                            w |= 1 << (2 * k);
                        }
                        if (launch >> i) & 1 == 1 {
                            w |= 1 << (2 * k + 1);
                        }
                    }
                    b.set_word(j as usize, w);
                }
                b
            })
            .collect();
        sim.set_patterns(&lanes);
        let mut det = sim.detect_lanes(fault) & odd_lanes;
        if pair + pairs_per_block > pairs {
            let mut valid_mask = LaneBlock::ZERO;
            for j in 0..LANE_WORDS as u64 {
                let valid = pairs.saturating_sub(pair + j * PAIRS_PER_WORD).min(PAIRS_PER_WORD);
                let w = if valid >= PAIRS_PER_WORD { u64::MAX } else { (1u64 << (2 * valid)) - 1 };
                valid_mask.set_word(j as usize, w);
            }
            det &= valid_mask;
        }
        if det.any() {
            return Some(true);
        }
        pair += pairs_per_block;
    }
    Some(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_atpg, AtpgOptions};
    use crate::fault::{CellCondition, FaultStatus};
    use rsyn_netlist::Library;

    fn redundant_circuit() -> Netlist {
        // y = (a & b) | (a & !b) simplifies to a, built unsimplified so the
        // masking redundancy exists.
        let lib = Library::osu018();
        let mut nl = Netlist::new("r", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let nb = nl.add_net();
        let t0 = nl.add_net();
        let t1 = nl.add_net();
        let y = nl.add_named_net("y");
        let inv = lib.cell_id("INVX1").unwrap();
        let and = lib.cell_id("AND2X2").unwrap();
        let or = lib.cell_id("OR2X2").unwrap();
        nl.add_gate("i", inv, &[b], &[nb]).unwrap();
        nl.add_gate("g0", and, &[a, b], &[t0]).unwrap();
        nl.add_gate("g1", and, &[a, nb], &[t1]).unwrap();
        nl.add_gate("g2", or, &[t0, t1], &[y]).unwrap();
        nl.mark_output(y);
        nl
    }

    #[test]
    fn exhaustive_agrees_with_atpg_on_every_stuck_at() {
        let nl = redundant_circuit();
        let view = nl.comb_view().unwrap();
        let mut faults = Vec::new();
        for (id, net) in nl.nets() {
            if net.driver.is_some() {
                for v in [false, true] {
                    faults.push(Fault::external(FaultKind::StuckAt { net: id, value: v }, 0));
                }
            }
        }
        let result = run_atpg(&nl, &view, &faults, &AtpgOptions::default());
        for (fi, fault) in faults.iter().enumerate() {
            let truth = exhaustive_detectable(&nl, &view, fault).expect("small circuit");
            match result.statuses[fi] {
                FaultStatus::Detected => {
                    assert!(truth, "fault {fi} detected but truly undetectable")
                }
                FaultStatus::Undetectable => {
                    assert!(!truth, "fault {fi} proven undetectable but a test exists")
                }
                other => panic!("unexpected status {other:?}"),
            }
        }
    }

    #[test]
    fn exhaustive_transition_check() {
        let lib = Library::osu018();
        let mut nl = Netlist::new("t", lib.clone());
        let a = nl.add_input("a");
        let y = nl.add_named_net("y");
        let inv = lib.cell_id("INVX1").unwrap();
        nl.add_gate("g", inv, &[a], &[y]).unwrap();
        nl.mark_output(y);
        let view = nl.comb_view().unwrap();
        let f = Fault::external(FaultKind::Transition { net: y, rising: true }, 0);
        assert_eq!(exhaustive_detectable(&nl, &view, &f), Some(true));
        // On a constant net the transition cannot be launched.
        let mut nl2 = Netlist::new("k", lib.clone());
        let a2 = nl2.add_input("a");
        let an = nl2.add_net();
        let y2 = nl2.add_named_net("y");
        let and = lib.cell_id("AND2X2").unwrap();
        nl2.add_gate("i", inv, &[a2], &[an]).unwrap();
        nl2.add_gate("g", and, &[a2, an], &[y2]).unwrap();
        nl2.mark_output(y2);
        let view2 = nl2.comb_view().unwrap();
        let f2 = Fault::external(FaultKind::Transition { net: y2, rising: true }, 0);
        assert_eq!(exhaustive_detectable(&nl2, &view2, &f2), Some(false));
    }

    #[test]
    fn cell_aware_exhaustive() {
        let lib = Library::osu018();
        let mut nl = Netlist::new("c", lib.clone());
        let a = nl.add_input("a");
        let y = nl.add_named_net("y");
        let nand = lib.cell_id("NAND2X1").unwrap();
        let g = nl.add_gate("u", nand, &[a, a], &[y]).unwrap();
        nl.mark_output(y);
        let view = nl.comb_view().unwrap();
        let reachable = Fault::internal(g, vec![CellCondition { pattern: 0b11, output: 0 }], 0);
        let unreachable = Fault::internal(g, vec![CellCondition { pattern: 0b01, output: 0 }], 0);
        assert_eq!(exhaustive_detectable(&nl, &view, &reachable), Some(true));
        assert_eq!(exhaustive_detectable(&nl, &view, &unreachable), Some(false));
    }

    #[test]
    fn too_many_inputs_returns_none() {
        let lib = Library::osu018();
        let mut nl = Netlist::new("w", lib.clone());
        let inputs: Vec<_> = (0..21).map(|i| nl.add_input(format!("i{i}"))).collect();
        let mut acc = inputs[0];
        let and = lib.cell_id("AND2X2").unwrap();
        for (k, &i) in inputs[1..].iter().enumerate() {
            let next = nl.add_net();
            nl.add_gate(format!("g{k}"), and, &[acc, i], &[next]).unwrap();
            acc = next;
        }
        nl.mark_output(acc);
        let view = nl.comb_view().unwrap();
        let f = Fault::external(FaultKind::StuckAt { net: acc, value: false }, 0);
        assert_eq!(exhaustive_detectable(&nl, &view, &f), None);
    }
}
