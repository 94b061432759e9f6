//! Power estimation: activity-based dynamic power plus cell leakage.
//!
//! Switching activity is measured by seeded random-vector simulation of the
//! combinational view (each 64-lane word interpreted as a time sequence;
//! four words ride per 256-lane simulation call), which is the standard
//! vectorless-adjacent approach. The absolute numbers use nominal
//! 1.8 V / 100 MHz scaling; the paper only ever uses power *relative* to
//! the original design.

use rsyn_netlist::{sim::ParallelSim, CombView, LaneBlock, Netlist, LANE_WORDS};

use crate::layout::Layout;
use crate::timing::net_loads_ff;

/// Supply voltage (V) for energy scaling.
pub const VDD: f64 = 1.8;
/// Clock frequency (Hz) for power scaling.
pub const FREQ_HZ: f64 = 100.0e6;
/// Number of 64-lane random words simulated.
const ACTIVITY_WORDS: usize = 8;

/// A power estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerReport {
    /// Dynamic (switching) power in µW.
    pub dynamic_uw: f64,
    /// Leakage power in µW.
    pub leakage_uw: f64,
}

impl PowerReport {
    /// Total power in µW.
    pub fn total_uw(&self) -> f64 {
        self.dynamic_uw + self.leakage_uw
    }
}

/// Simple xorshift for reproducible activity vectors (independent of the
/// `rand` crate's stability guarantees).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Estimates power.
pub fn estimate(nl: &Netlist, view: &CombView, layout: &Layout, seed: u64) -> PowerReport {
    let mut state = seed | 1;
    let mut toggles = vec![0u64; nl.net_count()];
    let mut sim = ParallelSim::new(nl, view);
    let mut total_transitions = 0u64;
    let mut remaining = ACTIVITY_WORDS;
    while remaining > 0 {
        // Word-major draws keep the xorshift stream — and therefore the
        // reported power — byte-identical to the one-word-per-call loop;
        // each word is its own 64-cycle time sequence.
        let nw = remaining.min(LANE_WORDS);
        remaining -= nw;
        let mut pi_vals = vec![LaneBlock::ZERO; view.pis.len()];
        for j in 0..nw {
            for v in pi_vals.iter_mut() {
                v.set_word(j, xorshift(&mut state));
            }
        }
        sim.simulate(&pi_vals);
        for (i, t) in toggles.iter_mut().enumerate() {
            for j in 0..nw {
                let v = sim.values()[i].word(j);
                *t += (v ^ (v << 1)).count_ones() as u64 - u64::from(v & 1 == 1);
            }
        }
        total_transitions += 63 * nw as u64;
    }
    let total_transitions = total_transitions.max(1) as f64;

    // Dynamic: per net, alpha * C * V^2 * f (plus per-gate internal energy).
    let loads = net_loads_ff(nl, layout);
    let mut dynamic_w = 0.0f64;
    for (id, net) in nl.nets() {
        if net.driver.is_none() {
            continue;
        }
        let alpha = toggles[id.index()] as f64 / total_transitions;
        let cap_f = loads[id.index()] * 1e-15;
        dynamic_w += alpha * cap_f * VDD * VDD * FREQ_HZ;
    }
    // Cell-internal power: the internal nodes of a cell switch with every
    // *input* toggle (including transitions that never reach the output),
    // and the energy per event scales with the transistor network size.
    // This is why complex pass-gate cells (XOR/MUX/FA) are power-inefficient
    // per function compared to a handful of simple static gates.
    for (_, gate) in nl.gates() {
        let cell = nl.lib().cell(gate.cell);
        for &i in &gate.inputs {
            let alpha = toggles[i.index()] as f64 / total_transitions;
            dynamic_w += alpha * cell.switch_energy * 1e-15 * FREQ_HZ;
        }
    }

    let leakage_nw: f64 = nl.gates().map(|(_, g)| nl.lib().cell(g.cell).leakage).sum();
    PowerReport { dynamic_uw: dynamic_w * 1e6, leakage_uw: leakage_nw * 1e-3 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::place::Placement;
    use crate::route::route;
    use rsyn_netlist::Library;

    fn power_of_chain(n: usize) -> PowerReport {
        let lib = Library::osu018();
        let mut nl = Netlist::new("c", lib.clone());
        let mut prev = nl.add_input("a");
        let inv = lib.cell_id("INVX1").unwrap();
        for i in 0..n {
            let next = nl.add_net();
            nl.add_gate(format!("g{i}"), inv, &[prev], &[next]).unwrap();
            prev = next;
        }
        nl.mark_output(prev);
        let fp = Floorplan::for_cell_area(nl.total_area(), 0.7);
        let p = Placement::global(&nl, fp, 1).unwrap();
        let layout = route(&nl, &p);
        let view = nl.comb_view().unwrap();
        estimate(&nl, &view, &layout, 42)
    }

    #[test]
    fn bigger_circuits_burn_more_power() {
        let p5 = power_of_chain(5);
        let p40 = power_of_chain(40);
        assert!(p40.total_uw() > p5.total_uw() * 3.0);
        assert!(p40.leakage_uw > p5.leakage_uw * 5.0);
    }

    #[test]
    fn power_is_deterministic_for_a_seed() {
        let a = power_of_chain(10);
        let b = power_of_chain(10);
        assert_eq!(a, b);
    }

    #[test]
    fn inverter_chain_has_high_activity() {
        // Every net in an inverter chain toggles when the input toggles, so
        // dynamic power must dominate leakage at 100 MHz.
        let p = power_of_chain(20);
        assert!(p.dynamic_uw > 0.0);
        assert!(p.dynamic_uw > p.leakage_uw);
    }
}
