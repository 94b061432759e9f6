//! `PDesign()`: the complete physical-design step the resynthesis procedure
//! invokes — placement, routing, timing, and power in one call.

use rsyn_netlist::Netlist;

use crate::floorplan::Floorplan;
use crate::layout::Layout;
use crate::place::{PlaceError, Placement};
use crate::power::{estimate, PowerReport};
use crate::route::route;
use crate::timing::{analyze, TimingReport};

/// Core utilization used for the original floorplan, as in the paper.
pub const CORE_UTILIZATION: f64 = 0.7;

/// The artifacts of one physical-design run.
#[derive(Clone, Debug)]
pub struct PhysicalDesign {
    /// Cell placement.
    pub placement: Placement,
    /// Routed layout.
    pub layout: Layout,
    /// Static timing report.
    pub timing: TimingReport,
    /// Power estimate.
    pub power: PowerReport,
}

/// Runs full physical design from scratch: floorplan at 70% utilization,
/// global placement, routing, STA, and power.
///
/// # Errors
///
/// Returns [`PlaceError`] if the netlist does not fit its own floorplan
/// (cannot happen for a fresh floorplan unless rounding is pathological).
pub fn physical_design(nl: &Netlist, seed: u64) -> Result<PhysicalDesign, PlaceError> {
    let fp = Floorplan::for_cell_area(nl.total_area(), CORE_UTILIZATION);
    physical_design_in(nl, fp, None, seed)
}

/// Runs physical design inside a **fixed floorplan**, optionally starting
/// from a previous placement (incremental mode used after resynthesis: only
/// new gates are placed, survivors keep their slots).
///
/// # Errors
///
/// Returns [`PlaceError::AreaExceeded`] if the netlist no longer fits the
/// floorplan — the paper treats this as a hard constraint violation.
pub fn physical_design_in(
    nl: &Netlist,
    floorplan: Floorplan,
    previous: Option<&Placement>,
    seed: u64,
) -> Result<PhysicalDesign, PlaceError> {
    let _span = rsyn_observe::span("pdesign");
    rsyn_observe::add_many(&[
        ("pdesign.runs", 1),
        if previous.is_some() {
            ("pdesign.placements.incremental", 1)
        } else {
            ("pdesign.placements.global", 1)
        },
    ]);
    let place_span = rsyn_observe::span("pdesign.place");
    let placement = match previous {
        Some(prev) => {
            let mut p = prev.clone();
            p.sync(nl)?;
            p
        }
        None => Placement::global(nl, floorplan, seed)?,
    };
    drop(place_span);
    let layout = {
        let _s = rsyn_observe::span("pdesign.route");
        route(nl, &placement)
    };
    let view = nl.comb_view().expect("acyclic netlist");
    let timing = {
        let _s = rsyn_observe::span("pdesign.timing");
        analyze(nl, &view, &layout)
    };
    let power = {
        let _s = rsyn_observe::span("pdesign.power");
        estimate(nl, &view, &layout, seed ^ 0x9E37_79B9_7F4A_7C15)
    };
    Ok(PhysicalDesign { placement, layout, timing, power })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsyn_netlist::Library;

    fn sample() -> Netlist {
        let lib = Library::osu018();
        let mut nl = Netlist::new("s", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_net();
        let y = nl.add_named_net("y");
        let nand = lib.cell_id("NAND2X1").unwrap();
        let xor = lib.cell_id("XOR2X1").unwrap();
        nl.add_gate("u0", nand, &[a, b], &[t]).unwrap();
        nl.add_gate("u1", xor, &[t, a], &[y]).unwrap();
        nl.mark_output(y);
        nl
    }

    #[test]
    fn full_flow_produces_consistent_artifacts() {
        let nl = sample();
        let pd = physical_design(&nl, 0xDA7E).unwrap();
        assert_eq!(pd.layout.cells.len(), nl.gate_count());
        assert!(pd.timing.critical_delay_ps > 0.0);
        assert!(pd.power.total_uw() > 0.0);
        assert!(pd.layout.total_wirelength() > 0.0);
    }

    #[test]
    fn incremental_mode_preserves_surviving_slots() {
        let mut nl = sample();
        let pd = physical_design(&nl, 0xDA7E).unwrap();
        let fp = pd.placement.floorplan();
        let u0 = nl.find_gate("u0").unwrap();
        let slot_before = pd.placement.slot(u0).unwrap();
        // Replace u1 with an inverter.
        let u1 = nl.find_gate("u1").unwrap();
        let old = nl.gate(u1).unwrap().clone();
        nl.remove_gate(u1);
        let inv = nl.lib().cell_id("INVX1").unwrap();
        nl.add_gate("r", inv, &[old.inputs[0]], &[old.outputs[0]]).unwrap();
        let pd2 = physical_design_in(&nl, fp, Some(&pd.placement), 0xDA7E).unwrap();
        assert_eq!(pd2.placement.slot(u0).unwrap(), slot_before, "survivor keeps its slot");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let nl = sample();
        let a = physical_design(&nl, 7).unwrap();
        let b = physical_design(&nl, 7).unwrap();
        assert_eq!(a.timing.critical_delay_ps, b.timing.critical_delay_ps);
        assert_eq!(a.power, b.power);
        assert_eq!(a.layout.total_wirelength(), b.layout.total_wirelength());
    }
}
