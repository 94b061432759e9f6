//! The PODEM → SAT hand-off on a real benchmark. PODEM gives up on some of
//! `sparc_tlu`'s seed faults at `BACKTRACK_LIMIT` (on the 8-input circuits
//! of `tests/properties.rs` it never does); the engine's `atpg.sat.fault`
//! trace zones name exactly those faults, and the SAT prover decides each
//! one.

use rsyn::atpg::testset::pack;
use rsyn::atpg::{run_atpg, Fault, FaultSim, FaultStatus, Pattern, SatAtpg, SatOutcome};
use rsyn::circuits::build_benchmark_with;
use rsyn::core::flow::FlowContext;
use rsyn::dfm::extract_faults;
use rsyn::netlist::{LaneBlock, Library};
use rsyn::observe::trace;
use rsyn::pdesign::physical_design;

/// Whether `test` (one pattern, or a transition fault's initialisation
/// and launch patterns) detects `fault` in the fault simulator.
fn confirms(sim: &mut FaultSim, fault: &Fault, test: &[Pattern], npis: usize) -> bool {
    sim.set_patterns(&pack(test, npis));
    (sim.detect_lanes(fault) & LaneBlock::mask_lanes(test.len())).any()
}

#[test]
fn faults_podem_gives_up_on_are_decided_by_sat() {
    // A cache hit would return the verdicts without running the engine.
    rsyn::cache::set_disk_root(None);
    let ctx = FlowContext::new(Library::osu018());
    let nl = build_benchmark_with("sparc_tlu", &ctx.lib, &ctx.mapper).expect("benchmark builds");
    let pd = physical_design(&nl, ctx.seed).expect("the seed design fits its floorplan");
    let faults = extract_faults(&nl, &pd.layout, &ctx.guidelines, &ctx.catalog);
    let view = nl.comb_view().expect("acyclic netlist");

    let (result, sat_calls, sat_spans, zones) = {
        let _scope = rsyn::observe::child_scope();
        trace::start();
        let result = run_atpg(&nl, &view, &faults, &ctx.atpg);
        let trace = trace::stop();
        let zones: Vec<usize> = trace
            .events
            .iter()
            .filter(|e| e.name == "atpg.sat.fault")
            .map(|e| e.id.expect("a SAT zone names its fault") as usize)
            .collect();
        let counter = rsyn::observe::counter;
        (result, counter("atpg.sat.calls"), counter("span.atpg.sat.calls"), zones)
    };
    assert!(!zones.is_empty(), "PODEM gives up on some of sparc_tlu's faults");
    assert_eq!(sat_calls, zones.len() as u64);
    assert_eq!(sat_spans, sat_calls, "one atpg.sat span per SAT call");

    let mut prover = SatAtpg::new(&nl, &view);
    let mut sim = FaultSim::new(&nl, &view);
    for fi in zones {
        let fault = &faults[fi];
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
