//! A forced `PDesign()` rejection is absorbed by the resilient flow driver
//! ([`rsyn_core::run`]).
//!
//! A test binary of its own because the injection plan is process-global:
//! armed next to the crate's unit tests, the rejection hits whichever
//! concurrently running test calls `physical_design` next.

use rsyn_circuits::build_benchmark_with;
use rsyn_core::flow::FlowContext;
use rsyn_core::run::{run, FlowOptions};
use rsyn_netlist::{Library, Netlist};
use rsyn_resilience::inject;

fn seed_netlist(ctx: &FlowContext, name: &str) -> Netlist {
    build_benchmark_with(name, &ctx.lib, &ctx.mapper).expect("benchmark builds")
}

#[test]
fn injected_pdesign_rejection_is_absorbed_and_run_still_succeeds() {
    let ctx = FlowContext::new(Library::osu018());
    let clean =
        run(seed_netlist(&ctx, "sparc_tlu"), &ctx, &FlowOptions::new("sparc_tlu", "run-clean"))
            .expect("clean run");

    // Ordinal 0 is the seed analysis; rejecting ordinal 1 hits the
    // first candidate evaluation, which the loop skips over.
    let plan = inject::InjectionPlan::new().reject_pdesign(1);
    let armed = inject::arm(plan);
    let report =
        run(seed_netlist(&ctx, "sparc_tlu"), &ctx, &FlowOptions::new("sparc_tlu", "run-injected"))
            .expect("injected run still returns Ok");
    drop(armed);

    assert!(report.accepted >= 1, "flow recovers and keeps accepting");
    assert!(
        report.state.undetectable_count() <= clean.state.undetectable_count() + 5,
        "injected run stays in the same quality regime: U {} vs clean {}",
        report.state.undetectable_count(),
        clean.state.undetectable_count()
    );
}
