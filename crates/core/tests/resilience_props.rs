//! Property tests for the resilient flow driver ([`rsyn_core::run`]).
//!
//! Under an arbitrary deterministic injection plan — a forced `PDesign()`
//! rejection, a delay-inflated evaluation, and forced PODEM aborts — the
//! flow must:
//!
//! * never panic (every failure is either absorbed or a typed
//!   [`FlowError`](rsyn_resilience::FlowError)),
//! * return a netlist that still validates, and
//! * preserve the circuit function: the final netlist is logically
//!   equivalent to the seed (`Synthesize()` is function-preserving, and no
//!   recovery path may corrupt that).
//!
//! Kept to a single `#[test]` because the injection plan and the
//! observability registry are process-global.

use proptest::prelude::*;
use rsyn_circuits::build_benchmark_with;
use rsyn_core::flow::FlowContext;
use rsyn_core::run::{run, FlowOptions};
use rsyn_logic::{check_equivalence, EquivResult};
use rsyn_netlist::Library;
use rsyn_resilience::inject;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// An injected-failure flow run never panics and never changes the
    /// circuit function.
    #[test]
    fn injected_flow_never_panics_and_preserves_function(
        reject in 1u64..4,
        inflate in 1u64..5,
        abort_run in 0u64..2,
    ) {
        let lib = Library::osu018();
        let ctx = FlowContext::new(lib);
        let seed_nl = build_benchmark_with("sparc_ffu", &ctx.lib, &ctx.mapper)
            .expect("benchmark");

        let options = FlowOptions::new("sparc_ffu", "props");

        let plan = inject::InjectionPlan::new()
            .reject_pdesign(reject)
            .inflation_percent(250)
            .inflate_pdesign(inflate)
            .abort_podem(abort_run, 0)
            .abort_podem(abort_run, 1);
        let armed = inject::arm(plan);
        let report = run(seed_nl.clone(), &ctx, &options);
        drop(armed);

        let report = match report {
            Ok(r) => r,
            Err(e) => return Err(format!("flow returned a fatal error: {e}")),
        };
        report
            .state
            .nl
            .validate()
            .map_err(|e| format!("final netlist no longer validates: {e}"))?;
        match check_equivalence(&seed_nl, &report.state.nl, 512, 0xD5A1) {
            EquivResult::Equivalent | EquivResult::ProbablyEquivalent { .. } => {}
            EquivResult::NotEquivalent { counterexample } => {
                return Err(format!(
                    "final netlist diverges from the seed on {counterexample:?}"
                ));
            }
            EquivResult::InterfaceMismatch => {
                return Err("final netlist changed its PI/PO interface".to_string());
            }
        }
    }
}
