//! Property tests for the resilient flow driver ([`rsyn_core::run`]).
//!
//! At an arbitrary delay/power relaxation `q` the flow meets its own
//! recovery paths — candidates rejected by the pre-check or by
//! `PDesign()`, constraint-violating candidates that drive Section III-C
//! backtracking, faults PODEM gives up on that SAT decides — and it must:
//!
//! * never panic (every failure is either absorbed or a typed
//!   [`FlowError`](rsyn_core::FlowError)),
//! * return a netlist that still validates, and
//! * preserve the circuit function: the final netlist is logically
//!   equivalent to the seed (`Synthesize()` is function-preserving, and no
//!   recovery path may corrupt that).

use proptest::prelude::*;
use rsyn_circuits::build_benchmark_with;
use rsyn_core::flow::FlowContext;
use rsyn_core::run::{run, FlowOptions};
use rsyn_logic::{check_equivalence, EquivResult};
use rsyn_netlist::Library;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A flow run at any `q` never panics and never changes the circuit
    /// function.
    #[test]
    fn flow_never_panics_and_preserves_function(q in 0u32..=10) {
        let lib = Library::osu018();
        let ctx = FlowContext::new(lib);
        let seed_nl = build_benchmark_with("sparc_ffu", &ctx.lib, &ctx.mapper)
            .expect("benchmark");

        let mut options = FlowOptions::new("sparc_ffu", "props");
        options.q_percent = f64::from(q);
        let report = match run(seed_nl.clone(), &ctx, &options) {
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
