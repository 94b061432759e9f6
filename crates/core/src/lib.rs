//! The paper's contribution: a two-phase logic-resynthesis procedure (with
//! backtracking and a `q` relaxation sweep) that eliminates clusters of
//! undetectable DFM-guideline faults while preserving the design
//! constraints of critical-path delay, power, and die area.
//!
//! * [`flow`] — one full design analysis: physical design in the fixed
//!   floorplan, DFM fault extraction, ATPG, clustering ([`DesignState`]);
//! * [`constraints`] — delay/power/area budgets derived from the original
//!   design and a percentage relaxation `q`;
//! * [`resynth`] — Section III-B: phase 1 attacks the largest cluster
//!   `S_max`, phase 2 the whole circuit; cells are banned in decreasing
//!   internal-fault order, `PDesign()` runs only when the quick internal
//!   check passes, and each candidate is evaluated once per design state;
//! * [`backtrack`] — Section III-C: shrink the replaced-gate set in √n
//!   groups when the constraints are violated;
//! * [`report`] — Table I / Table II row extraction;
//! * [`run`](mod@run) — the resilient driver around the loop: typed
//!   [`FlowError`]s, cooperative [`RunControl`], and per-iteration
//!   [`Checkpoint`]s that resume byte-identically.
//!
//! # Example
//!
//! ```no_run
//! use rsyn_core::{flow::{DesignState, FlowContext}, resynth::{resynthesize, ResynthOptions}};
//! use rsyn_core::constraints::DesignConstraints;
//! use rsyn_circuits::build_benchmark;
//! use rsyn_netlist::Library;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = Library::osu018();
//! let ctx = FlowContext::new(lib.clone());
//! let nl = build_benchmark("sparc_tlu", &lib).expect("benchmark");
//! let original = DesignState::analyze(nl, &ctx, None)?;
//! let constraints = DesignConstraints::from_original(&original, 0.0);
//! let outcome = resynthesize(&original, &ctx, &constraints, &ResynthOptions::default());
//! assert!(outcome.state.undetectable_count() <= original.undetectable_count());
//! # Ok(())
//! # }
//! ```

#![warn(clippy::unwrap_used)]

pub mod backtrack;
pub mod constraints;
pub mod flow;
pub mod report;
pub mod resynth;
pub mod run;

pub use constraints::DesignConstraints;
pub use flow::{DesignState, FlowContext, DEFAULT_SEED};
pub use report::{Table1Row, Table2Row};
pub use resynth::{
    resynthesize, resynthesize_from, run_q_sweep, AcceptedRemap, QSweepOutcome, ResynthCursor,
    ResynthOptions, ResynthOutcome,
};
pub use run::{
    run, run_resumed, Checkpoint, FlowError, FlowOptions, FlowReport, RemapRecord, RunControl,
    StopCause,
};
