//! Automatic test pattern generation for the `rsyn` DFM-resynthesis system.
//!
//! The paper's methodology hinges on *proving* faults undetectable: the set
//! `U` of provably-undetectable DFM-related faults is what clusters, and the
//! resynthesis procedure is evaluated by how much `|U|` and the largest
//! cluster shrink. This crate implements the required engine from scratch:
//!
//! * [`value`] — the 5-valued D-algebra as (good, faulty) 3-valued pairs;
//! * [`fault`] — stuck-at, transition, wired-AND/OR bridging, and
//!   cell-aware (UDFM) fault models with DFM provenance;
//! * [`sim`] — bit-parallel good/fault simulation, 256 lanes per pass by
//!   default ([`rsyn_netlist::LaneBlock`]), with cone-limited event
//!   propagation;
//! * [`podem`] — a complete PODEM implementation (objective, backtrace,
//!   forward implication, X-path check) for arbitrary library cells; search
//!   exhaustion is an undetectability *proof*, and a search that hits the
//!   backtrack limit is never counted as undetectable;
//! * [`sat`] — a CDCL SAT prover over one miter per fault, which decides
//!   every fault PODEM gives up on (a confirmed test, or UNSAT as a proof);
//! * [`engine`] — the full flow: fault sharding → random phase with fault
//!   dropping → deterministic phase (PODEM, then SAT) → reverse-order test
//!   compaction, run over a deterministic thread pool
//!   ([`AtpgOptions::threads`]);
//! * [`incremental`] — incremental re-evaluation for the resynthesis inner
//!   loop: verdicts carried by fault kind outside a remapped window, the
//!   other kinds tried on the previous tests first, and one verify/compact
//!   pass per accepted design.
//!
//! # Example
//!
//! ```
//! use rsyn_netlist::{Library, Netlist};
//! use rsyn_atpg::{engine::{run_atpg, AtpgOptions}, fault::{Fault, FaultKind}};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = Library::osu018();
//! let mut nl = Netlist::new("t", lib.clone());
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let y = nl.add_named_net("y");
//! let nand = lib.cell_id("NAND2X1").unwrap();
//! nl.add_gate("u0", nand, &[a, b], &[y])?;
//! nl.mark_output(y);
//! let view = nl.comb_view()?;
//! let faults = vec![Fault::external(FaultKind::StuckAt { net: y, value: false }, 0)];
//! let result = run_atpg(&nl, &view, &faults, &AtpgOptions::default());
//! assert_eq!(result.detected_count(), 1);
//! # Ok(())
//! # }
//! ```

pub mod engine;
pub mod exhaustive;
pub mod fault;
pub mod incremental;
pub mod podem;
pub mod sat;
pub mod sim;
pub mod testset;
pub mod value;
mod vcache;

pub use engine::{run_atpg, AtpgOptions, AtpgResult};
pub use exhaustive::exhaustive_detectable;
pub use fault::{BridgeKind, CellCondition, Fault, FaultKind, FaultOrigin, FaultStatus};
pub use incremental::{run_atpg_incremental, verify_and_compact, PreviousEvaluation};
pub use podem::{Podem, PodemOutcome};
pub use sat::{SatAtpg, SatOutcome};
pub use sim::FaultSim;
pub use testset::{Pattern, TestSet};
pub use value::{Tri, Val};
