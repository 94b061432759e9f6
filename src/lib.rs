//! `rsyn` — facade crate re-exporting the DFM-resynthesis library crates.
//!
//! This reproduction of *"Resynthesis for Avoiding Undetectable Faults Based
//! on Design-for-Manufacturability Guidelines"* (DATE 2019) is organised as a
//! set of focused crates; this facade re-exports each of them under a short
//! module name so that examples and downstream users can depend on a single
//! crate:
//!
//! * [`netlist`] — cells, the 21-cell library, the gate-level netlist;
//! * [`logic`] — AIG synthesis and restricted technology mapping;
//! * [`atpg`] — PODEM test generation and fault simulation (with a
//!   fault-sharded parallel engine whose results are thread-count
//!   independent, and cone-of-influence incremental re-evaluation);
//! * [`dfm`] — DFM guidelines, layout scanning, defect→fault translation;
//! * [`pdesign`] — floorplan, placement, routing, timing and power;
//! * [`circuits`] — the benchmark circuit generators;
//! * [`cluster`] — structural clustering of undetectable faults;
//! * [`core`] — the paper's two-phase resynthesis procedure, and the
//!   resilient driver around it ([`core::run`](fn@core::run)): typed flow
//!   errors, run control, and checkpoint/resume;
//! * [`observe`] — stage spans, deterministic counters, run manifests.
//!
//! The flow service (`rsyn-server`) and the experiment binaries
//! (`rsyn-bench`) build on these crates and are not re-exported.

pub use rsyn_atpg as atpg;
pub use rsyn_cache as cache;
pub use rsyn_circuits as circuits;
pub use rsyn_cluster as cluster;
pub use rsyn_core as core;
pub use rsyn_dfm as dfm;
pub use rsyn_logic as logic;
pub use rsyn_netlist as netlist;
pub use rsyn_observe as observe;
pub use rsyn_pdesign as pdesign;
