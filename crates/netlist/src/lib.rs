//! Gate-level netlist infrastructure for the `rsyn` DFM-resynthesis system.
//!
//! This crate provides the substrate every other `rsyn` crate builds on:
//!
//! * [`TruthTable`] — boolean functions of up to six inputs;
//! * [`Cell`] and [`Library`] — a standard-cell library modelled after the
//!   21-cell OSU (TSMC 0.18 µm) library used by the paper, including timing,
//!   power, area, and transistor-network data needed for cell-internal
//!   defect extraction;
//! * [`Netlist`] — an arena-based gate-level netlist with typed ids,
//!   levelization, and a full-scan combinational view;
//! * a structural Verilog-subset writer and parser ([`verilog`]), which
//!   reports failures as positioned [`NetlistError::Parse`] values (line,
//!   column, fragment) instead of panicking;
//! * bit-parallel logic simulation ([`sim`]) over a flat levelized
//!   struct-of-arrays arena ([`arena`]), 256 patterns
//!   ([`lanes::LaneBlock`]) per gate visit.
//!
//! Flow-reachable code paths in this crate are `unwrap`-free
//! (`clippy::unwrap_used` is enforced outside tests).
//!
//! # Example
//!
//! ```
//! use rsyn_netlist::{Library, Netlist};
//!
//! # fn main() -> Result<(), rsyn_netlist::NetlistError> {
//! let lib = Library::osu018();
//! let mut nl = Netlist::new("demo", lib);
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let y = nl.add_named_net("y");
//! let nand = nl.lib().cell_id("NAND2X1").unwrap();
//! nl.add_gate("u0", nand, &[a, b], &[y])?;
//! nl.mark_output(y);
//! nl.validate()?;
//! assert_eq!(nl.gate_count(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(clippy::unwrap_used)]

pub mod arena;
pub mod canon;
pub mod cell;
pub mod ids;
pub mod lanes;
pub mod library;
pub mod netlist;
pub mod sim;
pub mod stats;
pub mod tt;
pub mod validate;
pub mod verilog;

pub use arena::SimArena;
pub use canon::{library_hash, CanonicalView};
pub use cell::{Cell, CellClass, CellOutput, SpNet, Transistor};
pub use ids::{CellId, GateId, NetId};
pub use lanes::{LaneBlock, LANES, LANE_WORDS};
pub use library::Library;
pub use netlist::{CombView, Driver, Gate, Net, Netlist};
pub use stats::NetlistStats;
pub use tt::TruthTable;
pub use validate::NetlistError;
