//! DFM guidelines, layout scanning, and defect-to-fault translation.
//!
//! This crate reproduces the methodology of \[7\]–\[9\] that the paper builds
//! on: design-for-manufacturability guidelines are *recommendations* whose
//! violations mark layout locations where systematic defects are likely.
//! Violations are translated into gate-level logic faults:
//!
//! * [`guideline`] — the guideline set: 19 *Via*, 29 *Metal* and 11
//!   *Density* guidelines (same categories and counts as the paper);
//! * [`internal`] — cell-internal defects: every transistor open/short and
//!   output bridge of every library cell is switch-level simulated to
//!   derive its UDFM conditions; the per-cell internal-fault count drives
//!   the resynthesis cell ordering;
//! * [`scan`] — geometric checks of a routed [`rsyn_pdesign::Layout`]
//!   against the guidelines, producing [`Violation`]s;
//! * [`translate`] — violations → external faults (stuck-at, transition,
//!   bridging), with behavioural deduplication and feedback-bridge
//!   filtering.
//!
//! The top-level entry point is [`extract_faults`], which produces the
//! paper's fault set `F` for a placed-and-routed netlist.

pub mod deckio;
pub mod guideline;
pub mod internal;
#[cfg(test)]
mod reference;
pub mod scan;
pub mod stats;
pub mod translate;

use rsyn_atpg::fault::Fault;
use rsyn_netlist::Netlist;
use rsyn_pdesign::Layout;

pub use deckio::{parse_deck, write_deck};
pub use guideline::{Guideline, GuidelineCategory, GuidelineSet};
pub use internal::InternalCatalog;
pub use scan::{scan_layout, Violation, ViolationTarget};
pub use stats::{DeckReport, GuidelineStats};

/// The paper's fault set `F` for one placed-and-routed design: internal
/// (cell-aware UDFM) faults for every cell instance plus external faults
/// translated from layout DFM violations.
///
/// Internal faults are placement-independent, exactly as the paper states
/// ("every time a gate is used, it introduces the same internal faults;
/// \[they\] do not depend on the placement and routing"): every instance of
/// a cell carries the cell's full internal defect list, including the
/// syndrome-free defects (rail fights, redundant-transistor opens — real
/// defects whose logic fault model is undetectable by construction).
/// Because the DFM flag rate grows superlinearly with cell complexity,
/// simple cells carry none of these, so the undetectable faults
/// concentrate on the complex-cell-rich areas of the netlist — the
/// clustering phenomenon of Section II.
///
/// Internal faults come first in the returned vector, then external faults.
pub fn extract_faults(
    nl: &Netlist,
    layout: &Layout,
    guidelines: &GuidelineSet,
    catalog: &InternalCatalog,
) -> Vec<Fault> {
    let _span = rsyn_observe::span("dfm.extract");
    let mut faults = catalog.instance_faults(nl);
    let internal = faults.len() as u64;
    let violations = {
        let _scan_span = rsyn_observe::span("dfm.scan");
        scan_layout(layout, guidelines)
    };
    {
        let _translate_span = rsyn_observe::span("dfm.translate");
        faults.extend(translate::translate_violations(nl, &violations));
    }
    rsyn_observe::add_many(&[
        ("dfm.extracts", 1),
        ("dfm.violations", violations.len() as u64),
        ("dfm.faults.internal", internal),
        ("dfm.faults.external", faults.len() as u64 - internal),
    ]);
    faults
}

/// An empty list for the thousands of violations or faults of one
/// extraction, with room for a page of entries. A list grown from four
/// entries starts in a block small enough for glibc's per-thread cache,
/// which may hold blocks an ATPG worker thread allocated; every
/// reallocation then stays in that thread's malloc arena, which grows while
/// the main arena's free memory goes unused, and the peak RSS of a
/// re-analysis varies from run to run (EXPERIMENTS.md E17, "Peak RSS").
pub(crate) fn extraction_list<T>() -> Vec<T> {
    Vec::with_capacity(4096 / std::mem::size_of::<T>().max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsyn_netlist::Library;
    use rsyn_pdesign::flow::physical_design;

    #[test]
    fn extract_faults_produces_internal_and_external() {
        let lib = Library::osu018();
        let mut nl = Netlist::new("t", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let mut nets = vec![a, b];
        let nand = lib.cell_id("NAND2X1").unwrap();
        let aoi = lib.cell_id("AOI22X1").unwrap();
        for i in 0..12 {
            let y = nl.add_net();
            let x0 = nets[i % nets.len()];
            let x1 = nets[(i + 1) % nets.len()];
            if i % 3 == 0 {
                let x2 = nets[(i + 2) % nets.len()];
                let x3 = nets[(i * 2 + 1) % nets.len()];
                nl.add_gate(format!("g{i}"), aoi, &[x0, x1, x2, x3], &[y]).unwrap();
            } else {
                nl.add_gate(format!("g{i}"), nand, &[x0, x1], &[y]).unwrap();
            }
            nets.push(y);
        }
        let last = *nets.last().unwrap();
        nl.mark_output(last);
        let pd = physical_design(&nl, 1).unwrap();
        let guidelines = GuidelineSet::standard();
        let catalog = InternalCatalog::build(nl.lib());
        let faults = extract_faults(&nl, &pd.layout, &guidelines, &catalog);
        let internal = faults.iter().filter(|f| f.is_internal()).count();
        let external = faults.len() - internal;
        assert!(internal > 0, "every instance contributes internal faults");
        assert!(external > 0, "routed layout produces external faults");
    }
}
