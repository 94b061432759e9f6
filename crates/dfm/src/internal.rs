//! Cell-internal defect extraction: switch-level simulation of transistor
//! opens/shorts and output bridges, producing UDFM conditions per cell.
//!
//! This follows \[9\]/\[11\]: every potential defect of a cell's transistor
//! network is simulated against all input patterns; the patterns whose
//! output response differs from the fault-free cell become the defect's
//! UDFM detection conditions. Defects whose layout features violate DFM
//! guidelines form the cell's *internal fault* list — the paper's key
//! quantity, since every instance of the cell carries the same list, and
//! cells are banned from resynthesis in decreasing internal-fault order.

use rsyn_atpg::fault::{CellCondition, Fault};
use rsyn_netlist::cell::{CellClass, NetworkSide, StageDefect};
use rsyn_netlist::{CellId, Library, Netlist};

/// Fraction (out of 10) of a cell's defects whose layout site violates a
/// DFM guideline. Complex cells have denser intra-cell layouts (stacked
/// diffusion, tight poly pitch), so the flag rate grows superlinearly with
/// transistor count — the paper's premise that large cells carry
/// disproportionately many internal faults, which is what makes replacing
/// them with simpler cells profitable. Selection is deterministic per
/// (cell, defect).
fn dfm_site_keep_of_10(transistors: u16) -> u64 {
    ((u64::from(transistors) * u64::from(transistors)) / 8).clamp(1, 10)
}

/// Minimum transistor count for a cell's syndrome-free defects to be
/// DFM-flagged — the pass-gate-structured cells (XOR/XNOR/MUX/FA), whose
/// internal transmission gates and stacked nodes are the lithography
/// hotspots; purely static complementary cells below this are clean.
const SYNDROME_FREE_MIN_TRANSISTORS: u16 = 10;

/// One internal defect of a cell type, with its UDFM conditions.
#[derive(Clone, Debug, PartialEq)]
pub struct InternalDefect {
    /// Stage the defect lives in.
    pub stage: usize,
    /// The physical defect.
    pub defect: StageDefect,
    /// Detection conditions (input pattern → flipped output).
    pub conditions: Vec<CellCondition>,
    /// The DFM guideline id the defect's layout feature violates.
    pub guideline: u16,
}

/// Per-cell internal defect catalogs for one library.
#[derive(Clone, Debug)]
pub struct InternalCatalog {
    per_cell: Vec<Vec<InternalDefect>>,
}

impl InternalCatalog {
    /// Builds the catalog by switch-level simulating every defect of every
    /// combinational cell.
    pub fn build(lib: &Library) -> Self {
        let mut per_cell = Vec::with_capacity(lib.len());
        for (_, cell) in lib.iter() {
            if cell.class != CellClass::Comb {
                // Flop internals are outside the scan-test view's reach.
                per_cell.push(Vec::new());
                continue;
            }
            let mut defects = Vec::new();
            for (stage_idx, stage) in cell.stages.iter().enumerate() {
                let mut ids = Vec::new();
                stage.pulldown.transistor_ids(&mut ids);
                let mut candidates: Vec<StageDefect> = Vec::new();
                for &id in &ids {
                    candidates.push(StageDefect::Open(NetworkSide::Pulldown, id));
                    candidates.push(StageDefect::Shorted(NetworkSide::Pulldown, id));
                    candidates.push(StageDefect::Open(NetworkSide::Pullup, id));
                    candidates.push(StageDefect::Shorted(NetworkSide::Pullup, id));
                }
                candidates.push(StageDefect::OutputToGnd);
                candidates.push(StageDefect::OutputToVdd);
                for defect in candidates {
                    // Defects with no single-pattern logic syndrome at the
                    // cell boundary (e.g. a shorted pull-up whose rail
                    // fight resolves to the good value) are kept with an
                    // empty condition list: they are faults in `F` that are
                    // *undetectable by construction* — the paper's central
                    // phenomenon ("defects may be detectable even though
                    // the faults that model them are undetectable").
                    let conditions = udfm_conditions(cell, stage_idx, defect);
                    // Syndrome-free defects (rail fights, redundant-path
                    // opens) only become DFM-flagged in cells with stacked/
                    // parallel transistor structures — the simple cells'
                    // single-row layouts have no such hotspots. This is
                    // what confines the undetectable faults to the
                    // complex-cell-rich areas (Section II) and lets the
                    // resynthesis procedure remove them by rebuilding those
                    // areas from simpler cells (Section III).
                    if conditions.is_empty() && cell.transistors < SYNDROME_FREE_MIN_TRANSISTORS {
                        continue;
                    }
                    let h = defect_hash(&cell.name, stage_idx, defect);
                    if h % 10 >= dfm_site_keep_of_10(cell.transistors) {
                        continue; // site does not violate any DFM guideline
                    }
                    // Internal defects map onto Via/Metal guidelines (ids
                    // 0..48 in the standard set).
                    let guideline = (h / 10 % 48) as u16;
                    defects.push(InternalDefect {
                        stage: stage_idx,
                        defect,
                        conditions,
                        guideline,
                    });
                }
            }
            per_cell.push(defects);
        }
        Self { per_cell }
    }

    /// The internal defects of one cell type.
    pub fn defects(&self, cell: CellId) -> &[InternalDefect] {
        &self.per_cell[cell.index()]
    }

    /// The paper's per-cell internal fault count (drives the resynthesis
    /// cell ordering).
    pub fn internal_fault_count(&self, cell: CellId) -> usize {
        self.per_cell[cell.index()].len()
    }

    /// Number of the cell's internal defects with **no** logic-level
    /// syndrome (undetectable by construction wherever flagged). Used as
    /// the paper's quick pre-`PDesign()` check: physical design is only
    /// re-run when the number of undetectable internal faults decreases.
    pub fn syndrome_free_count(&self, cell: CellId) -> usize {
        self.per_cell[cell.index()].iter().filter(|d| d.conditions.is_empty()).count()
    }

    /// Cell ids sorted by decreasing internal fault count (ties broken by
    /// cell index for determinism) — the order `cell_0, cell_1, …` of
    /// Section III-B.
    pub fn cells_by_internal_faults(&self, lib: &Library) -> Vec<CellId> {
        let mut ids: Vec<CellId> = lib.iter().map(|(id, _)| id).collect();
        ids.sort_by_key(|&id| (std::cmp::Reverse(self.internal_fault_count(id)), id.index()));
        ids
    }

    /// Instantiates internal faults for every live combinational gate of a
    /// netlist (every instance of a cell carries the same internal faults).
    pub fn instance_faults(&self, nl: &Netlist) -> Vec<Fault> {
        // Sized up front: see [`crate::extraction_list`].
        let count = nl.gates().map(|(_, gate)| self.per_cell[gate.cell.index()].len()).sum();
        let mut out = Vec::with_capacity(count);
        for (gid, gate) in nl.gates() {
            for d in &self.per_cell[gate.cell.index()] {
                out.push(Fault::internal(gid, d.conditions.clone(), d.guideline));
            }
        }
        out
    }
}

/// Simulates one defect against every input pattern of the cell.
fn udfm_conditions(
    cell: &rsyn_netlist::Cell,
    stage: usize,
    defect: StageDefect,
) -> Vec<CellCondition> {
    let n = cell.input_count();
    let mut conditions = Vec::new();
    for pattern in 0..(1u64 << n) {
        let faulty_nodes = cell.switch_eval(pattern, stage, defect);
        for (k, out) in cell.outputs.iter().enumerate() {
            let good = out.function.eval(pattern);
            let faulty = faulty_nodes[out.stage as usize];
            if good != faulty {
                conditions.push(CellCondition { pattern, output: k as u8 });
            }
        }
    }
    conditions
}

/// Deterministic FNV-1a hash of a defect identity.
fn defect_hash(cell_name: &str, stage: usize, defect: StageDefect) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for b in cell_name.bytes() {
        eat(b);
    }
    eat(stage as u8);
    match defect {
        StageDefect::None => eat(0),
        StageDefect::Open(side, id) => {
            eat(1);
            eat(matches!(side, NetworkSide::Pullup) as u8);
            eat(id as u8);
            eat((id >> 8) as u8);
        }
        StageDefect::Shorted(side, id) => {
            eat(2);
            eat(matches!(side, NetworkSide::Pullup) as u8);
            eat(id as u8);
            eat((id >> 8) as u8);
        }
        StageDefect::OutputToGnd => eat(3),
        StageDefect::OutputToVdd => eat(4),
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsyn_netlist::Library;

    #[test]
    fn bigger_cells_have_more_internal_faults() {
        let lib = Library::osu018();
        let cat = InternalCatalog::build(&lib);
        let count = |name: &str| cat.internal_fault_count(lib.cell_id(name).unwrap());
        assert!(
            count("FAX1") > count("AOI22X1"),
            "FAX1 {} vs AOI22 {}",
            count("FAX1"),
            count("AOI22X1")
        );
        assert!(count("AOI22X1") > count("INVX1"));
        assert!(count("NAND2X1") > 0);
    }

    #[test]
    fn flop_has_no_internal_faults() {
        let lib = Library::osu018();
        let cat = InternalCatalog::build(&lib);
        assert_eq!(cat.internal_fault_count(lib.flop_id().unwrap()), 0);
    }

    #[test]
    fn ordering_starts_with_the_largest_cell() {
        let lib = Library::osu018();
        let cat = InternalCatalog::build(&lib);
        let order = cat.cells_by_internal_faults(&lib);
        assert_eq!(lib.cell(order[0]).name, "FAX1");
        // Counts are non-increasing along the order.
        let counts: Vec<usize> = order.iter().map(|&id| cat.internal_fault_count(id)).collect();
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn some_defects_are_undetectable_by_construction() {
        // The paper's key phenomenon: a fraction of each cell's internal
        // faults has no logic-level syndrome at all (empty conditions).
        let lib = Library::osu018();
        let cat = InternalCatalog::build(&lib);
        let xor = lib.cell_id("XOR2X1").unwrap();
        let empty = cat.syndrome_free_count(xor);
        let total = cat.defects(xor).len();
        assert!(empty > 0, "XOR2 has rail-fight defects with no syndrome");
        assert!(empty < total, "but not all defects are syndrome-free");
        // Static CMOS cells below the pass-gate threshold carry none.
        let aoi = lib.cell_id("AOI22X1").unwrap();
        assert_eq!(cat.syndrome_free_count(aoi), 0, "AOI22 layouts are clean");
        // Complex cells carry disproportionately many syndrome-free faults,
        // which is what makes the resynthesis replacement profitable.
        let fax = lib.cell_id("FAX1").unwrap();
        let nand = lib.cell_id("NAND2X1").unwrap();
        assert!(
            cat.syndrome_free_count(fax) > 3 * cat.syndrome_free_count(nand).max(1),
            "FAX1 {} vs NAND2 {}",
            cat.syndrome_free_count(fax),
            cat.syndrome_free_count(nand)
        );
    }

    #[test]
    fn conditions_are_real_flips() {
        // Every condition must describe an actual good/faulty mismatch.
        let lib = Library::osu018();
        let cat = InternalCatalog::build(&lib);
        for (id, cell) in lib.iter() {
            for d in cat.defects(id) {
                for c in &d.conditions {
                    let nodes = cell.switch_eval(c.pattern, d.stage, d.defect);
                    let out = &cell.outputs[c.output as usize];
                    assert_ne!(
                        nodes[out.stage as usize],
                        out.function.eval(c.pattern),
                        "cell {} defect {:?} condition {:?}",
                        cell.name,
                        d.defect,
                        c
                    );
                }
            }
        }
    }

    #[test]
    fn instance_faults_scale_with_gate_count() {
        let lib = Library::osu018();
        let cat = InternalCatalog::build(&lib);
        let mut nl = Netlist::new("t", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y1 = nl.add_net();
        let y2 = nl.add_net();
        let nand = lib.cell_id("NAND2X1").unwrap();
        nl.add_gate("g0", nand, &[a, b], &[y1]).unwrap();
        nl.add_gate("g1", nand, &[a, y1], &[y2]).unwrap();
        nl.mark_output(y2);
        let faults = cat.instance_faults(&nl);
        assert_eq!(faults.len(), 2 * cat.internal_fault_count(nand));
        assert!(faults.iter().all(Fault::is_internal));
    }

    #[test]
    fn catalog_is_deterministic() {
        let lib = Library::osu018();
        let a = InternalCatalog::build(&lib);
        let b = InternalCatalog::build(&lib);
        for (id, _) in lib.iter() {
            assert_eq!(a.defects(id), b.defects(id));
        }
    }
}
