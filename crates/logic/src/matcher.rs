//! Exhaustive boolean matching of cut functions against library cells.
//!
//! For every single-output combinational cell with up to four inputs, every
//! surjective pin→leaf assignment (including repeated leaves — how AOI22
//! realises a mux or an XOR) and every input-phase mask is enumerated; the
//! resulting function is indexed in a hash table keyed by (leaf count,
//! truth table). The dual-polarity mapper looks functions up in both
//! polarities, so inverting cells cover complemented uses for free.

use std::collections::HashMap;

use rsyn_netlist::{CellClass, CellId, Library, TruthTable};

/// One way of realising a function with a library cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellMatch {
    /// The cell to instantiate.
    pub cell: CellId,
    /// `pins[j]` = cut-leaf index feeding cell input pin `j`.
    pub pins: Vec<u8>,
    /// Bit `j` set = cell input pin `j` takes the complemented leaf signal
    /// (requires an inverter on that input).
    pub inv_mask: u8,
    /// Cell area (copied for fast cost computation).
    pub area: f64,
    /// Cell intrinsic delay (copied).
    pub intrinsic_delay: f64,
    /// Cell delay slope (copied).
    pub delay_slope: f64,
}

impl CellMatch {
    /// Number of input inverters this match requires.
    pub fn input_inverters(&self) -> u32 {
        self.inv_mask.count_ones()
    }
}

/// The precomputed match table for one library.
#[derive(Debug)]
pub struct MatchTable {
    /// function (input count, bits) → matches
    table: HashMap<(u8, u64), Vec<CellMatch>>,
    /// Cheapest inverting 1-input cell (no phases), per cell id, sorted by
    /// area: used both for phase inverters and completeness checks.
    inverters: Vec<CellId>,
    /// Cheapest non-inverting 1-input cell ids, sorted by area.
    buffers: Vec<CellId>,
    cell_count: usize,
}

impl MatchTable {
    /// Builds the table for all matchable cells of a library.
    pub fn build(lib: &Library) -> Self {
        let mut table: HashMap<(u8, u64), Vec<CellMatch>> = HashMap::new();
        let mut inverters: Vec<CellId> = Vec::new();
        let mut buffers: Vec<CellId> = Vec::new();
        for (id, cell) in lib.iter() {
            if cell.class != CellClass::Comb || cell.output_count() != 1 {
                continue;
            }
            let n = cell.input_count();
            if n == 0 || n > 4 {
                continue;
            }
            let f = cell.outputs[0].function;
            if n == 1 {
                if f == TruthTable::var(1, 0).not() {
                    inverters.push(id);
                } else if f == TruthTable::var(1, 0) {
                    buffers.push(id);
                }
            }
            // Enumerate every surjective pin→leaf assignment over 1..=n
            // leaves, not just permutations: assigning one leaf to several
            // pins (with phases) is how a 4-input AOI22 realises 3-input
            // functions like a 2:1 mux — `AOI22(s, b, s̄, a)` — or a 2-input
            // XOR — `AOI22(a, b, ā, b̄)`.
            for k in 1..=n {
                for pins in surjective_assignments(n, k) {
                    for inv_mask in 0..(1u8 << n) {
                        let g = apply_assignment_k(f, &pins, inv_mask, k);
                        let entry = table.entry((k as u8, g.bits())).or_default();
                        let m = CellMatch {
                            cell: id,
                            pins: pins.clone(),
                            inv_mask,
                            area: cell.area,
                            intrinsic_delay: cell.intrinsic_delay,
                            delay_slope: cell.delay_slope,
                        };
                        if !entry.iter().any(|e| {
                            e.cell == m.cell && e.pins == m.pins && e.inv_mask == m.inv_mask
                        }) {
                            entry.push(m);
                        }
                    }
                }
            }
        }
        let area = |lib: &Library, id: &CellId| lib.cell(*id).area;
        inverters.sort_by(|a, b| area(lib, a).total_cmp(&area(lib, b)));
        buffers.sort_by(|a, b| area(lib, a).total_cmp(&area(lib, b)));
        Self { table, inverters, buffers, cell_count: lib.len() }
    }

    /// Direct matches for a function (same polarity).
    pub fn matches(&self, f: TruthTable) -> &[CellMatch] {
        self.table.get(&(f.input_count() as u8, f.bits())).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The cheapest allowed inverter cell, if any (must not need phases).
    pub fn inverter(&self, allowed: &[bool]) -> Option<CellId> {
        self.inverters.iter().copied().find(|id| allowed[id.index()])
    }

    /// The cheapest allowed buffer cell, if any.
    pub fn buffer(&self, allowed: &[bool]) -> Option<CellId> {
        self.buffers.iter().copied().find(|id| allowed[id.index()])
    }

    /// Expected length of an `allowed` mask.
    pub fn cell_count(&self) -> usize {
        self.cell_count
    }

    /// Whether the allowed subset is functionally complete for mapping:
    /// an inverter plus a two-input AND realisable without input phases
    /// beyond what that inverter can provide.
    pub fn is_complete(&self, allowed: &[bool]) -> bool {
        let Some(_) = self.inverter(allowed) else {
            return false;
        };
        let and2 = TruthTable::new(2, 0b1000);
        let ok = |f: TruthTable| self.matches(f).iter().any(|m| allowed[m.cell.index()]);
        ok(and2) || ok(and2.not())
    }
}

/// All pin→leaf assignments of `n` pins onto exactly `k` leaves (every leaf
/// used at least once).
fn surjective_assignments(n: usize, k: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut pins = vec![0u8; n];
    loop {
        // Surjectivity check.
        let mut used = vec![false; k];
        for &p in &pins {
            used[p as usize] = true;
        }
        if used.iter().all(|&u| u) {
            out.push(pins.clone());
        }
        // Odometer increment in base k.
        let mut j = 0;
        loop {
            if j == n {
                return out;
            }
            pins[j] += 1;
            if (pins[j] as usize) < k {
                break;
            }
            pins[j] = 0;
            j += 1;
        }
    }
}

/// Computes `g(x) = cell(y)` over `k` leaves with `y_j = x[pins[j]] ^ inv_j`.
fn apply_assignment_k(cell_f: TruthTable, pins: &[u8], inv_mask: u8, k: usize) -> TruthTable {
    let mut bits = 0u64;
    for x in 0..(1u64 << k) {
        let mut y = 0u64;
        for (j, &p) in pins.iter().enumerate() {
            let v = ((x >> p) & 1 == 1) ^ ((inv_mask >> j) & 1 == 1);
            if v {
                y |= 1 << j;
            }
        }
        if cell_f.eval(y) {
            bits |= 1 << x;
        }
    }
    TruthTable::new(k, bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsyn_netlist::Library;

    fn all_allowed(lib: &Library) -> Vec<bool> {
        vec![true; lib.len()]
    }

    #[test]
    fn and2_matches_and_cell_directly() {
        let lib = Library::osu018();
        let table = MatchTable::build(&lib);
        let and2 = TruthTable::new(2, 0b1000);
        let ms = table.matches(and2);
        assert!(
            ms.iter().any(|m| lib.cell(m.cell).name == "AND2X2" && m.inv_mask == 0),
            "AND2X2 should match a&b without phases"
        );
        // NAND2 matches the complement...
        let nand = table.matches(and2.not());
        assert!(nand.iter().any(|m| lib.cell(m.cell).name == "NAND2X1" && m.inv_mask == 0));
        // ...and a&b itself via NOR2 with both inputs inverted.
        assert!(ms.iter().any(|m| lib.cell(m.cell).name == "NOR2X1" && m.inv_mask == 0b11));
    }

    #[test]
    fn a_and_not_b_matches_with_phase() {
        let lib = Library::osu018();
        let table = MatchTable::build(&lib);
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let f = TruthTable::new(2, a.bits() & !b.bits());
        let ms = table.matches(f);
        assert!(!ms.is_empty(), "a&!b should be matchable");
        // NOR2 with only A inverted computes !(!a | b) = a & !b.
        assert!(ms.iter().any(|m| lib.cell(m.cell).name == "NOR2X1" && m.input_inverters() == 1));
    }

    #[test]
    fn aoi22_function_matches() {
        let lib = Library::osu018();
        let table = MatchTable::build(&lib);
        let v = |i| TruthTable::var(4, i);
        let f = TruthTable::new(4, !((v(0).bits() & v(1).bits()) | (v(2).bits() & v(3).bits())));
        let ms = table.matches(f);
        assert!(ms.iter().any(|m| lib.cell(m.cell).name == "AOI22X1" && m.inv_mask == 0));
    }

    #[test]
    fn matched_function_is_consistent() {
        // Every entry in the table must actually compute its key function.
        let lib = Library::osu018();
        let table = MatchTable::build(&lib);
        let mut checked = 0;
        for ((k, bits), ms) in table.table.iter() {
            let f = TruthTable::new(*k as usize, *bits);
            for m in ms {
                let cell = lib.cell(m.cell);
                let g =
                    apply_assignment_k(cell.outputs[0].function, &m.pins, m.inv_mask, *k as usize);
                assert_eq!(g, f, "cell {} pins {:?} inv {:#b}", cell.name, m.pins, m.inv_mask);
                checked += 1;
            }
        }
        assert!(checked > 100, "table should be substantial, checked {checked}");
    }

    #[test]
    fn full_library_is_complete() {
        let lib = Library::osu018();
        let table = MatchTable::build(&lib);
        assert!(table.is_complete(&all_allowed(&lib)));
    }

    #[test]
    fn library_without_inverter_is_incomplete() {
        let lib = Library::osu018();
        let table = MatchTable::build(&lib);
        let mut allowed = all_allowed(&lib);
        for name in ["INVX1", "INVX2", "INVX4", "INVX8"] {
            allowed[lib.cell_id(name).unwrap().index()] = false;
        }
        assert!(!table.is_complete(&allowed));
    }

    #[test]
    fn nand2_and_inv_alone_are_complete() {
        let lib = Library::osu018();
        let table = MatchTable::build(&lib);
        let mut allowed = vec![false; lib.len()];
        allowed[lib.cell_id("NAND2X1").unwrap().index()] = true;
        allowed[lib.cell_id("INVX1").unwrap().index()] = true;
        assert!(table.is_complete(&allowed));
    }

    #[test]
    fn repeated_leaf_matches_exist() {
        // 2:1 mux as a single AOI22 with a repeated select leaf, and XOR as
        // a single AOI22 with both leaves repeated.
        let lib = Library::osu018();
        let table = MatchTable::build(&lib);
        let s = TruthTable::var(3, 2);
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let mux = TruthTable::new(3, (s.bits() & b.bits()) | (!s.bits() & a.bits()));
        assert!(
            table.matches(mux.not()).iter().any(|m| lib.cell(m.cell).name == "AOI22X1"),
            "inverted mux should match AOI22 with a repeated select input"
        );
        let xor = TruthTable::new(2, 0b0110);
        assert!(
            table.matches(xor).iter().any(|m| lib.cell(m.cell).name == "AOI22X1"),
            "xor should match AOI22 with repeated complemented leaves"
        );
    }

    #[test]
    fn inverter_picks_cheapest_allowed() {
        let lib = Library::osu018();
        let table = MatchTable::build(&lib);
        let mut allowed = all_allowed(&lib);
        let inv = table.inverter(&allowed).unwrap();
        assert_eq!(lib.cell(inv).name, "INVX1");
        allowed[inv.index()] = false;
        let inv2 = table.inverter(&allowed).unwrap();
        assert_eq!(lib.cell(inv2).name, "INVX2");
    }
}
