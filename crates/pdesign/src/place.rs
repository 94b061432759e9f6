//! Placement: topological seeding, seeded local refinement, and incremental
//! re-placement for resynthesized windows inside the fixed floorplan.

use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsyn_netlist::{Driver, GateId, NetId, Netlist};

use crate::floorplan::{Floorplan, ROW_HEIGHT_UM, SITE_WIDTH_UM};

/// Placement failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlaceError {
    /// The cells do not fit the fixed floorplan (die area is a hard
    /// constraint in the paper).
    AreaExceeded {
        /// Sites required by the unplaced gates.
        needed_sites: usize,
        /// Free sites remaining.
        free_sites: usize,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::AreaExceeded { needed_sites, free_sites } => write!(
                f,
                "placement needs {needed_sites} sites but only {free_sites} remain in the fixed floorplan"
            ),
        }
    }
}

impl Error for PlaceError {}

/// A (row, site, width) slot for one gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Placement row.
    pub row: u32,
    /// First site occupied.
    pub site: u32,
    /// Width in sites.
    pub width: u32,
}

/// A placement of a netlist into a floorplan.
#[derive(Clone, Debug)]
pub struct Placement {
    fp: Floorplan,
    /// Indexed by gate arena index.
    slots: Vec<Option<Slot>>,
}

fn gate_width_sites(nl: &Netlist, g: GateId) -> u32 {
    let cell = nl.lib().cell(nl.gate(g).expect("live gate").cell);
    (cell.area / (SITE_WIDTH_UM * ROW_HEIGHT_UM)).round().max(1.0) as u32
}

/// Sites the gates of `nl` without a slot in `placement` need.
fn unplaced_sites(nl: &Netlist, placement: &Placement) -> usize {
    nl.gates()
        .map(|(g, _)| g)
        .filter(|&g| placement.slot(g).is_none())
        .map(|g| gate_width_sites(nl, g) as usize)
        .sum()
}

impl Placement {
    /// Performs global placement of all gates of `nl` into `fp`.
    ///
    /// Gates are seeded in combinational topological order (which keeps
    /// connected gates close) and refined by seeded random swap moves that
    /// accept wirelength improvements.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::AreaExceeded`] if the netlist does not fit.
    pub fn global(nl: &Netlist, fp: Floorplan, seed: u64) -> Result<Self, PlaceError> {
        let mut placement = Self { fp, slots: vec![None; nl.gate_capacity()] };
        // Topological order (combinational), then flops.
        let view = nl.comb_view().expect("acyclic netlist");
        let mut order: Vec<GateId> = view.order.clone();
        order.extend(nl.flops());
        placement.seed_rows(nl, &order)?;
        placement.refine(nl, seed, 4 * order.len());
        Ok(placement)
    }

    /// Creates an empty placement for incremental use.
    pub fn empty(fp: Floorplan, gate_capacity: usize) -> Self {
        Self { fp, slots: vec![None; gate_capacity] }
    }

    /// The floorplan.
    pub fn floorplan(&self) -> Floorplan {
        self.fp
    }

    /// The slot of a gate, if placed.
    pub fn slot(&self, g: GateId) -> Option<Slot> {
        self.slots.get(g.index()).copied().flatten()
    }

    /// Center coordinates (µm) of a placed gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate is not placed.
    pub fn gate_center(&self, g: GateId) -> (f64, f64) {
        let s = self.slot(g).expect("gate is placed");
        (
            (s.site as f64 + s.width as f64 / 2.0) * SITE_WIDTH_UM,
            s.row as f64 * ROW_HEIGHT_UM + ROW_HEIGHT_UM / 2.0,
        )
    }

    fn seed_rows(&mut self, nl: &Netlist, order: &[GateId]) -> Result<(), PlaceError> {
        // Spread free space evenly across rows (each row is filled only up
        // to its share of the total cell area) so that incremental
        // re-placement after resynthesis finds gaps *near* the replaced
        // logic instead of at the die edge.
        let total: usize = order.iter().map(|&g| gate_width_sites(nl, g) as usize).sum();
        let per_row = (total.div_ceil(self.fp.rows.max(1))).min(self.fp.sites_per_row);
        let mut row = 0usize;
        let mut site = 0usize;
        let mut reverse = false;
        for &g in order {
            let w = gate_width_sites(nl, g) as usize;
            if site + w > self.fp.sites_per_row || (site >= per_row && row + 1 < self.fp.rows) {
                row += 1;
                site = 0;
                reverse = !reverse;
            }
            // Out of rows, or a cell wider than a row, which fits in none.
            if row >= self.fp.rows || w > self.fp.sites_per_row {
                let needed: usize = order
                    .iter()
                    .filter(|&&g| self.slots[g.index()].is_none())
                    .map(|&g| gate_width_sites(nl, g) as usize)
                    .sum();
                return Err(PlaceError::AreaExceeded { needed_sites: needed, free_sites: 0 });
            }
            // Boustrophedon: odd rows fill right-to-left for locality.
            let start = if reverse { self.fp.sites_per_row - site - w } else { site };
            self.slots[g.index()] =
                Some(Slot { row: row as u32, site: start as u32, width: w as u32 });
            site += w;
        }
        Ok(())
    }

    /// Seeded local refinement: random equal-width swaps accepted when the
    /// half-perimeter wirelength of affected nets improves.
    fn refine(&mut self, nl: &Netlist, seed: u64, moves: usize) {
        let live: Vec<GateId> = nl.gates().map(|(id, _)| id).collect();
        if live.len() < 2 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..moves {
            let a = live[rng.gen_range(0..live.len())];
            let b = live[rng.gen_range(0..live.len())];
            if a == b {
                continue;
            }
            let (sa, sb) = match (self.slot(a), self.slot(b)) {
                (Some(sa), Some(sb)) if sa.width == sb.width => (sa, sb),
                _ => continue,
            };
            let nets = affected_nets(nl, a, b);
            let before: f64 = nets.iter().map(|&n| self.net_hpwl(nl, n)).sum();
            self.slots[a.index()] = Some(Slot { row: sb.row, site: sb.site, width: sa.width });
            self.slots[b.index()] = Some(Slot { row: sa.row, site: sa.site, width: sb.width });
            let after: f64 = nets.iter().map(|&n| self.net_hpwl(nl, n)).sum();
            if after > before {
                // revert
                self.slots[a.index()] = Some(sa);
                self.slots[b.index()] = Some(sb);
            }
        }
    }

    /// Half-perimeter wirelength of one net in µm (0 for unplaced/boundary
    /// nets with fewer than two placed pins).
    pub fn net_hpwl(&self, nl: &Netlist, net: NetId) -> f64 {
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        let mut pins = 0usize;
        let mut add = |x: f64, y: f64, pins: &mut usize| {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
            *pins += 1;
        };
        if let Some(Driver::Gate(g, _)) = nl.net(net).driver {
            if self.slot(g).is_some() {
                let (x, y) = self.gate_center(g);
                add(x, y, &mut pins);
            }
        }
        for &(g, _) in &nl.net(net).loads {
            if self.slot(g).is_some() {
                let (x, y) = self.gate_center(g);
                add(x, y, &mut pins);
            }
        }
        if pins < 2 {
            return 0.0;
        }
        (max_x - min_x) + (max_y - min_y)
    }

    /// Total half-perimeter wirelength in µm.
    pub fn total_hpwl(&self, nl: &Netlist) -> f64 {
        nl.nets().map(|(id, _)| self.net_hpwl(nl, id)).sum()
    }

    /// Synchronises with the netlist after resynthesis: slots of removed
    /// gates are freed and gates without slots are placed into free gaps
    /// near the centroid of their placed neighbours.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::AreaExceeded`] if a new gate does not fit,
    /// reporting the sites every gate still unplaced needs; the placement
    /// is left partially updated (callers snapshot before trying).
    pub fn sync(&mut self, nl: &Netlist) -> Result<(), PlaceError> {
        self.slots.resize(nl.gate_capacity(), None);
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.is_some() && nl.gate(GateId::from_index(i)).is_none() {
                *slot = None;
            }
        }
        // Occupancy grid.
        let mut occ = vec![vec![false; self.fp.sites_per_row]; self.fp.rows];
        for slot in self.slots.iter().flatten() {
            for s in slot.site..slot.site + slot.width {
                occ[slot.row as usize][s as usize] = true;
            }
        }
        // Place new gates in topological-ish (id) order.
        let unplaced: Vec<GateId> =
            nl.gates().map(|(id, _)| id).filter(|&id| self.slots[id.index()].is_none()).collect();
        for g in unplaced {
            let w = gate_width_sites(nl, g) as usize;
            let centroid = self.neighbor_centroid(nl, g);
            let slot = self.find_gap(&occ, w, centroid).ok_or_else(|| {
                let free = occ.iter().flatten().filter(|&&o| !o).count();
                PlaceError::AreaExceeded {
                    needed_sites: unplaced_sites(nl, self),
                    free_sites: free,
                }
            })?;
            for s in slot.site..slot.site + slot.width {
                occ[slot.row as usize][s as usize] = true;
            }
            self.slots[g.index()] = Some(slot);
        }
        Ok(())
    }

    fn neighbor_centroid(&self, nl: &Netlist, g: GateId) -> (f64, f64) {
        let mut sx = 0.0;
        let mut sy = 0.0;
        let mut n = 0usize;
        for peer in nl.fanin_gates(g).into_iter().chain(nl.fanout_gates(g)) {
            if self.slot(peer).is_some() {
                let (x, y) = self.gate_center(peer);
                sx += x;
                sy += y;
                n += 1;
            }
        }
        if n == 0 {
            (self.fp.width_um() / 2.0, self.fp.height_um() / 2.0)
        } else {
            (sx / n as f64, sy / n as f64)
        }
    }

    fn find_gap(&self, occ: &[Vec<bool>], width: usize, centroid: (f64, f64)) -> Option<Slot> {
        let mut best: Option<(f64, Slot)> = None;
        for (row, sites) in occ.iter().enumerate() {
            let y = row as f64 * ROW_HEIGHT_UM + ROW_HEIGHT_UM / 2.0;
            let mut run_start = None;
            for s in 0..=sites.len() {
                let free = s < sites.len() && !sites[s];
                match (free, run_start) {
                    (true, None) => run_start = Some(s),
                    (false, Some(start)) => {
                        if s - start >= width {
                            // Position within the run closest to the centroid.
                            let cx_site =
                                (centroid.0 / SITE_WIDTH_UM - width as f64 / 2.0).round() as i64;
                            let lo = start as i64;
                            let hi = (s - width) as i64;
                            let pos = cx_site.clamp(lo, hi) as usize;
                            let x = (pos as f64 + width as f64 / 2.0) * SITE_WIDTH_UM;
                            let cost = (x - centroid.0).abs() + (y - centroid.1).abs();
                            let slot =
                                Slot { row: row as u32, site: pos as u32, width: width as u32 };
                            if best.as_ref().map_or(true, |(c, _)| cost < *c) {
                                best = Some((cost, slot));
                            }
                        }
                        run_start = None;
                    }
                    _ => {}
                }
            }
        }
        best.map(|(_, s)| s)
    }
}

fn affected_nets(nl: &Netlist, a: GateId, b: GateId) -> Vec<NetId> {
    let mut nets = Vec::new();
    for g in [a, b] {
        if let Some(gate) = nl.gate(g) {
            for &n in gate.inputs.iter().chain(gate.outputs.iter()) {
                if !nets.contains(&n) {
                    nets.push(n);
                }
            }
        }
    }
    nets
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsyn_netlist::Library;

    fn chain(n: usize) -> Netlist {
        let lib = Library::osu018();
        let mut nl = Netlist::new("chain", lib.clone());
        let mut prev = nl.add_input("a");
        let inv = lib.cell_id("INVX1").unwrap();
        for i in 0..n {
            let next = nl.add_net();
            nl.add_gate(format!("g{i}"), inv, &[prev], &[next]).unwrap();
            prev = next;
        }
        nl.mark_output(prev);
        nl
    }

    #[test]
    fn global_placement_places_all_gates() {
        let nl = chain(50);
        let fp = Floorplan::for_cell_area(nl.total_area(), 0.7);
        let p = Placement::global(&nl, fp, 1).unwrap();
        for (id, _) in nl.gates() {
            assert!(p.slot(id).is_some(), "gate {id} unplaced");
        }
    }

    #[test]
    fn no_overlaps_after_refinement() {
        let nl = chain(80);
        let fp = Floorplan::for_cell_area(nl.total_area(), 0.7);
        let p = Placement::global(&nl, fp, 7).unwrap();
        let mut occ = vec![vec![false; fp.sites_per_row]; fp.rows];
        for (id, _) in nl.gates() {
            let s = p.slot(id).unwrap();
            for x in s.site..s.site + s.width {
                assert!(!occ[s.row as usize][x as usize], "overlap at ({}, {x})", s.row);
                occ[s.row as usize][x as usize] = true;
            }
        }
    }

    #[test]
    fn refinement_does_not_worsen_hpwl() {
        let nl = chain(60);
        let fp = Floorplan::for_cell_area(nl.total_area(), 0.7);
        // seed_rows only (no refinement) via a placement we refine manually:
        let view = nl.comb_view().unwrap();
        let order: Vec<GateId> = view.order.clone();
        let mut p0 = Placement::empty(fp, nl.gate_capacity());
        p0.seed_rows(&nl, &order).unwrap();
        let before = p0.total_hpwl(&nl);
        let mut p1 = p0.clone();
        p1.refine(&nl, 3, 500);
        let after = p1.total_hpwl(&nl);
        assert!(after <= before + 1e-9, "refine must not worsen: {before} -> {after}");
    }

    #[test]
    fn area_exceeded_is_reported() {
        let nl = chain(100);
        // Deliberately tiny floorplan.
        let fp = Floorplan::for_cell_area(nl.total_area() / 20.0, 0.7);
        let err = Placement::global(&nl, fp, 1).unwrap_err();
        assert!(matches!(err, PlaceError::AreaExceeded { .. }));
    }

    #[test]
    fn a_cell_wider_than_a_row_fits_no_row() {
        let lib = Library::osu018();
        let mut nl = Netlist::new("wide", lib.clone());
        let a = nl.add_input("a");
        let (s, c) = (nl.add_net(), nl.add_net());
        let fa = nl.add_gate("fa", lib.cell_id("FAX1").unwrap(), &[a, a, a], &[s, c]).unwrap();
        nl.mark_output(s);
        let width = gate_width_sites(&nl, fa) as usize;
        let fp = Floorplan { rows: 4, sites_per_row: width - 1, utilization: 0.7 };
        let err = Placement::global(&nl, fp, 1).unwrap_err();
        assert_eq!(err, PlaceError::AreaExceeded { needed_sites: width, free_sites: 0 });
    }

    #[test]
    fn sync_places_new_gates_near_neighbors() {
        let mut nl = chain(30);
        let fp = Floorplan::for_cell_area(nl.total_area() * 1.5, 0.7);
        let mut p = Placement::global(&nl, fp, 1).unwrap();
        // Remove one gate and insert a replacement driving the same net.
        let g10 = nl.find_gate("g10").unwrap();
        let old = nl.gate(g10).unwrap().clone();
        nl.remove_gate(g10);
        let buf = nl.lib().cell_id("BUFX2").unwrap();
        let g_new = nl.add_gate("rep", buf, &[old.inputs[0]], &[old.outputs[0]]).unwrap();
        p.sync(&nl).unwrap();
        assert!(p.slot(g_new).is_some());
        // New gate should sit near its neighbours (same region, within 40 µm).
        let g9 = nl.find_gate("g9").unwrap();
        let (nx, ny) = p.gate_center(g_new);
        let (ox, oy) = p.gate_center(g9);
        assert!((nx - ox).abs() + (ny - oy).abs() < 60.0, "placed too far: {nx},{ny} vs {ox},{oy}");
    }

    #[test]
    fn sync_fails_when_floorplan_is_full() {
        let mut nl = chain(40);
        let fp = Floorplan::for_cell_area(nl.total_area(), 0.95);
        let mut p = Placement::global(&nl, fp, 1).unwrap();
        // Add many wide gates without removing anything.
        let fax = nl.lib().cell_id("FAX1").unwrap();
        let a = nl.find_net("a").unwrap();
        let mut err = None;
        for i in 0..40 {
            let s = nl.add_net();
            let c = nl.add_net();
            nl.add_gate(format!("fa{i}"), fax, &[a, a, a], &[s, c]).unwrap();
            if let Err(e) = p.sync(&nl) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(err, Some(PlaceError::AreaExceeded { .. })));
    }

    /// A rejection reports the sites every still-unplaced gate needs.
    #[test]
    fn sync_reports_the_sites_all_unplaced_gates_need() {
        let mut nl = chain(40);
        let fp = Floorplan::for_cell_area(nl.total_area(), 0.7);
        let mut p = Placement::global(&nl, fp, 1).unwrap();
        let used: usize = nl.gates().map(|(g, _)| gate_width_sites(&nl, g) as usize).sum();
        let free = fp.rows * fp.sites_per_row - used;
        // One-site inverters, ten more than the free sites hold: no gap is
        // too narrow, so the floorplan overflows by exactly ten sites.
        let inv = nl.lib().cell_id("INVX1").unwrap();
        let a = nl.find_net("a").unwrap();
        for i in 0..free + 10 {
            let y = nl.add_net();
            let g = nl.add_gate(format!("extra{i}"), inv, &[a], &[y]).unwrap();
            assert_eq!(gate_width_sites(&nl, g), 1);
        }
        assert_eq!(unplaced_sites(&nl, &p), free + 10);
        let err = p.sync(&nl).unwrap_err();
        assert_eq!(err, PlaceError::AreaExceeded { needed_sites: 10, free_sites: 0 });
    }
}
