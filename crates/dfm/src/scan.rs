//! Geometric scanning of a routed layout against the DFM guideline set.
//!
//! This stands in for the commercial verification/sign-off package the
//! paper uses: each guideline's rule is checked over the layout database
//! and every match becomes a [`Violation`] anchored to the layout objects
//! involved (which the translation step turns into logic faults).
//!
//! A deck grades each rule kind in tiers that differ only in a threshold,
//! so the scan measures each kind's geometric relations once — at the
//! loosest threshold of the tiers that enumerate them in the same order —
//! and every guideline then emits, in deck order, the measured relations
//! that pass its own threshold. The violation list is the one a separate
//! query per guideline would produce, order included.

use std::collections::HashMap;
use std::ops::Range;

use rsyn_netlist::NetId;
use rsyn_pdesign::{Layer, Layout, Point, Segment, Via};

use crate::guideline::{GuidelineRule, GuidelineSet};

/// Density window size used by the Density guidelines (µm).
pub const DENSITY_WINDOW_UM: f64 = 24.0;
/// Maximum nets attributed to one density-window violation.
const REGION_NET_CAP: usize = 6;
/// Grid cell of the via buckets (µm).
const VIA_CELL_UM: f64 = 3.0;

/// The layout object(s) a violation is anchored to, tagged with the defect
/// mechanism the guideline anticipates.
#[derive(Clone, Debug, PartialEq)]
pub enum ViolationTarget {
    /// Open risk on a single net (via/wire opens).
    NetOpen {
        /// The net at risk.
        net: NetId,
    },
    /// Short risk between two specific nets.
    NetPairShort {
        /// First net.
        a: NetId,
        /// Second net.
        b: NetId,
    },
    /// Open risk over all nets crossing a layout region.
    RegionOpen {
        /// Nets in the region (capped).
        nets: Vec<NetId>,
    },
    /// Short risk over all nets crossing a layout region.
    RegionShort {
        /// Nets in the region (capped).
        nets: Vec<NetId>,
    },
}

/// One DFM guideline violation.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The violated guideline's id.
    pub guideline: u16,
    /// The anchored layout objects.
    pub target: ViolationTarget,
}

/// Scans a layout against a guideline set.
pub fn scan_layout(layout: &Layout, guidelines: &GuidelineSet) -> Vec<Violation> {
    let vias: Vec<&Via> = layout.nets.iter().flat_map(|n| n.vias.iter()).collect();
    let segments: Vec<&Segment> = layout.nets.iter().flat_map(|n| n.segments.iter()).collect();
    let seg_h: Vec<&Segment> = segments.iter().copied().filter(|s| s.layer == Layer::M2).collect();
    let seg_v: Vec<&Segment> = segments.iter().copied().filter(|s| s.layer == Layer::M3).collect();
    let metal: Vec<&Segment> = seg_h.iter().chain(&seg_v).copied().collect();

    let plan = Plan::new(guidelines);
    let grid = ViaGrid::new(&vias);
    let via_pairs: Vec<_> =
        plan.via_pairs.iter().map(|&(r, d)| (r, measure_via_pairs(&vias, &grid, r, d))).collect();
    let end_of_line: Vec<_> = plan
        .end_of_line
        .iter()
        .map(|&(r, d)| (r, measure_end_of_line(&segments, &vias, &grid, r, d)))
        .collect();
    let via_metal =
        plan.via_metal.map_or_else(Vec::new, |d| measure_via_metal(&vias, &seg_h, &seg_v, d));
    let runs: Vec<_> = plan
        .runs
        .iter()
        .map(|&(width, space, overlap)| {
            let h = measure_parallel_runs(&seg_h, true, width, space, overlap);
            let v = measure_parallel_runs(&seg_v, false, width, space, overlap);
            (width, (h, v))
        })
        .collect();
    let density = plan.density.then(|| Density::new(layout));

    let mut out = crate::extraction_list();
    for g in guidelines.iter() {
        let id = g.id;
        let open = |net| Violation { guideline: id, target: ViolationTarget::NetOpen { net } };
        let short =
            |a, b| Violation { guideline: id, target: ViolationTarget::NetPairShort { a, b } };
        match g.rule {
            GuidelineRule::ViaSpacing { min_um } => {
                for p in group(&via_pairs, via_reach(min_um)) {
                    if p.dist < min_um && p.a != p.b {
                        out.push(short(p.a, p.b));
                    }
                }
            }
            GuidelineRule::SameNetViaSpacing { min_um } => {
                for p in group(&via_pairs, via_reach(min_um)) {
                    if p.dist < min_um && p.a == p.b {
                        out.push(open(p.a));
                    }
                }
            }
            GuidelineRule::RedundantVia { wirelength_per_via_um } => {
                for rn in &layout.nets {
                    let vias = rn.vias.len().max(1);
                    if rn.wirelength() / vias as f64 > wirelength_per_via_um {
                        out.push(open(rn.net));
                    }
                }
            }
            GuidelineRule::ViaMetalSpacing { min_um } => {
                for hit in &via_metal {
                    let (via, seg) = (vias[hit.via as usize], metal[hit.seg as usize]);
                    if hit.dist < min_um && near_metal(seg, via.at, min_um) {
                        out.push(short(via.net, seg.net));
                    }
                }
            }
            GuidelineRule::ParallelRun { min_space_um, min_overlap_um } => {
                let (h, v) = group(&runs, run_band_width(min_space_um));
                for r in h.iter().chain(v) {
                    if r.space >= min_space_um {
                        continue;
                    }
                    if r.overlap > min_overlap_um {
                        out.push(short(r.a, r.b));
                    }
                }
            }
            GuidelineRule::LongWire { max_len_um } => {
                for seg in &segments {
                    if seg.length() > max_len_um {
                        out.push(open(seg.net));
                    }
                }
            }
            GuidelineRule::Jog { max_len_um } => {
                for rn in &layout.nets {
                    if rn.segments.len() > 2 {
                        for seg in &rn.segments {
                            let l = seg.length();
                            if l > 1e-9 && l < max_len_um {
                                out.push(open(rn.net));
                            }
                        }
                    }
                }
            }
            GuidelineRule::EndOfLine { min_um } => {
                for hit in group(&end_of_line, via_reach(min_um)) {
                    if hit.dist < min_um {
                        out.push(short(hit.seg_net, hit.via_net));
                    }
                }
            }
            GuidelineRule::DensityHigh { max } => {
                for nets in density.as_ref().expect("planned").windows(|d| d > max) {
                    out.push(Violation {
                        guideline: id,
                        target: ViolationTarget::RegionShort { nets },
                    });
                }
            }
            GuidelineRule::DensityLow { min } => {
                for nets in density.as_ref().expect("planned").windows(|d| d < min) {
                    if !nets.is_empty() {
                        out.push(Violation {
                            guideline: id,
                            target: ViolationTarget::RegionOpen { nets },
                        });
                    }
                }
            }
            GuidelineRule::DensityGradient { max_delta } => {
                for nets in density.as_ref().expect("planned").gradient_windows(max_delta) {
                    out.push(Violation {
                        guideline: id,
                        target: ViolationTarget::RegionOpen { nets },
                    });
                }
            }
        }
    }
    out
}

// --- measurement plan ------------------------------------------------------------

/// The loosest threshold of every group of tiers that enumerate their
/// relations in the same order.
///
/// Via pairs and end-of-line hits are visited bucket by bucket, so their
/// order depends on the bucket reach; parallel runs are visited band by
/// band, so theirs depends on the band width. The via-to-metal query visits
/// vias and segments in layout order whatever the threshold.
#[derive(Default)]
struct Plan {
    /// Bucket reach → largest via spacing (both via-spacing kinds).
    via_pairs: Vec<(i64, f64)>,
    /// Bucket reach → largest end-of-line clearance.
    end_of_line: Vec<(i64, f64)>,
    /// Largest via-to-metal spacing.
    via_metal: Option<f64>,
    /// Band width → largest spacing and smallest overlap.
    runs: Vec<(f64, f64, f64)>,
    /// Whether any density guideline needs the density map.
    density: bool,
}

impl Plan {
    fn new(guidelines: &GuidelineSet) -> Self {
        let mut plan = Plan::default();
        for g in guidelines.iter() {
            match g.rule {
                GuidelineRule::ViaSpacing { min_um }
                | GuidelineRule::SameNetViaSpacing { min_um } => {
                    widen(&mut plan.via_pairs, via_reach(min_um), min_um);
                }
                GuidelineRule::EndOfLine { min_um } => {
                    widen(&mut plan.end_of_line, via_reach(min_um), min_um);
                }
                GuidelineRule::ViaMetalSpacing { min_um } => {
                    plan.via_metal = Some(plan.via_metal.map_or(min_um, |d| d.max(min_um)));
                }
                GuidelineRule::ParallelRun { min_space_um, min_overlap_um } => {
                    // A NaN spacing rejects no pair (`space >= NaN` is false).
                    let space = if min_space_um.is_nan() { f64::INFINITY } else { min_space_um };
                    let width = run_band_width(min_space_um);
                    match plan.runs.iter_mut().find(|r| r.0 == width) {
                        Some(r) => {
                            r.1 = r.1.max(space);
                            r.2 = r.2.min(min_overlap_um);
                        }
                        None => plan.runs.push((width, space, min_overlap_um)),
                    }
                }
                GuidelineRule::DensityHigh { .. }
                | GuidelineRule::DensityLow { .. }
                | GuidelineRule::DensityGradient { .. } => plan.density = true,
                GuidelineRule::RedundantVia { .. }
                | GuidelineRule::LongWire { .. }
                | GuidelineRule::Jog { .. } => {}
            }
        }
        plan
    }
}

fn widen(groups: &mut Vec<(i64, f64)>, reach: i64, threshold: f64) {
    match groups.iter_mut().find(|g| g.0 == reach) {
        Some(g) => g.1 = g.1.max(threshold),
        None => groups.push((reach, threshold)),
    }
}

/// The measured relations of the group keyed `key`.
fn group<K: PartialEq, T>(groups: &[(K, T)], key: K) -> &T {
    &groups.iter().find(|g| g.0 == key).expect("every tier's group is planned").1
}

/// Via buckets searched around a point for a distance threshold.
fn via_reach(dist: f64) -> i64 {
    (dist / VIA_CELL_UM).ceil() as i64
}

/// Parallel-run band width for a spacing threshold.
fn run_band_width(min_space: f64) -> f64 {
    min_space.max(1.0)
}

// --- measurements ----------------------------------------------------------------

/// Two vias closer than the group's loosest spacing.
struct ViaPair {
    a: NetId,
    b: NetId,
    dist: f64,
}

/// A segment end closer than the group's loosest clearance to a foreign via.
struct EndOfLineHit {
    seg_net: NetId,
    via_net: NetId,
    dist: f64,
}

/// A via closer than the loosest spacing to a foreign metal segment.
struct ViaMetalHit {
    via: u32,
    /// Index into M2 segments followed by M3 segments.
    seg: u32,
    dist: f64,
}

/// Two parallel same-layer segments of different nets.
struct Run {
    a: NetId,
    b: NetId,
    space: f64,
    overlap: f64,
}

/// Vias on a 3 µm grid: buckets in key order, each bucket's vias in layout
/// order, so a run of consecutive buckets is one slice of `members`.
struct ViaGrid {
    keys: Vec<(i64, i64)>,
    /// Start of each bucket in `members`, plus the end.
    starts: Vec<usize>,
    members: Vec<u32>,
}

impl ViaGrid {
    fn new(vias: &[&Via]) -> Self {
        let mut order: Vec<((i64, i64), u32)> = vias
            .iter()
            .enumerate()
            .map(|(i, v)| {
                (((v.at.x / VIA_CELL_UM) as i64, (v.at.y / VIA_CELL_UM) as i64), i as u32)
            })
            .collect();
        order.sort_unstable();
        let mut grid = ViaGrid { keys: Vec::new(), starts: Vec::new(), members: Vec::new() };
        for (pos, &(key, i)) in order.iter().enumerate() {
            if grid.keys.last() != Some(&key) {
                grid.keys.push(key);
                grid.starts.push(pos);
            }
            grid.members.push(i);
        }
        grid.starts.push(order.len());
        grid
    }

    /// Indices of the buckets `(x, y0..=y1)`.
    fn column(&self, x: i64, y0: i64, y1: i64) -> Range<usize> {
        let lo = self.keys.partition_point(|&k| k < (x, y0));
        let hi = self.keys.partition_point(|&k| k <= (x, y1));
        lo..hi.max(lo)
    }

    /// The vias of buckets `range`, bucket by bucket.
    fn members(&self, range: Range<usize>) -> &[u32] {
        &self.members[self.starts[range.start]..self.starts[range.end]]
    }
}

/// Via pairs within `dist`, each unordered pair once, in bucket-key order:
/// for each bucket, its neighbours at `dx` in `0..=reach`, `dy` in
/// `-reach..=reach` (only `dy >= 0` at `dx == 0`). The emitted pair order
/// decides fault order (and thus ATPG's test set).
fn measure_via_pairs(vias: &[&Via], grid: &ViaGrid, reach: i64, dist: f64) -> Vec<ViaPair> {
    let mut out = Vec::new();
    for (k, &(bx, by)) in grid.keys.iter().enumerate() {
        let idxs = grid.members(k..k + 1);
        for dx in 0..=reach {
            let y0 = if dx == 0 { by } else { by - reach };
            for peer in grid.column(bx + dx, y0, by + reach) {
                for (pos, &i) in idxs.iter().enumerate() {
                    let js =
                        if peer == k { &idxs[pos + 1..] } else { grid.members(peer..peer + 1) };
                    let a = vias[i as usize];
                    for &j in js {
                        let b = vias[j as usize];
                        let d = a.at.manhattan(&b.at);
                        if d < dist && d > 1e-9 {
                            out.push(ViaPair { a: a.net, b: b.net, dist: d });
                        }
                    }
                }
            }
        }
    }
    out
}

/// Segment ends within `dist` of a foreign via, segment by segment, each
/// end's vias bucket by bucket (`dx` outer, `dy` inner).
fn measure_end_of_line(
    segments: &[&Segment],
    vias: &[&Via],
    grid: &ViaGrid,
    reach: i64,
    dist: f64,
) -> Vec<EndOfLineHit> {
    let mut out = Vec::new();
    for seg in segments {
        for end in [seg.a, seg.b] {
            let (bx, by) = ((end.x / VIA_CELL_UM) as i64, (end.y / VIA_CELL_UM) as i64);
            for dx in -reach..=reach {
                for &i in grid.members(grid.column(bx + dx, by - reach, by + reach)) {
                    let via = vias[i as usize];
                    if via.net != seg.net {
                        let d = end.manhattan(&via.at);
                        if d < dist {
                            out.push(EndOfLineHit { seg_net: seg.net, via_net: via.net, dist: d });
                        }
                    }
                }
            }
        }
    }
    out
}

/// The band prefilter of the via-to-metal query: M2 segments on tracks
/// within `dist` of the via, M3 segments on columns within `dist`.
fn near_metal(s: &Segment, at: Point, dist: f64) -> bool {
    if s.layer == Layer::M2 {
        (s.a.y - at.y).abs() < dist && at.x > s.a.x - dist && at.x < s.b.x + dist
    } else {
        (s.a.x - at.x).abs() < dist && at.y > s.a.y - dist && at.y < s.b.y + dist
    }
}

/// Via-to-foreign-metal hits within `dist`: via by via, M2 segments in
/// layout order, then M3 segments in layout order.
fn measure_via_metal(
    vias: &[&Via],
    seg_h: &[&Segment],
    seg_v: &[&Segment],
    dist: f64,
) -> Vec<ViaMetalHit> {
    let mut out = Vec::new();
    let tracks = TrackIndex::new(seg_h, |s| s.a.y);
    let columns = TrackIndex::new(seg_v, |s| s.a.x);
    let mut found = Vec::new();
    for (vi, via) in vias.iter().enumerate() {
        for (index, segs, cross, offset) in
            [(&tracks, seg_h, via.at.y, 0), (&columns, seg_v, via.at.x, seg_h.len())]
        {
            found.clear();
            found.extend(index.within(cross, dist).iter().copied().filter(|&si| {
                let s = segs[si as usize];
                s.net != via.net && near_metal(s, via.at, dist)
            }));
            found.sort_unstable();
            for &si in &found {
                let d = point_segment_dist(via.at, segs[si as usize]);
                if d < dist {
                    out.push(ViaMetalHit {
                        via: vi as u32,
                        seg: (offset + si as usize) as u32,
                        dist: d,
                    });
                }
            }
        }
    }
    out
}

/// Segments sorted by their cross coordinate (a track's y, a column's x).
struct TrackIndex {
    cross: Vec<f64>,
    order: Vec<u32>,
}

impl TrackIndex {
    fn new(segs: &[&Segment], cross: impl Fn(&Segment) -> f64) -> Self {
        let mut keyed: Vec<(f64, u32)> =
            segs.iter().enumerate().map(|(i, s)| (cross(s), i as u32)).collect();
        keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        TrackIndex {
            cross: keyed.iter().map(|k| k.0).collect(),
            order: keyed.iter().map(|k| k.1).collect(),
        }
    }

    /// Segments whose cross coordinate is within `dist` of `c`, plus a
    /// 1 µm margin that absorbs rounding; the caller applies the exact test.
    fn within(&self, c: f64, dist: f64) -> &[u32] {
        let lo = self.cross.partition_point(|&x| x < c - dist - 1.0);
        let hi = self.cross.partition_point(|&x| x <= c + dist + 1.0);
        &self.order[lo..hi.max(lo)]
    }
}

fn point_segment_dist(p: Point, s: &Segment) -> f64 {
    if s.is_horizontal() {
        let dx = if p.x < s.a.x {
            s.a.x - p.x
        } else if p.x > s.b.x {
            p.x - s.b.x
        } else {
            0.0
        };
        dx + (p.y - s.a.y).abs()
    } else {
        let dy = if p.y < s.a.y {
            s.a.y - p.y
        } else if p.y > s.b.y {
            p.y - s.b.y
        } else {
            0.0
        };
        dy + (p.x - s.a.x).abs()
    }
}

/// Same-layer parallel segments of different nets with edge spacing below
/// `max_space` over more than `min_overlap`.
///
/// Segments are banded by their cross coordinate, and each band is compared
/// with itself and the next band, in ascending band order. A pair inside a
/// band is therefore already checked in the previous band's pass when that
/// band exists, and is not checked again.
fn measure_parallel_runs(
    segs: &[&Segment],
    horizontal: bool,
    width: f64,
    max_space: f64,
    min_overlap: f64,
) -> Vec<Run> {
    let cross = |s: &Segment| if horizontal { s.a.y } else { s.a.x };
    let along = |s: &Segment| if horizontal { (s.a.x, s.b.x) } else { (s.a.y, s.b.y) };
    let mut order: Vec<(i64, u32)> =
        segs.iter().enumerate().map(|(i, s)| ((cross(s) / width) as i64, i as u32)).collect();
    order.sort_unstable();
    let mut bands: Vec<(i64, usize)> = Vec::new();
    for (pos, &(band, _)) in order.iter().enumerate() {
        if bands.last().map(|b| b.0) != Some(band) {
            bands.push((band, pos));
        }
    }
    let start = |p: usize| bands.get(p).map_or(order.len(), |b| b.1);

    let mut out = Vec::new();
    for (p, &(band, lo)) in bands.iter().enumerate() {
        let own = start(p + 1);
        let next_adjacent = bands.get(p + 1).is_some_and(|b| b.0 == band + 1);
        let candidates = &order[lo..if next_adjacent { start(p + 2) } else { own }];
        let own_checked = p > 0 && bands[p - 1].0 == band - 1;
        for (pos, &(_, i)) in candidates.iter().enumerate() {
            let first = if own_checked { (own - lo).max(pos + 1) } else { pos + 1 };
            let s = segs[i as usize];
            for &(_, j) in &candidates[first..] {
                let t = segs[j as usize];
                if s.net == t.net {
                    continue;
                }
                let space = (cross(s) - cross(t)).abs();
                if space >= max_space || space < 1e-9 {
                    continue;
                }
                let ((lo_s, hi_s), (lo_t, hi_t)) = (along(s), along(t));
                let overlap = hi_s.min(hi_t) - lo_s.max(lo_t);
                if overlap > min_overlap {
                    out.push(Run { a: s.net, b: t.net, space, overlap });
                }
            }
        }
    }
    out
}

/// The density map and each window's first few nets, computed once per scan.
struct Density {
    map: Vec<Vec<f64>>,
    nets: HashMap<(usize, usize), Vec<NetId>>,
}

impl Density {
    fn new(layout: &Layout) -> Self {
        Density { map: layout.density_map(DENSITY_WINDOW_UM), nets: window_nets(layout) }
    }

    fn nets_of(&self, window: (usize, usize)) -> Vec<NetId> {
        self.nets.get(&window).cloned().unwrap_or_default()
    }

    /// Nets crossing each density window matching `pred` (capped).
    fn windows<F: Fn(f64) -> bool>(&self, pred: F) -> Vec<Vec<NetId>> {
        let mut out = Vec::new();
        for (iy, row) in self.map.iter().enumerate() {
            for (ix, &d) in row.iter().enumerate() {
                if pred(d) {
                    out.push(self.nets_of((ix, iy)));
                }
            }
        }
        out
    }

    /// Windows whose density differs from a right/up neighbour by more than
    /// `max_delta`; returns the nets of the sparser window (open risk).
    fn gradient_windows(&self, max_delta: f64) -> Vec<Vec<NetId>> {
        let map = &self.map;
        let mut out = Vec::new();
        for iy in 0..map.len() {
            for ix in 0..map[iy].len() {
                for (nx, ny) in [(ix + 1, iy), (ix, iy + 1)] {
                    if ny < map.len() && nx < map[ny].len() {
                        let d0 = map[iy][ix];
                        let d1 = map[ny][nx];
                        if (d0 - d1).abs() > max_delta {
                            let key = if d0 < d1 { (ix, iy) } else { (nx, ny) };
                            let ns = self.nets_of(key);
                            if !ns.is_empty() {
                                out.push(ns);
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// First few nets crossing each window.
fn window_nets(layout: &Layout) -> HashMap<(usize, usize), Vec<NetId>> {
    let mut map: HashMap<(usize, usize), Vec<NetId>> = HashMap::new();
    for rn in &layout.nets {
        for seg in &rn.segments {
            let steps = (seg.length() / (DENSITY_WINDOW_UM / 2.0)).ceil().max(1.0) as usize;
            for s in 0..=steps {
                let t = s as f64 / steps as f64;
                let x = seg.a.x + (seg.b.x - seg.a.x) * t;
                let y = seg.a.y + (seg.b.y - seg.a.y) * t;
                let key = ((x / DENSITY_WINDOW_UM) as usize, (y / DENSITY_WINDOW_UM) as usize);
                let entry = map.entry(key).or_default();
                if entry.len() < REGION_NET_CAP && !entry.contains(&rn.net) {
                    entry.push(rn.net);
                }
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guideline::{Guideline, GuidelineCategory};
    use crate::reference;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rsyn_netlist::{Library, Netlist};
    use rsyn_pdesign::flow::physical_design;
    use rsyn_pdesign::{Floorplan, RoutedNet};

    fn routed_sample(gates: usize) -> (Netlist, Layout) {
        let lib = Library::osu018();
        let mut nl = Netlist::new("s", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let mut nets = vec![a, b];
        let nand = lib.cell_id("NAND2X1").unwrap();
        for i in 0..gates {
            let y = nl.add_net();
            let x0 = nets[i % nets.len()];
            let x1 = nets[(i * 7 + 1) % nets.len()];
            nl.add_gate(format!("g{i}"), nand, &[x0, x1], &[y]).unwrap();
            nets.push(y);
        }
        let last = *nets.last().unwrap();
        nl.mark_output(last);
        let pd = physical_design(&nl, 3).unwrap();
        (nl, pd.layout)
    }

    #[test]
    fn scan_order_is_deterministic() {
        // Two scans in one process see differently-seeded HashMaps; the
        // violation *order* must still match exactly, because fault order
        // decides the ATPG test set and the repo promises byte-identical
        // tables run-to-run.
        let (_, layout) = routed_sample(60);
        let set = GuidelineSet::standard();
        let a = scan_layout(&layout, &set);
        let b = scan_layout(&layout, &set);
        assert_eq!(a, b);
    }

    #[test]
    fn scan_finds_violations_in_every_category() {
        let (_, layout) = routed_sample(60);
        let set = GuidelineSet::standard();
        let violations = scan_layout(&layout, &set);
        assert!(!violations.is_empty());
        let mut cats = std::collections::HashSet::new();
        for v in &violations {
            cats.insert(set.by_id(v.guideline).unwrap().category);
        }
        assert!(
            cats.contains(&crate::guideline::GuidelineCategory::Via),
            "no via violations found"
        );
        assert!(
            cats.contains(&crate::guideline::GuidelineCategory::Metal),
            "no metal violations found"
        );
    }

    #[test]
    fn tighter_tiers_catch_more() {
        let (_, layout) = routed_sample(60);
        let set = GuidelineSet::standard();
        let violations = scan_layout(&layout, &set);
        // Guideline 5 (via spacing 2.2) is a superset of guideline 0 (0.7).
        let count = |id: u16| violations.iter().filter(|v| v.guideline == id).count();
        assert!(count(5) >= count(0), "looser tier must catch at least as many");
    }

    #[test]
    fn violations_reference_real_nets() {
        let (nl, layout) = routed_sample(40);
        let set = GuidelineSet::standard();
        for v in scan_layout(&layout, &set) {
            match v.target {
                ViolationTarget::NetOpen { net } => {
                    assert!(net.index() < nl.net_count());
                }
                ViolationTarget::NetPairShort { a, b } => {
                    assert_ne!(a, b, "short between a net and itself");
                }
                ViolationTarget::RegionOpen { ref nets }
                | ViolationTarget::RegionShort { ref nets } => {
                    assert!(nets.len() <= REGION_NET_CAP);
                }
            }
        }
    }

    #[test]
    fn denser_layouts_violate_more() {
        let (_, small) = routed_sample(20);
        let (_, big) = routed_sample(120);
        let set = GuidelineSet::standard();
        let v_small = scan_layout(&small, &set).len();
        let v_big = scan_layout(&big, &set).len();
        assert!(v_big > v_small, "bigger design: {v_big} vs {v_small}");
    }

    /// A random layout on a 0.5 µm grid: few tracks and columns, so
    /// segments coincide, overlap and touch; zero-length segments, a few
    /// against-the-grain M2/M3 segments, vias stacked on one another and
    /// on segment ends, and coordinates on the 3 µm bucket edges.
    fn random_layout(rng: &mut StdRng) -> Layout {
        let floorplan = Floorplan { rows: 5, sites_per_row: 20, utilization: 0.7 };
        let coord = |rng: &mut StdRng, max: f64| rng.gen_range(0..=(max * 2.0) as u64) as f64 * 0.5;
        let (w, h) = (floorplan.width_um(), floorplan.height_um());
        let mut ends: Vec<Point> = Vec::new();
        let mut nets = Vec::new();
        for n in 0..rng.gen_range(1..=14usize) {
            let net = NetId::from_index(n);
            let mut segments = Vec::new();
            for _ in 0..rng.gen_range(0..=6usize) {
                let layer =
                    [Layer::M1, Layer::M2, Layer::M2, Layer::M3, Layer::M3][rng.gen_range(0..5)];
                let horizontal = (layer == Layer::M2) != rng.gen_bool(0.1);
                let fixed = if rng.gen_bool(0.3) {
                    3.0 * rng.gen_range(0..6) as f64
                } else {
                    coord(rng, 15.0)
                };
                let (lo, len) =
                    (coord(rng, 40.0), [0.0, 0.5, 3.0, 12.0, 30.0][rng.gen_range(0..5)]);
                let (a, b) = if horizontal {
                    (Point::new(lo, fixed), Point::new((lo + len).min(w), fixed))
                } else {
                    (Point::new(fixed, lo), Point::new(fixed, (lo + len).min(h)))
                };
                ends.extend([a, b]);
                segments.push(Segment { layer, a, b, net });
            }
            let mut vias = Vec::new();
            for _ in 0..rng.gen_range(0..=6usize) {
                let at = if !ends.is_empty() && rng.gen_bool(0.4) {
                    ends[rng.gen_range(0..ends.len())]
                } else {
                    Point::new(coord(rng, 20.0), coord(rng, 20.0))
                };
                ends.push(at);
                vias.push(Via { at, from: Layer::M2, to: Layer::M3, net });
            }
            nets.push(RoutedNet { net, segments, vias });
        }
        Layout { floorplan, cells: vec![], nets }
    }

    /// A random deck: every rule kind, thresholds across bucket reaches 0–3
    /// (and exactly on their edges), parallel-run spacings below and above
    /// the 1 µm band floor, negative overlaps, duplicated guidelines, and
    /// families that are missing or empty.
    fn random_deck(rng: &mut StdRng) -> GuidelineSet {
        let mut guidelines: Vec<Guideline> = Vec::new();
        for id in 0..rng.gen_range(0..25u16) {
            if !guidelines.is_empty() && rng.gen_bool(0.1) {
                let mut dup = guidelines[rng.gen_range(0..guidelines.len())].clone();
                dup.id = id;
                guidelines.push(dup);
                continue;
            }
            let spacing = |rng: &mut StdRng| {
                if rng.gen_bool(0.2) {
                    3.0 * rng.gen_range(0..4) as f64
                } else {
                    rng.gen_range(0..=36u64) as f64 * 0.25
                }
            };
            let rule = match rng.gen_range(0..11) {
                0 => GuidelineRule::ViaSpacing { min_um: spacing(rng) },
                1 => GuidelineRule::SameNetViaSpacing { min_um: spacing(rng) },
                2 => GuidelineRule::RedundantVia {
                    wirelength_per_via_um: rng.gen_range(0..40) as f64,
                },
                3 => GuidelineRule::ViaMetalSpacing { min_um: spacing(rng) / 2.0 },
                4 => GuidelineRule::ParallelRun {
                    min_space_um: rng.gen_range(1..=12u64) as f64 * 0.2,
                    min_overlap_um: rng.gen_range(0..=24u64) as f64 - 4.0,
                },
                5 => GuidelineRule::LongWire { max_len_um: rng.gen_range(0..40) as f64 },
                6 => GuidelineRule::Jog { max_len_um: rng.gen_range(0..=10u64) as f64 * 0.5 },
                7 => GuidelineRule::EndOfLine { min_um: spacing(rng) },
                8 => GuidelineRule::DensityHigh { max: rng.gen_range(0..=20u64) as f64 * 0.01 },
                9 => GuidelineRule::DensityLow { min: rng.gen_range(0..=20u64) as f64 * 0.01 },
                _ => GuidelineRule::DensityGradient {
                    max_delta: rng.gen_range(0..=10u64) as f64 * 0.01,
                },
            };
            let name = format!("R.{id}");
            guidelines.push(Guideline { id, category: GuidelineCategory::Metal, name, rule });
        }
        GuidelineSet::from_guidelines(guidelines)
    }

    #[test]
    fn scan_matches_reference_on_random_layouts_and_decks() {
        let mut rng = StdRng::seed_from_u64(0x5CA7);
        let mut emitted = 0;
        for case in 0..200 {
            let layout = random_layout(&mut rng);
            let deck =
                if case % 10 == 0 { GuidelineSet::standard() } else { random_deck(&mut rng) };
            let got = scan_layout(&layout, &deck);
            assert_eq!(got, reference::scan::scan_layout(&layout, &deck), "case {case}");
            emitted += got.len();
        }
        assert!(emitted > 10_000, "random cases must exercise the rules ({emitted} violations)");
    }

    #[test]
    fn scan_matches_reference_on_routed_layouts() {
        for gates in [20, 60, 120] {
            let (_, layout) = routed_sample(gates);
            let set = GuidelineSet::standard();
            assert_eq!(scan_layout(&layout, &set), reference::scan::scan_layout(&layout, &set));
        }
    }

    #[test]
    fn parallel_runs_within_a_band_are_reported_once() {
        // Three M2 tracks in 1 µm bands: y = 0.4 in band 0, y = 1.4 and 1.9
        // (0.5 µm apart) in band 1. Band 0's pass compares band 0 with band
        // 1 and so already checks the band-1 pair; band 1's own pass must
        // not report it again.
        let floorplan = Floorplan { rows: 1, sites_per_row: 10, utilization: 0.7 };
        let track = |n: usize, y: f64| RoutedNet {
            net: NetId::from_index(n),
            segments: vec![Segment {
                layer: Layer::M2,
                a: Point::new(0.0, y),
                b: Point::new(20.0, y),
                net: NetId::from_index(n),
            }],
            vias: vec![],
        };
        let layout = Layout {
            floorplan,
            cells: vec![],
            nets: vec![track(0, 0.4), track(1, 1.4), track(2, 1.9)],
        };
        let deck = GuidelineSet::from_guidelines(vec![Guideline {
            id: 0,
            category: GuidelineCategory::Metal,
            name: "MET.PR".into(),
            rule: GuidelineRule::ParallelRun { min_space_um: 0.6, min_overlap_um: 5.0 },
        }]);
        let pair = |a: usize, b: usize| Violation {
            guideline: 0,
            target: ViolationTarget::NetPairShort {
                a: NetId::from_index(a),
                b: NetId::from_index(b),
            },
        };
        assert_eq!(scan_layout(&layout, &deck), vec![pair(1, 2)]);
        assert_eq!(reference::scan::scan_layout(&layout, &deck), vec![pair(1, 2)]);
    }
}
