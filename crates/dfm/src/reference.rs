//! Test-only references for the optimised scan and translation.
//!
//! These are the straightforward implementations that [`crate::scan`] and
//! [`crate::translate`] replaced: every guideline tier runs its own
//! geometric query, and feedback detection walks the netlist once per
//! ordered net pair. The equivalence tests assert that the optimised code
//! produces exactly the same violations and faults, in the same order.

pub(crate) mod scan {
    use std::collections::HashMap;

    use rsyn_netlist::NetId;
    use rsyn_pdesign::{Layer, Layout, Point, Segment, Via};

    use crate::guideline::{GuidelineRule, GuidelineSet};
    use crate::scan::{Violation, ViolationTarget, DENSITY_WINDOW_UM};

    const REGION_NET_CAP: usize = 6;

    /// Scans a layout against a guideline set.
    pub(crate) fn scan_layout(layout: &Layout, guidelines: &GuidelineSet) -> Vec<Violation> {
        let mut out = Vec::new();
        let vias: Vec<&Via> = layout.nets.iter().flat_map(|n| n.vias.iter()).collect();
        let segments: Vec<&Segment> = layout.nets.iter().flat_map(|n| n.segments.iter()).collect();
        let via_buckets = bucket_points(&vias, 3.0);
        let seg_h: Vec<&Segment> =
            segments.iter().copied().filter(|s| s.layer == Layer::M2).collect();
        let seg_v: Vec<&Segment> =
            segments.iter().copied().filter(|s| s.layer == Layer::M3).collect();

        for g in guidelines.iter() {
            match g.rule {
                GuidelineRule::ViaSpacing { min_um } => {
                    for (a, b) in via_pairs(&vias, &via_buckets, min_um) {
                        if a.net != b.net {
                            out.push(Violation {
                                guideline: g.id,
                                target: ViolationTarget::NetPairShort { a: a.net, b: b.net },
                            });
                        }
                    }
                }
                GuidelineRule::SameNetViaSpacing { min_um } => {
                    for (a, b) in via_pairs(&vias, &via_buckets, min_um) {
                        if a.net == b.net {
                            out.push(Violation {
                                guideline: g.id,
                                target: ViolationTarget::NetOpen { net: a.net },
                            });
                        }
                    }
                }
                GuidelineRule::RedundantVia { wirelength_per_via_um } => {
                    for rn in &layout.nets {
                        let vias = rn.vias.len().max(1);
                        if rn.wirelength() / vias as f64 > wirelength_per_via_um {
                            out.push(Violation {
                                guideline: g.id,
                                target: ViolationTarget::NetOpen { net: rn.net },
                            });
                        }
                    }
                }
                GuidelineRule::ViaMetalSpacing { min_um } => {
                    for via in &vias {
                        for seg in nearby_segments(&seg_h, &seg_v, via.at, min_um) {
                            if seg.net != via.net && point_segment_dist(via.at, seg) < min_um {
                                out.push(Violation {
                                    guideline: g.id,
                                    target: ViolationTarget::NetPairShort {
                                        a: via.net,
                                        b: seg.net,
                                    },
                                });
                            }
                        }
                    }
                }
                GuidelineRule::ParallelRun { min_space_um, min_overlap_um } => {
                    parallel_run_pairs(&seg_h, true, min_space_um, min_overlap_um, |a, b| {
                        out.push(Violation {
                            guideline: g.id,
                            target: ViolationTarget::NetPairShort { a, b },
                        });
                    });
                    parallel_run_pairs(&seg_v, false, min_space_um, min_overlap_um, |a, b| {
                        out.push(Violation {
                            guideline: g.id,
                            target: ViolationTarget::NetPairShort { a, b },
                        });
                    });
                }
                GuidelineRule::LongWire { max_len_um } => {
                    for seg in &segments {
                        if seg.length() > max_len_um {
                            out.push(Violation {
                                guideline: g.id,
                                target: ViolationTarget::NetOpen { net: seg.net },
                            });
                        }
                    }
                }
                GuidelineRule::Jog { max_len_um } => {
                    for rn in &layout.nets {
                        if rn.segments.len() > 2 {
                            for seg in &rn.segments {
                                let l = seg.length();
                                if l > 1e-9 && l < max_len_um {
                                    out.push(Violation {
                                        guideline: g.id,
                                        target: ViolationTarget::NetOpen { net: rn.net },
                                    });
                                }
                            }
                        }
                    }
                }
                GuidelineRule::EndOfLine { min_um } => {
                    for seg in &segments {
                        for end in [seg.a, seg.b] {
                            for via in nearby_vias(&vias, &via_buckets, end, min_um) {
                                if via.net != seg.net && end.manhattan(&via.at) < min_um {
                                    out.push(Violation {
                                        guideline: g.id,
                                        target: ViolationTarget::NetPairShort {
                                            a: seg.net,
                                            b: via.net,
                                        },
                                    });
                                }
                            }
                        }
                    }
                }
                GuidelineRule::DensityHigh { max } => {
                    for nets in dense_windows(layout, |d| d > max) {
                        out.push(Violation {
                            guideline: g.id,
                            target: ViolationTarget::RegionShort { nets },
                        });
                    }
                }
                GuidelineRule::DensityLow { min } => {
                    for nets in dense_windows(layout, |d| d < min) {
                        if !nets.is_empty() {
                            out.push(Violation {
                                guideline: g.id,
                                target: ViolationTarget::RegionOpen { nets },
                            });
                        }
                    }
                }
                GuidelineRule::DensityGradient { max_delta } => {
                    for nets in gradient_windows(layout, max_delta) {
                        out.push(Violation {
                            guideline: g.id,
                            target: ViolationTarget::RegionOpen { nets },
                        });
                    }
                }
            }
        }
        out
    }

    // --- spatial helpers -----------------------------------------------------------

    type Bucket = HashMap<(i64, i64), Vec<usize>>;

    fn bucket_points(vias: &[&Via], cell: f64) -> Bucket {
        let mut b: Bucket = HashMap::new();
        for (i, v) in vias.iter().enumerate() {
            let key = ((v.at.x / cell) as i64, (v.at.y / cell) as i64);
            b.entry(key).or_default().push(i);
        }
        b
    }

    /// Pairs of vias within `dist` (each unordered pair reported once).
    fn via_pairs<'a>(vias: &'a [&'a Via], buckets: &Bucket, dist: f64) -> Vec<(&'a Via, &'a Via)> {
        let cell = 3.0f64;
        let reach = (dist / cell).ceil() as i64;
        let mut out = Vec::new();
        // Sorted bucket order: HashMap iteration is seeded per process, and the
        // emitted pair order decides fault order (and thus ATPG's test set).
        let mut keys: Vec<(i64, i64)> = buckets.keys().copied().collect();
        keys.sort_unstable();
        for (bx, by) in keys {
            let idxs = &buckets[&(bx, by)];
            for dx in 0..=reach {
                for dy in -reach..=reach {
                    if dx == 0 && dy < 0 {
                        continue;
                    }
                    let Some(peer) = buckets.get(&(bx + dx, by + dy)) else { continue };
                    for &i in idxs {
                        for &j in peer {
                            let same_bucket = dx == 0 && dy == 0;
                            if same_bucket && j <= i {
                                continue;
                            }
                            let (a, b) = (vias[i], vias[j]);
                            if a.at.manhattan(&b.at) < dist && a.at.manhattan(&b.at) > 1e-9 {
                                out.push((a, b));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn nearby_vias<'a>(
        vias: &'a [&'a Via],
        buckets: &Bucket,
        at: Point,
        dist: f64,
    ) -> Vec<&'a Via> {
        let cell = 3.0f64;
        let reach = (dist / cell).ceil() as i64;
        let (bx, by) = ((at.x / cell) as i64, (at.y / cell) as i64);
        let mut out = Vec::new();
        for dx in -reach..=reach {
            for dy in -reach..=reach {
                if let Some(idxs) = buckets.get(&(bx + dx, by + dy)) {
                    for &i in idxs {
                        out.push(vias[i]);
                    }
                }
            }
        }
        out
    }

    fn nearby_segments<'a>(
        seg_h: &'a [&'a Segment],
        seg_v: &'a [&'a Segment],
        at: Point,
        dist: f64,
    ) -> Vec<&'a Segment> {
        // Brute bands: horizontal segments within |y - at.y| < dist; vertical
        // within |x - at.x| < dist. Linear scans are acceptable because the
        // candidate filter is cheap and via counts dominate.
        let mut out = Vec::new();
        for s in seg_h {
            if (s.a.y - at.y).abs() < dist && at.x > s.a.x - dist && at.x < s.b.x + dist {
                out.push(*s);
            }
        }
        for s in seg_v {
            if (s.a.x - at.x).abs() < dist && at.y > s.a.y - dist && at.y < s.b.y + dist {
                out.push(*s);
            }
        }
        out
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

    /// Calls `emit(a, b)` for same-layer parallel segments of different nets
    /// with edge spacing below `min_space` over more than `min_overlap`.
    fn parallel_run_pairs<F: FnMut(NetId, NetId)>(
        segs: &[&Segment],
        horizontal: bool,
        min_space: f64,
        min_overlap: f64,
        mut emit: F,
    ) {
        // Band by the cross coordinate so only nearby tracks are compared.
        let band = |s: &Segment| {
            let c = if horizontal { s.a.y } else { s.a.x };
            (c / min_space.max(1.0)) as i64
        };
        let mut bands: HashMap<i64, Vec<usize>> = HashMap::new();
        for (i, s) in segs.iter().enumerate() {
            bands.entry(band(s)).or_default().push(i);
        }
        // Sorted band order, for the same run-to-run determinism reason as
        // `via_pairs`: emission order decides downstream fault order.
        let mut band_keys: Vec<i64> = bands.keys().copied().collect();
        band_keys.sort_unstable();
        for b in band_keys {
            let idxs = &bands[&b];
            let mut candidates = idxs.clone();
            if let Some(next) = bands.get(&(b + 1)) {
                candidates.extend_from_slice(next);
            }
            // Pairs inside band `b` were already checked in band `b - 1`'s pass.
            let own_checked = bands.contains_key(&(b - 1));
            for (pos, &i) in candidates.iter().enumerate() {
                for (qos, &j) in candidates.iter().enumerate().skip(pos + 1) {
                    if own_checked && qos < idxs.len() {
                        continue;
                    }
                    let (s, t) = (segs[i], segs[j]);
                    if s.net == t.net {
                        continue;
                    }
                    let (cross_s, cross_t) =
                        if horizontal { (s.a.y, t.a.y) } else { (s.a.x, t.a.x) };
                    if (cross_s - cross_t).abs() >= min_space || (cross_s - cross_t).abs() < 1e-9 {
                        continue;
                    }
                    let (lo_s, hi_s) = if horizontal { (s.a.x, s.b.x) } else { (s.a.y, s.b.y) };
                    let (lo_t, hi_t) = if horizontal { (t.a.x, t.b.x) } else { (t.a.y, t.b.y) };
                    let overlap = hi_s.min(hi_t) - lo_s.max(lo_t);
                    if overlap > min_overlap {
                        emit(s.net, t.net);
                    }
                }
            }
        }
    }

    /// Nets crossing each density window matching `pred` (capped).
    fn dense_windows<F: Fn(f64) -> bool>(layout: &Layout, pred: F) -> Vec<Vec<NetId>> {
        let map = layout.density_map(DENSITY_WINDOW_UM);
        let nets = window_nets(layout);
        let mut out = Vec::new();
        for (iy, row) in map.iter().enumerate() {
            for (ix, &d) in row.iter().enumerate() {
                if pred(d) {
                    out.push(nets.get(&(ix, iy)).cloned().unwrap_or_default());
                }
            }
        }
        out
    }

    /// Windows whose density differs from a right/up neighbour by more than
    /// `max_delta`; returns the nets of the sparser window (open risk).
    fn gradient_windows(layout: &Layout, max_delta: f64) -> Vec<Vec<NetId>> {
        let map = layout.density_map(DENSITY_WINDOW_UM);
        let nets = window_nets(layout);
        let mut out = Vec::new();
        for iy in 0..map.len() {
            for ix in 0..map[iy].len() {
                for (nx, ny) in [(ix + 1, iy), (ix, iy + 1)] {
                    if ny < map.len() && nx < map[ny].len() {
                        let d0 = map[iy][ix];
                        let d1 = map[ny][nx];
                        if (d0 - d1).abs() > max_delta {
                            let key = if d0 < d1 { (ix, iy) } else { (nx, ny) };
                            let ns = nets.get(&key).cloned().unwrap_or_default();
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
}

pub(crate) mod translate {
    use std::collections::{HashMap, HashSet};

    use rsyn_atpg::fault::{BridgeKind, Fault, FaultKind};
    use rsyn_netlist::{Driver, NetId, Netlist};

    use crate::scan::{Violation, ViolationTarget};

    /// Canonical behavioural identity of an external fault (dedupe key).
    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    enum Key {
        Sa(NetId, bool),
        Tr(NetId, bool),
        Br(NetId, NetId, BridgeKind),
    }

    /// Translates violations into a deduplicated external fault list.
    pub(crate) fn translate_violations(nl: &Netlist, violations: &[Violation]) -> Vec<Fault> {
        let mut seen: HashSet<Key> = HashSet::new();
        let mut out: Vec<Fault> = Vec::new();
        let reach = ReachCache::new(nl);

        let push_open =
            |net: NetId, guideline: u16, seen: &mut HashSet<Key>, out: &mut Vec<Fault>| {
                if !faultable(nl, net) {
                    return;
                }
                // Opens manifest as resistive (transition) or full (stuck-at)
                // defects; pick deterministically by site so the mix is stable.
                let h = mix(net.index() as u64, guideline as u64);
                let fault = match h % 4 {
                    0 => (Key::Sa(net, false), FaultKind::StuckAt { net, value: false }),
                    1 => (Key::Sa(net, true), FaultKind::StuckAt { net, value: true }),
                    2 => (Key::Tr(net, true), FaultKind::Transition { net, rising: true }),
                    _ => (Key::Tr(net, false), FaultKind::Transition { net, rising: false }),
                };
                if seen.insert(fault.0) {
                    out.push(Fault::external(fault.1, guideline));
                }
            };

        for v in violations {
            match &v.target {
                ViolationTarget::NetOpen { net } => {
                    push_open(*net, v.guideline, &mut seen, &mut out)
                }
                ViolationTarget::RegionOpen { nets } => {
                    for &net in nets {
                        push_open(net, v.guideline, &mut seen, &mut out);
                    }
                }
                ViolationTarget::NetPairShort { a, b } => {
                    push_bridge(nl, &reach, *a, *b, v.guideline, &mut seen, &mut out);
                }
                ViolationTarget::RegionShort { nets } => {
                    for pair in nets.chunks(2) {
                        if let [a, b] = pair {
                            push_bridge(nl, &reach, *a, *b, v.guideline, &mut seen, &mut out);
                        }
                    }
                }
            }
        }
        out
    }

    fn push_bridge(
        nl: &Netlist,
        reach: &ReachCache<'_>,
        a: NetId,
        b: NetId,
        guideline: u16,
        seen: &mut HashSet<Key>,
        out: &mut Vec<Fault>,
    ) {
        if a == b || !faultable(nl, a) || !faultable(nl, b) {
            return;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let kind = if mix(a.index() as u64, b.index() as u64) % 2 == 0 {
            BridgeKind::WiredAnd
        } else {
            BridgeKind::WiredOr
        };
        let key = Key::Br(a, b, kind);
        if seen.contains(&key) {
            return;
        }
        if reach.reaches(a, b) || reach.reaches(b, a) {
            return; // feedback bridge: out of combinational scope
        }
        seen.insert(key);
        out.push(Fault::external(FaultKind::Bridge { a, b, kind }, guideline));
    }

    /// Nets that can carry faults: driven, not constants.
    fn faultable(nl: &Netlist, net: NetId) -> bool {
        !matches!(nl.net(net).driver, Some(Driver::Const(_)) | None)
    }

    fn mix(a: u64, b: u64) -> u64 {
        let mut x = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 32;
        x
    }

    /// Memoised net-to-net forward reachability.
    struct ReachCache<'a> {
        nl: &'a Netlist,
        memo: std::cell::RefCell<HashMap<(NetId, NetId), bool>>,
    }

    impl<'a> ReachCache<'a> {
        fn new(nl: &'a Netlist) -> Self {
            Self { nl, memo: std::cell::RefCell::new(HashMap::new()) }
        }

        /// True if a change on `from` can propagate to `to` through gates.
        fn reaches(&self, from: NetId, to: NetId) -> bool {
            if let Some(&r) = self.memo.borrow().get(&(from, to)) {
                return r;
            }
            let mut visited = HashSet::new();
            let mut stack = vec![from];
            let mut found = false;
            while let Some(n) = stack.pop() {
                if n == to {
                    found = true;
                    break;
                }
                if !visited.insert(n) {
                    continue;
                }
                for &(sink, _) in &self.nl.net(n).loads {
                    if let Some(gate) = self.nl.gate(sink) {
                        // Flops cut propagation in the combinational view.
                        if self.nl.lib().cell(gate.cell).class == rsyn_netlist::CellClass::Flop {
                            continue;
                        }
                        for &o in &gate.outputs {
                            if !visited.contains(&o) {
                                stack.push(o);
                            }
                        }
                    }
                }
            }
            self.memo.borrow_mut().insert((from, to), found);
            found
        }
    }
}
