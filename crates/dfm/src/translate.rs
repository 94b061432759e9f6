//! Translation of DFM guideline violations into external logic faults.
//!
//! Open-risk violations become stuck-at or transition faults on the net at
//! risk; short-risk violations become wired-AND/OR bridging faults between
//! the two nets. Behaviourally identical faults arising from different
//! guidelines are deduplicated (first guideline wins as provenance), and
//! feedback bridges (one net in the other's fanout cone) are excluded —
//! they would require sequential test generation, outside the paper's
//! combinational scope.

use std::collections::HashSet;

use rsyn_atpg::fault::{BridgeKind, Fault, FaultKind};
use rsyn_netlist::{CellClass, Driver, NetId, Netlist};

use crate::scan::{Violation, ViolationTarget};

/// Canonical behavioural identity of an external fault (dedupe key).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Sa(NetId, bool),
    Tr(NetId, bool),
    Br(NetId, NetId, BridgeKind),
}

/// Translates violations into a deduplicated external fault list.
pub fn translate_violations(nl: &Netlist, violations: &[Violation]) -> Vec<Fault> {
    let mut seen: HashSet<Key> = HashSet::new();
    let mut out: Vec<Fault> = crate::extraction_list();
    let mut cones = Cones::new(nl);

    let push_open = |net: NetId, guideline: u16, seen: &mut HashSet<Key>, out: &mut Vec<Fault>| {
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
            ViolationTarget::NetOpen { net } => push_open(*net, v.guideline, &mut seen, &mut out),
            ViolationTarget::RegionOpen { nets } => {
                for &net in nets {
                    push_open(net, v.guideline, &mut seen, &mut out);
                }
            }
            ViolationTarget::NetPairShort { a, b } => {
                push_bridge(nl, &mut cones, *a, *b, v.guideline, &mut seen, &mut out);
            }
            ViolationTarget::RegionShort { nets } => {
                for pair in nets.chunks(2) {
                    if let [a, b] = pair {
                        push_bridge(nl, &mut cones, *a, *b, v.guideline, &mut seen, &mut out);
                    }
                }
            }
        }
    }
    out
}

fn push_bridge(
    nl: &Netlist,
    cones: &mut Cones<'_>,
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
    if cones.reaches(a, b) || cones.reaches(b, a) {
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

/// Forward fan-out cones, filled on demand: one bitset over all nets per
/// distinct source net, each filled by a single walk.
struct Cones<'a> {
    nl: &'a Netlist,
    /// Words per cone.
    words: usize,
    /// Each net's cone offset into `bits`, once filled.
    offset: Vec<Option<usize>>,
    bits: Vec<u64>,
    stack: Vec<NetId>,
}

impl<'a> Cones<'a> {
    fn new(nl: &'a Netlist) -> Self {
        let nets = nl.net_count();
        Self {
            nl,
            words: nets.div_ceil(64),
            offset: vec![None; nets],
            bits: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// True if a change on `from` can propagate to `to` through gates.
    fn reaches(&mut self, from: NetId, to: NetId) -> bool {
        let base = match self.offset[from.index()] {
            Some(base) => base,
            None => self.fill(from),
        };
        in_cone(&self.bits[base..base + self.words], to)
    }

    /// Marks every net reachable from `from`, itself included; returns the
    /// cone's offset.
    fn fill(&mut self, from: NetId) -> usize {
        let base = self.bits.len();
        self.bits.resize(base + self.words, 0);
        self.offset[from.index()] = Some(base);
        let cone = &mut self.bits[base..];
        self.stack.push(from);
        while let Some(n) = self.stack.pop() {
            if in_cone(cone, n) {
                continue;
            }
            cone[n.index() / 64] |= 1 << (n.index() % 64);
            for &(sink, _) in &self.nl.net(n).loads {
                if let Some(gate) = self.nl.gate(sink) {
                    // Flops cut propagation in the combinational view.
                    if self.nl.lib().cell(gate.cell).class == CellClass::Flop {
                        continue;
                    }
                    self.stack.extend(gate.outputs.iter().filter(|&&o| !in_cone(cone, o)));
                }
            }
        }
        base
    }
}

fn in_cone(cone: &[u64], net: NetId) -> bool {
    cone[net.index() / 64] >> (net.index() % 64) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::scan::ViolationTarget;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rsyn_netlist::Library;

    fn chain() -> (Netlist, Vec<NetId>) {
        let lib = Library::osu018();
        let mut nl = Netlist::new("c", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let inv = lib.cell_id("INVX1").unwrap();
        let n1 = nl.add_net();
        let n2 = nl.add_net();
        let n3 = nl.add_net();
        nl.add_gate("g1", inv, &[a], &[n1]).unwrap();
        nl.add_gate("g2", inv, &[n1], &[n2]).unwrap();
        nl.add_gate("g3", inv, &[b], &[n3]).unwrap();
        nl.mark_output(n2);
        nl.mark_output(n3);
        (nl, vec![a, b, n1, n2, n3])
    }

    #[test]
    fn open_violations_become_net_faults() {
        let (nl, nets) = chain();
        let violations = vec![
            Violation { guideline: 0, target: ViolationTarget::NetOpen { net: nets[2] } },
            Violation { guideline: 1, target: ViolationTarget::NetOpen { net: nets[3] } },
        ];
        let faults = translate_violations(&nl, &violations);
        assert_eq!(faults.len(), 2);
        assert!(faults.iter().all(|f| !f.is_internal()));
    }

    #[test]
    fn duplicate_violations_are_merged() {
        let (nl, nets) = chain();
        let v = Violation { guideline: 3, target: ViolationTarget::NetOpen { net: nets[2] } };
        let faults = translate_violations(&nl, &[v.clone(), v]);
        assert_eq!(faults.len(), 1, "same site + same guideline dedupes");
    }

    #[test]
    fn feedback_bridges_are_excluded() {
        let (nl, nets) = chain();
        // n1 drives n2 through g2: a bridge between them is feedback.
        let v = Violation {
            guideline: 0,
            target: ViolationTarget::NetPairShort { a: nets[2], b: nets[3] },
        };
        let faults = translate_violations(&nl, &[v]);
        assert!(faults.is_empty(), "feedback bridge must be dropped");
        // n2 and n3 are independent: bridge kept.
        let v2 = Violation {
            guideline: 0,
            target: ViolationTarget::NetPairShort { a: nets[3], b: nets[4] },
        };
        let faults = translate_violations(&nl, &[v2]);
        assert_eq!(faults.len(), 1);
        assert!(matches!(faults[0].kind, FaultKind::Bridge { .. }));
    }

    #[test]
    fn const_nets_carry_no_faults() {
        let lib = Library::osu018();
        let mut nl = Netlist::new("k", lib.clone());
        let a = nl.add_input("a");
        let c1 = nl.const1();
        let y = nl.add_named_net("y");
        let nand = lib.cell_id("NAND2X1").unwrap();
        nl.add_gate("g", nand, &[a, c1], &[y]).unwrap();
        nl.mark_output(y);
        let v = Violation { guideline: 0, target: ViolationTarget::NetOpen { net: c1 } };
        assert!(translate_violations(&nl, &[v]).is_empty());
    }

    #[test]
    fn region_faults_are_capped_by_net_list() {
        let (nl, nets) = chain();
        let v = Violation {
            guideline: 55,
            target: ViolationTarget::RegionOpen { nets: vec![nets[2], nets[3], nets[4]] },
        };
        let faults = translate_violations(&nl, &[v]);
        assert_eq!(faults.len(), 3);
    }

    #[test]
    fn bridge_endpoints_ordered_canonically() {
        let (nl, nets) = chain();
        let v1 = Violation {
            guideline: 0,
            target: ViolationTarget::NetPairShort { a: nets[4], b: nets[3] },
        };
        let v2 = Violation {
            guideline: 1,
            target: ViolationTarget::NetPairShort { a: nets[3], b: nets[4] },
        };
        let faults = translate_violations(&nl, &[v1, v2]);
        assert_eq!(faults.len(), 1, "reversed pair dedupes");
    }

    /// A random netlist: inputs, both constants, an undriven net, single-
    /// and multi-output cells, and flops whose outputs feed back into the
    /// logic that drives them.
    fn random_netlist(rng: &mut StdRng) -> Netlist {
        let lib = Library::osu018();
        let mut nl = Netlist::new("r", lib.clone());
        let mut nets: Vec<NetId> =
            (0..rng.gen_range(2..6)).map(|i| nl.add_input(format!("i{i}"))).collect();
        nets.push(nl.const0());
        nets.push(nl.const1());
        nets.push(nl.add_net()); // never driven
        let flop_q: Vec<NetId> = (0..rng.gen_range(0..4)).map(|_| nl.add_net()).collect();
        nets.extend(&flop_q);
        let cells =
            ["INVX1", "NAND2X1", "NOR3X1", "AOI22X1", "FAX1"].map(|c| lib.cell_id(c).unwrap());
        for g in 0..rng.gen_range(1..40) {
            let cell = cells[rng.gen_range(0..cells.len())];
            let (ins, outs) = (lib.cell(cell).input_count(), lib.cell(cell).output_count());
            let inputs: Vec<NetId> = (0..ins).map(|_| nets[rng.gen_range(0..nets.len())]).collect();
            let outputs: Vec<NetId> = (0..outs).map(|_| nl.add_net()).collect();
            nl.add_gate(format!("g{g}"), cell, &inputs, &outputs).unwrap();
            nets.extend(&outputs);
        }
        let dff = lib.cell_id("DFFPOSX1").unwrap();
        let clk = nl.add_input("clk");
        for (f, &q) in flop_q.iter().enumerate() {
            let d = nets[rng.gen_range(0..nets.len())];
            nl.add_gate(format!("f{f}"), dff, &[d, clk], &[q]).unwrap();
        }
        nl.mark_output(*nets.last().unwrap());
        nl
    }

    /// Random violations of every target kind: reversed and self pairs,
    /// empty and odd-length region lists, constant and undriven nets.
    fn random_violations(rng: &mut StdRng, nets: usize) -> Vec<Violation> {
        let net = |rng: &mut StdRng| NetId::from_index(rng.gen_range(0..nets));
        (0..rng.gen_range(0..300))
            .map(|_| {
                let target = match rng.gen_range(0..4) {
                    0 => ViolationTarget::NetOpen { net: net(rng) },
                    1 => {
                        let a = net(rng);
                        let b = if rng.gen_bool(0.1) { a } else { net(rng) };
                        ViolationTarget::NetPairShort { a, b }
                    }
                    2 => ViolationTarget::RegionOpen {
                        nets: (0..rng.gen_range(0..7)).map(|_| net(rng)).collect(),
                    },
                    _ => ViolationTarget::RegionShort {
                        nets: (0..rng.gen_range(0..7)).map(|_| net(rng)).collect(),
                    },
                };
                Violation { guideline: rng.gen_range(0..60u16), target }
            })
            .collect()
    }

    #[test]
    fn translation_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0x7A5E);
        let (mut faults, mut bridges) = (0, 0);
        for case in 0..300 {
            let nl = random_netlist(&mut rng);
            let violations = random_violations(&mut rng, nl.net_count());
            let got = translate_violations(&nl, &violations);
            assert_eq!(
                got,
                reference::translate::translate_violations(&nl, &violations),
                "case {case}"
            );
            faults += got.len();
            bridges += got.iter().filter(|f| matches!(f.kind, FaultKind::Bridge { .. })).count();
        }
        assert!(faults > 5_000 && bridges > 2_000, "{faults} faults, {bridges} bridges");
    }

    #[test]
    fn bridges_across_a_flop_are_kept() {
        // a -> INV -> d -> DFF -> q -> INV -> y: the flop cuts d's cone, so
        // d and q may bridge, while a and d (same combinational cone) may not.
        let lib = Library::osu018();
        let mut nl = Netlist::new("f", lib.clone());
        let a = nl.add_input("a");
        let clk = nl.add_input("clk");
        let (d, q, y) = (nl.add_net(), nl.add_net(), nl.add_net());
        let inv = lib.cell_id("INVX1").unwrap();
        nl.add_gate("g1", inv, &[a], &[d]).unwrap();
        nl.add_gate("ff", lib.cell_id("DFFPOSX1").unwrap(), &[d, clk], &[q]).unwrap();
        nl.add_gate("g2", inv, &[q], &[y]).unwrap();
        nl.mark_output(y);
        let short =
            |a, b| Violation { guideline: 0, target: ViolationTarget::NetPairShort { a, b } };
        assert_eq!(translate_violations(&nl, &[short(d, q)]).len(), 1);
        assert!(translate_violations(&nl, &[short(a, d)]).is_empty());
    }
}
