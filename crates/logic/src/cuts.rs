//! K-feasible cut enumeration over an AIG (k ≤ 4).
//!
//! Each cut stores its leaf nodes (sorted, ascending) and the cut function —
//! the node's value expressed over the leaves — which is what the matcher
//! compares against library cells.

use rsyn_netlist::TruthTable;

use crate::aig::{Aig, Lit, NodeKind};

/// Maximum number of leaves per cut.
pub const MAX_CUT_SIZE: usize = 4;
/// Maximum number of cuts retained per node.
pub const CUTS_PER_NODE: usize = 8;

/// One cut of an AIG node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cut {
    /// Leaf node indices, sorted ascending. The trivial cut is `[node]`.
    pub leaves: Vec<u32>,
    /// Node function over the leaves (input `i` = `leaves[i]`).
    pub function: TruthTable,
}

impl Cut {
    /// True for the trivial (single-leaf identity) cut.
    pub fn is_trivial(&self, node: u32) -> bool {
        self.leaves.len() == 1 && self.leaves[0] == node && self.function == TruthTable::var(1, 0)
    }
}

/// Cut sets for every node of an AIG.
#[derive(Debug)]
pub struct CutSet {
    cuts: Vec<Vec<Cut>>,
}

impl CutSet {
    /// Enumerates cuts for every node.
    pub fn enumerate(aig: &Aig) -> Self {
        let n = aig.node_count();
        let mut cuts: Vec<Vec<Cut>> = Vec::with_capacity(n);
        for node in 0..n as u32 {
            let set = match aig.kind(node) {
                NodeKind::Const => {
                    vec![Cut { leaves: vec![], function: TruthTable::zero(0) }]
                }
                NodeKind::Pi(_) => {
                    vec![Cut { leaves: vec![node], function: TruthTable::var(1, 0) }]
                }
                NodeKind::And => {
                    let [fa, fb] = aig.fanins(node);
                    let mut merged = merge_fanins(&cuts, fa, fb);
                    // Trivial cut last so structural matches are preferred.
                    merged.push(Cut { leaves: vec![node], function: TruthTable::var(1, 0) });
                    merged
                }
            };
            cuts.push(set);
        }
        Self { cuts }
    }

    /// Cuts of one node.
    pub fn of(&self, node: u32) -> &[Cut] {
        &self.cuts[node as usize]
    }
}

fn merge_fanins(cuts: &[Vec<Cut>], fa: Lit, fb: Lit) -> Vec<Cut> {
    let mut out: Vec<Cut> = Vec::new();
    // The direct fanin cut `{a, b}` first: it is the guaranteed-matchable
    // base case (any 2-input function), so it must never fall victim to the
    // candidate budget below.
    {
        let trivial = TruthTable::var(1, 0);
        let ca = Cut { leaves: vec![fa.node()], function: trivial };
        let cb = Cut { leaves: vec![fb.node()], function: trivial };
        let leaves = union_leaves(&ca.leaves, &cb.leaves).expect("two leaves fit any cut");
        let ta = expand(ca.function, &ca.leaves, &leaves);
        let tb = expand(cb.function, &cb.leaves, &leaves);
        let ta = if fa.is_complement() { ta.not() } else { ta };
        let tb = if fb.is_complement() { tb.not() } else { tb };
        out.push(Cut {
            leaves: leaves.clone(),
            function: TruthTable::new(leaves.len(), ta.bits() & tb.bits()),
        });
    }
    for ca in &cuts[fa.node() as usize] {
        for cb in &cuts[fb.node() as usize] {
            let Some(leaves) = union_leaves(&ca.leaves, &cb.leaves) else {
                continue;
            };
            let ta = expand(ca.function, &ca.leaves, &leaves);
            let tb = expand(cb.function, &cb.leaves, &leaves);
            let ta = if fa.is_complement() { ta.not() } else { ta };
            let tb = if fb.is_complement() { tb.not() } else { tb };
            let function = TruthTable::new(leaves.len(), ta.bits() & tb.bits());
            let cut = Cut { leaves, function };
            if !out.iter().any(|c| c.leaves == cut.leaves && c.function == cut.function) {
                out.push(cut);
            }
            if out.len() >= CUTS_PER_NODE * 3 {
                break;
            }
        }
    }
    // Prefer small cuts; drop dominated duplicates beyond the budget.
    out.sort_by_key(|c| c.leaves.len());
    out.truncate(CUTS_PER_NODE - 1);
    out
}

fn union_leaves(a: &[u32], b: &[u32]) -> Option<Vec<u32>> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        out.push(next);
        if out.len() > MAX_CUT_SIZE {
            return None;
        }
    }
    Some(out)
}

/// Re-expresses `tt` (over `from` leaves) over the superset `to` leaves.
fn expand(tt: TruthTable, from: &[u32], to: &[u32]) -> TruthTable {
    if from.len() == to.len() {
        return tt;
    }
    // position of each `from` leaf within `to`
    let pos: Vec<usize> =
        from.iter().map(|l| to.iter().position(|t| t == l).expect("leaf subset")).collect();
    let n = to.len();
    let mut bits = 0u64;
    for m in 0..(1usize << n) {
        let mut sub = 0usize;
        for (i, &p) in pos.iter().enumerate() {
            if (m >> p) & 1 == 1 {
                sub |= 1 << i;
            }
        }
        if tt.eval(sub as u64) {
            bits |= 1 << m;
        }
    }
    TruthTable::new(n, bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_functions_match_simulation() {
        // y = (a & b) | (c & d): check that some cut of y over {a,b,c,d}
        // has the right function.
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let d = g.add_pi();
        let ab = g.and(a, b);
        let cd = g.and(c, d);
        let y = g.or(ab, cd);
        g.add_po(y);
        let cuts = CutSet::enumerate(&g);
        let node = y.node();
        let full = cuts
            .of(node)
            .iter()
            .find(|cut| cut.leaves == vec![a.node(), b.node(), c.node(), d.node()])
            .expect("4-leaf cut exists");
        // Node y is the *or* complemented? y is a positive literal of an AND
        // node computing !(ab|cd)... or() returns !and(!ab,!cd), so y is a
        // complemented literal of that node. The cut function describes the
        // node, so evaluate against the node's simulated value.
        let vals = g.simulate(&[0xAAAA, 0xCCCC, 0xF0F0, 0xFF00]);
        let node_val = vals[node as usize];
        for m in 0..16u64 {
            assert_eq!(full.function.eval(m), (node_val >> m) & 1 == 1, "minterm {m}");
        }
    }

    #[test]
    fn trivial_cut_present() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let y = g.and(a, b);
        let cuts = CutSet::enumerate(&g);
        assert!(cuts.of(y.node()).iter().any(|c| c.is_trivial(y.node())));
    }

    #[test]
    fn cuts_respect_size_limit() {
        let mut g = Aig::new();
        let pis: Vec<Lit> = (0..8).map(|_| g.add_pi()).collect();
        let mut acc = pis[0];
        for &p in &pis[1..] {
            acc = g.and(acc, p);
        }
        g.add_po(acc);
        let cuts = CutSet::enumerate(&g);
        for node in 0..g.node_count() as u32 {
            for cut in cuts.of(node) {
                assert!(cut.leaves.len() <= MAX_CUT_SIZE);
                assert!(cut.leaves.windows(2).all(|w| w[0] < w[1]), "sorted unique");
            }
            assert!(cuts.of(node).len() <= CUTS_PER_NODE);
        }
    }

    #[test]
    fn expand_is_consistent() {
        let tt = TruthTable::new(2, 0b1000); // l0 & l1
        let e = expand(tt, &[3, 7], &[3, 5, 7]);
        // over (3,5,7): function = in0 & in2, independent of in1
        for m in 0..8u64 {
            let want = (m & 1 == 1) && (m >> 2 & 1 == 1);
            assert_eq!(e.eval(m), want, "m={m}");
        }
    }
}
