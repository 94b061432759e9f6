//! Structurally-hashed and-inverter graphs.
//!
//! The AIG is the technology-independent representation used between
//! netlist extraction and technology mapping. Structural hashing plus the
//! standard two-level simplification rules give cheap redundancy removal;
//! constants propagate automatically.

use std::collections::HashMap;

use rsyn_netlist::TruthTable;

/// A literal: an AIG node with an optional complement.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The constant-false literal.
    pub const FALSE: Lit = Lit(0);
    /// The constant-true literal.
    pub const TRUE: Lit = Lit(1);

    /// Builds a literal from a node index and complement flag.
    pub fn new(node: u32, complement: bool) -> Self {
        Lit(node << 1 | u32::from(complement))
    }

    /// The node index this literal refers to.
    #[inline]
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the literal is complemented.
    #[inline]
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// True for the constant-true or constant-false literal.
    #[inline]
    pub fn is_const(self) -> bool {
        self.node() == 0
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl std::fmt::Debug for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_complement() {
            write!(f, "!v{}", self.node())
        } else {
            write!(f, "v{}", self.node())
        }
    }
}

/// Kind of an AIG node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// The constant node (index 0).
    Const,
    /// Primary input number `.0`.
    Pi(u32),
    /// Two-input AND of the stored fanin literals.
    And,
}

#[derive(Clone, Debug)]
struct Node {
    kind: NodeKind,
    fanin: [Lit; 2],
}

/// A structurally-hashed and-inverter graph.
///
/// Node 0 is the constant; primary inputs and AND nodes follow in creation
/// order, so node indices are always topologically sorted.
#[derive(Clone, Debug)]
pub struct Aig {
    nodes: Vec<Node>,
    strash: HashMap<(Lit, Lit), u32>,
    pis: Vec<u32>,
    pos: Vec<Lit>,
}

impl Default for Aig {
    fn default() -> Self {
        Self::new()
    }
}

impl Aig {
    /// Creates an empty AIG (just the constant node).
    pub fn new() -> Self {
        Self {
            nodes: vec![Node { kind: NodeKind::Const, fanin: [Lit::FALSE; 2] }],
            strash: HashMap::new(),
            pis: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// Adds a primary input and returns its (positive) literal.
    pub fn add_pi(&mut self) -> Lit {
        let idx = self.nodes.len() as u32;
        let pi_num = self.pis.len() as u32;
        self.nodes.push(Node { kind: NodeKind::Pi(pi_num), fanin: [Lit::FALSE; 2] });
        self.pis.push(idx);
        Lit::new(idx, false)
    }

    /// Registers a primary output.
    pub fn add_po(&mut self, lit: Lit) {
        self.pos.push(lit);
    }

    /// Primary input literals in creation order.
    pub fn pi_lits(&self) -> Vec<Lit> {
        self.pis.iter().map(|&n| Lit::new(n, false)).collect()
    }

    /// Primary output literals in registration order.
    pub fn po_lits(&self) -> &[Lit] {
        &self.pos
    }

    /// Number of nodes including the constant and PIs.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND nodes.
    pub fn and_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind == NodeKind::And).count()
    }

    /// Number of primary inputs.
    pub fn pi_count(&self) -> usize {
        self.pis.len()
    }

    /// The kind of a node.
    pub fn kind(&self, node: u32) -> NodeKind {
        self.nodes[node as usize].kind
    }

    /// Fanin literals of an AND node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an AND node.
    pub fn fanins(&self, node: u32) -> [Lit; 2] {
        assert_eq!(self.nodes[node as usize].kind, NodeKind::And, "node v{node} is not an AND");
        self.nodes[node as usize].fanin
    }

    /// Creates (or reuses) the AND of two literals, applying the standard
    /// simplification rules.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Order operands for hashing and rule checks.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if a == Lit::FALSE {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if a == b {
            return a;
        }
        if a == !b {
            return Lit::FALSE;
        }
        if let Some(&n) = self.strash.get(&(a, b)) {
            return Lit::new(n, false);
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node { kind: NodeKind::And, fanin: [a, b] });
        self.strash.insert((a, b), idx);
        Lit::new(idx, false)
    }

    /// OR via De Morgan.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Two-input XOR.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let t0 = self.and(a, !b);
        let t1 = self.and(!a, b);
        self.or(t0, t1)
    }

    /// 2:1 multiplexer: `s ? t : e`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let a = self.and(s, t);
        let b = self.and(!s, e);
        self.or(a, b)
    }

    /// Builds the literal computing `function` over the given input literals
    /// using Shannon decomposition (with structural hashing this reconverges
    /// aggressively).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the function's input count.
    pub fn build_function(&mut self, function: TruthTable, inputs: &[Lit]) -> Lit {
        assert_eq!(inputs.len(), function.input_count());
        if function.is_constant() {
            return if function.bits() == 0 { Lit::FALSE } else { Lit::TRUE };
        }
        // Decompose on the last variable to keep cofactor indices simple.
        let var = function.input_count() - 1;
        if !function.depends_on(var) {
            let f = function.cofactor(var, false);
            return self.build_function(f, &inputs[..var]);
        }
        let f0 = function.cofactor(var, false);
        let f1 = function.cofactor(var, true);
        let lo = self.build_function(f0, &inputs[..var]);
        let hi = self.build_function(f1, &inputs[..var]);
        self.mux(inputs[var], hi, lo)
    }

    /// Simulates the whole AIG for 64 input vectors; `pi_values[i]` feeds
    /// PI `i`. Returns one 64-lane word per node.
    pub fn simulate(&self, pi_values: &[u64]) -> Vec<u64> {
        assert_eq!(pi_values.len(), self.pis.len());
        let mut vals = vec![0u64; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            vals[i] = match node.kind {
                NodeKind::Const => 0,
                NodeKind::Pi(k) => pi_values[k as usize],
                NodeKind::And => {
                    let a = node.fanin[0];
                    let b = node.fanin[1];
                    let va = vals[a.node() as usize] ^ if a.is_complement() { u64::MAX } else { 0 };
                    let vb = vals[b.node() as usize] ^ if b.is_complement() { u64::MAX } else { 0 };
                    va & vb
                }
            };
        }
        vals
    }

    /// Evaluates a literal given per-node simulation values.
    pub fn lit_value(lit: Lit, vals: &[u64]) -> u64 {
        vals[lit.node() as usize] ^ if lit.is_complement() { u64::MAX } else { 0 }
    }

    /// Counts the AND nodes in the transitive fanin of the POs (the "live"
    /// logic after simplification).
    pub fn live_and_count(&self) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = self.pos.iter().map(|l| l.node()).collect();
        let mut count = 0usize;
        while let Some(n) = stack.pop() {
            if seen[n as usize] {
                continue;
            }
            seen[n as usize] = true;
            if self.nodes[n as usize].kind == NodeKind::And {
                count += 1;
                for f in self.nodes[n as usize].fanin {
                    stack.push(f.node());
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_simplification_rules() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(a, Lit::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Lit::FALSE);
        let ab1 = g.and(a, b);
        let ab2 = g.and(b, a);
        assert_eq!(ab1, ab2, "structural hashing reuses nodes");
        assert_eq!(g.and_count(), 1);
    }

    #[test]
    fn xor_simulates_correctly() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let y = g.xor(a, b);
        g.add_po(y);
        let va = 0b0101u64;
        let vb = 0b0011u64;
        let vals = g.simulate(&[va, vb]);
        assert_eq!(Aig::lit_value(y, &vals) & 0xF, (va ^ vb) & 0xF);
    }

    #[test]
    fn mux_simulates_correctly() {
        let mut g = Aig::new();
        let s = g.add_pi();
        let t = g.add_pi();
        let e = g.add_pi();
        let y = g.mux(s, t, e);
        let vals = g.simulate(&[0b1100, 0b1010, 0b0110]);
        let want = (0b1100u64 & 0b1010) | (!0b1100u64 & 0b0110);
        assert_eq!(Aig::lit_value(y, &vals) & 0xF, want & 0xF);
    }

    #[test]
    fn build_function_matches_truth_table() {
        // Try every 3-input function on a sample basis plus all 2-input ones.
        // Lane i of the simulation carries minterm i when PI k is fed the
        // standard variable pattern (0xAA.., 0xCC.., 0xF0..).
        for bits in 0..16u64 {
            let tt = TruthTable::new(2, bits);
            let mut g = Aig::new();
            let a = g.add_pi();
            let b = g.add_pi();
            let y = g.build_function(tt, &[a, b]);
            let vals = g.simulate(&[0b1010, 0b1100]);
            let got = Aig::lit_value(y, &vals) & 0xF;
            assert_eq!(got, tt.bits(), "2-input function {bits:#x}");
        }
        for bits in [0x96u64, 0xE8, 0x7F, 0x01, 0x69] {
            let tt = TruthTable::new(3, bits);
            let mut g = Aig::new();
            let pis: Vec<Lit> = (0..3).map(|_| g.add_pi()).collect();
            let y = g.build_function(tt, &pis);
            let vals = g.simulate(&[0xAA, 0xCC, 0xF0]);
            assert_eq!(Aig::lit_value(y, &vals) & 0xFF, tt.bits(), "3-input function {bits:#x}");
        }
    }

    #[test]
    fn constant_function_builds_constant() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let y0 = g.build_function(TruthTable::zero(1), &[a]);
        let y1 = g.build_function(TruthTable::one(1), &[a]);
        assert_eq!(y0, Lit::FALSE);
        assert_eq!(y1, Lit::TRUE);
    }

    #[test]
    fn live_and_count_ignores_dangling() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let live = g.and(a, b);
        let _dead = g.and(a, !b);
        g.add_po(live);
        assert_eq!(g.and_count(), 2);
        assert_eq!(g.live_and_count(), 1);
    }

    #[test]
    fn lit_ops() {
        let l = Lit::new(5, false);
        assert_eq!((!l).node(), 5);
        assert!((!l).is_complement());
        assert_eq!(!!l, l);
        assert!(Lit::TRUE.is_const());
        assert_eq!(!Lit::FALSE, Lit::TRUE);
    }
}
