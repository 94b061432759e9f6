//! Word-level logic construction over an AIG, bound to netlist nets.
//!
//! A [`LogicBlock`] accumulates multi-bit combinational logic (adders,
//! shifters, muxes, table lookups…) in an AIG whose primary inputs and
//! outputs are bound to nets of an existing [`Netlist`]; [`LogicBlock::emit`]
//! then technology-maps the block into the netlist. Generators mix this
//! with directly-instantiated arithmetic macros (see [`crate::arith`]).

use rsyn_logic::aig::Lit;
use rsyn_logic::map::{MapError, MapOptions, Mapper};
use rsyn_logic::Aig;
use rsyn_netlist::{CellId, GateId, NetId, Netlist, TruthTable};

/// A multi-bit signal: bit `i` is `bits[i]` (LSB first).
pub type Word = Vec<Lit>;

/// An AIG under construction with netlist boundary bindings.
#[derive(Debug, Default)]
pub struct LogicBlock {
    aig: Aig,
    pi_nets: Vec<NetId>,
    po_nets: Vec<NetId>,
}

impl LogicBlock {
    /// Creates an empty block.
    pub fn new() -> Self {
        Self { aig: Aig::new(), pi_nets: Vec::new(), po_nets: Vec::new() }
    }

    /// Binds existing nets as block inputs, returning them as a word.
    pub fn feed(&mut self, nets: &[NetId]) -> Word {
        nets.iter()
            .map(|&n| {
                self.pi_nets.push(n);
                self.aig.add_pi()
            })
            .collect()
    }

    /// Binds one net as a block input.
    pub fn feed_bit(&mut self, net: NetId) -> Lit {
        self.pi_nets.push(net);
        self.aig.add_pi()
    }

    /// Drives an existing (undriven) net with a literal.
    pub fn drive(&mut self, net: NetId, lit: Lit) {
        self.po_nets.push(net);
        self.aig.add_po(lit);
    }

    /// Drives a vector of nets with a word (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn drive_word(&mut self, nets: &[NetId], word: &Word) {
        assert_eq!(nets.len(), word.len());
        for (&n, &l) in nets.iter().zip(word) {
            self.drive(n, l);
        }
    }

    /// Technology-maps the block into `nl` with the given allowed cells.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors (incomplete allowed subset).
    pub fn emit(
        self,
        nl: &mut Netlist,
        mapper: &Mapper,
        allowed: &[CellId],
        options: &MapOptions,
        prefix: &str,
    ) -> Result<Vec<GateId>, MapError> {
        let mut mask = vec![false; nl.lib().len()];
        for &c in allowed {
            mask[c.index()] = true;
        }
        mapper.map_into(&self.aig, &mask, options, nl, &self.pi_nets, &self.po_nets, prefix)
    }

    // --- bit ops ------------------------------------------------------------

    /// AND of two literals.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        self.aig.and(a, b)
    }

    /// OR of two literals.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        self.aig.or(a, b)
    }

    /// XOR of two literals.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        self.aig.xor(a, b)
    }

    /// 2:1 mux of literals: `s ? t : e`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        self.aig.mux(s, t, e)
    }

    // --- word ops -------------------------------------------------------------

    /// Constant word.
    pub fn const_word(&mut self, value: u64, width: usize) -> Word {
        (0..width).map(|i| if (value >> i) & 1 == 1 { Lit::TRUE } else { Lit::FALSE }).collect()
    }

    /// Bitwise NOT.
    pub fn not_w(&mut self, a: &Word) -> Word {
        a.iter().map(|&l| !l).collect()
    }

    /// Bitwise XOR.
    ///
    /// # Panics
    ///
    /// Panics if widths differ (as do all two-operand word ops).
    pub fn xor_w(&mut self, a: &Word, b: &Word) -> Word {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| self.aig.xor(x, y)).collect()
    }

    /// Bitwise AND.
    pub fn and_w(&mut self, a: &Word, b: &Word) -> Word {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| self.aig.and(x, y)).collect()
    }

    /// Bitwise OR.
    pub fn or_w(&mut self, a: &Word, b: &Word) -> Word {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| self.aig.or(x, y)).collect()
    }

    /// Word mux: `s ? t : e`.
    pub fn mux_w(&mut self, s: Lit, t: &Word, e: &Word) -> Word {
        assert_eq!(t.len(), e.len());
        t.iter().zip(e).map(|(&x, &y)| self.aig.mux(s, x, y)).collect()
    }

    /// Ripple-carry addition; returns (sum, carry-out).
    pub fn add_w(&mut self, a: &Word, b: &Word, cin: Lit) -> (Word, Lit) {
        assert_eq!(a.len(), b.len());
        let mut carry = cin;
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let p = self.aig.xor(x, y);
            sum.push(self.aig.xor(p, carry));
            let g = self.aig.and(x, y);
            let t = self.aig.and(p, carry);
            carry = self.aig.or(g, t);
        }
        (sum, carry)
    }

    /// Two's complement subtraction `a - b`; returns (difference, borrow-free
    /// carry-out, i.e. `a >= b` for unsigned operands).
    pub fn sub_w(&mut self, a: &Word, b: &Word) -> (Word, Lit) {
        let nb = self.not_w(b);
        self.add_w(a, &nb, Lit::TRUE)
    }

    /// Unsigned equality.
    pub fn eq_w(&mut self, a: &Word, b: &Word) -> Lit {
        let x = self.xor_w(a, b);
        let any = self.reduce_or(&x);
        !any
    }

    /// Unsigned `a < b`.
    pub fn lt_w(&mut self, a: &Word, b: &Word) -> Lit {
        let (_, ge) = self.sub_w(a, b);
        !ge
    }

    /// OR-reduction of a word.
    pub fn reduce_or(&mut self, a: &Word) -> Lit {
        a.iter().fold(Lit::FALSE, |acc, &l| self.aig.or(acc, l))
    }

    /// XOR-reduction (parity) of a word.
    pub fn reduce_xor(&mut self, a: &Word) -> Lit {
        a.iter().fold(Lit::FALSE, |acc, &l| self.aig.xor(acc, l))
    }

    /// Left shift by a constant (zero fill), same width.
    pub fn shl_const(&mut self, a: &Word, k: usize) -> Word {
        let mut out = vec![Lit::FALSE; a.len()];
        if k < a.len() {
            out[k..].copy_from_slice(&a[..a.len() - k]);
        }
        out
    }

    /// Right shift by a constant (zero fill), same width.
    pub fn shr_const(&mut self, a: &Word, k: usize) -> Word {
        let mut out = vec![Lit::FALSE; a.len()];
        let keep = a.len().saturating_sub(k);
        out[..keep].copy_from_slice(&a[k..k + keep]);
        out
    }

    /// Rotate left by a constant.
    pub fn rotl_const(&mut self, a: &Word, k: usize) -> Word {
        let n = a.len();
        (0..n).map(|i| a[(i + n - k % n) % n]).collect()
    }

    /// Logarithmic barrel shifter: left shift `a` by `amount` (unsigned).
    pub fn shl_barrel(&mut self, a: &Word, amount: &Word) -> Word {
        let mut cur = a.clone();
        for (stage, &s) in amount.iter().enumerate() {
            let k = 1usize << stage;
            if k >= a.len() {
                // Shifting by the full width or more zeroes the word.
                let zero = vec![Lit::FALSE; a.len()];
                cur = self.mux_w(s, &zero, &cur);
            } else {
                let shifted = self.shl_const(&cur, k);
                cur = self.mux_w(s, &shifted, &cur);
            }
        }
        cur
    }

    /// Logarithmic barrel shifter: right shift.
    pub fn shr_barrel(&mut self, a: &Word, amount: &Word) -> Word {
        let mut cur = a.clone();
        for (stage, &s) in amount.iter().enumerate() {
            let k = 1usize << stage;
            if k >= a.len() {
                let zero = vec![Lit::FALSE; a.len()];
                cur = self.mux_w(s, &zero, &cur);
            } else {
                let shifted = self.shr_const(&cur, k);
                cur = self.mux_w(s, &shifted, &cur);
            }
        }
        cur
    }

    /// Unsigned multiplication via partial-product rows (result truncated to
    /// `a.len() + b.len()` bits).
    pub fn mul_w(&mut self, a: &Word, b: &Word) -> Word {
        let out_w = a.len() + b.len();
        let mut acc = vec![Lit::FALSE; out_w];
        for (j, &bj) in b.iter().enumerate() {
            let mut row = vec![Lit::FALSE; out_w];
            for (i, &ai) in a.iter().enumerate() {
                row[i + j] = self.aig.and(ai, bj);
            }
            let (sum, _) = self.add_w(&acc, &row, Lit::FALSE);
            acc = sum;
        }
        acc
    }

    /// Full binary decoder: `2^n` one-hot outputs from an `n`-bit word.
    pub fn decoder(&mut self, a: &Word) -> Vec<Lit> {
        let mut outs = vec![Lit::TRUE];
        for &bit in a {
            let mut next = Vec::with_capacity(outs.len() * 2);
            for &o in &outs {
                next.push(self.aig.and(o, !bit));
            }
            for &o in &outs {
                next.push(self.aig.and(o, bit));
            }
            outs = next;
        }
        outs
    }

    /// Priority encoder over `bits` (LSB highest priority): returns the
    /// index word and a valid flag.
    pub fn priority_encoder(&mut self, bits: &[Lit]) -> (Word, Lit) {
        let idx_w = bits.len().next_power_of_two().trailing_zeros().max(1) as usize;
        let mut idx = vec![Lit::FALSE; idx_w];
        let mut found = Lit::FALSE;
        for (i, &b) in bits.iter().enumerate() {
            let take = self.aig.and(b, !found);
            for (k, slot) in idx.iter_mut().enumerate() {
                if (i >> k) & 1 == 1 {
                    *slot = self.aig.or(*slot, take);
                }
            }
            found = self.aig.or(found, b);
        }
        (idx, found)
    }

    /// Table lookup: `table[a]`, where `table` values are `out_width`-bit.
    /// Splits recursively on the MSB for inputs wider than 6 bits.
    ///
    /// # Panics
    ///
    /// Panics if `table.len() != 2^a.len()`.
    pub fn lookup(&mut self, a: &Word, table: &[u64], out_width: usize) -> Word {
        assert_eq!(table.len(), 1 << a.len(), "table size mismatch");
        (0..out_width).map(|bit| self.lookup_bit(a, table, bit)).collect()
    }

    fn lookup_bit(&mut self, a: &Word, table: &[u64], bit: usize) -> Lit {
        if a.len() <= 6 {
            let mut bits = 0u64;
            for (m, &v) in table.iter().enumerate() {
                if (v >> bit) & 1 == 1 {
                    bits |= 1 << m;
                }
            }
            let tt = TruthTable::new(a.len(), bits);
            return self.aig.build_function(tt, a);
        }
        let half = table.len() / 2;
        let lo = self.lookup_bit(&a[..a.len() - 1].to_vec(), &table[..half], bit);
        let hi = self.lookup_bit(&a[..a.len() - 1].to_vec(), &table[half..], bit);
        self.aig.mux(a[a.len() - 1], hi, lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsyn_netlist::{sim::simulate_one, Library};

    /// Builds a block computing `f` of two 4-bit inputs and checks it
    /// against `reference` by exhaustive simulation.
    fn check<F, G>(build: F, reference: G, out_width: usize)
    where
        F: Fn(&mut LogicBlock, &Word, &Word) -> Word,
        G: Fn(u64, u64) -> u64,
    {
        let lib = Library::osu018();
        let mut nl = Netlist::new("t", lib.clone());
        let a_nets: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("a{i}"))).collect();
        let b_nets: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("b{i}"))).collect();
        let y_nets: Vec<NetId> =
            (0..out_width).map(|i| nl.add_named_net(format!("y{i}"))).collect();
        for &y in &y_nets {
            nl.mark_output(y);
        }
        let mut blk = LogicBlock::new();
        let a = blk.feed(&a_nets);
        let b = blk.feed(&b_nets);
        let y = build(&mut blk, &a, &b);
        assert_eq!(y.len(), out_width);
        blk.drive_word(&y_nets, &y);
        let mapper = Mapper::new(&lib);
        blk.emit(&mut nl, &mapper, &lib.comb_cells(), &MapOptions::area(), "t").unwrap();
        nl.validate().unwrap();
        let view = nl.comb_view().unwrap();
        for av in 0..16u64 {
            for bv in 0..16u64 {
                let mut pis = Vec::new();
                for i in 0..4 {
                    pis.push((av >> i) & 1 == 1);
                }
                for i in 0..4 {
                    pis.push((bv >> i) & 1 == 1);
                }
                let out = simulate_one(&nl, &view, &pis);
                let mut got = 0u64;
                for (i, &o) in out.iter().enumerate() {
                    if o {
                        got |= 1 << i;
                    }
                }
                let want = reference(av, bv) & ((1 << out_width) - 1);
                assert_eq!(got, want, "a={av} b={bv}");
            }
        }
    }

    #[test]
    fn adder_matches_arithmetic() {
        check(
            |blk, a, b| {
                let (s, co) = blk.add_w(a, b, Lit::FALSE);
                let mut out = s;
                out.push(co);
                out
            },
            |a, b| a + b,
            5,
        );
    }

    #[test]
    fn subtractor_matches_arithmetic() {
        check(|blk, a, b| blk.sub_w(a, b).0, |a, b| a.wrapping_sub(b), 4);
    }

    #[test]
    fn comparators() {
        check(
            |blk, a, b| {
                let eq = blk.eq_w(a, b);
                let lt = blk.lt_w(a, b);
                vec![eq, lt]
            },
            |a, b| u64::from(a == b) | (u64::from(a < b) << 1),
            2,
        );
    }

    #[test]
    fn multiplier_matches_arithmetic() {
        check(|blk, a, b| blk.mul_w(a, b), |a, b| a * b, 8);
    }

    #[test]
    fn barrel_shifter() {
        check(
            |blk, a, b| {
                let amt = vec![b[0], b[1]];
                blk.shl_barrel(a, &amt)
            },
            |a, b| (a << (b & 3)) & 0xF,
            4,
        );
    }

    #[test]
    fn lookup_matches_table() {
        // 4-bit table: f(a) = (a * 7 + 3) mod 16, applied to input a.
        let table: Vec<u64> = (0..16).map(|a| (a * 7 + 3) % 16).collect();
        let t2 = table.clone();
        check(move |blk, a, _| blk.lookup(a, &table, 4), move |a, _| t2[a as usize], 4);
    }

    #[test]
    fn decoder_is_one_hot() {
        check(
            |blk, a, _| {
                let two = vec![a[0], a[1]];
                blk.decoder(&two)
            },
            |a, _| 1 << (a & 3),
            4,
        );
    }

    #[test]
    fn priority_encoder_picks_lowest() {
        check(
            |blk, a, _| {
                let (idx, valid) = blk.priority_encoder(a);
                let mut out = idx;
                out.push(valid);
                out
            },
            |a, _| {
                if a == 0 {
                    0
                } else {
                    (a.trailing_zeros() as u64) | 0b100
                }
            },
            3,
        );
    }

    #[test]
    fn mux_and_rotate() {
        check(
            |blk, a, b| {
                let rot = blk.rotl_const(a, 1);
                blk.mux_w(b[0], &rot, a)
            },
            |a, b| {
                if b & 1 == 1 {
                    ((a << 1) | (a >> 3)) & 0xF
                } else {
                    a
                }
            },
            4,
        );
    }
}
