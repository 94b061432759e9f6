//! Truth tables for boolean functions of up to six inputs.
//!
//! A [`TruthTable`] stores the function value for every input minterm in a
//! single `u64`: bit `m` holds `f(m)` where input `i` contributes bit `i` of
//! the minterm index. Functions with fewer than six inputs only use the low
//! `2^n` bits; the unused high bits are kept zero so that equality works.

use std::fmt;

/// Maximum number of truth-table inputs supported.
pub const MAX_TT_INPUTS: usize = 6;

/// A cube `(care, values)` over a function's inputs: input `i` is a literal
/// of the cube when bit `i` of `care` is set, positive when bit `i` of
/// `values` is set too (`values ⊆ care`). The empty cube `(0, 0)` is the
/// constant one.
pub type Cube = (u8, u8);

/// A complete truth table of a boolean function with up to six inputs.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TruthTable {
    bits: u64,
    inputs: u8,
}

impl TruthTable {
    /// Creates a truth table from raw bits.
    ///
    /// Bits above `2^inputs` are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `inputs > 6`.
    pub fn new(inputs: usize, bits: u64) -> Self {
        assert!(
            inputs <= MAX_TT_INPUTS,
            "truth tables support at most {MAX_TT_INPUTS} inputs, got {inputs}"
        );
        Self { bits: bits & Self::mask(inputs), inputs: inputs as u8 }
    }

    /// The constant-zero function of `inputs` variables.
    pub fn zero(inputs: usize) -> Self {
        Self::new(inputs, 0)
    }

    /// The constant-one function of `inputs` variables.
    pub fn one(inputs: usize) -> Self {
        Self::new(inputs, u64::MAX)
    }

    /// The projection function returning input `var` of `inputs` variables.
    ///
    /// # Panics
    ///
    /// Panics if `var >= inputs`.
    pub fn var(inputs: usize, var: usize) -> Self {
        assert!(var < inputs, "variable {var} out of range for {inputs} inputs");
        Self::new(inputs, Self::var_pattern(var))
    }

    /// The standard bit pattern of variable `var` over 64 minterms.
    fn var_pattern(var: usize) -> u64 {
        // For var v, minterm m has bit v of m set in alternating blocks of 2^v.
        const PATTERNS: [u64; 6] = [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
            0xFF00_FF00_FF00_FF00,
            0xFFFF_0000_FFFF_0000,
            0xFFFF_FFFF_0000_0000,
        ];
        PATTERNS[var]
    }

    /// Bit mask selecting the `2^inputs` meaningful bits.
    fn mask(inputs: usize) -> u64 {
        if inputs >= MAX_TT_INPUTS {
            u64::MAX
        } else {
            (1u64 << (1usize << inputs)) - 1
        }
    }

    /// Number of inputs of the function.
    #[inline]
    pub fn input_count(&self) -> usize {
        self.inputs as usize
    }

    /// Raw function bits (only the low `2^n` bits are meaningful).
    #[inline]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Evaluates the function for one input minterm.
    ///
    /// Input `i`'s value is bit `i` of `minterm`.
    #[inline]
    pub fn eval(&self, minterm: u64) -> bool {
        let m = minterm & ((1u64 << self.inputs) - 1);
        (self.bits >> m) & 1 == 1
    }

    /// Evaluates the function on 64 input vectors in parallel.
    ///
    /// `inputs[i]` carries the 64 values of input `i`; the result carries the
    /// 64 output values.
    pub fn eval_parallel(&self, inputs: &[u64]) -> u64 {
        debug_assert_eq!(inputs.len(), self.input_count());
        let mut out = 0u64;
        for m in 0..(1usize << self.inputs) {
            if (self.bits >> m) & 1 == 1 {
                let mut term = u64::MAX;
                for (i, &v) in inputs.iter().enumerate() {
                    term &= if (m >> i) & 1 == 1 { v } else { !v };
                }
                out |= term;
            }
        }
        out
    }

    /// Returns the function with input `var` complemented.
    pub fn flip_input(&self, var: usize) -> Self {
        assert!(var < self.input_count());
        let n = 1usize << self.inputs;
        let mut bits = 0u64;
        for m in 0..n {
            if (self.bits >> m) & 1 == 1 {
                bits |= 1 << (m ^ (1 << var));
            }
        }
        Self::new(self.input_count(), bits)
    }

    /// Returns the complemented function.
    pub fn not(&self) -> Self {
        Self::new(self.input_count(), !self.bits)
    }

    /// Returns the function with inputs permuted: new input `i` is old input
    /// `perm[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..inputs`.
    pub fn permute(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.input_count());
        let n = 1usize << self.inputs;
        let mut bits = 0u64;
        for m in 0..n {
            // Map a minterm in the new input order to the old order.
            let mut old = 0usize;
            for (new_i, &old_i) in perm.iter().enumerate() {
                if (m >> new_i) & 1 == 1 {
                    old |= 1 << old_i;
                }
            }
            if (self.bits >> old) & 1 == 1 {
                bits |= 1 << m;
            }
        }
        Self::new(self.input_count(), bits)
    }

    /// Returns the positive cofactor with respect to `var` (one fewer input).
    pub fn cofactor(&self, var: usize, value: bool) -> Self {
        assert!(var < self.input_count());
        let n = 1usize << self.inputs;
        let mut bits = 0u64;
        let mut idx = 0usize;
        for m in 0..n {
            if ((m >> var) & 1 == 1) == value {
                if (self.bits >> m) & 1 == 1 {
                    bits |= 1 << idx;
                }
                idx += 1;
            }
        }
        Self::new(self.input_count() - 1, bits)
    }

    /// True if the function actually depends on input `var`.
    pub fn depends_on(&self, var: usize) -> bool {
        self.cofactor(var, false) != self.cofactor(var, true)
    }

    /// True if the function is constant (zero or one).
    pub fn is_constant(&self) -> bool {
        self.bits == 0 || self.bits == Self::mask(self.input_count())
    }

    /// The minterms of `cube` over this function's inputs, as a bit set.
    fn cube_minterms(&self, (care, values): Cube) -> u64 {
        (0..self.input_count()).filter(|&i| care >> i & 1 == 1).fold(
            Self::mask(self.input_count()),
            |acc, i| {
                let var = Self::var_pattern(i);
                acc & if values >> i & 1 == 1 { var } else { !var }
            },
        )
    }

    /// The prime implicants of the function's on-set: every cube inside the
    /// on-set from which no literal can be dropped, by ascending `care` and
    /// then descending `values`. The SAT prover's CNF (Larrabee 1992) takes
    /// all of them; the simulator's covers pick among them.
    pub fn prime_implicants(&self) -> Vec<Cube> {
        let n = self.input_count();
        // `forall[care]`: the function with every input outside `care`
        // universally quantified, so the cube `(care, values)` lies inside
        // the on-set exactly when bit `values` of it is set. Each entry
        // quantifies one more input than an entry computed before it.
        let all = (1usize << n) - 1;
        let mut forall = vec![0u64; all + 1];
        forall[all] = self.bits;
        for care in (0..all).rev() {
            let i = (!care & all).trailing_zeros() as usize;
            let (f, var, shift) = (forall[care | 1 << i], Self::var_pattern(i), 1 << i);
            let both = f & !var & (f & var) >> shift;
            forall[care] = both | both << shift;
        }
        let inside = |(care, values): Cube| forall[care as usize] >> values & 1 == 1;
        let mut primes = Vec::new();
        for care in 0..1u8 << n {
            // Every `values` ⊆ `care`, by the subset-enumeration trick.
            let mut values = care;
            loop {
                if inside((care, values))
                    && (0..n).filter(|&i| care >> i & 1 == 1).all(|i| {
                        let bit = 1u8 << i;
                        !inside((care & !bit, values & !bit))
                    })
                {
                    primes.push((care, values));
                }
                if values == 0 {
                    break;
                }
                values = (values - 1) & care;
            }
        }
        primes
    }

    /// An irredundant cover of the on-set by prime implicants, in
    /// [`TruthTable::prime_implicants`] order: greedily the prime that
    /// covers the most uncovered minterms (ties: fewer literals, then the
    /// earlier prime), then every cube the others already cover is dropped,
    /// most literals first. No cube of the result is covered by the rest,
    /// so it has at most one cube per minterm.
    pub(crate) fn irredundant_cover(&self) -> Vec<Cube> {
        let primes = self.prime_implicants();
        let sets: Vec<u64> = primes.iter().map(|&c| self.cube_minterms(c)).collect();
        let mut chosen = vec![false; primes.len()];
        let mut covered = 0u64;
        while covered != self.bits {
            let best = (0..primes.len())
                .max_by_key(|&p| {
                    let gain = (sets[p] & !covered).count_ones();
                    (gain, std::cmp::Reverse(primes[p].0.count_ones()), std::cmp::Reverse(p))
                })
                .expect("an uncovered minterm lies in some prime");
            chosen[best] = true;
            covered |= sets[best];
        }
        let mut by_literals: Vec<usize> = (0..primes.len()).filter(|&p| chosen[p]).collect();
        by_literals.sort_by_key(|&p| std::cmp::Reverse(primes[p].0.count_ones()));
        for p in by_literals {
            chosen[p] = false;
            let rest = (0..primes.len()).filter(|&q| chosen[q]).fold(0, |acc, q| acc | sets[q]);
            chosen[p] = rest != self.bits;
        }
        (0..primes.len()).filter(|&p| chosen[p]).map(|p| primes[p]).collect()
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} in, {:#018x})", self.inputs, self.bits)
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = 1usize << self.inputs;
        for m in (0..n).rev() {
            write!(f, "{}", (self.bits >> m) & 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_patterns_match_eval() {
        for n in 1..=6usize {
            for v in 0..n {
                let tt = TruthTable::var(n, v);
                for m in 0..(1u64 << n) {
                    assert_eq!(tt.eval(m), (m >> v) & 1 == 1, "n={n} v={v} m={m}");
                }
            }
        }
    }

    #[test]
    fn nand2_eval() {
        // NAND2: !(a & b) over inputs a=var0, b=var1.
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let nand = TruthTable::new(2, !(a.bits() & b.bits()));
        assert!(nand.eval(0b00));
        assert!(nand.eval(0b01));
        assert!(nand.eval(0b10));
        assert!(!nand.eval(0b11));
    }

    #[test]
    fn parallel_eval_matches_scalar() {
        let tt = TruthTable::new(3, 0b1110_1000); // majority
        let a = 0b0101u64;
        let b = 0b0011u64;
        let c = 0b1111u64;
        let out = tt.eval_parallel(&[a, b, c]);
        for lane in 0..4u64 {
            let m = ((a >> lane) & 1) | (((b >> lane) & 1) << 1) | (((c >> lane) & 1) << 2);
            assert_eq!((out >> lane) & 1 == 1, tt.eval(m), "lane {lane}");
        }
    }

    #[test]
    fn permute_identity_and_swap() {
        let tt = TruthTable::new(2, 0b0100); // a & !b
        assert_eq!(tt.permute(&[0, 1]), tt);
        let swapped = tt.permute(&[1, 0]); // b & !a... check: new in0 = old in1
        assert!(swapped.eval(0b01)); // new minterm a=1,b=0 -> old a=0,b=1
        assert!(!swapped.eval(0b10));
    }

    #[test]
    fn cofactor_and_depends() {
        let a = TruthTable::var(2, 0);
        assert!(a.depends_on(0));
        assert!(!a.depends_on(1));
        assert_eq!(a.cofactor(0, true), TruthTable::one(1));
        assert_eq!(a.cofactor(0, false), TruthTable::zero(1));
    }

    #[test]
    fn flip_input_involutes() {
        let tt = TruthTable::new(3, 0b1011_0010);
        assert_eq!(tt.flip_input(1).flip_input(1), tt);
    }

    #[test]
    fn display_is_msb_first() {
        let tt = TruthTable::new(2, 0b0110);
        assert_eq!(tt.to_string(), "0110");
    }

    #[test]
    fn primes_of_common_cells() {
        let primes = |inputs: usize, bits: u64| TruthTable::new(inputs, bits).prime_implicants();
        // AND2: on-set a·b; off-set ¬a + ¬b.
        assert_eq!(primes(2, 0x8), vec![(0b11, 0b11)]);
        assert_eq!(primes(2, 0x7), vec![(0b01, 0b00), (0b10, 0b00)]);
        // XOR2 has no mergeable minterms.
        assert_eq!(primes(2, 0x6), vec![(0b11, 0b10), (0b11, 0b01)]);
        // Constants: the empty cube, or nothing.
        assert_eq!(primes(0, 1), vec![(0, 0)]);
        assert!(primes(3, 0).is_empty());
    }

    /// Random functions of up to six inputs: the primes cover exactly the
    /// on-set, and the irredundant cover is a subset of them that does too
    /// and whose every cube covers a minterm the others miss.
    #[test]
    fn primes_cover_their_function() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let n = (state % 7) as usize;
            let tt = TruthTable::new(n, state.rotate_left(17));
            let union = |cubes: &[Cube]| cubes.iter().fold(0, |acc, &c| acc | tt.cube_minterms(c));
            let primes = tt.prime_implicants();
            assert_eq!(union(&primes), tt.bits(), "n={n}");
            let cover = tt.irredundant_cover();
            assert_eq!(union(&cover), tt.bits(), "{tt:?}");
            for (i, cube) in cover.iter().enumerate() {
                assert!(primes.contains(cube), "{tt:?}");
                let mut rest = cover.clone();
                rest.remove(i);
                assert_ne!(union(&rest), tt.bits(), "{tt:?}: cube {cube:?} is redundant");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_inputs_panics() {
        let _ = TruthTable::new(7, 0);
    }
}
