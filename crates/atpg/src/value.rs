//! Three-valued logic and the composite (good, faulty) 5-valued algebra.
//!
//! PODEM reasons about two machines at once: the fault-free ("good") and the
//! faulty circuit. Each net carries a [`Val`] — a pair of [`Tri`] values.
//! The classic D-algebra symbols map as: `0 = (F,F)`, `1 = (T,T)`,
//! `D = (T,F)`, `D̄ = (F,T)`, `X` = any pair with an unknown component.

use rsyn_netlist::TruthTable;

/// A three-valued logic value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tri {
    /// Logic 0.
    F,
    /// Logic 1.
    T,
    /// Unknown.
    U,
}

impl Tri {
    /// Converts a boolean.
    pub fn from_bool(b: bool) -> Self {
        if b {
            Tri::T
        } else {
            Tri::F
        }
    }

    /// The known boolean value, if any.
    pub fn known(self) -> Option<bool> {
        match self {
            Tri::F => Some(false),
            Tri::T => Some(true),
            Tri::U => None,
        }
    }

    /// Three-valued negation (also available via the `!` operator).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        match self {
            Tri::F => Tri::T,
            Tri::T => Tri::F,
            Tri::U => Tri::U,
        }
    }
}

impl std::ops::Not for Tri {
    type Output = Tri;

    fn not(self) -> Tri {
        Tri::not(self)
    }
}

/// Bit pattern of input `i` over the 64 minterms of a truth table (bit `m`
/// is set iff bit `i` of `m` is).
const INPUT_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Evaluates a truth table in three-valued logic: the output is known iff
/// the function is constant over every completion of the unknown inputs.
pub fn eval3(function: TruthTable, inputs: &[Tri]) -> Tri {
    debug_assert_eq!(inputs.len(), function.input_count());
    let mut care = all_minterms(inputs.len());
    for (i, &v) in inputs.iter().enumerate() {
        care = restrict(care, i, v);
    }
    eval_over(function, care)
}

/// Every minterm of an `n`-input truth table, one bit per minterm.
pub(crate) fn all_minterms(n: usize) -> u64 {
    if n >= INPUT_PATTERNS.len() {
        u64::MAX
    } else {
        (1u64 << (1 << n)) - 1
    }
}

/// Narrows the minterm set `care` to the minterms in which input `i` has
/// value `v` (an unknown keeps both halves).
pub(crate) fn restrict(care: u64, i: usize, v: Tri) -> u64 {
    match v {
        Tri::T => care & INPUT_PATTERNS[i],
        Tri::F => care & !INPUT_PATTERNS[i],
        Tri::U => care,
    }
}

/// The three-valued output of `function` over the (non-empty) minterm set
/// `care`: known iff the function is constant on it.
pub(crate) fn eval_over(function: TruthTable, care: u64) -> Tri {
    let on = function.bits() & care;
    if on == 0 {
        Tri::F
    } else if on == care {
        Tri::T
    } else {
        Tri::U
    }
}

/// A composite good/faulty value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Val {
    /// Fault-free machine value.
    pub good: Tri,
    /// Faulty machine value.
    pub faulty: Tri,
}

impl Val {
    /// The all-unknown value.
    pub const X: Val = Val { good: Tri::U, faulty: Tri::U };

    /// Both machines at a known boolean value.
    pub fn both(b: bool) -> Self {
        let t = Tri::from_bool(b);
        Val { good: t, faulty: t }
    }

    /// The classic `D` value (good 1, faulty 0).
    pub const D: Val = Val { good: Tri::T, faulty: Tri::F };
    /// The classic `D̄` value (good 0, faulty 1).
    pub const DBAR: Val = Val { good: Tri::F, faulty: Tri::T };

    /// True if both machine values are known and differ (a fault effect).
    pub fn is_effect(self) -> bool {
        matches!((self.good, self.faulty), (Tri::T, Tri::F) | (Tri::F, Tri::T))
    }

    /// True if either component is unknown.
    pub fn has_unknown(self) -> bool {
        self.good == Tri::U || self.faulty == Tri::U
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tri_not() {
        assert_eq!(Tri::F.not(), Tri::T);
        assert_eq!(Tri::U.not(), Tri::U);
    }

    #[test]
    fn eval3_known_inputs() {
        let and2 = TruthTable::new(2, 0b1000);
        assert_eq!(eval3(and2, &[Tri::T, Tri::T]), Tri::T);
        assert_eq!(eval3(and2, &[Tri::T, Tri::F]), Tri::F);
    }

    #[test]
    fn eval3_controlling_unknown() {
        let and2 = TruthTable::new(2, 0b1000);
        // 0 & X = 0 (controlling value decides).
        assert_eq!(eval3(and2, &[Tri::F, Tri::U]), Tri::F);
        // 1 & X = X.
        assert_eq!(eval3(and2, &[Tri::T, Tri::U]), Tri::U);
        let or2 = TruthTable::new(2, 0b1110);
        assert_eq!(eval3(or2, &[Tri::T, Tri::U]), Tri::T);
        assert_eq!(eval3(or2, &[Tri::F, Tri::U]), Tri::U);
    }

    #[test]
    fn eval3_xor_with_unknown_is_unknown() {
        let xor = TruthTable::new(2, 0b0110);
        assert_eq!(eval3(xor, &[Tri::T, Tri::U]), Tri::U);
        assert_eq!(eval3(xor, &[Tri::U, Tri::U]), Tri::U);
        assert_eq!(eval3(xor, &[Tri::T, Tri::F]), Tri::T);
    }

    #[test]
    fn val_effects() {
        assert!(Val::D.is_effect());
        assert!(Val::DBAR.is_effect());
        assert!(!Val::both(true).is_effect());
        assert!(!Val::X.is_effect());
        assert!(Val::X.has_unknown());
    }
}
