//! The 256-lane simulation word: a block of four independent 64-lane words.
//!
//! [`LaneBlock`] is the one unit every bit-parallel simulator operates on:
//! 256 input vectors evaluated per gate visit, stored as `[u64; 4]` so the
//! element-wise boolean operations autovectorize (one AVX2 `vpand` per op
//! on x86-64) while staying plain portable Rust. A call site that loads
//! fewer patterns masks the lanes it did not fill
//! ([`LaneBlock::mask_lanes`]).
//!
//! # Determinism contract
//!
//! A block is **four independent 64-lane words**, not one 256-lane
//! sequence. Lane `i` of the block maps to word `i / 64`, bit `i % 64`,
//! and every operation with sequence semantics (the launch-shift used by
//! transition faults, lane enumeration order) treats the words separately:
//!
//! * [`LaneBlock::shl1_words`] shifts each word independently — bit 0 of
//!   every word has no predecessor, exactly as in four separate 64-lane
//!   simulations;
//! * [`LaneBlock::first_lane`] enumerates word-major (word 0 bit 0 … word
//!   0 bit 63, then word 1 bit 0 …), matching the order in which four
//!   sequential 64-lane calls would have seen the same patterns.
//!
//! Consequently a 256-lane simulation is *bit-identical* to four
//! back-to-back 64-lane simulations of its words. That contract is what
//! lets the ATPG engine adopt the wide kernel without perturbing any
//! deterministic counter, histogram, or test-set byte. See
//! ARCHITECTURE.md § "Simulation kernel".

use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

/// Number of 64-bit words in a [`LaneBlock`].
pub const LANE_WORDS: usize = 4;

/// Number of simulation lanes (patterns) in a [`LaneBlock`].
pub const LANES: usize = 64 * LANE_WORDS;

/// A block of 256 simulation lanes (four independent 64-lane words).
///
/// See the [module docs](self) for the word/lane layout and the
/// determinism contract.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(align(32))]
pub struct LaneBlock(pub [u64; LANE_WORDS]);

impl LaneBlock {
    /// All lanes 0.
    pub const ZERO: Self = Self([0; LANE_WORDS]);

    /// All lanes 1.
    pub const ONES: Self = Self([u64::MAX; LANE_WORDS]);

    /// Broadcasts one boolean to every lane.
    #[inline]
    pub fn splat(v: bool) -> Self {
        if v {
            Self::ONES
        } else {
            Self::ZERO
        }
    }

    /// Builds a block from its four words.
    #[inline]
    pub fn from_words(words: [u64; LANE_WORDS]) -> Self {
        Self(words)
    }

    /// Builds a block whose word 0 is `w` (lanes 64..256 are 0).
    #[inline]
    pub fn from_word(w: u64) -> Self {
        let mut b = Self::ZERO;
        b.0[0] = w;
        b
    }

    /// Word `i` of the block.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LANE_WORDS`.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.0[i]
    }

    /// Overwrites word `i` of the block.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LANE_WORDS`.
    #[inline]
    pub fn set_word(&mut self, i: usize, w: u64) {
        self.0[i] = w;
    }

    /// The underlying words.
    #[inline]
    pub fn words(&self) -> &[u64; LANE_WORDS] {
        &self.0
    }

    /// True if any lane is set.
    #[inline]
    pub fn any(&self) -> bool {
        self.0.iter().any(|&w| w != 0)
    }

    /// Value of lane `i` (word-major: word `i / 64`, bit `i % 64`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= LANES`.
    #[inline]
    pub fn lane(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LANES`.
    #[inline]
    pub fn set_lane(&mut self, i: usize, v: bool) {
        if v {
            self.0[i / 64] |= 1 << (i % 64);
        } else {
            self.0[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Index of the lowest set lane in word-major order, if any.
    #[inline]
    pub fn first_lane(&self) -> Option<usize> {
        for (i, &w) in self.0.iter().enumerate() {
            if w != 0 {
                return Some(i * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Number of set lanes.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Shifts every word left by one **independently** (no carry between
    /// words): lane `i` receives the old value of lane `i - 1` within the
    /// same word; bit 0 of every word becomes 0.
    ///
    /// This is the launch-sequence shift for transition faults — each
    /// 64-lane word is its own pattern sequence, so a block-wide
    /// simulation bit-matches four word-wide ones.
    #[inline]
    pub fn shl1_words(&self) -> Self {
        let mut out = *self;
        for w in &mut out.0 {
            *w <<= 1;
        }
        out
    }

    /// Mask with bit 0 of every word set — the lanes that have no
    /// predecessor under [`LaneBlock::shl1_words`] semantics.
    #[inline]
    pub fn word_lsbs() -> Self {
        Self([1; LANE_WORDS])
    }

    /// Mask with the low `n` lanes set (word-major order).
    ///
    /// # Panics
    ///
    /// Panics if `n > LANES`.
    #[inline]
    pub fn mask_lanes(n: usize) -> Self {
        assert!(n <= LANES, "lane mask of {n} exceeds {LANES} lanes");
        let mut out = Self::ZERO;
        for (i, w) in out.0.iter_mut().enumerate() {
            let lo = i * 64;
            if n >= lo + 64 {
                *w = u64::MAX;
            } else if n > lo {
                *w = (1u64 << (n - lo)) - 1;
            }
        }
        out
    }

    /// Mask with the low `n` words fully set.
    ///
    /// # Panics
    ///
    /// Panics if `n > LANE_WORDS`.
    #[inline]
    pub fn mask_words(n: usize) -> Self {
        assert!(n <= LANE_WORDS, "word mask of {n} exceeds {LANE_WORDS} words");
        let mut out = Self::ZERO;
        for w in &mut out.0[..n] {
            *w = u64::MAX;
        }
        out
    }
}

impl fmt::Debug for LaneBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LaneBlock({:#018x} {:#018x} {:#018x} {:#018x})",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

macro_rules! block_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $assign_op:tt) => {
        impl $trait for LaneBlock {
            type Output = Self;
            #[inline]
            fn $method(mut self, rhs: Self) -> Self {
                for i in 0..LANE_WORDS {
                    self.0[i] $assign_op rhs.0[i];
                }
                self
            }
        }
        impl $assign_trait for LaneBlock {
            #[inline]
            fn $assign_method(&mut self, rhs: Self) {
                for i in 0..LANE_WORDS {
                    self.0[i] $assign_op rhs.0[i];
                }
            }
        }
    };
}

block_binop!(BitAnd, bitand, BitAndAssign, bitand_assign, &=);
block_binop!(BitOr, bitor, BitOrAssign, bitor_assign, |=);
block_binop!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^=);

impl Not for LaneBlock {
    type Output = Self;
    #[inline]
    fn not(mut self) -> Self {
        for w in &mut self.0 {
            *w = !*w;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_addressing_is_word_major() {
        let mut b = LaneBlock::ZERO;
        b.set_lane(0, true);
        b.set_lane(63, true);
        b.set_lane(64, true);
        b.set_lane(255, true);
        assert_eq!(b.word(0), 1 | (1 << 63));
        assert_eq!(b.word(1), 1);
        assert_eq!(b.word(3), 1 << 63);
        assert_eq!(b.count_ones(), 4);
        assert!(b.lane(64) && !b.lane(65));
    }

    #[test]
    fn first_lane_is_word_major() {
        let mut b = LaneBlock::ZERO;
        assert_eq!(b.first_lane(), None);
        b.set_lane(200, true);
        assert_eq!(b.first_lane(), Some(200));
        b.set_lane(70, true);
        assert_eq!(b.first_lane(), Some(70));
        b.set_lane(3, true);
        assert_eq!(b.first_lane(), Some(3));
    }

    #[test]
    fn shl1_does_not_carry_across_words() {
        let mut b = LaneBlock::ZERO;
        b.set_lane(63, true);
        b.set_lane(64, true);
        let s = b.shl1_words();
        assert!(!s.lane(64), "word 0 bit 63 must not carry into word 1");
        assert!(s.lane(65), "word 1 bit 0 shifts within its word");
        assert_eq!(s.word(0), 0, "bit 63 shifts out");
    }

    #[test]
    fn masks() {
        assert_eq!(LaneBlock::mask_lanes(0), LaneBlock::ZERO);
        assert_eq!(LaneBlock::mask_lanes(256), LaneBlock::ONES);
        let m = LaneBlock::mask_lanes(70);
        assert_eq!(m.word(0), u64::MAX);
        assert_eq!(m.word(1), 0b11_1111);
        assert_eq!(m.word(2), 0);
        assert_eq!(LaneBlock::mask_words(2).word(1), u64::MAX);
        assert_eq!(LaneBlock::mask_words(2).word(2), 0);
        assert_eq!(LaneBlock::word_lsbs().count_ones(), 4);
    }

    #[test]
    fn boolean_ops_are_element_wise() {
        let a = LaneBlock::from_words([0xF0, 0x0F, u64::MAX, 0]);
        let b = LaneBlock::from_words([0xFF, 0xFF, 0, u64::MAX]);
        assert_eq!((a & b).words(), &[0xF0, 0x0F, 0, 0]);
        assert_eq!((a | b).words(), &[0xFF, 0xFF, u64::MAX, u64::MAX]);
        assert_eq!((a ^ b).words(), &[0x0F, 0xF0, u64::MAX, u64::MAX]);
        assert_eq!((!LaneBlock::ZERO), LaneBlock::ONES);
    }
}
