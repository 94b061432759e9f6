//! Test patterns and test sets (bit-packed over the view's primary inputs).
//!
//! Simulation paths load patterns into [`LaneBlock`]s in one of two ways.
//! [`pack`] puts a short list of patterns in consecutive lanes (PODEM and
//! SAT confirmation, fault dropping). [`TestSet::lane_blocks`] packs up to
//! four 64-pattern windows of a test set into the words of a block, so one
//! 256-lane fault-simulation call covers four windows; [`window_offsets`]
//! enumerates the stride-63 overlapping window starts that keep every
//! consecutive pattern pair (transition initialisation + launch) inside
//! some window.

use rsyn_netlist::{LaneBlock, LANES, LANE_WORDS};

/// One test pattern: a boolean assignment to every view PI, bit-packed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pattern {
    bits: Vec<u64>,
    len: usize,
}

impl Pattern {
    /// Creates an all-zero pattern for `len` inputs.
    pub fn zeros(len: usize) -> Self {
        Self { bits: vec![0; len.div_ceil(64)], len }
    }

    /// Creates a pattern from booleans.
    pub fn from_bools(values: &[bool]) -> Self {
        let mut p = Self::zeros(values.len());
        for (i, &v) in values.iter().enumerate() {
            p.set(i, v);
        }
        p
    }

    /// Number of inputs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the pattern covers zero inputs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len);
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len);
        if v {
            self.bits[i / 64] |= 1 << (i % 64);
        } else {
            self.bits[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Expands to one boolean per input.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

/// An ordered collection of test patterns.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TestSet {
    patterns: Vec<Pattern>,
}

impl TestSet {
    /// Creates an empty test set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a pattern.
    pub fn push(&mut self, p: Pattern) {
        self.patterns.push(p);
    }

    /// Number of tests.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True if there are no tests.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The patterns.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Keeps only the patterns at the given (sorted, unique) indices.
    pub fn retain_indices(&mut self, keep: &[usize]) {
        let mut out = Vec::with_capacity(keep.len());
        for &i in keep {
            out.push(self.patterns[i].clone());
        }
        self.patterns = out;
    }

    /// Packs up to [`LANE_WORDS`] 64-pattern windows into lane blocks: word
    /// `j` of `result[pi]` is the window starting at `offsets[j]`, lane `k`
    /// of it pattern `offsets[j] + k`. Lanes past the last pattern repeat
    /// it, and words beyond `offsets.len()` are zero.
    ///
    /// # Panics
    ///
    /// Panics if more than [`LANE_WORDS`] offsets are given.
    pub fn lane_blocks(&self, offsets: &[usize], pi_count: usize) -> Vec<LaneBlock> {
        assert!(offsets.len() <= LANE_WORDS, "at most {LANE_WORDS} windows per block");
        let mut out = vec![LaneBlock::ZERO; pi_count];
        let Some(last) = self.patterns.len().checked_sub(1) else { return out };
        for (j, &offset) in offsets.iter().enumerate() {
            for k in 0..64 {
                let p = &self.patterns[(offset + k).min(last)];
                for (i, block) in out.iter_mut().enumerate() {
                    if p.get(i) {
                        block.set_lane(64 * j + k, true);
                    }
                }
            }
        }
        out
    }
}

/// Packs up to [`LANES`] patterns into one lane block per PI: lane `k`
/// (word-major) of `result[pi]` is pattern `k`'s value of `pi`. Lanes from
/// `patterns.len()` on hold the all-zero pattern; callers mask them with
/// [`LaneBlock::mask_lanes`].
///
/// # Panics
///
/// Panics if more than [`LANES`] patterns are given.
pub fn pack(patterns: &[Pattern], pi_count: usize) -> Vec<LaneBlock> {
    assert!(patterns.len() <= LANES, "at most {LANES} patterns per block");
    let mut out = vec![LaneBlock::ZERO; pi_count];
    for (k, p) in patterns.iter().enumerate() {
        for (i, block) in out.iter_mut().enumerate() {
            if p.get(i) {
                block.set_lane(k, true);
            }
        }
    }
    out
}

/// The stride-63 overlapping window starts covering a test set of `len`
/// patterns: 0, 63, 126, … — each consecutive pattern pair sits fully
/// inside some window, which transition faults need. Returns `[0]` for any
/// `len <= 64` (including 0, matching the historical one-window loop).
pub fn window_offsets(len: usize) -> Vec<usize> {
    let mut out = vec![0];
    let mut offset = 0;
    while offset + 64 < len {
        offset += 63;
        out.push(offset);
    }
    out
}

/// Detection-validity mask for a window block: word `j` has its low
/// `len - offsets[j]` lanes set (capped at 64); words beyond `offsets.len()`
/// are zero. Lanes beyond the mask hold replicated patterns and must not
/// count as detections.
pub fn window_mask(offsets: &[usize], len: usize) -> LaneBlock {
    let mut mask = LaneBlock::ZERO;
    for (j, &offset) in offsets.iter().enumerate() {
        let valid = len.saturating_sub(offset).min(64);
        mask.set_word(j, if valid >= 64 { u64::MAX } else { (1u64 << valid) - 1 });
    }
    mask
}

impl FromIterator<Pattern> for TestSet {
    fn from_iter<I: IntoIterator<Item = Pattern>>(iter: I) -> Self {
        Self { patterns: iter.into_iter().collect() }
    }
}

impl Extend<Pattern> for TestSet {
    fn extend<I: IntoIterator<Item = Pattern>>(&mut self, iter: I) {
        self.patterns.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_round_trip() {
        let vals = vec![true, false, true, true, false];
        let p = Pattern::from_bools(&vals);
        assert_eq!(p.to_bools(), vals);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn pattern_wide() {
        let mut p = Pattern::zeros(130);
        p.set(0, true);
        p.set(64, true);
        p.set(129, true);
        assert!(p.get(0) && p.get(64) && p.get(129));
        assert!(!p.get(63) && !p.get(128));
    }

    /// Three PIs whose values differ from pattern to pattern.
    fn numbered(n: usize) -> Vec<Pattern> {
        (0..n).map(|k| Pattern::from_bools(&[k % 2 == 0, k % 3 == 0, k % 7 == 1])).collect()
    }

    #[test]
    fn pack_puts_pattern_k_in_lane_k() {
        for n in [0usize, 1, 2, 63, 64, 65, 200, 256] {
            let patterns = numbered(n);
            let blocks = pack(&patterns, 3);
            assert_eq!(blocks.len(), 3);
            for (pi, block) in blocks.iter().enumerate() {
                for lane in 0..LANES {
                    let want = patterns.get(lane).is_some_and(|p| p.get(pi));
                    assert_eq!(block.lane(lane), want, "n={n} pi {pi} lane {lane}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 256 patterns per block")]
    fn pack_rejects_more_than_a_block() {
        pack(&numbered(LANES + 1), 3);
    }

    #[test]
    fn lane_blocks_pack_windows_into_words() {
        let ts: TestSet = numbered(100).into_iter().collect();
        let offsets = window_offsets(ts.len());
        assert_eq!(offsets, vec![0, 63]);
        let blocks = ts.lane_blocks(&offsets, 3);
        for (j, &offset) in offsets.iter().enumerate() {
            for k in 0..64 {
                // Lanes past the last test repeat it.
                let p = &ts.patterns()[(offset + k).min(99)];
                for (pi, block) in blocks.iter().enumerate() {
                    assert_eq!(block.lane(64 * j + k), p.get(pi), "window {j} lane {k} pi {pi}");
                }
            }
        }
        // Words beyond the given offsets stay zero.
        assert_eq!(blocks[0].word(2), 0);
        assert_eq!(blocks[0].word(3), 0);
    }

    #[test]
    fn window_offsets_cover_every_adjacent_pair() {
        for len in [0usize, 1, 64, 65, 100, 127, 128, 500] {
            let offsets = window_offsets(len);
            assert_eq!(offsets[0], 0, "len={len}");
            // Every consecutive pair (t, t+1) must fit inside some window.
            for t in 0..len.saturating_sub(1) {
                assert!(
                    offsets.iter().any(|&o| t >= o && t + 1 < o + 64),
                    "len={len}: pair ({t},{}) straddles every window",
                    t + 1
                );
            }
        }
    }

    #[test]
    fn window_mask_counts_real_tests() {
        let offsets = window_offsets(100);
        let mask = window_mask(&offsets, 100);
        assert_eq!(mask.word(0), u64::MAX, "window 0 holds 64 real tests");
        assert_eq!(mask.word(1), (1u64 << 37) - 1, "window 63 holds tests 63..100");
        assert_eq!(mask.word(2), 0);
    }

    #[test]
    fn retain_indices_keeps_order() {
        let mut ts: TestSet = (0..5).map(|i| Pattern::from_bools(&[(i % 2) == 0])).collect();
        ts.retain_indices(&[0, 3]);
        assert_eq!(ts.len(), 2);
        assert!(ts.patterns()[0].get(0));
        assert!(!ts.patterns()[1].get(0));
    }
}
