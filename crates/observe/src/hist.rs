//! Fixed-bucket histograms: power-of-two buckets over `u64` quantities.
//!
//! Two uses share this type:
//!
//! * **Deterministic histograms** ([`hist_add`]): distributions of
//!   thread-count-independent quantities — PODEM backtracks/decisions per
//!   fault, cluster sizes, resynthesis window sizes. They are encoded into
//!   the deterministic *counter* namespace as
//!   `hist.<name>.count`, `hist.<name>.sum`, `hist.<name>.min`,
//!   `hist.<name>.max`, and one `hist.<name>.bNN` counter per non-empty
//!   bucket, so they ride along in manifests, `check_manifest
//!   --determinism`, checkpoint counter snapshots, and
//!   [`crate::restore_counters`] with no extra plumbing. Merging is
//!   commutative (adds, plus min/max for the extremes), which keeps the
//!   encoding thread-count independent.
//! * **Volatile wall-time histograms**: every [`crate::Span`] feeds one
//!   (in nanoseconds); [`crate::manifest::Run::finish`] summarises them
//!   into `timings` quantile keys (`span.<name>.ms_p50` …).
//!
//! # Buckets
//!
//! Bucket `b00` holds the value 0; bucket `bNN` (1 ≤ NN ≤ 64) holds the
//! values with bit length NN, i.e. the range `[2^(NN-1), 2^NN - 1]`.
//! Quantiles interpolate inside a bucket and are therefore approximate
//! (within 2× above the true value), but — crucially — deterministic.

use std::collections::BTreeMap;

/// Number of buckets: one for zero plus one per `u64` bit length.
pub const BUCKETS: usize = 65;

/// A power-of-two-bucket histogram. See the module docs for the layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples (saturating).
    pub sum: u64,
    /// Smallest recorded sample (`u64::MAX` while empty).
    pub min: u64,
    /// Largest recorded sample (0 while empty).
    pub max: u64,
    /// Per-bucket sample counts; see [`bucket_of`].
    pub buckets: [u64; BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Self { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; BUCKETS] }
    }
}

/// The bucket index holding `v`: 0 for 0, otherwise the bit length of `v`.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// The smallest value of bucket `i`.
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// The largest value of bucket `i`.
pub fn bucket_ceil(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Hist {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Merges another histogram into this one (commutative).
    pub fn merge(&mut self, other: &Hist) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: finds the bucket containing
    /// the q-th sample and interpolates linearly inside it, clamped to the
    /// recorded `[min, max]`. Deterministic for a deterministic histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = bucket_floor(i).max(self.min);
                let hi = bucket_ceil(i).min(self.max);
                let frac = (rank - seen) as f64 / n as f64;
                let est = lo as f64 + frac * (hi.saturating_sub(lo)) as f64;
                return est.round().min(hi as f64) as u64;
            }
            seen += n;
        }
        self.max
    }

    /// Decodes a deterministic histogram from its counter-map encoding.
    /// Returns `None` when no `hist.<name>.count` key exists.
    pub fn from_counters(counters: &BTreeMap<String, u64>, name: &str) -> Option<Hist> {
        let get = |suffix: &str| counters.get(&format!("hist.{name}.{suffix}")).copied();
        let count = get("count")?;
        let mut h = Hist {
            count,
            sum: get("sum").unwrap_or(0),
            min: get("min").unwrap_or(u64::MAX),
            max: get("max").unwrap_or(0),
            buckets: [0; BUCKETS],
        };
        for (i, b) in h.buckets.iter_mut().enumerate() {
            *b = get(&format!("b{i:02}")).unwrap_or(0);
        }
        Some(h)
    }
}

/// Records `value` into the deterministic histogram `name` (thread-local,
/// no lock).
pub fn hist_add(name: &'static str, value: u64) {
    crate::with_buf(|_, records| match records.hists.iter_mut().find(|(k, _)| *k == name) {
        Some((_, h)) => h.record(value),
        None => {
            let mut h = Hist::default();
            h.record(value);
            records.hists.push((name, h));
        }
    });
}

/// Merges a histogram into the counter-map encoding (adds for count, sum,
/// and buckets; min/max for the extremes). Empty histograms create no
/// keys.
pub(crate) fn merge_into_counters(counters: &mut BTreeMap<String, u64>, name: &str, h: &Hist) {
    if h.count == 0 {
        return;
    }
    *counters.entry(format!("hist.{name}.count")).or_insert(0) += h.count;
    *counters.entry(format!("hist.{name}.sum")).or_insert(0) += h.sum;
    let min = counters.entry(format!("hist.{name}.min")).or_insert(h.min);
    *min = (*min).min(h.min);
    let max = counters.entry(format!("hist.{name}.max")).or_insert(h.max);
    *max = (*max).max(h.max);
    for (i, &b) in h.buckets.iter().enumerate() {
        if b > 0 {
            *counters.entry(format!("hist.{name}.b{i:02}")).or_insert(0) += b;
        }
    }
}

/// Names of every deterministic histogram encoded in `counters`.
pub fn names(counters: &BTreeMap<String, u64>) -> Vec<String> {
    counters
        .keys()
        .filter_map(|k| k.strip_prefix("hist.")?.strip_suffix(".count").map(str::to_string))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_floor(i)), i);
            assert_eq!(bucket_of(bucket_ceil(i)), i);
        }
    }

    #[test]
    fn record_and_merge_agree() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        let mut whole = Hist::default();
        for v in [0u64, 1, 1, 7, 900, 31, 64] {
            whole.record(v);
        }
        for v in [0u64, 1, 1] {
            a.record(v);
        }
        for v in [7u64, 900, 31, 64] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.count, 7);
        assert_eq!(a.min, 0);
        assert_eq!(a.max, 900);
        assert_eq!(a.sum, 1004);
    }

    #[test]
    fn quantiles_are_monotonic_and_bounded() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let max = h.quantile(1.0);
        assert!(p50 <= p90 && p90 <= max, "{p50} {p90} {max}");
        assert!(h.min <= p50 && max <= h.max);
        // p50 of 1..=1000 lives in bucket [512, 1000]; interpolation keeps
        // it within 2x of the true median.
        assert!((250..=1000).contains(&p50), "{p50}");
    }

    #[test]
    fn counter_encoding_round_trips() {
        let mut h = Hist::default();
        for v in [0u64, 3, 3, 17, 250_000] {
            h.record(v);
        }
        let mut counters = BTreeMap::new();
        merge_into_counters(&mut counters, "x", &h);
        assert_eq!(counters.get("hist.x.count"), Some(&5));
        assert_eq!(counters.get("hist.x.min"), Some(&0));
        assert_eq!(counters.get("hist.x.max"), Some(&250_000));
        let back = Hist::from_counters(&counters, "x").unwrap();
        assert_eq!(back, h);
        assert_eq!(names(&counters), vec!["x".to_string()]);
        assert!(Hist::from_counters(&counters, "missing").is_none());
        // Merging a second histogram accumulates commutatively.
        let mut h2 = Hist::default();
        h2.record(1);
        merge_into_counters(&mut counters, "x", &h2);
        let merged = Hist::from_counters(&counters, "x").unwrap();
        assert_eq!(merged.count, 6);
        assert_eq!(merged.min, 0);
        assert_eq!(merged.max, 250_000);
    }

    #[test]
    fn empty_hist_creates_no_keys() {
        let mut counters = BTreeMap::new();
        merge_into_counters(&mut counters, "e", &Hist::default());
        assert!(counters.is_empty());
    }
}
