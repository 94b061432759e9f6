//! Deterministic backoff for retries.
//!
//! [`BackoffPolicy`] gives exponentially growing, capped retry delays
//! with *deterministic* jitter. The jitter is drawn from a SplitMix64
//! stream keyed by `(seed, key, attempt)`, so a backoff schedule replays
//! identically in tests and across runs, yet distinct jobs still spread
//! out in time.

/// Exponential backoff with a cap and deterministic, replayable jitter.
///
/// `delay_ms(key, attempt)` grows geometrically from `base_ms` by
/// `factor` per attempt, clamps at `cap_ms`, then adds up to
/// `jitter_percent`% of the clamped delay. The jitter term is a pure
/// function of `(seed, key, attempt)`, so the full schedule for a job is
/// reproducible — use the job's stable ordinal or content hash as `key`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay of attempt 0, in milliseconds.
    pub base_ms: u64,
    /// Multiplier applied per attempt.
    pub factor: u64,
    /// Hard ceiling on the un-jittered delay, in milliseconds.
    pub cap_ms: u64,
    /// Maximum jitter added, as a percentage of the clamped delay
    /// (25 = up to +25%). Zero disables jitter.
    pub jitter_percent: u64,
    /// Seed of the jitter stream; schedules with equal seeds are equal.
    pub seed: u64,
}

/// One SplitMix64 output for input `x`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BackoffPolicy {
    /// The delay before retry number `attempt` (0-based) of the schedule
    /// keyed by `key`, in milliseconds. Deterministic in
    /// `(self, key, attempt)`.
    pub fn delay_ms(&self, key: u64, attempt: u32) -> u64 {
        let mut delay = self.base_ms;
        for _ in 0..attempt {
            delay = delay.saturating_mul(self.factor.max(1));
            if delay >= self.cap_ms {
                break;
            }
        }
        delay = delay.min(self.cap_ms);
        if self.jitter_percent == 0 || delay == 0 {
            return delay;
        }
        let span = delay * self.jitter_percent / 100;
        if span == 0 {
            return delay;
        }
        let draw = splitmix64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(splitmix64(key))
                .wrapping_add(u64::from(attempt)),
        );
        delay + draw % (span + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_replayable() {
        let p =
            BackoffPolicy { base_ms: 10, factor: 2, cap_ms: 500, jitter_percent: 25, seed: 0xB0FF };
        for attempt in 0..6 {
            assert_eq!(p.delay_ms(7, attempt), p.delay_ms(7, attempt));
        }
        let q = BackoffPolicy { seed: p.seed + 1, ..p };
        let differs = (0..6).any(|a| p.delay_ms(7, a) != q.delay_ms(7, a));
        assert!(differs, "seed must shift the jitter stream");
    }

    #[test]
    fn backoff_grows_and_respects_the_cap() {
        let p = BackoffPolicy { base_ms: 10, factor: 2, cap_ms: 100, jitter_percent: 0, seed: 0 };
        assert_eq!(p.delay_ms(0, 0), 10);
        assert_eq!(p.delay_ms(0, 1), 20);
        assert_eq!(p.delay_ms(0, 2), 40);
        assert_eq!(p.delay_ms(0, 3), 80);
        assert_eq!(p.delay_ms(0, 4), 100, "clamped at the cap");
        assert_eq!(p.delay_ms(0, 30), 100, "no overflow at large attempts");
    }

    #[test]
    fn jitter_is_bounded_and_key_sensitive() {
        let p = BackoffPolicy { base_ms: 100, factor: 2, cap_ms: 400, jitter_percent: 25, seed: 1 };
        for key in 0..64u64 {
            for attempt in 0..4 {
                let raw = BackoffPolicy { jitter_percent: 0, ..p }.delay_ms(key, attempt);
                let jittered = p.delay_ms(key, attempt);
                assert!(jittered >= raw && jittered <= raw + raw / 4);
            }
        }
        let spread: std::collections::BTreeSet<u64> =
            (0..64u64).map(|key| p.delay_ms(key, 0)).collect();
        assert!(spread.len() > 8, "keys must spread the schedule");
    }

    #[test]
    fn attempt_zero_is_the_base_delay_with_bounded_jitter() {
        // Attempt 0 applies no growth rounds: the un-jittered delay is
        // exactly base_ms (clamped), for every key.
        let raw = BackoffPolicy { base_ms: 40, factor: 3, cap_ms: 500, jitter_percent: 0, seed: 9 };
        assert_eq!(raw.delay_ms(0, 0), 40);
        assert_eq!(raw.delay_ms(u64::MAX, 0), 40, "key only affects jitter");
        let jittered = BackoffPolicy { jitter_percent: 50, ..raw };
        for key in 0..32u64 {
            let d = jittered.delay_ms(key, 0);
            assert!((40..=60).contains(&d), "attempt 0 stays within base+50% (got {d})");
        }
        let clamped = BackoffPolicy { base_ms: 800, ..raw };
        assert_eq!(clamped.delay_ms(0, 0), 500, "base above cap clamps at attempt 0");
    }

    #[test]
    fn jitter_at_the_cap_is_additive_and_bounded() {
        // Once growth clamps at cap_ms, jitter applies on top of the cap
        // — the cap bounds the deterministic part, not the jitter term.
        let p = BackoffPolicy { base_ms: 10, factor: 2, cap_ms: 100, jitter_percent: 25, seed: 3 };
        for attempt in 10..14 {
            let d = p.delay_ms(5, attempt);
            assert!((100..=125).contains(&d), "capped delay jitters within +25% (got {d})");
        }
        let degenerate = BackoffPolicy { cap_ms: 1, ..p };
        assert_eq!(degenerate.delay_ms(5, 10), 1, "sub-percent spans skip jitter entirely");
    }

    #[test]
    fn identical_seeds_give_identical_schedules() {
        let a = BackoffPolicy { base_ms: 10, factor: 2, cap_ms: 400, jitter_percent: 25, seed: 77 };
        let b = BackoffPolicy { base_ms: 10, factor: 2, cap_ms: 400, jitter_percent: 25, seed: 77 };
        for key in [0u64, 1, 42, u64::MAX] {
            for attempt in 0..8 {
                assert_eq!(a.delay_ms(key, attempt), b.delay_ms(key, attempt));
            }
        }
    }
}
