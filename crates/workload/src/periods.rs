//! Period pools with a fixed hyper-period.
//!
//! The paper draws periods "randomly in a uniform distribution, from all
//! periods that lead to a hyper-period of 1440 ms". A [`PeriodPool`]
//! enumerates the divisors of a target hyper-period (restricted to a sane
//! range) and samples uniformly from them, so any drawn task set has the
//! target hyper-period as an upper bound of its LCM.

use rand::{Rng, RngExt};
use std::sync::OnceLock;
use tagio_core::time::Duration;

/// The paper's hyper-period: 1440 ms.
pub const PAPER_HYPERPERIOD: Duration = Duration::from_millis(1440);

/// A pool of candidate periods, all dividing a common hyper-period.
///
/// ```
/// use tagio_workload::periods::PeriodPool;
/// use tagio_core::time::Duration;
///
/// let pool = PeriodPool::paper_default();
/// assert!(pool
///     .candidates()
///     .iter()
///     .all(|p| (Duration::from_millis(1440) % *p).is_zero()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeriodPool {
    hyperperiod: Duration,
    candidates: Vec<Duration>,
}

impl PeriodPool {
    /// Builds a pool of all divisors of `hyperperiod` (in whole
    /// milliseconds) lying within `[min, max]`.
    ///
    /// # Panics
    /// Panics if `hyperperiod` is not a whole positive number of
    /// milliseconds, or if no divisor falls inside the range.
    #[must_use]
    pub fn divisors_of(hyperperiod: Duration, min: Duration, max: Duration) -> Self {
        let hp_us = hyperperiod.as_micros();
        assert!(
            hp_us > 0 && hp_us.is_multiple_of(1_000),
            "hyper-period must be a positive whole number of milliseconds"
        );
        let hp_ms = hp_us / 1_000;
        // Divisors come in pairs (d, hp/d) with d ≤ √hp, so the trial
        // divisions stop at the square root.
        let mut divisors = Vec::new();
        for d in (1..=hp_ms).take_while(|d| d * d <= hp_ms) {
            if hp_ms.is_multiple_of(d) {
                divisors.push(d);
                divisors.push(hp_ms / d);
            }
        }
        divisors.sort_unstable();
        divisors.dedup();
        let candidates: Vec<Duration> = divisors
            .into_iter()
            .map(Duration::from_millis)
            .filter(|p| *p >= min && *p <= max)
            .collect();
        assert!(
            !candidates.is_empty(),
            "no divisor of the hyper-period falls inside the period range"
        );
        PeriodPool {
            hyperperiod,
            candidates,
        }
    }

    /// The paper's pool: divisors of 1440 ms between 10 ms and 1440 ms.
    ///
    /// The divisors are enumerated once per process; each call clones
    /// that pool.
    #[must_use]
    pub fn paper_default() -> Self {
        static PAPER: OnceLock<PeriodPool> = OnceLock::new();
        PAPER
            .get_or_init(|| {
                Self::divisors_of(
                    PAPER_HYPERPERIOD,
                    Duration::from_millis(10),
                    Duration::from_millis(1440),
                )
            })
            .clone()
    }

    /// The common hyper-period.
    #[must_use]
    pub fn hyperperiod(&self) -> Duration {
        self.hyperperiod
    }

    /// The candidate periods, ascending.
    #[must_use]
    pub fn candidates(&self) -> &[Duration] {
        &self.candidates
    }

    /// Samples one period uniformly.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        self.candidates[rng.random_range(0..self.candidates.len())]
    }

    /// Samples one period uniformly from candidates `≥ min_period`.
    ///
    /// Falls back to the largest candidate if none qualifies.
    pub fn sample_at_least<R: Rng + ?Sized>(&self, min_period: Duration, rng: &mut R) -> Duration {
        let eligible: Vec<Duration> = self
            .candidates
            .iter()
            .copied()
            .filter(|p| *p >= min_period)
            .collect();
        if eligible.is_empty() {
            *self.candidates.last().expect("pool is never empty")
        } else {
            eligible[rng.random_range(0..eligible.len())]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_pool_divides_1440() {
        let pool = PeriodPool::paper_default();
        assert_eq!(pool.hyperperiod(), Duration::from_millis(1440));
        for p in pool.candidates() {
            assert!((Duration::from_millis(1440) % *p).is_zero());
            assert!(*p >= Duration::from_millis(10));
        }
        // 1440 = 2^5 * 3^2 * 5 has 36 divisors, 28 of them >= 10ms.
        assert_eq!(pool.candidates().len(), 28);
    }

    #[test]
    fn candidates_are_ascending_and_unique() {
        let pool = PeriodPool::paper_default();
        let c = pool.candidates();
        assert!(c.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sample_draws_from_candidates() {
        let pool = PeriodPool::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let p = pool.sample(&mut rng);
            assert!(pool.candidates().contains(&p));
        }
    }

    #[test]
    fn sample_at_least_respects_floor() {
        let pool = PeriodPool::paper_default();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let p = pool.sample_at_least(Duration::from_millis(100), &mut rng);
            assert!(p >= Duration::from_millis(100));
        }
    }

    #[test]
    fn sample_at_least_falls_back_to_largest() {
        let pool = PeriodPool::paper_default();
        let mut rng = StdRng::seed_from_u64(3);
        let p = pool.sample_at_least(Duration::from_millis(10_000), &mut rng);
        assert_eq!(p, Duration::from_millis(1440));
    }

    #[test]
    #[should_panic(expected = "no divisor")]
    fn empty_range_panics() {
        let _ = PeriodPool::divisors_of(
            Duration::from_millis(100),
            Duration::from_millis(7),
            Duration::from_millis(9),
        );
    }

    #[test]
    fn custom_hyperperiod_pool() {
        let pool = PeriodPool::divisors_of(
            Duration::from_millis(60),
            Duration::from_millis(1),
            Duration::from_millis(60),
        );
        assert_eq!(pool.candidates().len(), 12); // divisors of 60
    }
}
