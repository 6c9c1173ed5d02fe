//! Summary statistics used by the report: pooled rates, nearest-rank
//! percentiles, medians and FNV-1a decision digests.

use std::time::Duration;

/// Work done in one timed region: `ops` operations in `wall` time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timed {
    /// Operations completed (events or task sets).
    pub ops: u64,
    /// Wall-clock time spent on them.
    pub wall: Duration,
}

impl Timed {
    /// Operations per second of this one region (`0.0` when untimed).
    #[must_use]
    pub fn rate(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.ops as f64 / secs
        } else {
            0.0
        }
    }
}

/// The pooled rate: total operations over total wall time. This is the
/// headline `ops_per_sec` — never the mean of per-region rates, which one
/// fast region can inflate arbitrarily.
#[must_use]
pub fn pooled_rate(regions: &[Timed]) -> f64 {
    let total = regions.iter().fold(Timed::default(), |acc, r| Timed {
        ops: acc.ops + r.ops,
        wall: acc.wall + r.wall,
    });
    total.rate()
}

/// Nearest-rank percentile `p` (0–100) of `samples` (`0.0` when empty).
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle values for an even count; `0.0`
/// when empty).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Whether another pass over a workload's inputs fits in `seconds`,
/// given that `passes` passes took `elapsed` (the first pass always
/// runs).
#[must_use]
pub fn another_pass_fits(passes: usize, elapsed: Duration, seconds: f64) -> bool {
    passes == 0 || elapsed.as_secs_f64() * (passes + 1) as f64 / passes as f64 <= seconds
}

/// How many of `count` samples lie beyond nearest-rank percentile `p`.
#[must_use]
pub fn beyond(count: usize, p: f64) -> usize {
    count - ((p / 100.0) * count as f64).ceil() as usize
}

/// The arithmetic mean (`0.0` when empty).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// `num / den`, or `0.0` when there is nothing to divide by.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Incremental 64-bit FNV-1a hash: the decision digest of a run.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `value` (little-endian bytes) into the digest.
    pub fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(ops: u64, rate: f64) -> Timed {
        Timed {
            ops,
            wall: Duration::from_secs_f64(ops as f64 / rate),
        }
    }

    #[test]
    fn pooled_rate_is_not_the_mean_of_rates() {
        // Three equal-sized scenarios at 453, 42 579 and 530 ev/s: the
        // mean of rates is ~14.5k ev/s, the pooled rate ~725 ev/s.
        let regions = [
            region(384, 453.0),
            region(384, 42_579.0),
            region(384, 530.0),
        ];
        let mean = (453.0 + 42_579.0 + 530.0) / 3.0;
        let pooled = pooled_rate(&regions);
        let expected = 1152.0 / (384.0 / 453.0 + 384.0 / 42_579.0 + 384.0 / 530.0);
        assert!((pooled - expected).abs() < 1e-6 * expected, "{pooled}");
        assert!((pooled - 725.0).abs() < 5.0, "{pooled}");
        assert!(mean > 14_000.0 && pooled < mean / 10.0);
        assert!((median(&regions.map(|r| r.rate())) - 530.0).abs() < 1e-6);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn ratio_guards_empty_denominators() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
