//! Sweep statistics: the running [`Summary`] (sample count and
//! mean/min/max) the experiment reports fold Ψ, Υ and every other
//! per-system metric into.

use tagio_core::{MetricSet, Metrics};

/// Running summary of one scalar metric: sample count, mean, min and max.
///
/// ```
/// use tagio_sched::Summary;
/// let mut s = Summary::new();
/// s.push(0.25);
/// s.push(0.75);
/// assert_eq!(s.count(), 2);
/// assert_eq!(s.mean(), 0.5);
/// assert_eq!((s.min(), s.max()), (0.25, 0.75));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    #[must_use]
    pub const fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one sample in.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another summary in (same metric, disjoint samples).
    pub fn merge(&mut self, other: &Summary) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples folded in.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean; `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample; `0.0` when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; `0.0` when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics for Summary {
    fn merge(&mut self, other: &Self) {
        Summary::merge(self, other);
    }

    fn snapshot(&self) -> MetricSet {
        let mut set = MetricSet::new();
        set.push("count", self.count() as f64);
        set.push("mean", self.mean());
        set.push("min", self.min());
        set.push("max", self.max());
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_tracks_mean_min_max() {
        let mut s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!((s.mean(), s.min(), s.max()), (0.0, 0.0, 0.0));
        for v in [0.5, 0.1, 0.9] {
            s.push(v);
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 0.5).abs() < 1e-12);
        assert_eq!(s.min(), 0.1);
        assert_eq!(s.max(), 0.9);
    }

    #[test]
    fn summary_merge_equals_sequential_push() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        let mut whole = Summary::new();
        for (i, v) in [0.2, 0.4, 0.6, 0.8].iter().enumerate() {
            if i < 2 {
                a.push(*v)
            } else {
                b.push(*v)
            }
            whole.push(*v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn snapshots_use_stable_metric_names() {
        use tagio_core::Metrics as _;
        let mut summary = Summary::new();
        summary.push(0.8);
        let set = summary.snapshot();
        assert_eq!(set.get("count"), Some(1.0));
        assert_eq!(set.get("mean"), Some(0.8));
        assert_eq!((set.get("min"), set.get("max")), (Some(0.8), Some(0.8)));
    }
}
