//! The paper's I/O performance metrics.
//!
//! * **Ψ (psi)** — Eq. (1): the fraction of jobs that start *exactly* at
//!   their ideal instant, `Ψ = |E| / |λ|` with
//!   `E = {λi^j | Ti·j + δi − κi^j = 0}`.
//! * **Υ (upsilon)** — Eq. (2): the overall timing-accuracy performance,
//!   `Υ = Σ V(κ) / Σ V(δ)` — aggregate achieved quality normalised by the
//!   aggregate peak quality.
//!
//! Both are computed from a [`Schedule`] against the [`JobSet`] it schedules;
//! callers should [`Schedule::validate`] first (the metrics do not re-check
//! feasibility, and jobs missing from the schedule simply contribute zero
//! achieved quality).
//!
//! The two metrics are summed in one place, [`quality_by`], in [`JobSet`]
//! order: [`quality`] resolves a [`Schedule`]'s starts and sums through
//! it, and [`psi`] and [`upsilon`] are its two halves, so every scorer
//! gets the same bits for the same placement.
//!
//! The module also hosts the shared stats-emission vocabulary: every
//! counter struct in the workspace (`OnlineStats`, `FleetStats`,
//! `Summary`, `LadderWork`) implements the [`Metrics`] trait, so
//! partition aggregation and the experiment binaries all fold and emit
//! the same named-metric schema — a [`MetricSet`] — instead of each
//! hand-rolling its own.

use crate::job::{JobId, JobSet};
use crate::schedule::Schedule;
use crate::time::Time;

/// An ordered collection of named scalar metrics: the one emission schema
/// shared by every [`Metrics`] implementor. Names keep first-push order
/// (the order reports render them in); duplicate names are not collapsed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    entries: Vec<(String, f64)>,
}

impl MetricSet {
    /// An empty metric set.
    #[must_use]
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Appends one named metric sample.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.entries.push((name.into(), value));
    }

    /// The first metric named `name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Number of metrics held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set holds no metrics.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The metrics, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

impl FromIterator<(String, f64)> for MetricSet {
    fn from_iter<T: IntoIterator<Item = (String, f64)>>(iter: T) -> Self {
        MetricSet {
            entries: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for MetricSet {
    type Item = (String, f64);
    type IntoIter = std::vec::IntoIter<(String, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// The unified stats surface: anything that can fold a peer of its own
/// type into itself and report its state as named scalars.
///
/// `merge` must be commutative up to counter arithmetic (fleet partition
/// aggregation folds in partition-id order, but the totals must not
/// depend on it); `snapshot` must be cheap and side-effect free.
pub trait Metrics {
    /// Folds `other`'s counters into `self`.
    fn merge(&mut self, other: &Self);

    /// The current state as an ordered named-metric schema.
    fn snapshot(&self) -> MetricSet;
}

/// Sorted `(job, start)` lookup table over a schedule's entries: one
/// `O(n log n)` sort instead of a [`Schedule::start_of`] scan per job.
/// The sort key is `(job, start)`, so a job's first match is its earliest
/// entry — exactly what `start_of`'s first-found scan returns.
fn start_index(schedule: &Schedule) -> Vec<(JobId, Time)> {
    let mut index: Vec<_> = schedule.iter().map(|e| (e.job, e.start)).collect();
    index.sort_unstable();
    index
}

fn indexed_start(index: &[(JobId, Time)], job: JobId) -> Option<Time> {
    let pos = index.partition_point(|&(j, _)| j < job);
    match index.get(pos) {
        Some(&(j, start)) if j == job => Some(start),
        _ => None,
    }
}

/// Ψ (Eq. (1)): fraction of jobs with exact timing-accurate control —
/// the first half of [`quality`].
///
/// Returns 1.0 for an empty job set (vacuously all-exact).
///
/// ```
/// use tagio_core::{metrics, job::JobSet, schedule::Schedule};
/// # use tagio_core::{task::*, time::*, schedule::entry_for};
/// # let set: TaskSet = vec![IoTask::builder(TaskId(0), DeviceId(0))
/// #     .wcet(Duration::from_micros(100)).period(Duration::from_millis(4))
/// #     .ideal_offset(Duration::from_millis(2)).margin(Duration::from_millis(1))
/// #     .build().unwrap()].into_iter().collect();
/// # let jobs = JobSet::expand(&set);
/// # let job = &jobs.as_slice()[0];
/// let schedule: Schedule = vec![entry_for(job, job.ideal_start())].into_iter().collect();
/// assert_eq!(metrics::psi(&schedule, &jobs), 1.0);
/// ```
#[must_use]
pub fn psi(schedule: &Schedule, jobs: &JobSet) -> f64 {
    quality(schedule, jobs).0
}

/// Υ (Eq. (2)): aggregate achieved quality normalised by aggregate peak
/// quality — the second half of [`quality`].
///
/// Jobs absent from the schedule contribute zero achieved quality. Returns
/// 1.0 for an empty job set, and 0.0 if the aggregate peak quality is not a
/// positive number (degenerate task sets).
#[must_use]
pub fn upsilon(schedule: &Schedule, jobs: &JobSet) -> f64 {
    quality(schedule, jobs).1
}

/// Ψ and Υ of `schedule`: each job resolves its earliest schedule entry
/// (what [`Schedule::start_of`]'s first-found scan returns) and is summed
/// by [`quality_by`]. Callers that want both metrics call this once.
#[must_use]
pub fn quality(schedule: &Schedule, jobs: &JobSet) -> (f64, f64) {
    let index = start_index(schedule);
    let all = jobs.as_slice();
    quality_by(jobs, |i| indexed_start(&index, all[i].id()))
}

/// Ψ and Υ of a placement given per job position: `start_of(i)` is the
/// start of the `i`-th job of `jobs` (in [`JobSet`] order), or `None`
/// when that job is unplaced.
///
/// This is the module's one Ψ/Υ summation loop (it runs in
/// [`quality_with_peak`]): [`quality`], and through it [`psi`] and
/// [`upsilon`], sum here too. Allocators that already hold
/// their placements by job position (the repair ladder, the GA's genome
/// scoring) call it directly instead of building a [`Schedule`] and
/// sorting it into a lookup table, and get the bits [`quality`] gives
/// for that schedule.
#[must_use]
pub fn quality_by(jobs: &JobSet, start_of: impl FnMut(usize) -> Option<Time>) -> (f64, f64) {
    quality_with_peak(jobs, jobs.peak_quality(), start_of)
}

/// [`quality_by`] with Υ's denominator given: `peak` must be
/// `jobs.peak_quality()`. A caller that scores many placements of one
/// job set (the GA, once per genome) computes the peak once instead of
/// once per placement, and gets [`quality_by`]'s bits.
#[must_use]
pub fn quality_with_peak(
    jobs: &JobSet,
    peak: f64,
    mut start_of: impl FnMut(usize) -> Option<Time>,
) -> (f64, f64) {
    if jobs.is_empty() {
        return (1.0, 1.0);
    }
    let mut exact = 0usize;
    // Start where `Iterator::sum::<f64>()` does, so an empty schedule
    // sums to the same -0.0 bits an iterator sum gives.
    let mut achieved = -0.0f64;
    for (i, job) in jobs.iter().enumerate() {
        if let Some(start) = start_of(i) {
            if start == job.ideal_start() {
                exact += 1;
            }
            achieved += job.quality_at(start);
        }
    }
    let psi = exact as f64 / jobs.len() as f64;
    let upsilon = if peak <= 0.0 || peak.is_nan() {
        0.0
    } else {
        achieved / peak
    };
    (psi, upsilon)
}

/// Distributional statistics of timing-accuracy error `|κ − ideal|`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AccuracyStats {
    /// Total jobs considered.
    pub total: usize,
    /// Jobs scheduled exactly at their ideal instant.
    pub exact: usize,
    /// Jobs scheduled inside their quality window `[δ−θ, δ+θ]`.
    pub within_window: usize,
    /// Mean absolute error in microseconds.
    pub mean_abs_error_us: f64,
    /// Maximum absolute error in microseconds.
    pub max_abs_error_us: u64,
}

impl AccuracyStats {
    /// Computes error statistics for `schedule` against `jobs`.
    ///
    /// Jobs missing from the schedule are counted in `total` but excluded
    /// from the error aggregates.
    #[must_use]
    pub fn compute(schedule: &Schedule, jobs: &JobSet) -> Self {
        let mut stats = AccuracyStats {
            total: jobs.len(),
            ..AccuracyStats::default()
        };
        let mut err_sum: u128 = 0;
        let mut err_count: usize = 0;
        let index = start_index(schedule);
        for job in jobs {
            let Some(start) = indexed_start(&index, job.id()) else {
                continue;
            };
            let err = start.abs_diff(job.ideal_start()).as_micros();
            err_sum += u128::from(err);
            err_count += 1;
            stats.max_abs_error_us = stats.max_abs_error_us.max(err);
            if err == 0 {
                stats.exact += 1;
            }
            if start.abs_diff(job.ideal_start()) <= job.margin() {
                stats.within_window += 1;
            }
        }
        if err_count > 0 {
            stats.mean_abs_error_us = err_sum as f64 / err_count as f64;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSet;
    use crate::schedule::entry_for;
    use crate::task::{DeviceId, IoTask, TaskId, TaskSet};
    use crate::time::Duration;

    fn two_task_jobs() -> JobSet {
        let set: TaskSet = vec![
            IoTask::builder(TaskId(0), DeviceId(0))
                .wcet(Duration::from_micros(100))
                .period(Duration::from_millis(4))
                .ideal_offset(Duration::from_millis(2))
                .margin(Duration::from_millis(1))
                .quality(2.0, 1.0)
                .build()
                .unwrap(),
            IoTask::builder(TaskId(1), DeviceId(0))
                .wcet(Duration::from_micros(100))
                .period(Duration::from_millis(4))
                .ideal_offset(Duration::from_millis(1))
                .margin(Duration::from_micros(500))
                .quality(3.0, 1.0)
                .build()
                .unwrap(),
        ]
        .into_iter()
        .collect();
        JobSet::expand(&set)
    }

    #[test]
    fn psi_counts_exact_starts_only() {
        let jobs = two_task_jobs();
        let a = jobs.get(JobId::new(TaskId(0), 0)).unwrap();
        let b = jobs.get(JobId::new(TaskId(1), 0)).unwrap();
        let s: Schedule = vec![
            entry_for(a, a.ideal_start()),
            entry_for(b, b.ideal_start() + Duration::from_micros(1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(psi(&s, &jobs), 0.5);
    }

    #[test]
    fn psi_of_empty_jobset_is_one() {
        let jobs = JobSet::from_jobs(vec![], Duration::from_millis(1));
        assert_eq!(psi(&Schedule::new(), &jobs), 1.0);
    }

    #[test]
    fn upsilon_is_one_for_all_ideal() {
        let jobs = two_task_jobs();
        let s: Schedule = jobs.iter().map(|j| entry_for(j, j.ideal_start())).collect();
        assert!((upsilon(&s, &jobs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn upsilon_degrades_with_distance() {
        let jobs = two_task_jobs();
        let s_ideal: Schedule = jobs.iter().map(|j| entry_for(j, j.ideal_start())).collect();
        let s_late: Schedule = jobs
            .iter()
            .map(|j| entry_for(j, j.ideal_start() + Duration::from_micros(400)))
            .collect();
        assert!(upsilon(&s_late, &jobs) < upsilon(&s_ideal, &jobs));
        assert!(upsilon(&s_late, &jobs) > 0.0);
    }

    #[test]
    fn upsilon_floor_is_vmin_ratio() {
        let jobs = two_task_jobs();
        // Schedule everything far outside its window (but still; metrics do
        // not check feasibility).
        let s: Schedule = jobs
            .iter()
            .map(|j| entry_for(j, j.ideal_start() + Duration::from_millis(50)))
            .collect();
        // peak = 2+3, floor = 1+1
        assert!((upsilon(&s, &jobs) - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn unscheduled_jobs_contribute_zero_quality() {
        let jobs = two_task_jobs();
        let a = jobs.get(JobId::new(TaskId(0), 0)).unwrap();
        let s: Schedule = vec![entry_for(a, a.ideal_start())].into_iter().collect();
        // achieved = 2 (task0 at peak), peak total = 5
        assert!((upsilon(&s, &jobs) - 2.0 / 5.0).abs() < 1e-12);
    }

    /// The separate Ψ and Υ loops `psi` and `upsilon` ran before both
    /// became views of `quality`, kept verbatim as the oracle.
    fn reference(schedule: &Schedule, jobs: &JobSet) -> (f64, f64) {
        if jobs.is_empty() {
            return (1.0, 1.0);
        }
        let index = start_index(schedule);
        let exact = jobs
            .iter()
            .filter(|j| indexed_start(&index, j.id()) == Some(j.ideal_start()))
            .count();
        let psi = exact as f64 / jobs.len() as f64;
        let peak = jobs.peak_quality();
        if peak <= 0.0 || peak.is_nan() {
            return (psi, 0.0);
        }
        let achieved: f64 = jobs
            .iter()
            .filter_map(|j| indexed_start(&index, j.id()).map(|s| j.quality_at(s)))
            .sum();
        (psi, achieved / peak)
    }

    /// Random paper-shaped task sets (periods dividing 1440 ms, `θ = T/4`,
    /// DMPO with `Vmax = P + 1`, `Vmin = 1`), each scored empty and with
    /// every job exact, shifted, missing or scheduled twice (the earlier
    /// entry counts); plus the empty job set.
    #[test]
    fn psi_upsilon_and_quality_match_the_separate_loops_bit_for_bit() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound.max(1)
        };
        let check = |s: &Schedule, jobs: &JobSet| {
            let ((p, u), (qp, qu)) = (reference(s, jobs), quality(s, jobs));
            let got = [qp, qu, psi(s, jobs), upsilon(s, jobs)].map(f64::to_bits);
            assert_eq!(got, [p, u, p, u].map(f64::to_bits));
        };
        let us = Duration::from_micros;
        for _ in 0..40 {
            let mut set = TaskSet::new();
            for id in 0..1 + next(8) as u32 {
                let period =
                    Duration::from_millis([10, 20, 30, 40, 60, 80, 120, 240][next(8) as usize]);
                let margin = period / 4;
                let task = IoTask::builder(TaskId(id), DeviceId(0))
                    .wcet(us(1 + next(margin.as_micros())))
                    .period(period)
                    .ideal_offset(margin + us(next(period.as_micros() / 2)))
                    .margin(margin)
                    .build()
                    .unwrap();
                set.push(task).unwrap();
            }
            set.assign_dmpo();
            set.set_global_vmin(1.0);
            let jobs = JobSet::expand(&set);
            check(&Schedule::new(), &jobs);
            let mut s = Schedule::new();
            for job in &jobs {
                let off = entry_for(
                    job,
                    job.window_start() + us(next(job.margin().as_micros() * 2)),
                );
                let exact = entry_for(job, job.ideal_start());
                match next(4) {
                    0 => s.insert(exact),
                    1 => s.insert(off),
                    2 => {}
                    _ => s.extend([off, exact]),
                }
            }
            check(&s, &jobs);
        }
        check(&Schedule::new(), &JobSet::from_jobs(vec![], us(1)));
    }

    #[test]
    fn metric_set_keeps_order_and_looks_up() {
        let mut set = MetricSet::new();
        assert!(set.is_empty());
        set.push("arrivals", 4.0);
        set.push("admitted", 3.0);
        assert_eq!(set.len(), 2);
        assert_eq!(set.get("admitted"), Some(3.0));
        assert_eq!(set.get("missing"), None);
        let names: Vec<&str> = set.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["arrivals", "admitted"]);
        let rebuilt: MetricSet = set.clone().into_iter().collect();
        assert_eq!(rebuilt, set);
    }

    #[test]
    fn metrics_trait_is_object_safe_enough_to_fold_through() {
        #[derive(Default)]
        struct Counter {
            hits: usize,
        }
        impl Metrics for Counter {
            fn merge(&mut self, other: &Self) {
                self.hits += other.hits;
            }
            fn snapshot(&self) -> MetricSet {
                let mut set = MetricSet::new();
                set.push("hits", self.hits as f64);
                set
            }
        }
        let mut total = Counter::default();
        for part in [Counter { hits: 2 }, Counter { hits: 3 }] {
            total.merge(&part);
        }
        assert_eq!(total.snapshot().get("hits"), Some(5.0));
    }

    #[test]
    fn accuracy_stats_aggregate_errors() {
        let jobs = two_task_jobs();
        let a = jobs.get(JobId::new(TaskId(0), 0)).unwrap();
        let b = jobs.get(JobId::new(TaskId(1), 0)).unwrap();
        let s: Schedule = vec![
            entry_for(a, a.ideal_start()),
            entry_for(b, b.ideal_start() + Duration::from_micros(600)),
        ]
        .into_iter()
        .collect();
        let stats = AccuracyStats::compute(&s, &jobs);
        assert_eq!(stats.total, 2);
        assert_eq!(stats.exact, 1);
        // task1's margin is 500us, the 600us error is outside the window
        assert_eq!(stats.within_window, 1);
        assert_eq!(stats.max_abs_error_us, 600);
        assert!((stats.mean_abs_error_us - 300.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_stats_empty_schedule() {
        let jobs = two_task_jobs();
        let stats = AccuracyStats::compute(&Schedule::new(), &jobs);
        assert_eq!(stats.total, 2);
        assert_eq!(stats.exact, 0);
        assert_eq!(stats.mean_abs_error_us, 0.0);
    }

    #[test]
    fn exact_schedule_means_window_hit_too() {
        let jobs = two_task_jobs();
        let s: Schedule = jobs.iter().map(|j| entry_for(j, j.ideal_start())).collect();
        let stats = AccuracyStats::compute(&s, &jobs);
        assert_eq!(stats.exact, stats.total);
        assert_eq!(stats.within_window, stats.total);
        assert_eq!(stats.max_abs_error_us, 0);
    }
}
