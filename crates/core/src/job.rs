//! Job expansion over the hyper-period.
//!
//! Each task `τi` releases jobs `λi^j` with release `Ti·j`, ideal start
//! `Ti·j + δi` and absolute deadline `Ti·j + Di`. Schedulers operate on the
//! complete [`JobSet`] of one partition over one hyper-period.
//!
//! ```
//! use tagio_core::job::JobSet;
//! use tagio_core::task::{IoTask, TaskId, DeviceId, TaskSet};
//! use tagio_core::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let set: TaskSet = vec![IoTask::builder(TaskId(0), DeviceId(0))
//!     .wcet(Duration::from_micros(100))
//!     .period(Duration::from_millis(5))
//!     .ideal_offset(Duration::from_millis(2))
//!     .margin(Duration::from_micros(1250))
//!     .build()?]
//! .into_iter()
//! .collect();
//! let jobs = JobSet::expand(&set);
//! assert_eq!(jobs.len(), 1); // hyper-period = one period
//! # Ok(())
//! # }
//! ```

use crate::quality::QualityCurve;
use crate::task::{IoTask, Priority, TaskId, TaskSet};
use crate::time::{Duration, Time};
use core::fmt;

/// Identifies job `λi^j`: the `index`-th release of task `task`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct JobId {
    /// The releasing task.
    pub task: TaskId,
    /// Release index `j` within the hyper-period (0-based).
    pub index: u32,
}

impl JobId {
    /// Convenience constructor.
    #[must_use]
    pub fn new(task: TaskId, index: u32) -> Self {
        JobId { task, index }
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.task, self.index)
    }
}

/// One release of a timed I/O task, with all timing attributes resolved to
/// absolute instants within the hyper-period.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    id: JobId,
    release: Time,
    ideal_start: Time,
    abs_deadline: Time,
    wcet: Duration,
    margin: Duration,
    priority: Priority,
    quality: QualityCurve,
}

impl Job {
    /// Builds a job directly (mostly useful in tests; prefer
    /// [`JobSet::expand`]).
    ///
    /// # Panics
    /// Panics if the window is inconsistent (`ideal_start < release`,
    /// `ideal_start + wcet > abs_deadline`, or the margin leaves the release
    /// window).
    #[must_use]
    #[allow(clippy::too_many_arguments)] // the model's 6-tuple plus identity
    pub fn new(
        id: JobId,
        release: Time,
        ideal_start: Time,
        abs_deadline: Time,
        wcet: Duration,
        margin: Duration,
        priority: Priority,
        quality: QualityCurve,
    ) -> Self {
        assert!(ideal_start >= release, "ideal start precedes release");
        assert!(
            ideal_start + wcet <= abs_deadline,
            "ideal start leaves no room before the deadline"
        );
        assert!(
            ideal_start
                .checked_sub_duration(margin)
                .is_some_and(|t| t >= release),
            "margin extends before the release"
        );
        assert!(
            ideal_start + margin <= abs_deadline,
            "margin extends past the deadline"
        );
        Job {
            id,
            release,
            ideal_start,
            abs_deadline,
            wcet,
            margin,
            priority,
            quality,
        }
    }

    /// Job identifier `λi^j`.
    #[must_use]
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Release instant `Ti · j`.
    #[must_use]
    pub fn release(&self) -> Time {
        self.release
    }

    /// Ideal start instant `Ti · j + δi`.
    #[must_use]
    pub fn ideal_start(&self) -> Time {
        self.ideal_start
    }

    /// Absolute deadline `Ti · j + Di`.
    #[must_use]
    pub fn abs_deadline(&self) -> Time {
        self.abs_deadline
    }

    /// Worst-case device operation time `Ci`.
    #[must_use]
    pub fn wcet(&self) -> Duration {
        self.wcet
    }

    /// Timing margin `θi`.
    #[must_use]
    pub fn margin(&self) -> Duration {
        self.margin
    }

    /// Task priority (larger value = higher priority).
    #[must_use]
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Latest start that still meets the deadline (`Ti·j + Di − Ci`;
    /// Constraint 1 upper bound).
    #[must_use]
    pub fn latest_start(&self) -> Time {
        self.abs_deadline - self.wcet
    }

    /// Earliest instant of the above-minimum quality window
    /// (`ideal − θ`, clamped to the release).
    #[must_use]
    pub fn window_start(&self) -> Time {
        self.ideal_start
            .saturating_sub_duration(self.margin)
            .max(self.release)
    }

    /// Latest *start* inside the quality window that still meets the
    /// deadline (`min(ideal + θ, latest_start)`).
    #[must_use]
    pub fn window_end(&self) -> Time {
        (self.ideal_start + self.margin).min(self.latest_start())
    }

    /// Quality obtained when the job starts at `start` (paper Fig. 1):
    /// `Vmax` at the ideal instant, linear decay to `Vmin` at distance `θ`,
    /// `Vmin` outside the window.
    ///
    /// The caller is responsible for `start` being feasible (within the
    /// release window); infeasible starts are judged by
    /// [`Schedule::validate`](crate::schedule::Schedule::validate), not here.
    #[must_use]
    pub fn quality_at(&self, start: Time) -> f64 {
        self.quality.value(self.ideal_start, self.margin, start)
    }

    /// `true` if starting at `start` is *exact* timing-accurate control
    /// (`κ == Ti·j + δi`, Eq. (1)).
    #[must_use]
    pub fn is_exact(&self, start: Time) -> bool {
        start == self.ideal_start
    }

    /// `true` if `start` respects Constraint 1
    /// (`Ti·j ≤ κ ≤ Ti·j + Di − Ci`).
    #[must_use]
    pub fn start_feasible(&self, start: Time) -> bool {
        start >= self.release && start <= self.latest_start()
    }
}

/// All jobs of one partition over one hyper-period, sorted by
/// (release, task id).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSet {
    jobs: Vec<Job>,
    hyperperiod: Duration,
}

impl JobSet {
    /// Expands every task of `tasks` into its jobs over one hyper-period.
    ///
    /// Jobs are ordered by release time, ties broken by task id, which gives
    /// schedulers a deterministic arrival order.
    ///
    /// # Panics
    /// Panics if any period does not divide the hyper-period (cannot happen
    /// for sets built via [`TaskSet`]).
    #[must_use]
    pub fn expand(tasks: &TaskSet) -> Self {
        let hyperperiod = tasks.hyperperiod();
        let mut jobs: Vec<Job> = tasks
            .iter()
            .flat_map(|task| task_jobs(task, hyperperiod))
            .collect();
        jobs.sort_by_key(order_key);
        JobSet { jobs, hyperperiod }
    }

    /// The job set of this set's tasks plus `task`, without expanding
    /// the others again: `task`'s jobs merged in at their
    /// (release, task id) places. That is [`JobSet::expand`] of the grown
    /// task set when this set is the expansion of a non-empty task set
    /// without `task` and `task`'s period divides its hyper-period: the
    /// hyper-period then stays, so every job here keeps its instants.
    ///
    /// Returns `None`, leaving the caller to expand, when the set is
    /// empty or the period does not divide the hyper-period (it would
    /// grow).
    #[must_use]
    pub fn with_task(&self, task: &IoTask) -> Option<JobSet> {
        let (hyperperiod, period) = (self.hyperperiod, task.period());
        if self.jobs.is_empty() || period.is_zero() || !(hyperperiod % period).is_zero() {
            return None;
        }
        let mut added = task_jobs(task, hyperperiod).peekable();
        let mut jobs = Vec::with_capacity(self.jobs.len() + (hyperperiod / period) as usize);
        for job in &self.jobs {
            while let Some(next) = added.next_if(|next| order_key(next) < order_key(job)) {
                jobs.push(next);
            }
            jobs.push(job.clone());
        }
        jobs.extend(added);
        Some(JobSet { jobs, hyperperiod })
    }

    /// Builds a job set from pre-constructed jobs (tests, custom scenarios).
    #[must_use]
    pub fn from_jobs(mut jobs: Vec<Job>, hyperperiod: Duration) -> Self {
        jobs.sort_by_key(order_key);
        JobSet { jobs, hyperperiod }
    }

    /// Number of jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` if there are no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The hyper-period the jobs were expanded over.
    #[must_use]
    pub fn hyperperiod(&self) -> Duration {
        self.hyperperiod
    }

    /// The scheduling horizon: the latest absolute deadline, or the
    /// hyper-period if later. With release offsets (§III.C) jobs of the
    /// last releases finish past the hyper-period boundary, so slot-based
    /// allocators must plan up to this instant.
    #[must_use]
    pub fn horizon(&self) -> Time {
        self.jobs
            .iter()
            .map(Job::abs_deadline)
            .max()
            .unwrap_or(Time::ZERO)
            .max(Time::from(self.hyperperiod))
    }

    /// Iterates over jobs in (release, task) order.
    pub fn iter(&self) -> core::slice::Iter<'_, Job> {
        self.jobs.iter()
    }

    /// Jobs as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Job] {
        &self.jobs
    }

    /// Looks up a job by id.
    #[must_use]
    pub fn get(&self, id: JobId) -> Option<&Job> {
        self.jobs.iter().find(|j| j.id() == id)
    }

    /// Total demand `Σ Ci` over the hyper-period.
    #[must_use]
    pub fn total_demand(&self) -> Duration {
        self.jobs.iter().map(Job::wcet).sum()
    }

    /// Sum of the peak quality `Σ V(δ)` (denominator of Υ, Eq. (2)).
    #[must_use]
    pub fn peak_quality(&self) -> f64 {
        self.jobs
            .iter()
            .map(|j| j.quality_at(j.ideal_start()))
            .sum()
    }
}

/// The order of a [`JobSet`]: by release, ties by task id, then index.
fn order_key(job: &Job) -> (Time, TaskId, u32) {
    (job.release(), job.id().task, job.id().index)
}

/// The jobs `task` releases over `hyperperiod`, in release order.
///
/// # Panics
/// Panics if the period does not divide the hyper-period.
fn task_jobs(task: &IoTask, hyperperiod: Duration) -> impl Iterator<Item = Job> + '_ {
    let period = task.period();
    assert!(
        !period.is_zero() && (hyperperiod % period).is_zero(),
        "period must divide the hyper-period"
    );
    (0..hyperperiod / period).map(move |j| {
        let release = Time::from(period * j + task.release_offset());
        Job::new(
            JobId::new(task.id(), j as u32),
            release,
            release + task.ideal_offset(),
            release + task.deadline(),
            task.wcet(),
            task.margin(),
            task.priority(),
            QualityCurve::linear(task.vmax(), task.vmin()),
        )
    })
}

impl<'a> IntoIterator for &'a JobSet {
    type Item = &'a Job;
    type IntoIter = core::slice::Iter<'a, Job>;
    fn into_iter(self) -> Self::IntoIter {
        self.jobs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{DeviceId, IoTask};

    fn simple_set() -> TaskSet {
        vec![
            IoTask::builder(TaskId(0), DeviceId(0))
                .wcet(Duration::from_micros(100))
                .period(Duration::from_millis(4))
                .ideal_offset(Duration::from_millis(2))
                .margin(Duration::from_millis(1))
                .build()
                .unwrap(),
            IoTask::builder(TaskId(1), DeviceId(0))
                .wcet(Duration::from_micros(200))
                .period(Duration::from_millis(8))
                .ideal_offset(Duration::from_millis(4))
                .margin(Duration::from_millis(2))
                .build()
                .unwrap(),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn expand_counts_releases_per_task() {
        let jobs = JobSet::expand(&simple_set());
        // hyper-period 8ms: task0 releases 2 jobs, task1 releases 1.
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs.hyperperiod(), Duration::from_millis(8));
        assert_eq!(jobs.iter().filter(|j| j.id().task == TaskId(0)).count(), 2);
    }

    #[test]
    fn expand_computes_absolute_instants() {
        let jobs = JobSet::expand(&simple_set());
        let j1 = jobs.get(JobId::new(TaskId(0), 1)).unwrap();
        assert_eq!(j1.release(), Time::from_millis(4));
        assert_eq!(j1.ideal_start(), Time::from_millis(6));
        assert_eq!(j1.abs_deadline(), Time::from_millis(8));
        assert_eq!(j1.latest_start(), Time::from_micros(7_900));
    }

    #[test]
    fn jobs_sorted_by_release_then_task() {
        let jobs = JobSet::expand(&simple_set());
        let order: Vec<JobId> = jobs.iter().map(Job::id).collect();
        assert_eq!(
            order,
            vec![
                JobId::new(TaskId(0), 0),
                JobId::new(TaskId(1), 0),
                JobId::new(TaskId(0), 1),
            ]
        );
    }

    #[test]
    fn quality_peaks_at_ideal_and_decays() {
        let jobs = JobSet::expand(&simple_set());
        let j = jobs.get(JobId::new(TaskId(0), 0)).unwrap();
        let ideal = j.ideal_start();
        let vmax = j.quality_at(ideal);
        assert!(j.is_exact(ideal));
        let off = j.quality_at(ideal + Duration::from_micros(500));
        assert!(off < vmax);
        // outside the window => Vmin
        let boundary = j.quality_at(ideal + j.margin());
        let outside = j.quality_at(ideal + j.margin() + Duration::from_micros(1));
        assert_eq!(boundary, outside);
    }

    #[test]
    fn window_clamps_to_release_and_deadline() {
        let j = Job::new(
            JobId::new(TaskId(0), 0),
            Time::from_millis(0),
            Time::from_millis(2),
            Time::from_millis(4),
            Duration::from_micros(1_800),
            Duration::from_millis(2),
            Priority(0),
            QualityCurve::linear(2.0, 1.0),
        );
        assert_eq!(j.window_start(), Time::ZERO);
        // ideal + margin = 4ms but latest_start = 2.2ms
        assert_eq!(j.window_end(), Time::from_micros(2_200));
    }

    #[test]
    fn start_feasible_matches_constraint_1() {
        let jobs = JobSet::expand(&simple_set());
        let j = jobs.get(JobId::new(TaskId(0), 0)).unwrap();
        assert!(j.start_feasible(j.release()));
        assert!(j.start_feasible(j.latest_start()));
        assert!(!j.start_feasible(j.latest_start() + Duration::from_micros(1)));
    }

    #[test]
    fn total_demand_sums_wcets() {
        let jobs = JobSet::expand(&simple_set());
        assert_eq!(jobs.total_demand(), Duration::from_micros(100 + 100 + 200));
    }

    #[test]
    fn peak_quality_is_sum_of_vmax() {
        let jobs = JobSet::expand(&simple_set());
        // default builder quality is vmax=1, vmin=0 per task
        assert!((jobs.peak_quality() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ideal start precedes release")]
    fn job_new_rejects_ideal_before_release() {
        let _ = Job::new(
            JobId::new(TaskId(0), 0),
            Time::from_millis(2),
            Time::from_millis(1),
            Time::from_millis(4),
            Duration::from_micros(100),
            Duration::ZERO,
            Priority(0),
            QualityCurve::linear(1.0, 0.0),
        );
    }

    #[test]
    fn release_offsets_shift_all_instants() {
        let set: TaskSet = vec![IoTask::builder(TaskId(0), DeviceId(0))
            .wcet(Duration::from_micros(100))
            .period(Duration::from_millis(4))
            .ideal_offset(Duration::from_millis(2))
            .margin(Duration::from_millis(1))
            .release_offset(Duration::from_millis(3))
            .build()
            .unwrap()]
        .into_iter()
        .collect();
        let jobs = JobSet::expand(&set);
        let j0 = jobs.get(JobId::new(TaskId(0), 0)).unwrap();
        assert_eq!(j0.release(), Time::from_millis(3));
        assert_eq!(j0.ideal_start(), Time::from_millis(5));
        assert_eq!(j0.abs_deadline(), Time::from_millis(7));
    }

    #[test]
    fn horizon_extends_past_hyperperiod_with_offsets() {
        let set: TaskSet = vec![IoTask::builder(TaskId(0), DeviceId(0))
            .wcet(Duration::from_micros(100))
            .period(Duration::from_millis(4))
            .ideal_offset(Duration::from_millis(2))
            .margin(Duration::from_millis(1))
            .release_offset(Duration::from_millis(3))
            .build()
            .unwrap()]
        .into_iter()
        .collect();
        let jobs = JobSet::expand(&set);
        assert_eq!(jobs.hyperperiod(), Duration::from_millis(4));
        assert_eq!(jobs.horizon(), Time::from_millis(7));
    }

    #[test]
    fn horizon_without_offsets_is_hyperperiod() {
        let jobs = JobSet::expand(&simple_set());
        assert_eq!(jobs.horizon(), Time::from_millis(8));
    }

    /// Merging a newcomer equals expanding the grown set, field for
    /// field and in order, over random task sets: periods among the
    /// divisors of 20 ms, release offsets, constrained deadlines, equal
    /// releases across tasks, and newcomer ids below, between and above
    /// the others. A period that does not divide the hyper-period, and an
    /// empty set, leave the expansion to the caller. (Tasks cannot have
    /// zero WCET, so no expanded set holds a zero-WCET job.)
    #[test]
    fn with_task_equals_expanding_the_grown_set() {
        // xorshift64*: the crate has no rand dependency.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |n: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        };
        fn random_task(id: u32, draw: &mut dyn FnMut(u64) -> u64) -> IoTask {
            const PERIODS_MS: [u64; 6] = [1, 2, 4, 5, 10, 20];
            let period = 1000 * PERIODS_MS[draw(PERIODS_MS.len() as u64) as usize];
            let deadline = period - period / 4 * draw(2);
            let wcet = 1 + draw(deadline / 4);
            let ideal = draw(deadline - wcet + 1);
            let margin = draw(ideal.min(deadline - ideal) + 1);
            IoTask::builder(TaskId(id), DeviceId(0))
                .wcet(Duration::from_micros(wcet))
                .period(Duration::from_micros(period))
                .deadline(Duration::from_micros(deadline))
                .ideal_offset(Duration::from_micros(ideal))
                .margin(Duration::from_micros(margin))
                .release_offset(Duration::from_micros(period / 4 * draw(4)))
                .priority(Priority(draw(3) as u32))
                .build()
                .expect("valid random task")
        }
        let (mut merged, mut offsets, mut ties) = (0, 0, 0);
        for round in 0..2000 {
            let mut tasks = TaskSet::new();
            for k in 0..=draw(6) as u32 {
                tasks.push(random_task(10 * k + 5, &mut draw)).unwrap();
            }
            let newcomer = random_task(10 * draw(8) as u32, &mut draw);
            let mut grown = tasks.clone();
            grown.push(newcomer.clone()).unwrap();
            let jobs = JobSet::expand(&tasks);
            let want = JobSet::expand(&grown);
            match jobs.with_task(&newcomer) {
                Some(got) => {
                    assert_eq!(got, want, "round {round}");
                    merged += 1;
                    offsets += usize::from(!newcomer.release_offset().is_zero());
                    ties += usize::from(got.as_slice().windows(2).any(|w| {
                        w[0].release() == w[1].release()
                            && (w[0].id().task == newcomer.id() || w[1].id().task == newcomer.id())
                    }));
                }
                None => assert_ne!(want.hyperperiod(), jobs.hyperperiod(), "round {round}"),
            }
        }
        assert!(
            merged > 500 && offsets > 300 && ties > 300,
            "{merged} merged, {offsets} with offsets, {ties} with ties"
        );
        let lone = simple_set().iter().next().unwrap().clone();
        assert_eq!(JobSet::expand(&TaskSet::new()).with_task(&lone), None);
    }

    #[test]
    fn from_jobs_sorts_input() {
        let a = Job::new(
            JobId::new(TaskId(1), 0),
            Time::from_millis(1),
            Time::from_millis(1),
            Time::from_millis(3),
            Duration::from_micros(10),
            Duration::ZERO,
            Priority(0),
            QualityCurve::linear(1.0, 0.0),
        );
        let b = Job::new(
            JobId::new(TaskId(0), 0),
            Time::ZERO,
            Time::ZERO,
            Time::from_millis(2),
            Duration::from_micros(10),
            Duration::ZERO,
            Priority(1),
            QualityCurve::linear(1.0, 0.0),
        );
        let set = JobSet::from_jobs(vec![a, b], Duration::from_millis(3));
        assert_eq!(set.as_slice()[0].id().task, TaskId(0));
    }
}
