//! Explicit job-level schedules and their validation.
//!
//! Both scheduling methods in the paper are *offline*: they output, for every
//! job of the hyper-period, the actual start time `κi^j`. A [`Schedule`] is
//! exactly that table. [`Schedule::validate`] independently checks the two
//! constraints every correct schedule must satisfy:
//!
//! * **Constraint 1** — every job executes inside its release window and
//!   completes by its deadline (`Ti·j ≤ κ ≤ Ti·j + Di − Ci`);
//! * **Constraint 2** — executions are non-preemptive and never overlap on
//!   the (single) partition device.
//!
//! Every scheduler in `tagio-sched` is judged by this impartial code, and the
//! hardware simulator in `tagio-controller` replays validated schedules.

use crate::error::ValidateScheduleError;
use crate::job::{Job, JobId, JobSet};
use crate::time::{Duration, Time};
use std::collections::HashMap;

/// The scheduled execution of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// The job this entry executes.
    pub job: JobId,
    /// Actual start time `κi^j` decided by the scheduler.
    pub start: Time,
    /// Execution budget (the job's WCET; the controller holds the device for
    /// exactly this long to preserve the offline decisions, §III.C).
    pub duration: Duration,
}

impl ScheduleEntry {
    /// Completion instant (`start + duration`).
    #[must_use]
    pub fn finish(&self) -> Time {
        self.start + self.duration
    }
}

/// An explicit offline schedule for one partition over one hyper-period.
///
/// Entries are kept sorted by start time (ties by job id) regardless of
/// insertion order.
///
/// ```
/// use tagio_core::schedule::{Schedule, ScheduleEntry};
/// use tagio_core::job::JobId;
/// use tagio_core::task::TaskId;
/// use tagio_core::time::{Time, Duration};
///
/// let mut s = Schedule::new();
/// s.insert(ScheduleEntry {
///     job: JobId::new(TaskId(0), 0),
///     start: Time::from_millis(2),
///     duration: Duration::from_micros(100),
/// });
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    entries: Vec<ScheduleEntry>,
}

impl Schedule {
    /// Creates an empty schedule.
    #[must_use]
    pub fn new() -> Self {
        Schedule {
            entries: Vec::new(),
        }
    }

    /// Inserts an entry, keeping start-time order.
    pub fn insert(&mut self, entry: ScheduleEntry) {
        let pos = self
            .entries
            .partition_point(|e| (e.start, e.job) <= (entry.start, entry.job));
        self.entries.insert(pos, entry);
    }

    /// Number of scheduled jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in start-time order.
    pub fn iter(&self) -> core::slice::Iter<'_, ScheduleEntry> {
        self.entries.iter()
    }

    /// Entries as a slice (start-time order).
    #[must_use]
    pub fn as_slice(&self) -> &[ScheduleEntry] {
        &self.entries
    }

    /// Looks up the entry for a job.
    #[must_use]
    pub fn start_of(&self, job: JobId) -> Option<Time> {
        self.entries.iter().find(|e| e.job == job).map(|e| e.start)
    }

    /// Validates this schedule against `jobs`.
    ///
    /// Checks that every job of the set is scheduled exactly once, within its
    /// release window (Constraint 1), and that no two executions overlap
    /// (Constraint 2).
    ///
    /// # Errors
    /// Returns the first violation found as a [`ValidateScheduleError`].
    pub fn validate(&self, jobs: &JobSet) -> Result<(), ValidateScheduleError> {
        let mut seen: HashMap<JobId, &ScheduleEntry> = HashMap::with_capacity(self.entries.len());
        for e in &self.entries {
            if seen.insert(e.job, e).is_some() {
                return Err(ValidateScheduleError::DuplicateJob { job: e.job });
            }
        }
        for job in jobs {
            let Some(entry) = seen.get(&job.id()) else {
                return Err(ValidateScheduleError::MissingJob { job: job.id() });
            };
            if entry.duration != job.wcet() {
                return Err(ValidateScheduleError::WrongDuration {
                    job: job.id(),
                    expected: job.wcet(),
                    actual: entry.duration,
                });
            }
            if entry.start < job.release() {
                return Err(ValidateScheduleError::StartsBeforeRelease {
                    job: job.id(),
                    start: entry.start,
                    release: job.release(),
                });
            }
            if entry.finish() > job.abs_deadline() {
                return Err(ValidateScheduleError::MissesDeadline {
                    job: job.id(),
                    finish: entry.finish(),
                    deadline: job.abs_deadline(),
                });
            }
        }
        if seen.len() != jobs.len() {
            // An entry refers to a job not present in the set.
            for e in &self.entries {
                if jobs.get(e.job).is_none() {
                    return Err(ValidateScheduleError::UnknownJob { job: e.job });
                }
            }
        }
        for pair in self.entries.windows(2) {
            if pair[0].finish() > pair[1].start {
                return Err(ValidateScheduleError::Overlap {
                    first: pair[0].job,
                    second: pair[1].job,
                });
            }
        }
        Ok(())
    }

    /// Repeats this one-hyper-period schedule `count` times, shifting each
    /// copy by `hyperperiod` and renumbering job indices accordingly.
    ///
    /// This realises the paper's §III.C remark that the offline methods
    /// "produce explicit schedule for different hyper-periods of the input
    /// jobs, until the schedule can repeat in future execution": the
    /// controller's scheduling table can be filled with as many repetitions
    /// as its capacity allows and reloaded per hyper-period thereafter.
    ///
    /// Job indices are renumbered by adding `k × jobs_of_task` for the
    /// `k`-th copy, where `jobs_of_task` is how many entries that task has
    /// in this schedule.
    ///
    /// # Panics
    /// Panics if `count` is zero or `hyperperiod` is zero for a non-empty
    /// schedule.
    #[must_use]
    pub fn repeat(&self, count: u32, hyperperiod: Duration) -> Schedule {
        assert!(count > 0, "need at least one repetition");
        if self.entries.is_empty() {
            return Schedule::new();
        }
        assert!(!hyperperiod.is_zero(), "hyper-period must be positive");
        let mut per_task: HashMap<crate::task::TaskId, u32> = HashMap::new();
        for e in &self.entries {
            *per_task.entry(e.job.task).or_insert(0) += 1;
        }
        let mut out = Vec::with_capacity(self.entries.len() * count as usize);
        for k in 0..count {
            let shift = hyperperiod * u64::from(k);
            for e in &self.entries {
                out.push(ScheduleEntry {
                    job: JobId::new(e.job.task, e.job.index + k * per_task[&e.job.task]),
                    start: e.start + shift,
                    duration: e.duration,
                });
            }
        }
        out.into_iter().collect()
    }
}

impl FromIterator<ScheduleEntry> for Schedule {
    fn from_iter<I: IntoIterator<Item = ScheduleEntry>>(iter: I) -> Self {
        let mut s = Schedule::new();
        for e in iter {
            s.insert(e);
        }
        s
    }
}

impl Extend<ScheduleEntry> for Schedule {
    fn extend<I: IntoIterator<Item = ScheduleEntry>>(&mut self, iter: I) {
        for e in iter {
            self.insert(e);
        }
    }
}

impl<'a> IntoIterator for &'a Schedule {
    type Item = &'a ScheduleEntry;
    type IntoIter = core::slice::Iter<'a, ScheduleEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// Builds an entry for `job` starting at `start` (duration = WCET).
#[must_use]
pub fn entry_for(job: &Job, start: Time) -> ScheduleEntry {
    ScheduleEntry {
        job: job.id(),
        start,
        duration: job.wcet(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::QualityCurve;
    use crate::task::{Priority, TaskId};

    fn job(task: u32, index: u32, release_ms: u64, deadline_ms: u64, wcet_us: u64) -> Job {
        let release = Time::from_millis(release_ms);
        let deadline = Time::from_millis(deadline_ms);
        let mid = Time::from_micros((release.as_micros() + deadline.as_micros()) / 2);
        Job::new(
            JobId::new(TaskId(task), index),
            release,
            mid,
            deadline,
            Duration::from_micros(wcet_us),
            Duration::ZERO,
            Priority(task),
            QualityCurve::linear(1.0, 0.0),
        )
    }

    fn jobset(jobs: Vec<Job>, hp_ms: u64) -> JobSet {
        JobSet::from_jobs(jobs, Duration::from_millis(hp_ms))
    }

    #[test]
    fn insert_keeps_start_order() {
        let mut s = Schedule::new();
        s.insert(entry_for(&job(1, 0, 0, 10, 100), Time::from_millis(5)));
        s.insert(entry_for(&job(0, 0, 0, 10, 100), Time::from_millis(1)));
        let starts: Vec<Time> = s.iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![Time::from_millis(1), Time::from_millis(5)]);
    }

    #[test]
    fn validate_accepts_correct_schedule() {
        let a = job(0, 0, 0, 10, 100);
        let b = job(1, 0, 0, 10, 100);
        let js = jobset(vec![a.clone(), b.clone()], 10);
        let s: Schedule = vec![
            entry_for(&a, Time::from_millis(1)),
            entry_for(&b, Time::from_millis(2)),
        ]
        .into_iter()
        .collect();
        assert!(s.validate(&js).is_ok());
    }

    #[test]
    fn validate_rejects_missing_job() {
        let a = job(0, 0, 0, 10, 100);
        let b = job(1, 0, 0, 10, 100);
        let js = jobset(vec![a.clone(), b], 10);
        let s: Schedule = vec![entry_for(&a, Time::from_millis(1))]
            .into_iter()
            .collect();
        assert!(matches!(
            s.validate(&js),
            Err(ValidateScheduleError::MissingJob { .. })
        ));
    }

    #[test]
    fn validate_rejects_duplicate_job() {
        let a = job(0, 0, 0, 10, 100);
        let js = jobset(vec![a.clone()], 10);
        let s: Schedule = vec![
            entry_for(&a, Time::from_millis(1)),
            entry_for(&a, Time::from_millis(2)),
        ]
        .into_iter()
        .collect();
        assert!(matches!(
            s.validate(&js),
            Err(ValidateScheduleError::DuplicateJob { .. })
        ));
    }

    #[test]
    fn validate_rejects_unknown_job() {
        let a = job(0, 0, 0, 10, 100);
        let ghost = job(9, 0, 0, 10, 100);
        let js = jobset(vec![a.clone()], 10);
        let s: Schedule = vec![
            entry_for(&a, Time::from_millis(1)),
            entry_for(&ghost, Time::from_millis(5)),
        ]
        .into_iter()
        .collect();
        assert!(matches!(
            s.validate(&js),
            Err(ValidateScheduleError::UnknownJob { .. })
        ));
    }

    #[test]
    fn validate_rejects_early_start() {
        let a = job(0, 0, 5, 10, 100);
        let js = jobset(vec![a.clone()], 10);
        let s: Schedule = vec![entry_for(&a, Time::from_millis(4))]
            .into_iter()
            .collect();
        assert!(matches!(
            s.validate(&js),
            Err(ValidateScheduleError::StartsBeforeRelease { .. })
        ));
    }

    #[test]
    fn validate_rejects_deadline_miss() {
        let a = job(0, 0, 0, 1, 100);
        let js = jobset(vec![a.clone()], 1);
        let s: Schedule = vec![entry_for(&a, Time::from_micros(950))]
            .into_iter()
            .collect();
        assert!(matches!(
            s.validate(&js),
            Err(ValidateScheduleError::MissesDeadline { .. })
        ));
    }

    #[test]
    fn validate_rejects_overlap() {
        let a = job(0, 0, 0, 10, 500);
        let b = job(1, 0, 0, 10, 500);
        let js = jobset(vec![a.clone(), b.clone()], 10);
        let s: Schedule = vec![
            entry_for(&a, Time::from_millis(1)),
            entry_for(&b, Time::from_micros(1_200)),
        ]
        .into_iter()
        .collect();
        assert!(matches!(
            s.validate(&js),
            Err(ValidateScheduleError::Overlap { .. })
        ));
    }

    #[test]
    fn validate_rejects_wrong_duration() {
        let a = job(0, 0, 0, 10, 500);
        let js = jobset(vec![a.clone()], 10);
        let s: Schedule = vec![ScheduleEntry {
            job: a.id(),
            start: Time::from_millis(1),
            duration: Duration::from_micros(400),
        }]
        .into_iter()
        .collect();
        assert!(matches!(
            s.validate(&js),
            Err(ValidateScheduleError::WrongDuration { .. })
        ));
    }

    #[test]
    fn back_to_back_entries_do_not_overlap() {
        let a = job(0, 0, 0, 10, 500);
        let b = job(1, 0, 0, 10, 500);
        let js = jobset(vec![a.clone(), b.clone()], 10);
        let s: Schedule = vec![
            entry_for(&a, Time::from_millis(1)),
            entry_for(&b, Time::from_micros(1_500)),
        ]
        .into_iter()
        .collect();
        assert!(s.validate(&js).is_ok());
    }

    #[test]
    fn repeat_shifts_and_renumbers() {
        let a = job(0, 0, 0, 10, 100);
        let b = job(1, 0, 0, 10, 200);
        let s: Schedule = vec![
            entry_for(&a, Time::from_millis(1)),
            entry_for(&b, Time::from_millis(5)),
        ]
        .into_iter()
        .collect();
        let r = s.repeat(3, Duration::from_millis(10));
        assert_eq!(r.len(), 6);
        // Second copy of task 0 lands at 11ms with index 1.
        assert_eq!(
            r.start_of(JobId::new(TaskId(0), 1)),
            Some(Time::from_millis(11))
        );
        assert_eq!(
            r.start_of(JobId::new(TaskId(1), 2)),
            Some(Time::from_millis(25))
        );
    }

    #[test]
    fn repeat_validates_against_repeated_jobset() {
        // Expand a task set over one hyper-period; repeating the schedule
        // must validate against the expansion over k hyper-periods.
        use crate::task::{DeviceId, IoTask};
        let mk = |period_ms: u64| {
            IoTask::builder(TaskId(0), DeviceId(0))
                .wcet(Duration::from_micros(100))
                .period(Duration::from_millis(period_ms))
                .ideal_offset(Duration::from_millis(period_ms / 2))
                .margin(Duration::from_millis(period_ms / 4))
                .build()
                .unwrap()
        };
        let one: crate::task::TaskSet = vec![mk(4)].into_iter().collect();
        let jobs_one = JobSet::expand(&one);
        let s: Schedule = jobs_one
            .iter()
            .map(|j| entry_for(j, j.ideal_start()))
            .collect();
        let repeated = s.repeat(3, Duration::from_millis(4));
        // Build the 3-hyper-period job set by hand (period divides 12ms).
        let three: crate::task::TaskSet = vec![{
            let mut t = mk(4);
            let _ = &mut t;
            t
        }]
        .into_iter()
        .collect();
        let mut jobs = Vec::new();
        for j in 0..3u32 {
            let base = Time::from_millis(u64::from(j) * 4);
            let task = three.get(TaskId(0)).unwrap();
            jobs.push(Job::new(
                JobId::new(TaskId(0), j),
                base,
                base + task.ideal_offset(),
                base + task.deadline(),
                task.wcet(),
                task.margin(),
                task.priority(),
                crate::quality::QualityCurve::linear(task.vmax(), task.vmin()),
            ));
        }
        let jobs3 = JobSet::from_jobs(jobs, Duration::from_millis(12));
        repeated.validate(&jobs3).expect("repeated schedule valid");
    }

    #[test]
    fn repeat_of_empty_schedule_is_empty() {
        assert!(Schedule::new()
            .repeat(5, Duration::from_millis(1))
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn repeat_zero_panics() {
        let _ = Schedule::new().repeat(0, Duration::from_millis(1));
    }

    #[test]
    fn start_of_finds_entry() {
        let a = job(0, 0, 0, 10, 100);
        let s: Schedule = vec![entry_for(&a, Time::from_millis(3))]
            .into_iter()
            .collect();
        assert_eq!(s.start_of(a.id()), Some(Time::from_millis(3)));
        assert_eq!(s.start_of(JobId::new(TaskId(42), 0)), None);
    }
}
