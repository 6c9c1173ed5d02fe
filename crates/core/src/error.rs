//! Error types for the core model.

use crate::job::JobId;
use crate::task::TaskId;
use crate::time::{Duration, Time};
use core::fmt;

/// A task definition violated a model invariant.
///
/// Produced by [`IoTaskBuilder::build`](crate::task::IoTaskBuilder::build)
/// and [`TaskSet::push`](crate::task::TaskSet::push).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateTaskError {
    task: TaskId,
    reason: &'static str,
}

impl ValidateTaskError {
    pub(crate) fn new(task: TaskId, reason: &'static str) -> Self {
        ValidateTaskError { task, reason }
    }
}

impl fmt::Display for ValidateTaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid task {}: {}", self.task, self.reason)
    }
}

impl std::error::Error for ValidateTaskError {}

/// A schedule violated Constraint 1 or Constraint 2 (see
/// [`Schedule::validate`](crate::schedule::Schedule::validate)).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidateScheduleError {
    /// A job of the set has no entry.
    MissingJob {
        /// The unscheduled job.
        job: JobId,
    },
    /// A job appears more than once.
    DuplicateJob {
        /// The duplicated job.
        job: JobId,
    },
    /// An entry refers to a job not in the set.
    UnknownJob {
        /// The foreign job.
        job: JobId,
    },
    /// An entry's duration differs from the job's WCET.
    WrongDuration {
        /// The job.
        job: JobId,
        /// The job's WCET.
        expected: Duration,
        /// The entry's duration.
        actual: Duration,
    },
    /// Constraint 1 lower bound: the job starts before its release.
    StartsBeforeRelease {
        /// The job.
        job: JobId,
        /// Scheduled start.
        start: Time,
        /// Release instant.
        release: Time,
    },
    /// Constraint 1 upper bound: the job completes after its deadline.
    MissesDeadline {
        /// The job.
        job: JobId,
        /// Completion instant.
        finish: Time,
        /// Absolute deadline.
        deadline: Time,
    },
    /// Constraint 2: two executions overlap on the device.
    Overlap {
        /// The earlier-starting job.
        first: JobId,
        /// The overlapping job.
        second: JobId,
    },
}

impl fmt::Display for ValidateScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingJob { job } => write!(f, "job {job} is not scheduled"),
            Self::DuplicateJob { job } => write!(f, "job {job} is scheduled more than once"),
            Self::UnknownJob { job } => write!(f, "schedule refers to unknown job {job}"),
            Self::WrongDuration {
                job,
                expected,
                actual,
            } => write!(
                f,
                "job {job} scheduled for {actual} but its wcet is {expected}"
            ),
            Self::StartsBeforeRelease {
                job,
                start,
                release,
            } => write!(
                f,
                "job {job} starts at {start} before its release {release}"
            ),
            Self::MissesDeadline {
                job,
                finish,
                deadline,
            } => write!(
                f,
                "job {job} finishes at {finish} after its deadline {deadline}"
            ),
            Self::Overlap { first, second } => {
                write!(f, "jobs {first} and {second} overlap on the device")
            }
        }
    }
}

impl std::error::Error for ValidateScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_error_displays_reason() {
        let e = ValidateTaskError::new(TaskId(3), "wcet must be positive");
        assert_eq!(e.task, TaskId(3));
        assert!(e.to_string().contains("t3"));
        assert!(e.to_string().contains("wcet"));
    }

    #[test]
    fn schedule_error_displays_are_nonempty() {
        let job = JobId::new(TaskId(1), 2);
        let samples: Vec<ValidateScheduleError> = vec![
            ValidateScheduleError::MissingJob { job },
            ValidateScheduleError::DuplicateJob { job },
            ValidateScheduleError::UnknownJob { job },
            ValidateScheduleError::WrongDuration {
                job,
                expected: Duration::from_micros(5),
                actual: Duration::from_micros(6),
            },
            ValidateScheduleError::StartsBeforeRelease {
                job,
                start: Time::ZERO,
                release: Time::from_micros(1),
            },
            ValidateScheduleError::MissesDeadline {
                job,
                finish: Time::from_micros(2),
                deadline: Time::from_micros(1),
            },
            ValidateScheduleError::Overlap {
                first: job,
                second: JobId::new(TaskId(2), 0),
            },
        ];
        for e in samples {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_bounds<T: Send + Sync + std::error::Error>() {}
        assert_bounds::<ValidateTaskError>();
        assert_bounds::<ValidateScheduleError>();
    }
}
