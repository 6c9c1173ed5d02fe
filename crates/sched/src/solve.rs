//! What every solver shares: the capacity pre-check each method runs
//! first, and the [`SchedulerBug`] error that replaced the old
//! `SchedulingReport::evaluate` panic.

use core::fmt;
use tagio_core::error::ValidateScheduleError;
use tagio_core::job::JobSet;
use tagio_core::solve::{Infeasible, InfeasibleCause};
use tagio_core::task::TaskId;
use tagio_core::time::Time;

/// The necessary-condition capacity check every method runs first: total
/// execution demand beyond the scheduling horizon can never be feasible
/// on one device, whatever the method.
///
/// # Errors
/// An [`InfeasibleCause::UtilisationOverload`] diagnostic listing every
/// contributing task, heaviest demand first.
pub fn check_capacity(jobs: &JobSet) -> Result<(), Infeasible> {
    let demand = jobs.total_demand();
    if Time::ZERO + demand <= jobs.horizon() {
        return Ok(());
    }
    // Aggregate per-task demand so the diagnostic names the heaviest
    // contributors first.
    let mut per_task: Vec<(TaskId, u64)> = Vec::new();
    for job in jobs {
        let id = job.id().task;
        match per_task.iter_mut().find(|(t, _)| *t == id) {
            Some((_, d)) => *d += job.wcet().as_micros(),
            None => per_task.push((id, job.wcet().as_micros())),
        }
    }
    per_task.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Err(Infeasible::new(InfeasibleCause::UtilisationOverload)
        .with_tasks(per_task.into_iter().map(|(t, _)| t))
        .with_partial(0.0, 0.0))
}

/// A scheduler produced an invalid schedule — a bug in the method, not
/// an input error. Replaces the old `SchedulingReport::evaluate` panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerBug {
    /// The offending method's display name.
    pub method: String,
    /// The validation failure its schedule triggered.
    pub error: ValidateScheduleError,
}

impl SchedulerBug {
    /// Wraps a validation failure with the offending method's name.
    #[must_use]
    pub fn new(method: impl Into<String>, error: ValidateScheduleError) -> Self {
        SchedulerBug {
            method: method.into(),
            error,
        }
    }
}

impl fmt::Display for SchedulerBug {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} produced an invalid schedule: {}",
            self.method, self.error
        )
    }
}

impl std::error::Error for SchedulerBug {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagio_core::task::{DeviceId, IoTask, TaskSet};
    use tagio_core::time::Duration;

    fn overloaded_jobs() -> JobSet {
        // Two tasks each demanding 60% of the same 1ms period.
        let tight = |id| {
            IoTask::builder(TaskId(id), DeviceId(0))
                .wcet(Duration::from_micros(600))
                .period(Duration::from_millis(1))
                .ideal_offset(Duration::from_micros(400))
                .margin(Duration::from_micros(300))
                .build()
                .unwrap()
        };
        let set: TaskSet = vec![tight(0), tight(1)].into_iter().collect();
        JobSet::expand(&set)
    }

    #[test]
    fn capacity_check_flags_overload_with_contributors() {
        let err = check_capacity(&overloaded_jobs()).unwrap_err();
        assert_eq!(err.cause, InfeasibleCause::UtilisationOverload);
        assert_eq!(err.tasks, vec![TaskId(0), TaskId(1)]);
        assert_eq!(err.best_psi, Some(0.0));
        assert!(err.is_populated());
    }

    #[test]
    fn capacity_check_passes_feasible_and_empty_sets() {
        let set: TaskSet = vec![IoTask::builder(TaskId(0), DeviceId(0))
            .wcet(Duration::from_micros(100))
            .period(Duration::from_millis(4))
            .ideal_offset(Duration::from_millis(2))
            .margin(Duration::from_millis(1))
            .build()
            .unwrap()]
        .into_iter()
        .collect();
        assert!(check_capacity(&JobSet::expand(&set)).is_ok());
        assert!(check_capacity(&JobSet::from_jobs(vec![], Duration::from_millis(1))).is_ok());
    }

    #[test]
    fn scheduler_bug_displays_method_and_source() {
        let bug = SchedulerBug::new(
            "static",
            ValidateScheduleError::MissingJob {
                job: tagio_core::job::JobId::new(TaskId(0), 0),
            },
        );
        let s = bug.to_string();
        assert!(
            s.contains("static") && s.contains("invalid schedule"),
            "{s}"
        );
        assert!(std::error::Error::source(&bug).is_some());
    }
}
