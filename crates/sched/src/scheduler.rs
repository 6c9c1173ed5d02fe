//! The scheduler interface every method implements, and the per-run
//! report.
//!
//! [`Scheduler`] is one call shape for the static heuristic, the GA, the
//! classic baselines and the exhaustive oracle: `schedule(&jobs)`
//! returns a validated [`Schedule`] or a structured [`Infeasible`]
//! diagnostic. Seeded methods also read a per-call [`SolverCtx`] through
//! [`Scheduler::schedule_with`].

use tagio_core::job::JobSet;
use tagio_core::metrics;
use tagio_core::schedule::Schedule;
use tagio_core::solve::{Infeasible, SolverCtx};

use crate::solve::SchedulerBug;

/// An object-safe offline job-level I/O scheduler for one partition.
///
/// Implementations compute the actual start time `κi^j` of every job in
/// the hyper-period, or report infeasibility with a structured
/// diagnostic.
///
/// Contracts:
///
/// * **Validity** — every `Ok` schedule passes [`Schedule::validate`]
///   against the input job set.
/// * **Determinism** — for a fixed context seed, repeated calls are
///   bit-identical.
pub trait Scheduler {
    /// Human-readable method name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// Produces a feasible schedule for `jobs`.
    ///
    /// # Errors
    /// A structured [`Infeasible`] diagnostic when the method cannot
    /// schedule the set: the cause, the offending task/job ids, and the
    /// best partial Ψ/Υ achieved before giving up.
    fn schedule(&self, jobs: &JobSet) -> Result<Schedule, Infeasible>;

    /// Produces a feasible schedule for `jobs` under `ctx`. Only seeded
    /// methods read the context; the default ignores it and calls
    /// [`Scheduler::schedule`].
    ///
    /// # Errors
    /// As [`Scheduler::schedule`].
    fn schedule_with(&self, jobs: &JobSet, ctx: &SolverCtx) -> Result<Schedule, Infeasible> {
        let _ = ctx;
        self.schedule(jobs)
    }
}

/// The outcome of running a solver on one job set, with the paper's
/// metrics attached.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulingReport {
    /// Solver name.
    pub method: String,
    /// Whether a feasible schedule was found.
    pub schedulable: bool,
    /// Ψ — fraction of exactly timing-accurate jobs (0 when infeasible).
    pub psi: f64,
    /// Υ — normalised aggregate quality (0 when infeasible).
    pub upsilon: f64,
    /// The solver's diagnostic when the set was infeasible (`None` when
    /// schedulable).
    pub diagnostic: Option<Infeasible>,
}

impl SchedulingReport {
    /// Runs `solver` on `jobs` under a default context and summarises
    /// the result.
    ///
    /// # Errors
    /// [`SchedulerBug`] when the solver returns a schedule that fails
    /// validation — a bug in the method, not an input error (this used
    /// to panic).
    pub fn evaluate<S: Scheduler + ?Sized>(
        solver: &S,
        jobs: &JobSet,
    ) -> Result<Self, SchedulerBug> {
        Self::evaluate_with(solver, jobs, &SolverCtx::new())
    }

    /// Runs `solver` on `jobs` under `ctx` and summarises the result.
    ///
    /// # Errors
    /// [`SchedulerBug`] when the solver returns an invalid schedule.
    pub fn evaluate_with<S: Scheduler + ?Sized>(
        solver: &S,
        jobs: &JobSet,
        ctx: &SolverCtx,
    ) -> Result<Self, SchedulerBug> {
        match solver.schedule_with(jobs, ctx) {
            Ok(schedule) => {
                schedule
                    .validate(jobs)
                    .map_err(|e| SchedulerBug::new(solver.name(), e))?;
                let (psi, upsilon) = metrics::quality(&schedule, jobs);
                Ok(SchedulingReport {
                    method: solver.name().to_owned(),
                    schedulable: true,
                    psi,
                    upsilon,
                    diagnostic: None,
                })
            }
            Err(diagnostic) => Ok(SchedulingReport {
                method: solver.name().to_owned(),
                schedulable: false,
                psi: 0.0,
                upsilon: 0.0,
                diagnostic: Some(diagnostic),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagio_core::schedule::{entry_for, ScheduleEntry};
    use tagio_core::solve::InfeasibleCause;
    use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
    use tagio_core::time::{Duration, Time};

    struct Ideal;
    impl Scheduler for Ideal {
        fn name(&self) -> &'static str {
            "ideal"
        }
        fn schedule(&self, jobs: &JobSet) -> Result<Schedule, Infeasible> {
            Ok(jobs.iter().map(|j| entry_for(j, j.ideal_start())).collect())
        }
    }

    struct Never;
    impl Scheduler for Never {
        fn name(&self) -> &'static str {
            "never"
        }
        fn schedule(&self, jobs: &JobSet) -> Result<Schedule, Infeasible> {
            Err(Infeasible::new(InfeasibleCause::NoFeasibleSlot)
                .with_jobs(jobs.iter().map(tagio_core::job::Job::id)))
        }
    }

    struct Buggy;
    impl Scheduler for Buggy {
        fn name(&self) -> &'static str {
            "buggy"
        }
        fn schedule(&self, jobs: &JobSet) -> Result<Schedule, Infeasible> {
            // Every job twice: fails validation.
            Ok(jobs
                .iter()
                .flat_map(|j| {
                    [
                        entry_for(j, j.ideal_start()),
                        ScheduleEntry {
                            job: j.id(),
                            start: Time::ZERO,
                            duration: j.wcet(),
                        },
                    ]
                })
                .collect())
        }
    }

    fn jobs() -> JobSet {
        let set: TaskSet = vec![IoTask::builder(TaskId(0), DeviceId(0))
            .wcet(Duration::from_micros(100))
            .period(Duration::from_millis(4))
            .ideal_offset(Duration::from_millis(2))
            .margin(Duration::from_millis(1))
            .build()
            .unwrap()]
        .into_iter()
        .collect();
        JobSet::expand(&set)
    }

    #[test]
    fn report_for_feasible_scheduler() {
        let r = SchedulingReport::evaluate(&Ideal, &jobs()).unwrap();
        assert!(r.schedulable);
        assert_eq!(r.psi, 1.0);
        assert_eq!(r.upsilon, 1.0);
        assert_eq!(r.method, "ideal");
        assert!(r.diagnostic.is_none());
    }

    #[test]
    fn report_for_infeasible_scheduler_carries_diagnostic() {
        let r = SchedulingReport::evaluate(&Never, &jobs()).unwrap();
        assert!(!r.schedulable);
        assert_eq!(r.psi, 0.0);
        assert_eq!(r.upsilon, 0.0);
        let d = r.diagnostic.expect("diagnostic attached");
        assert_eq!(d.cause, InfeasibleCause::NoFeasibleSlot);
        assert_eq!(d.tasks, vec![TaskId(0)]);
    }

    #[test]
    fn invalid_schedule_is_a_typed_error_not_a_panic() {
        let bug = SchedulingReport::evaluate(&Buggy, &jobs()).unwrap_err();
        assert_eq!(bug.method, "buggy");
        assert!(bug.to_string().contains("invalid schedule"));
    }
}
