//! Non-preemptive EDF, an additional offline baseline.
//!
//! The paper's figures compare against FPS and GPIOCP; EDF is the classic
//! deadline-driven alternative and makes a useful extra reference point in
//! ablations: like FPS it is work-conserving and ignorant of ideal start
//! instants, so it achieves Ψ ≈ 0 while being at least as schedulable as
//! FPS-offline on these workloads (the shared dispatcher, deadline-keyed).

use crate::scheduler::Scheduler;
use crate::solve::{check_capacity, dispatch};
use tagio_core::job::JobSet;
use tagio_core::schedule::Schedule;
use tagio_core::solve::{Infeasible, InfeasibleCause};

/// Offline non-preemptive earliest-deadline-first scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdfOffline;

impl EdfOffline {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        EdfOffline
    }
}

impl Scheduler for EdfOffline {
    fn name(&self) -> &'static str {
        "edf-offline"
    }

    /// Simulates non-preemptive EDF dispatching over the hyper-period:
    /// whenever the device idles, the released pending job with the
    /// earliest absolute deadline starts (ties: earliest release, task id).
    ///
    /// # Errors
    /// [`InfeasibleCause::UtilisationOverload`] on outright overload,
    /// otherwise [`InfeasibleCause::BlockingBound`] naming the first job
    /// to miss its deadline, with the partial schedule's Ψ/Υ attached.
    fn schedule(&self, jobs: &JobSet) -> Result<Schedule, Infeasible> {
        check_capacity(jobs)?;
        let all = jobs.as_slice();
        dispatch(
            jobs,
            |i| all[i].release(),
            |i| (all[i].abs_deadline(), all[i].release(), all[i].id().task),
            InfeasibleCause::BlockingBound,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fps::FpsOffline;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagio_core::job::JobId;
    use tagio_core::metrics;
    use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
    use tagio_core::time::Duration;
    use tagio_workload::SystemConfig;

    fn task(id: u32, period_ms: u64, wcet_us: u64) -> IoTask {
        IoTask::builder(TaskId(id), DeviceId(0))
            .wcet(Duration::from_micros(wcet_us))
            .period(Duration::from_millis(period_ms))
            .ideal_offset(Duration::from_millis(period_ms) / 2)
            .margin(Duration::from_millis(period_ms) / 4)
            .build()
            .unwrap()
    }

    #[test]
    fn dispatches_earliest_deadline_first() {
        let set: TaskSet = vec![task(0, 16, 1000), task(1, 8, 1000)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&set);
        let s = EdfOffline::new().schedule(&jobs).unwrap();
        s.validate(&jobs).unwrap();
        // Both release at 0; task 1 (deadline 8ms) runs before task 0
        // (deadline 16ms).
        assert_eq!(s.as_slice()[0].job, JobId::new(TaskId(1), 0));
    }

    #[test]
    fn edf_ignores_ideal_starts() {
        let set: TaskSet = vec![task(0, 8, 500)].into_iter().collect();
        let jobs = JobSet::expand(&set);
        let s = EdfOffline::new().schedule(&jobs).unwrap();
        assert_eq!(metrics::psi(&s, &jobs), 0.0);
    }

    #[test]
    fn edf_schedules_generated_systems() {
        let mut rng = StdRng::seed_from_u64(1);
        for u in [0.3, 0.6, 0.9] {
            for _ in 0..5 {
                let sys = SystemConfig::paper(u).generate(&mut rng);
                let jobs = JobSet::expand(&sys);
                let s = EdfOffline::new()
                    .schedule(&jobs)
                    .unwrap_or_else(|e| panic!("EDF failed at U={u}: {e}"));
                s.validate(&jobs).unwrap();
            }
        }
    }

    #[test]
    fn edf_at_least_as_schedulable_as_fps_on_samples() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let sys = SystemConfig::paper(0.8).generate(&mut rng);
            let jobs = JobSet::expand(&sys);
            let fps_ok = FpsOffline::new().schedule(&jobs).is_ok();
            let edf_ok = EdfOffline::new().schedule(&jobs).is_ok();
            // Not a theorem for non-preemptive scheduling in general, but
            // holds on blocking-safe synchronous workloads; regression-guard
            // the empirical relationship the ablation relies on.
            if fps_ok {
                assert!(edf_ok, "FPS schedulable but EDF not");
            }
        }
    }

    #[test]
    fn overload_returns_none() {
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
        let jobs = JobSet::expand(&set);
        let err = EdfOffline::new().schedule(&jobs).unwrap_err();
        assert_eq!(err.cause, InfeasibleCause::UtilisationOverload);
    }

    #[test]
    fn empty_jobset_is_trivial() {
        let jobs = JobSet::from_jobs(vec![], Duration::from_millis(1));
        assert!(EdfOffline::new().schedule(&jobs).unwrap().is_empty());
    }
}
