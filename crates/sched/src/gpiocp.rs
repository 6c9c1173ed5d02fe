//! The GPIOCP baseline (Jiang & Audsley, DATE 2017 — the paper's
//! reference \[2\]).
//!
//! GPIOCP pre-loads timed I/O commands into a co-processor; each command
//! carries its desired start instant. At run-time a fired request enters a
//! FIFO queue and executes when it reaches the head — so execution order is
//! *arrival* order, regardless of ideal starts or deadlines. The paper shows
//! this queueing policy is the reason GPIOCP cannot guarantee either timing
//! requirement (§I, §II).
//!
//! Model: job `λi^j`'s request fires at its ideal start `Ti·j + δi` (the
//! instant encoded in its timed command). The device serves requests in
//! firing order; a request arriving at an idle device starts immediately —
//! hence *exactly on time* — while a request arriving behind others queues
//! and starts late: the crate's shared dispatcher, keyed by firing instant.

use crate::scheduler::Scheduler;
use crate::solve::{check_capacity, dispatch};
use tagio_core::job::JobSet;
use tagio_core::schedule::Schedule;
use tagio_core::solve::{Infeasible, InfeasibleCause};

/// The FIFO-queued GPIOCP execution model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gpiocp;

impl Gpiocp {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        Gpiocp
    }
}

impl Scheduler for Gpiocp {
    fn name(&self) -> &'static str {
        "gpiocp"
    }

    /// Replays the FIFO queue over the hyper-period.
    ///
    /// # Errors
    /// [`InfeasibleCause::UtilisationOverload`] on outright overload,
    /// otherwise [`InfeasibleCause::BlockingBound`] naming the first job
    /// whose queued execution completes after its deadline (head-of-line
    /// blocking) — in the paper's terms, the system is not schedulable
    /// under GPIOCP.
    fn schedule(&self, jobs: &JobSet) -> Result<Schedule, Infeasible> {
        check_capacity(jobs)?;
        // Requests fire at ideal start instants; FIFO = firing order.
        let all = jobs.as_slice();
        dispatch(
            jobs,
            |i| all[i].ideal_start(),
            |i| (all[i].ideal_start(), all[i].id().task, all[i].id().index),
            InfeasibleCause::BlockingBound,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagio_core::job::JobId;
    use tagio_core::metrics;
    use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
    use tagio_core::time::{Duration, Time};

    fn task(id: u32, period_ms: u64, wcet_us: u64, delta_ms: u64) -> IoTask {
        IoTask::builder(TaskId(id), DeviceId(0))
            .wcet(Duration::from_micros(wcet_us))
            .period(Duration::from_millis(period_ms))
            .ideal_offset(Duration::from_millis(delta_ms))
            .margin(Duration::from_millis(period_ms) / 4)
            .build()
            .unwrap()
    }

    #[test]
    fn isolated_requests_are_exact() {
        // Two jobs with disjoint ideal executions: FIFO serves both on time.
        let set: TaskSet = vec![task(0, 8, 500, 2), task(1, 8, 500, 5)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&set);
        let s = Gpiocp::new().schedule(&jobs).unwrap();
        s.validate(&jobs).unwrap();
        assert_eq!(metrics::psi(&s, &jobs), 1.0);
    }

    #[test]
    fn contending_requests_queue_fifo() {
        // Same ideal instant: the first-queued (lower task id) is exact,
        // the second starts after it.
        let set: TaskSet = vec![task(0, 8, 500, 4), task(1, 8, 500, 4)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&set);
        let s = Gpiocp::new().schedule(&jobs).unwrap();
        assert_eq!(
            s.start_of(JobId::new(TaskId(0), 0)),
            Some(Time::from_millis(4))
        );
        assert_eq!(
            s.start_of(JobId::new(TaskId(1), 0)),
            Some(Time::from_micros(4_500))
        );
        assert_eq!(metrics::psi(&s, &jobs), 0.5);
    }

    #[test]
    fn fifo_head_of_line_blocking_delays_later_request() {
        // A long head-of-line job pushes a later tight job past its ideal.
        let set: TaskSet = vec![task(0, 16, 4000, 4), task(1, 16, 500, 5)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&set);
        let s = Gpiocp::new().schedule(&jobs).unwrap();
        // task1 fires at 5ms but device busy until 8ms.
        assert_eq!(
            s.start_of(JobId::new(TaskId(1), 0)),
            Some(Time::from_millis(8))
        );
    }

    #[test]
    fn deadline_miss_means_unschedulable() {
        // Three requests fire simultaneously near the deadline; the queue
        // cannot drain in time.
        let mk = |id| {
            IoTask::builder(TaskId(id), DeviceId(0))
                .wcet(Duration::from_micros(900))
                .period(Duration::from_millis(4))
                .ideal_offset(Duration::from_millis(3))
                .margin(Duration::from_micros(900))
                .build()
                .unwrap()
        };
        let set: TaskSet = vec![mk(0), mk(1), mk(2)].into_iter().collect();
        let jobs = JobSet::expand(&set);
        let err = Gpiocp::new().schedule(&jobs).unwrap_err();
        assert_eq!(err.cause, InfeasibleCause::BlockingBound);
        assert!(!err.jobs.is_empty() && err.best_psi.is_some());
    }

    #[test]
    fn empty_jobset_is_trivially_schedulable() {
        let jobs = JobSet::from_jobs(vec![], Duration::from_millis(1));
        assert!(Gpiocp::new().schedule(&jobs).is_ok());
    }

    #[test]
    fn schedule_is_deterministic() {
        let set: TaskSet = vec![task(0, 8, 500, 4), task(1, 4, 300, 2)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&set);
        let a = Gpiocp::new().schedule(&jobs).unwrap();
        let b = Gpiocp::new().schedule(&jobs).unwrap();
        assert_eq!(a, b);
    }
}
