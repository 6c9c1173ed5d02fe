//! Hostile arrivals against the job budget.
//!
//! A valid task whose period is co-prime to the active set's multiplies
//! the hyper-period, and with it the number of jobs one expansion
//! builds. Admission must count those jobs before building any and turn
//! the arrival away with `InfeasibleCause::JobBudgetExceeded`, leaving
//! the partition untouched; a base or snapshot over the same budget must
//! fail to bootstrap or restore instead of expanding. Without the gate
//! each case here allocates billions of jobs and aborts the process, so
//! CI runs this suite under a capped address space.

use std::collections::BTreeMap;
use tagio_core::solve::InfeasibleCause;
use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
use tagio_core::time::Duration;
use tagio_online::fleet::{FleetConfig, FleetScheduler};
use tagio_online::service::{EventOutcome, OnlineScheduler, RejectReason};

fn task(id: u32, period_us: u64, wcet_us: u64) -> IoTask {
    let period = Duration::from_micros(period_us);
    IoTask::builder(TaskId(id), DeviceId(0))
        .wcet(Duration::from_micros(wcet_us))
        .period(period)
        .ideal_offset(period / 2)
        .margin(period / 4)
        .build()
        .expect("valid task")
}

/// 10 ms / 200 µs and 1.44 s / 500 µs: a hyper-period of 1.44 s and
/// 145 jobs.
fn base() -> TaskSet {
    vec![task(0, 10_000, 200), task(1, 1_440_000, 500)]
        .into_iter()
        .collect()
}

/// Period 999 983 µs is co-prime to 1.44 s: the candidate's hyper-period
/// grows to about 1.44 × 10¹² µs and its expansion to about 1.4 × 10⁸
/// jobs, while its utilisation still passes the gate.
fn coprime_arrival() -> IoTask {
    task(7, 999_983, 5)
}

fn assert_budget_reject(outcome: &EventOutcome, id: TaskId) {
    match outcome {
        EventOutcome::Rejected {
            task,
            reason: RejectReason::Infeasible(diagnostic),
        } => {
            assert_eq!(*task, id);
            assert_eq!(diagnostic.cause, InfeasibleCause::JobBudgetExceeded);
            assert_eq!(diagnostic.tasks, vec![id]);
        }
        other => panic!("expected a job-budget reject, got {other:?}"),
    }
}

#[test]
fn coprime_period_arrival_is_rejected_before_expansion() {
    let mut svc = OnlineScheduler::bootstrap(DeviceId(0), base()).expect("base is feasible");
    let (schedule, jobs) = (svc.schedule().clone(), svc.jobs().len());
    let outcome = svc.offer(&coprime_arrival());
    assert_budget_reject(&outcome, TaskId(7));
    assert_eq!(svc.schedule(), &schedule, "a reject leaves the schedule");
    assert_eq!(svc.jobs().len(), jobs);
    assert_eq!(svc.tasks().len(), 2);
    assert_eq!(svc.stats().rejected, 1);
    assert_eq!(svc.stats().fast_rejects, 0, "not the utilisation gate");
    assert_eq!(
        svc.stats().reject_causes,
        BTreeMap::from([(InfeasibleCause::JobBudgetExceeded, 1)])
    );

    // The analysis cache was never touched: the next arrival is decided
    // exactly as on a twin that never saw the hostile one.
    let mut twin = OnlineScheduler::bootstrap(DeviceId(0), base()).expect("base is feasible");
    let benign = task(8, 20_000, 300);
    assert_eq!(svc.offer(&benign), twin.offer(&benign));
    assert_eq!(svc.schedule(), twin.schedule());
}

#[test]
fn divisor_period_arrival_past_the_budget_is_rejected() {
    // The hyper-period does not grow here, yet a 4 µs period under a
    // 2³² µs one still asks for 2³⁰ jobs.
    let huge: TaskSet = vec![task(0, 1 << 32, 100)].into_iter().collect();
    let mut svc = OnlineScheduler::bootstrap(DeviceId(0), huge).expect("one task is feasible");
    let outcome = svc.offer(&task(1, 4, 1));
    assert_budget_reject(&outcome, TaskId(1));
    assert_eq!(svc.tasks().len(), 1);
}

#[test]
fn over_budget_base_fails_to_bootstrap() {
    let mut hostile = base();
    hostile.push(coprime_arrival()).expect("fresh id");
    assert!(OnlineScheduler::bootstrap(DeviceId(0), hostile).is_err());
}

#[test]
fn over_budget_snapshot_fails_to_restore() {
    let bases = BTreeMap::from([(DeviceId(0), base())]);
    let fleet = FleetScheduler::bootstrap(&bases, FleetConfig::default());
    let mut snapshot = fleet.snapshot();
    snapshot.partitions[0].active.push(coprime_arrival());
    let err = snapshot
        .restore()
        .expect_err("an over-budget active set must not restore");
    assert!(err.contains("job budget"), "{err}");
}
