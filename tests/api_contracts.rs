//! API contracts of the public types: thread-safety and the common-trait
//! expectations of the Rust API guidelines (C-SEND-SYNC, C-COMMON-TRAITS,
//! C-GOOD-ERR).

use tagio::controller::{ExecutionTrace, PreloadError};
use tagio::core::error::{ValidateScheduleError, ValidateTaskError};
use tagio::core::job::{Job, JobId, JobSet};
use tagio::core::quality::QualityCurve;
use tagio::core::schedule::Schedule;
use tagio::core::solve::{Infeasible, InfeasibleCause, SolverCtx};
use tagio::core::task::{DeviceId, IoTask, Priority, TaskId, TaskSet};
use tagio::core::time::Time;
use tagio::hwcost::ResourceEstimate;
use tagio::sched::{MethodError, SchedulerBug, SchedulingReport};

fn assert_send_sync<T: Send + Sync>() {}
fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}

#[test]
fn core_types_are_send_and_sync() {
    assert_send_sync::<IoTask>();
    assert_send_sync::<TaskSet>();
    assert_send_sync::<Job>();
    assert_send_sync::<JobSet>();
    assert_send_sync::<Schedule>();
    assert_send_sync::<QualityCurve>();
    assert_send_sync::<ExecutionTrace>();
    assert_send_sync::<ResourceEstimate>();
    assert_send_sync::<Infeasible>();
    assert_send_sync::<SolverCtx>();
    assert_send_sync::<SchedulingReport>();
}

#[test]
fn solver_error_types_are_well_behaved() {
    assert_error::<Infeasible>();
    assert_error::<SchedulerBug>();
    assert_error::<MethodError>();
    // The cause enum renders stable kebab-case identifiers.
    assert_eq!(
        InfeasibleCause::BudgetExhausted.as_str(),
        "budget-exhausted"
    );
}

#[test]
fn error_types_are_well_behaved() {
    assert_error::<ValidateTaskError>();
    assert_error::<ValidateScheduleError>();
    assert_error::<PreloadError>();
}

#[test]
fn id_types_are_ordered_and_hashable() {
    use std::collections::{BTreeSet, HashSet};
    let mut btree = BTreeSet::new();
    btree.insert(TaskId(2));
    btree.insert(TaskId(1));
    assert_eq!(btree.iter().next(), Some(&TaskId(1)));

    let mut hash = HashSet::new();
    hash.insert(JobId::new(TaskId(0), 1));
    assert!(hash.contains(&JobId::new(TaskId(0), 1)));

    assert!(Priority(3) > Priority(1));
    assert!(DeviceId(0) < DeviceId(1));
}

#[test]
fn display_implementations_are_nonempty() {
    assert_eq!(TaskId(4).to_string(), "t4");
    assert_eq!(DeviceId(2).to_string(), "d2");
    assert_eq!(Priority(7).to_string(), "P7");
    assert_eq!(JobId::new(TaskId(1), 3).to_string(), "t1#3");
    assert_eq!(Time::from_micros(12).to_string(), "12us");
}

#[test]
fn schedulers_are_object_safe() {
    use tagio::sched::{EdfOffline, FpsOffline, Gpiocp, Scheduler, StaticScheduler};
    let boxed: Vec<Box<dyn Scheduler>> = vec![
        Box::new(FpsOffline::new()),
        Box::new(EdfOffline::new()),
        Box::new(Gpiocp::new()),
        Box::new(StaticScheduler::new()),
    ];
    let names: Vec<&str> = boxed.iter().map(|s| s.name()).collect();
    assert_eq!(
        names,
        vec!["fps-offline", "edf-offline", "gpiocp", "static"]
    );
}
