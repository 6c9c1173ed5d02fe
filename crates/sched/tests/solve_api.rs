//! Acceptance tests of the solving API:
//!
//! * every built-in method returns a *populated* `Infeasible`
//!   diagnostic on an infeasible job set;
//! * a GA solve with the same [`SolverCtx`] seed is bit-identical
//!   across runs;
//! * [`Scheduler`] is object-safe (trait objects and boxed collections).

use tagio_core::job::JobSet;
use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
use tagio_core::time::Duration;
use tagio_sched::{
    make_scheduler, method_names, GaScheduler, Infeasible, InfeasibleCause, OptimalPsi, Scheduler,
    SolverCtx, StaticScheduler,
};

/// Two tasks each demanding 60% of the same 1ms period: infeasible for
/// every method, and caught by the shared capacity check.
fn overloaded_jobs() -> JobSet {
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

fn contended_jobs() -> JobSet {
    let task = |id: u32, delta_ms: u64| {
        IoTask::builder(TaskId(id), DeviceId(0))
            .wcet(Duration::from_micros(2_000))
            .period(Duration::from_millis(32))
            .ideal_offset(Duration::from_millis(delta_ms))
            .margin(Duration::from_millis(8))
            .build()
            .unwrap()
    };
    let set: TaskSet = (0..6).map(|i| task(i, 8 + u64::from(i) * 2)).collect();
    JobSet::expand(&set)
}

/// The headline acceptance criterion: every in-tree scheduler, asked by
/// name, reports a populated diagnostic (cause + offending ids or
/// partial result) instead of a bare failure.
#[test]
fn every_registry_method_returns_a_populated_diagnostic() {
    let jobs = overloaded_jobs();
    let names = method_names();
    assert!(names.len() >= 6, "builtins: {names:?}");
    for name in names {
        let solver = make_scheduler(&name).expect("builtin constructs");
        let err = solver
            .schedule_with(&jobs, &SolverCtx::new())
            .expect_err("overload is infeasible for every method");
        assert_ne!(
            err,
            Infeasible::new(err.cause),
            "{name}: diagnostic carries no detail"
        );
        assert_eq!(
            err.cause,
            InfeasibleCause::UtilisationOverload,
            "{name}: the capacity pre-check decides overloads"
        );
        assert!(
            !err.tasks.is_empty(),
            "{name}: offending tasks are named: {err:?}"
        );
    }
}

#[test]
fn ga_solves_are_bit_identical_for_a_fixed_ctx_seed() {
    let jobs = contended_jobs();
    let ga = GaScheduler::new().with_config(tagio_ga::GaConfig {
        population: 24,
        generations: 12,
        threads: 1,
        ..tagio_ga::GaConfig::default()
    });
    let ctx = SolverCtx::seeded(41);
    let a = ga.schedule_with(&jobs, &ctx).expect("feasible");
    let b = ga.schedule_with(&jobs, &ctx).expect("feasible");
    assert_eq!(a, b, "same ctx seed must be bit-identical");
    // The ctx seed overrides the constructor seed: two different ctx
    // seeds may legitimately differ, but ctx seed vs. the same value
    // baked into the constructor must agree.
    let baked = ga.clone().with_seed(41).schedule(&jobs).unwrap();
    assert_eq!(a, baked, "ctx seed and constructor seed are the same knob");
}

/// Object safety: `dyn Scheduler` must work as a reference and in a box
/// — `BoxedSolver` and `MethodSet` depend on it — and dispatch
/// `schedule_with` to the implementor's override.
#[test]
fn scheduler_is_object_safe() {
    fn by_ref(solver: &dyn Scheduler, jobs: &JobSet) -> String {
        let _ = solver.schedule_with(jobs, &SolverCtx::new());
        solver.name().to_owned()
    }

    let jobs = contended_jobs();
    let solvers: Vec<Box<dyn Scheduler + Send + Sync>> = vec![
        Box::new(StaticScheduler::new()),
        Box::new(GaScheduler::new()),
        Box::new(OptimalPsi::new()),
    ];
    let names: Vec<String> = solvers.iter().map(|s| by_ref(s.as_ref(), &jobs)).collect();
    assert_eq!(names, vec!["static", "ga", "optimal-psi"]);

    // Through the trait object, the context seed still reaches the GA.
    let ga: &dyn Scheduler = solvers[1].as_ref();
    let seeded = ga.schedule_with(&jobs, &SolverCtx::seeded(5)).unwrap();
    let baked = GaScheduler::new().with_seed(5).schedule(&jobs).unwrap();
    assert_eq!(seeded, baked);
}

/// The diagnostic distinguishes *why* sets fail: overload vs. blocking
/// vs. slot allocation.
#[test]
fn causes_discriminate_failure_modes() {
    // Under-capacity but FIFO-unschedulable: three requests firing near
    // their shared deadline.
    let fifo_stress = {
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
        JobSet::expand(&set)
    };
    let err = make_scheduler("gpiocp")
        .unwrap()
        .schedule(&fifo_stress)
        .unwrap_err();
    assert_eq!(err.cause, InfeasibleCause::BlockingBound);
    assert!(err.best_psi.is_some(), "partial schedule quality attached");
}
