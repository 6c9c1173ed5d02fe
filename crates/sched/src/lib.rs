//! # tagio-sched
//!
//! Offline scheduling methods for timing-accurate I/O (paper Section III),
//! plus the comparison baselines of the evaluation (Section V):
//!
//! | Method | Type | Paper role |
//! |--------|------|-----------|
//! | [`heuristic::StaticScheduler`] | Algorithm 1: dependency graphs + LCC-D | maximises Ψ |
//! | [`ga_sched::GaScheduler`] | multi-objective GA over job start times | maximises (Ψ, Υ) |
//! | [`fps::FpsOffline`] | non-preemptive FPS simulated offline | baseline, Ψ = 0 |
//! | [`analysis::taskset_schedulable_np_fps`] | worst-case response-time test \[18\] | "FPS-online" curve |
//! | [`gpiocp::Gpiocp`] | FIFO queue of timed requests \[2\] | prior state of the art |
//!
//! # The solving API
//!
//! Every method is a [`Scheduler`]: `schedule(&jobs)` returns
//! `Result<Schedule, Infeasible>` — a validated
//! [`Schedule`](tagio_core::schedule::Schedule), or a structured
//! [`Infeasible`] diagnostic (cause, offending task/job ids, best
//! partial Ψ/Υ). `schedule_with(&jobs, &ctx)` also passes a per-call
//! [`SolverCtx`], whose one setting is the deterministic seed; only the
//! GA reads it.
//!
//! Methods are also constructible *by name* through [`make_scheduler`]
//! (`"fps-offline"`, `"static:best-fit"`, `"ga"` — the closed table in
//! [`registry`]) and selectable in bulk via [`MethodSet`], so experiment
//! harnesses never hardcode constructor imports.
//!
//! ```
//! use rand::SeedableRng;
//! use tagio_sched::{make_scheduler, Scheduler, SolverCtx, SchedulingReport};
//! use tagio_sched::heuristic::StaticScheduler;
//! use tagio_workload::generator::SystemConfig;
//! use tagio_core::job::JobSet;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let system = SystemConfig::paper(0.4).generate(&mut rng);
//! let jobs = JobSet::expand(&system);
//! match StaticScheduler::new().schedule(&jobs) {
//!     Ok(schedule) => assert!(schedule.validate(&jobs).is_ok()),
//!     Err(infeasible) => println!("no schedule: {infeasible}"),
//! }
//! let best_fit = make_scheduler("static:best-fit").unwrap();
//! let report =
//!     SchedulingReport::evaluate_with(best_fit.as_ref(), &jobs, &SolverCtx::seeded(1)).unwrap();
//! assert!(report.psi >= 0.0 && report.psi <= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analysis;
pub mod cache;
pub mod edf;
pub mod fps;
pub mod ga_sched;
pub mod gpiocp;
pub mod heuristic;
pub mod optimal;
pub mod registry;
pub mod scheduler;
pub mod solve;
pub mod stats;

pub use analysis::{response_time_np_fps, taskset_schedulable_np_fps, ResponseTime};
pub use cache::AnalysisCache;
pub use edf::EdfOffline;
pub use fps::FpsOffline;
pub use ga_sched::{reconfigure, GaScheduleResult, GaScheduler};
pub use gpiocp::Gpiocp;
pub use heuristic::{
    ladder_in, repair_neighbourhood_in, retime_in, ConflictGraph, LadderWork, RepairOutcome,
    RepairScratch, SlotPolicy, StaticScheduler, Tier, Timeline, TimelineScratch,
};
pub use optimal::OptimalPsi;
pub use registry::{make_scheduler, method_names, BoxedSolver, MethodError, MethodSet};
pub use scheduler::{Scheduler, SchedulingReport};
pub use solve::{check_capacity, SchedulerBug};
pub use stats::Summary;
// The shared solving vocabulary, re-exported so `tagio_sched` alone is a
// complete import surface for solver code.
pub use tagio_core::solve::{Infeasible, InfeasibleCause, SolverCtx};
