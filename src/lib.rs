//! # tagio — Timing-Accurate General-Purpose I/O
//!
//! A Rust reproduction of *"Timing-Accurate General-Purpose I/O for Multi-
//! and Many-Core Systems: Scheduling and Hardware Support"* (Zhao, Jiang,
//! Dai, Bate, Habli, Chang — DAC 2020): the timed I/O task model, both
//! offline scheduling methods (the static heuristic of Algorithm 1 and the
//! multi-objective GA), all evaluation baselines, a simulator of the
//! proposed I/O controller hardware, an NoC substrate for the motivation,
//! and the FPGA resource model behind Table I.
//!
//! This facade crate re-exports the whole family:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `tagio-core` | tasks, jobs, quality curves, schedules, Ψ/Υ metrics |
//! | [`workload`] | `tagio-workload` | UUniFast + the paper's §V.A system generator |
//! | [`sched`] | `tagio-sched` | static heuristic, GA scheduler, FPS & GPIOCP baselines |
//! | [`ga`] | `tagio-ga` | the multi-objective GA engine |
//! | [`online`] | `tagio-online` | event-driven online scheduling: admission, repair, shedding; `online::fleet` — the multi-partition fleet router; `online::persist`/`online::wal` — crash-consistent snapshots, write-ahead logging and digest-checked recovery |
//! | [`controller`] | `tagio-controller` | the Section IV controller simulator |
//! | [`noc`] | `tagio-noc` | flit-level mesh NoC simulator |
//! | [`hwcost`] | `tagio-hwcost` | Table I resource model |
//! | [`bench`](mod@crate::bench) | `tagio-bench` | the parallel experiment engine behind the Section V binaries |
//! | [`audit`] | `tagio-audit` | independent certificate verifier (`audit` CLI), mutation harness, determinism lint |
//!
//! ## Quickstart
//!
//! The [`prelude`] is the one-import surface of the solving API: every
//! method is a [`Scheduler`](prelude::Scheduler) returning
//! `Result<Schedule, Infeasible>` — a validated schedule, or a
//! structured diagnostic saying *why* and *where* the set is infeasible
//! and how close the method got.
//!
//! ```
//! use rand::SeedableRng;
//! use tagio::core::job::JobSet;
//! use tagio::core::metrics;
//! use tagio::prelude::*;
//! use tagio::workload::SystemConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let system = SystemConfig::paper(0.4).generate(&mut rng);
//! let jobs = JobSet::expand(&system);
//!
//! // Any built-in method by name, solved with a per-call seed.
//! match make_scheduler("static:best-fit")?.schedule_with(&jobs, &SolverCtx::seeded(1)) {
//!     Ok(schedule) => {
//!         schedule.validate(&jobs)?;
//!         println!(
//!             "psi = {:.3}, upsilon = {:.3}",
//!             metrics::psi(&schedule, &jobs),
//!             metrics::upsilon(&schedule, &jobs)
//!         );
//!     }
//!     Err(infeasible) => println!("not schedulable: {infeasible}"),
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use tagio_audit as audit;
pub use tagio_bench as bench;
pub use tagio_controller as controller;
pub use tagio_core as core;
pub use tagio_ga as ga;
pub use tagio_hwcost as hwcost;
pub use tagio_noc as noc;
pub use tagio_online as online;
pub use tagio_sched as sched;
pub use tagio_workload as workload;

/// The solving API in one import: the [`Scheduler`](prelude::Scheduler)
/// trait and its seed context and diagnostics, the by-name factory
/// [`make_scheduler`](prelude::make_scheduler), every in-tree solver,
/// the core model types a solve call touches, and the online entry
/// points — the
/// per-partition [`OnlineScheduler`](prelude::OnlineScheduler), the
/// multi-partition [`FleetScheduler`](prelude::FleetScheduler) with its
/// [`PlacementPolicy`](prelude::PlacementPolicy), and the event
/// vocabulary that drives them.
///
/// ```
/// use tagio::prelude::*;
/// # use tagio::core::time::Duration;
/// let tasks: TaskSet = vec![IoTask::builder(TaskId(0), DeviceId(0))
///     .wcet(Duration::from_micros(100))
///     .period(Duration::from_millis(4))
///     .ideal_offset(Duration::from_millis(2))
///     .margin(Duration::from_millis(1))
///     .build()
///     .unwrap()]
/// .into_iter()
/// .collect();
/// let jobs = JobSet::expand(&tasks);
///
/// // Seeded solving, per call rather than per constructor.
/// let ctx = SolverCtx::seeded(7);
/// let schedule = make_scheduler("ga")?.schedule_with(&jobs, &ctx)?;
/// assert!(schedule.validate(&jobs).is_ok());
/// let report = SchedulingReport::evaluate(&StaticScheduler::new(), &jobs)?;
/// assert!(report.schedulable);
///
/// // Infeasibility is a value, not a panic or a bare `None`.
/// let overload: TaskSet = (0..2)
///     .map(|id| {
///         IoTask::builder(TaskId(id), DeviceId(0))
///             .wcet(Duration::from_micros(600))
///             .period(Duration::from_millis(1))
///             .ideal_offset(Duration::from_micros(400))
///             .margin(Duration::from_micros(300))
///             .build()
///             .unwrap()
///     })
///     .collect();
/// let err = StaticScheduler::new()
///     .schedule(&JobSet::expand(&overload))
///     .unwrap_err();
/// assert_eq!(err.cause, InfeasibleCause::UtilisationOverload);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub mod prelude {
    pub use tagio_core::event::{SystemEvent, TimedEvent};
    pub use tagio_core::job::{Job, JobId, JobSet};
    pub use tagio_core::pool::{available_workers, WorkerPool};
    pub use tagio_core::schedule::{Schedule, ScheduleEntry};
    pub use tagio_core::solve::{Infeasible, InfeasibleCause, SolverCtx};
    pub use tagio_core::task::{DeviceId, IoTask, Priority, TaskId, TaskSet};
    pub use tagio_online::fleet::{FleetConfig, FleetScheduler, PlacementPolicy};
    pub use tagio_online::persist::{FleetSnapshot, RecoveryReport};
    pub use tagio_online::service::OnlineScheduler;
    pub use tagio_online::wal::{FileWal, MemoryWal, WalSink, WalSource};
    pub use tagio_sched::{
        check_capacity, make_scheduler, BoxedSolver, EdfOffline, FpsOffline, GaScheduler, Gpiocp,
        MethodError, MethodSet, OptimalPsi, Scheduler, SchedulerBug, SchedulingReport,
        StaticScheduler,
    };
}
