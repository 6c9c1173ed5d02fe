//! # tagio-core
//!
//! Task model, quality curves, explicit schedules and performance metrics
//! for **timing-accurate general-purpose I/O scheduling**, reproducing the
//! system model of *"Timing-Accurate General-Purpose I/O for Multi- and
//! Many-Core Systems: Scheduling and Hardware Support"* (Zhao et al.,
//! DAC 2020).
//!
//! ## Model summary
//!
//! Timed I/O requests are periodic tasks `τi = {Ci, Ti, Di, Pi, δi, θi}`
//! ([`task::IoTask`]). Over one hyper-period each task releases jobs
//! ([`job::Job`]) whose *ideal start* is `Ti·j + δi`. An offline scheduler
//! assigns each job an actual start `κi^j`, recorded in a
//! [`schedule::Schedule`]. A job started exactly at its ideal instant yields
//! quality `Vmax`; within `[δ−θ, δ+θ]` the quality decays along a
//! [`quality::QualityCurve`]; elsewhere (but before the deadline) it yields
//! `Vmin`.
//!
//! Two metrics judge a schedule ([`metrics`]):
//! **Ψ** — the fraction of exactly-accurate jobs (Eq. (1)), and
//! **Υ** — the normalised aggregate quality (Eq. (2)).
//!
//! ## Example
//!
//! ```
//! use tagio_core::job::JobSet;
//! use tagio_core::metrics;
//! use tagio_core::schedule::{entry_for, Schedule};
//! use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
//! use tagio_core::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut tasks = TaskSet::new();
//! tasks.push(
//!     IoTask::builder(TaskId(0), DeviceId(0))
//!         .wcet(Duration::from_micros(200))
//!         .period(Duration::from_millis(10))
//!         .ideal_offset(Duration::from_millis(5))
//!         .margin(Duration::from_micros(2_500))
//!         .build()?,
//! )?;
//! tasks.assign_dmpo();
//!
//! let jobs = JobSet::expand(&tasks);
//! // Schedule every job exactly at its ideal instant.
//! let schedule: Schedule = jobs.iter().map(|j| entry_for(j, j.ideal_start())).collect();
//! schedule.validate(&jobs)?;
//! assert_eq!(metrics::psi(&schedule, &jobs), 1.0);
//! assert_eq!(metrics::upsilon(&schedule, &jobs), 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod error;
pub mod event;
pub mod job;
pub mod metrics;
pub mod pool;
pub mod quality;
pub mod schedule;
pub mod solve;
pub mod task;
pub mod time;

pub use error::{ValidateScheduleError, ValidateTaskError};
pub use event::{Mode, ModeId, SystemEvent, TimedEvent};
pub use job::{Job, JobId, JobSet};
pub use metrics::{MetricSet, Metrics};
pub use pool::{available_workers, WorkerPool};
pub use quality::QualityCurve;
pub use schedule::{entry_for, Schedule, ScheduleEntry};
pub use solve::{Infeasible, InfeasibleCause, SolverCtx};
pub use task::{DeviceId, IoTask, IoTaskBuilder, Priority, TaskId, TaskSet};
pub use time::{Duration, Time};
