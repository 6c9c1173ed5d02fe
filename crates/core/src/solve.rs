//! The shared vocabulary of the unified solving API: structured
//! infeasibility diagnostics ([`Infeasible`]) and per-call solver
//! contexts ([`SolverCtx`]).
//!
//! Every scheduling method in the workspace reports failure as an
//! [`Infeasible`] value instead of a bare `None`: *why* it failed
//! ([`InfeasibleCause`]), *where* (the offending task/job ids), and *how
//! close it got* (the best partial Ψ/Υ achieved before giving up). The
//! [`SolverCtx`] travels with each solve call and carries the
//! deterministic seed, the time/iteration budget, a cooperative
//! cancellation flag and the thread configuration — per-call knobs that
//! used to be baked into scheduler constructors.

use crate::job::JobId;
use crate::task::{DeviceId, TaskId};
use core::fmt;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a solve produced no feasible schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum InfeasibleCause {
    /// The set's execution demand exceeds the device capacity over the
    /// scheduling horizon — no method can ever succeed.
    UtilisationOverload,
    /// A job missed its deadline under the method's dispatch/blocking
    /// model (non-preemptive FPS/EDF simulation, FIFO head-of-line
    /// blocking, response-time bound).
    BlockingBound,
    /// The slot allocator (LCC-D, repair, reconfiguration) found no
    /// feasible slot for some job without displacing committed work.
    NoFeasibleSlot,
    /// The solver's time/iteration budget expired before any feasible
    /// schedule was found; the diagnostic carries the best partial
    /// result reached.
    BudgetExhausted,
    /// Cooperative cancellation was requested before a feasible schedule
    /// was found.
    Cancelled,
}

impl InfeasibleCause {
    /// Every cause, in declaration order.
    pub const ALL: [InfeasibleCause; 5] = [
        InfeasibleCause::UtilisationOverload,
        InfeasibleCause::BlockingBound,
        InfeasibleCause::NoFeasibleSlot,
        InfeasibleCause::BudgetExhausted,
        InfeasibleCause::Cancelled,
    ];

    /// Stable kebab-case identifier (used in reports and JSON output).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            InfeasibleCause::UtilisationOverload => "utilisation-overload",
            InfeasibleCause::BlockingBound => "blocking-bound",
            InfeasibleCause::NoFeasibleSlot => "no-feasible-slot",
            InfeasibleCause::BudgetExhausted => "budget-exhausted",
            InfeasibleCause::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for InfeasibleCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl core::str::FromStr for InfeasibleCause {
    type Err = String;

    /// Parses the identifier [`InfeasibleCause::as_str`] emits (snapshot
    /// and report round-trips).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        InfeasibleCause::ALL
            .into_iter()
            .find(|c| c.as_str() == s.trim())
            .ok_or_else(|| format!("unknown infeasibility cause `{s}`"))
    }
}

/// A structured infeasibility diagnostic: the typed error of every solve
/// call in the workspace (`Result<Schedule, Infeasible>`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Infeasible {
    /// The failure class.
    pub cause: InfeasibleCause,
    /// Offending tasks (deduplicated, sorted). For an overload this is
    /// every contributing task, heaviest first; for a placement failure
    /// the tasks of the unplaceable jobs.
    pub tasks: Vec<TaskId>,
    /// Offending jobs (deduplicated, sorted): the jobs that missed their
    /// deadline, found no slot, or were still unplaced when the budget
    /// expired.
    pub jobs: Vec<JobId>,
    /// Best partial Ψ achieved before giving up (exact jobs among the
    /// placements committed so far), when the method measured one.
    ///
    /// Of the incremental repair entry points, `repair_in` and
    /// `repair_neighbourhood_in` fill it on every failure, and
    /// `retime_in` does when a job misses its window. The repair
    /// ladder's error is the re-synthesis diagnostic, which the static
    /// scheduler fills too.
    pub best_psi: Option<f64>,
    /// Best partial Υ achieved before giving up, when measured. Filled by
    /// the same entry points as [`Infeasible::best_psi`].
    pub best_upsilon: Option<f64>,
    /// The partition whose loss orphaned the offending tasks, when the
    /// diagnostic stems from a failover (a `PartitionDeath` whose tasks
    /// could not all be rehomed). `None` for ordinary solve failures.
    pub origin: Option<DeviceId>,
}

impl Infeasible {
    /// A bare diagnostic with no location or partial-result detail.
    #[must_use]
    pub fn new(cause: InfeasibleCause) -> Self {
        Infeasible {
            cause,
            tasks: Vec::new(),
            jobs: Vec::new(),
            best_psi: None,
            best_upsilon: None,
            origin: None,
        }
    }

    /// Attaches offending jobs (their tasks are derived automatically);
    /// both lists are deduplicated and sorted.
    #[must_use]
    pub fn with_jobs(mut self, jobs: impl IntoIterator<Item = JobId>) -> Self {
        for job in jobs {
            self.jobs.push(job);
            self.tasks.push(job.task);
        }
        self.jobs.sort_unstable();
        self.jobs.dedup();
        self.tasks.sort_unstable();
        self.tasks.dedup();
        self
    }

    /// Attaches offending tasks, *preserving the given order* (overload
    /// diagnostics list contributors heaviest first). Duplicates are
    /// removed, first occurrence wins.
    #[must_use]
    pub fn with_tasks(mut self, tasks: impl IntoIterator<Item = TaskId>) -> Self {
        for task in tasks {
            if !self.tasks.contains(&task) {
                self.tasks.push(task);
            }
        }
        self
    }

    /// Records the best partial Ψ/Υ reached before the method gave up.
    #[must_use]
    pub fn with_partial(mut self, psi: f64, upsilon: f64) -> Self {
        self.best_psi = Some(psi);
        self.best_upsilon = Some(upsilon);
        self
    }

    /// Records the partition whose death orphaned the offending tasks
    /// (failover diagnostics name the lane that was lost).
    #[must_use]
    pub fn with_origin(mut self, origin: DeviceId) -> Self {
        self.origin = Some(origin);
        self
    }

    /// `true` when the diagnostic carries any detail beyond the cause
    /// (offending ids, a partial result, or a failover origin).
    #[must_use]
    pub fn is_populated(&self) -> bool {
        !self.tasks.is_empty()
            || !self.jobs.is_empty()
            || self.best_psi.is_some()
            || self.best_upsilon.is_some()
            || self.origin.is_some()
    }
}

impl fmt::Display for Infeasible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "infeasible ({})", self.cause)?;
        if !self.tasks.is_empty() {
            write!(f, "; tasks ")?;
            for (i, t) in self.tasks.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
        }
        if !self.jobs.is_empty() {
            write!(f, "; jobs ")?;
            for (i, j) in self.jobs.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{j}")?;
            }
        }
        if let (Some(p), Some(u)) = (self.best_psi, self.best_upsilon) {
            write!(f, "; best partial psi={p:.3} upsilon={u:.3}")?;
        }
        if let Some(origin) = self.origin {
            write!(f, "; orphaned by death of {origin}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Infeasible {}

/// Per-call solver context: deterministic seed, time/iteration budget,
/// cooperative cancellation and thread configuration.
///
/// A default context is unlimited, unseeded and leaves the thread count
/// unset: every solver falls back to its own constructor-time defaults
/// for anything the context does not specify.
///
/// ```
/// use tagio_core::solve::SolverCtx;
/// let ctx = SolverCtx::new().with_seed(7).with_iteration_budget(100);
/// assert_eq!(ctx.seed_or(0), 7);
/// let mut budget = ctx.budget();
/// assert!(budget.spend(100).is_ok());
/// assert!(budget.spend(1).is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolverCtx {
    seed: Option<u64>,
    time_budget: Option<Duration>,
    iteration_budget: Option<u64>,
    threads: Option<usize>,
    cancel: Option<Arc<AtomicBool>>,
}

impl SolverCtx {
    /// An unlimited, unseeded context.
    #[must_use]
    pub fn new() -> Self {
        SolverCtx::default()
    }

    /// A context with only a deterministic seed set.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        SolverCtx::new().with_seed(seed)
    }

    /// Sets the deterministic RNG seed for this call. Randomised solvers
    /// must be bit-identical across runs for a fixed seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets a wall-clock budget. Anytime solvers stop refining when it
    /// expires and return the best feasible schedule found so far, or an
    /// [`InfeasibleCause::BudgetExhausted`] diagnostic when none was.
    #[must_use]
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Sets an iteration budget in solver-defined units (GA generations,
    /// branch-and-bound nodes, repair escalation tiers).
    #[must_use]
    pub fn with_iteration_budget(mut self, iterations: u64) -> Self {
        self.iteration_budget = Some(iterations);
        self
    }

    /// Sets the worker-thread count for solvers with parallel phases
    /// (`0` = all available cores).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Attaches a cooperative cancellation flag; solvers poll it at
    /// checkpoint boundaries and return [`InfeasibleCause::Cancelled`]
    /// (or their best feasible result so far) once it is raised.
    #[must_use]
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// The seed, if one was set for this call.
    #[must_use]
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// The seed, or `default` when the context leaves it unset (solvers
    /// pass their constructor-time seed here).
    #[must_use]
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// The thread override, if one was set.
    #[must_use]
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// `true` when the cancellation flag is raised.
    #[must_use]
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// `true` when any time or iteration budget is set.
    #[must_use]
    pub fn is_budgeted(&self) -> bool {
        self.time_budget.is_some() || self.iteration_budget.is_some()
    }

    /// Starts metering this context's budget for one solve call.
    /// The wall-clock budget begins counting *now*.
    #[must_use]
    pub fn budget(&self) -> SolveBudget {
        SolveBudget {
            deadline: self.time_budget.map(|d| Instant::now() + d),
            iterations_left: self.iteration_budget,
            cancel: self.cancel.clone(),
        }
    }
}

/// A running budget meter for one solve call (see [`SolverCtx::budget`]).
///
/// Solvers call [`SolveBudget::spend`] at checkpoint boundaries; the
/// first `Err` tells them to stop and report (or return their best
/// feasible result so far, for anytime solvers).
#[derive(Debug, Clone)]
pub struct SolveBudget {
    deadline: Option<Instant>,
    iterations_left: Option<u64>,
    cancel: Option<Arc<AtomicBool>>,
}

impl SolveBudget {
    /// A meter that never exhausts (the default-context behaviour).
    #[must_use]
    pub fn unlimited() -> Self {
        SolveBudget {
            deadline: None,
            iterations_left: None,
            cancel: None,
        }
    }

    /// Records `cost` iterations of work and checks every limit.
    ///
    /// # Errors
    /// [`InfeasibleCause::Cancelled`] when the cancellation flag is
    /// raised, [`InfeasibleCause::BudgetExhausted`] when the wall-clock
    /// deadline passed or fewer than `cost` iterations remain.
    pub fn spend(&mut self, cost: u64) -> Result<(), InfeasibleCause> {
        if self
            .cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
        {
            return Err(InfeasibleCause::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(InfeasibleCause::BudgetExhausted);
        }
        if let Some(left) = self.iterations_left.as_mut() {
            if *left < cost {
                *left = 0;
                return Err(InfeasibleCause::BudgetExhausted);
            }
            *left -= cost;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_strings_are_stable_and_distinct() {
        let causes = [
            InfeasibleCause::UtilisationOverload,
            InfeasibleCause::BlockingBound,
            InfeasibleCause::NoFeasibleSlot,
            InfeasibleCause::BudgetExhausted,
            InfeasibleCause::Cancelled,
        ];
        let mut names: Vec<&str> = causes.iter().map(|c| c.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), causes.len());
        assert_eq!(
            InfeasibleCause::NoFeasibleSlot.to_string(),
            "no-feasible-slot"
        );
    }

    #[test]
    fn with_jobs_derives_and_dedupes_tasks() {
        let d = Infeasible::new(InfeasibleCause::NoFeasibleSlot).with_jobs([
            JobId::new(TaskId(3), 1),
            JobId::new(TaskId(1), 0),
            JobId::new(TaskId(3), 1),
            JobId::new(TaskId(3), 0),
        ]);
        assert_eq!(d.tasks, vec![TaskId(1), TaskId(3)]);
        assert_eq!(
            d.jobs,
            vec![
                JobId::new(TaskId(1), 0),
                JobId::new(TaskId(3), 0),
                JobId::new(TaskId(3), 1)
            ]
        );
        assert!(d.is_populated());
        assert!(!Infeasible::new(InfeasibleCause::Cancelled).is_populated());
    }

    #[test]
    fn with_tasks_preserves_order_and_dedupes() {
        let d = Infeasible::new(InfeasibleCause::UtilisationOverload).with_tasks([
            TaskId(5),
            TaskId(2),
            TaskId(5),
        ]);
        assert_eq!(d.tasks, vec![TaskId(5), TaskId(2)]);
    }

    #[test]
    fn display_includes_cause_ids_and_partial() {
        let d = Infeasible::new(InfeasibleCause::BlockingBound)
            .with_jobs([JobId::new(TaskId(2), 1)])
            .with_partial(0.5, 0.75);
        let s = d.to_string();
        assert!(s.contains("blocking-bound"), "{s}");
        assert!(s.contains("t2"), "{s}");
        assert!(s.contains("0.500"), "{s}");
        // And it is a proper error type.
        fn assert_error<T: std::error::Error + Send + Sync>(_: &T) {}
        assert_error(&d);
    }

    #[test]
    fn origin_marks_failover_diagnostics() {
        let d = Infeasible::new(InfeasibleCause::NoFeasibleSlot).with_origin(DeviceId(3));
        assert!(d.is_populated());
        assert_eq!(d.origin, Some(DeviceId(3)));
        let s = d.to_string();
        assert!(s.contains("orphaned by death of d3"), "{s}");
        assert_eq!(
            Infeasible::new(InfeasibleCause::NoFeasibleSlot).origin,
            None
        );
    }

    #[test]
    fn iteration_budget_exhausts_once() {
        let ctx = SolverCtx::new().with_iteration_budget(3);
        let mut b = ctx.budget();
        assert!(b.spend(2).is_ok());
        assert!(b.spend(1).is_ok());
        assert_eq!(b.spend(1), Err(InfeasibleCause::BudgetExhausted));
        // Unlimited never exhausts.
        let mut u = SolveBudget::unlimited();
        assert!(u.spend(u64::MAX).is_ok());
    }

    #[test]
    fn zero_time_budget_is_immediately_exhausted() {
        let ctx = SolverCtx::new().with_time_budget(Duration::ZERO);
        assert!(ctx.is_budgeted());
        let mut b = ctx.budget();
        assert_eq!(b.spend(0), Err(InfeasibleCause::BudgetExhausted));
    }

    #[test]
    fn cancellation_flag_wins_over_budgets() {
        let flag = Arc::new(AtomicBool::new(false));
        let ctx = SolverCtx::new()
            .with_cancel_flag(Arc::clone(&flag))
            .with_iteration_budget(0);
        assert!(!ctx.cancelled());
        flag.store(true, Ordering::Relaxed);
        assert!(ctx.cancelled());
        assert_eq!(ctx.budget().spend(0), Err(InfeasibleCause::Cancelled));
    }

    #[test]
    fn seed_accessors() {
        assert_eq!(SolverCtx::new().seed(), None);
        assert_eq!(SolverCtx::new().seed_or(9), 9);
        assert_eq!(SolverCtx::seeded(4).seed_or(9), 4);
        assert_eq!(SolverCtx::new().with_threads(2).threads(), Some(2));
    }
}
