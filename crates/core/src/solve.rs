//! The shared vocabulary of the solving API: structured infeasibility
//! diagnostics ([`Infeasible`]) and the per-call solver context
//! ([`SolverCtx`]).
//!
//! Every scheduling method in the workspace reports failure as an
//! [`Infeasible`] value instead of a bare `None`: *why* it failed
//! ([`InfeasibleCause`]), *where* (the offending task/job ids), and *how
//! close it got* (the best partial Ψ/Υ achieved before giving up). The
//! [`SolverCtx`] travels with a solve call and carries its deterministic
//! seed.

use crate::job::JobId;
use crate::task::{DeviceId, TaskId};
use core::fmt;

/// Why a solve produced no feasible schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
    /// The exhaustive oracle (`OptimalPsi`) ran out of its branch-node
    /// budget (one million nodes) before reaching any complete schedule;
    /// the diagnostic carries the partial assignment it was exploring.
    BudgetExhausted,
    /// Expanding the set over its hyper-period would build more jobs than
    /// an online partition holds (or the hyper-period overflows `u64`),
    /// so the set was turned away before any job was built.
    JobBudgetExceeded,
}

impl InfeasibleCause {
    /// Every cause, in declaration order. New causes are appended, so
    /// the discriminants (and the orders of maps keyed by cause) never
    /// move.
    pub const ALL: [InfeasibleCause; 5] = [
        InfeasibleCause::UtilisationOverload,
        InfeasibleCause::BlockingBound,
        InfeasibleCause::NoFeasibleSlot,
        InfeasibleCause::BudgetExhausted,
        InfeasibleCause::JobBudgetExceeded,
    ];

    /// Stable kebab-case identifier (used in reports and JSON output).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            InfeasibleCause::UtilisationOverload => "utilisation-overload",
            InfeasibleCause::BlockingBound => "blocking-bound",
            InfeasibleCause::NoFeasibleSlot => "no-feasible-slot",
            InfeasibleCause::BudgetExhausted => "budget-exhausted",
            InfeasibleCause::JobBudgetExceeded => "job-budget-exceeded",
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
#[derive(Debug, Clone, PartialEq)]
pub struct Infeasible {
    /// The failure class.
    pub cause: InfeasibleCause,
    /// Offending tasks (deduplicated, sorted). For an overload this is
    /// every contributing task, heaviest first; for a placement failure
    /// the tasks of the unplaceable jobs.
    pub tasks: Vec<TaskId>,
    /// Offending jobs (deduplicated, sorted): the jobs that missed their
    /// deadline, found no slot, or were still unplaced when the oracle's
    /// node budget ran out.
    pub jobs: Vec<JobId>,
    /// Best partial Ψ achieved before giving up (exact jobs among the
    /// placements committed so far), when the method measured one.
    ///
    /// Of the construction ladder's tiers, `repair_neighbourhood_in`
    /// fills it on every failure, and `retime_in` does when a job misses
    /// its window. The ladder's error is the diagnostic of its last
    /// failed tier other than the FPS baseline, usually the re-synthesis
    /// tier's, which the static scheduler fills too.
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

/// Per-call solver context: the deterministic seed of one solve call.
///
/// A default context is unseeded: every solver then falls back to its
/// constructor-time seed.
///
/// ```
/// use tagio_core::solve::SolverCtx;
/// let ctx = SolverCtx::new().with_seed(7);
/// assert_eq!(ctx.seed_or(0), 7);
/// assert_eq!(SolverCtx::new().seed_or(3), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolverCtx {
    seed: Option<u64>,
}

impl SolverCtx {
    /// An unseeded context.
    #[must_use]
    pub fn new() -> Self {
        SolverCtx::default()
    }

    /// A context with a deterministic seed set.
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

    /// The seed, or `default` when the context leaves it unset (solvers
    /// pass their constructor-time seed here).
    #[must_use]
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_strings_are_stable_and_distinct() {
        // The encoding is pinned: decision digests hash `cause as u8`, and
        // snapshot `reject_causes` maps sort by it. New causes append.
        let causes = [
            (
                InfeasibleCause::UtilisationOverload,
                0,
                "utilisation-overload",
            ),
            (InfeasibleCause::BlockingBound, 1, "blocking-bound"),
            (InfeasibleCause::NoFeasibleSlot, 2, "no-feasible-slot"),
            (InfeasibleCause::BudgetExhausted, 3, "budget-exhausted"),
            (InfeasibleCause::JobBudgetExceeded, 4, "job-budget-exceeded"),
        ];
        for (i, (cause, code, name)) in causes.into_iter().enumerate() {
            assert_eq!(cause as u8, code, "{cause}");
            assert_eq!(
                InfeasibleCause::ALL[i],
                cause,
                "ALL is in declaration order"
            );
            assert_eq!(cause.as_str(), name);
            assert_eq!(name.parse::<InfeasibleCause>(), Ok(cause));
        }
        assert_eq!(InfeasibleCause::ALL.len(), causes.len());
        let mut names: Vec<&str> = causes.iter().map(|c| c.2).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), causes.len());
        assert!("cancelled".parse::<InfeasibleCause>().is_err());
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
        assert_ne!(d, Infeasible::new(d.cause));
        assert_eq!(
            Infeasible::new(InfeasibleCause::BudgetExhausted),
            Infeasible {
                cause: InfeasibleCause::BudgetExhausted,
                tasks: vec![],
                jobs: vec![],
                best_psi: None,
                best_upsilon: None,
                origin: None,
            }
        );
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
        assert_ne!(d, Infeasible::new(d.cause));
        assert_eq!(d.origin, Some(DeviceId(3)));
        let s = d.to_string();
        assert!(s.contains("orphaned by death of d3"), "{s}");
        assert_eq!(
            Infeasible::new(InfeasibleCause::NoFeasibleSlot).origin,
            None
        );
    }

    #[test]
    fn seed_accessors() {
        assert_eq!(SolverCtx::new().seed, None);
        assert_eq!(SolverCtx::new().seed_or(9), 9);
        assert_eq!(SolverCtx::seeded(4).seed_or(9), 4);
        assert_eq!(SolverCtx::new().with_seed(4).seed, Some(4));
    }
}
