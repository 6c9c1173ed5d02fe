//! An exact reference scheduler for *small* job sets.
//!
//! The paper observes that the I/O scheduling problem is NP-hard
//! (bin-packing-equivalent), so neither proposed method is optimal. For
//! validation we still want ground truth on small instances: this module
//! enumerates **anchored schedules** — non-preemptive schedules where every
//! job starts either as early as its predecessor allows or exactly at its
//! own ideal instant — with branch-and-bound on the number of exact jobs.
//!
//! Anchoring is lossless for the Ψ objective: in any feasible schedule,
//! shifting every non-exact job as early as possible (preserving order)
//! keeps feasibility and does not move any exact job off its ideal instant,
//! and an exact job *is* anchored by definition. The search is exponential
//! in the number of jobs and intended for test oracles and micro-studies
//! (≲ 12 jobs). The constructor's branch-node budget bounds the search,
//! which is *anytime*: when the budget runs out it returns the best
//! complete schedule found so far, or a `BudgetExhausted` diagnostic
//! carrying the partial assignment it was exploring.

use crate::scheduler::Scheduler;
use crate::solve::check_capacity;
use tagio_core::job::JobSet;
use tagio_core::metrics;
use tagio_core::schedule::{entry_for, Schedule};
use tagio_core::solve::{Infeasible, InfeasibleCause};
use tagio_core::time::Time;

/// Exhaustive Ψ-optimal scheduler (small instances only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimalPsi {
    node_budget: u64,
}

impl OptimalPsi {
    /// Default search budget (1 million branch nodes).
    #[must_use]
    pub fn new() -> Self {
        OptimalPsi {
            node_budget: 1_000_000,
        }
    }

    /// Overrides the node budget; the search returns the best schedule
    /// found within it (still exact if the space is exhausted first).
    #[must_use]
    pub fn with_node_budget(node_budget: u64) -> Self {
        OptimalPsi { node_budget }
    }

    /// The best achievable Ψ numerator (number of exact jobs), along with
    /// the schedule attaining it.
    ///
    /// The search is *anytime*: when the node budget runs out after at
    /// least one complete schedule was found, the best one found so far
    /// is returned.
    ///
    /// # Errors
    /// [`InfeasibleCause::UtilisationOverload`] on outright overload;
    /// [`InfeasibleCause::BudgetExhausted`] when the node budget ran out
    /// before any complete schedule was found — the diagnostic carries
    /// the partial assignment being explored (its unplaced jobs and
    /// partial Ψ/Υ); [`InfeasibleCause::NoFeasibleSlot`] when the
    /// exhausted search proves no anchored schedule exists.
    pub fn solve_exact(&self, jobs: &JobSet) -> Result<(usize, Schedule), Infeasible> {
        let n = jobs.len();
        if n == 0 {
            return Ok((0, Schedule::new()));
        }
        check_capacity(jobs)?;
        let mut search = Search {
            jobs,
            order: Vec::with_capacity(n),
            starts: Vec::with_capacity(n),
            used: vec![false; n],
            best: None,
            nodes: 0,
            node_budget: self.node_budget,
            snapshot: None,
        };
        search.dfs(Time::ZERO, 0);
        if let Some((exact, best)) = search.best {
            return Ok((exact, best));
        }
        match search.snapshot {
            Some((exact, partial, unplaced)) => {
                Err(Infeasible::new(InfeasibleCause::BudgetExhausted)
                    .with_jobs(unplaced)
                    .with_partial(exact as f64 / n as f64, metrics::upsilon(&partial, jobs)))
            }
            None => Err(Infeasible::new(InfeasibleCause::NoFeasibleSlot)
                .with_jobs(jobs.iter().map(tagio_core::job::Job::id))
                .with_partial(0.0, 0.0)),
        }
    }
}

impl Default for OptimalPsi {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for OptimalPsi {
    fn name(&self) -> &'static str {
        "optimal-psi"
    }

    fn schedule(&self, jobs: &JobSet) -> Result<Schedule, Infeasible> {
        self.solve_exact(jobs).map(|(_, s)| s)
    }
}

struct Search<'a> {
    jobs: &'a JobSet,
    order: Vec<usize>,
    starts: Vec<Time>,
    used: Vec<bool>,
    /// The best complete schedule found so far, with its exact count.
    best: Option<(usize, Schedule)>,
    nodes: u64,
    node_budget: u64,
    /// The partial assignment where the node budget ran out, when it
    /// did: exact count, the partial schedule, and the unplaced jobs.
    #[allow(clippy::type_complexity)]
    snapshot: Option<(usize, Schedule, Vec<tagio_core::job::JobId>)>,
}

impl Search<'_> {
    fn stop(&mut self, exact: usize) {
        let all = self.jobs.as_slice();
        let partial: Schedule = self
            .order
            .iter()
            .zip(&self.starts)
            .map(|(&i, &s)| entry_for(&all[i], s))
            .collect();
        let unplaced: Vec<tagio_core::job::JobId> = (0..all.len())
            .filter(|&i| !self.used[i])
            .map(|i| all[i].id())
            .collect();
        self.snapshot = Some((exact, partial, unplaced));
    }

    fn dfs(&mut self, cursor: Time, exact: usize) {
        if self.snapshot.is_some() {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.node_budget {
            self.stop(exact);
            return;
        }
        let all = self.jobs.as_slice();
        let n = all.len();
        if self.order.len() == n {
            if self.best.as_ref().is_none_or(|(b, _)| exact > *b) {
                self.best = Some((
                    exact,
                    self.order
                        .iter()
                        .zip(&self.starts)
                        .map(|(&i, &s)| entry_for(&all[i], s))
                        .collect(),
                ));
            }
            return;
        }
        // Bound: even making every remaining job exact cannot beat best.
        let remaining = n - self.order.len();
        if let Some((b, _)) = &self.best {
            if exact + remaining <= *b {
                return;
            }
        }
        #[allow(clippy::needless_range_loop)] // `i` also indexes `self.used`
        for i in 0..n {
            if self.used[i] {
                continue;
            }
            let job = &all[i];
            // Candidate anchored starts: ASAP, and the ideal instant.
            let asap = cursor.max(job.release());
            let mut candidates = [Some(asap), None];
            if job.ideal_start() > asap {
                candidates[1] = Some(job.ideal_start());
            }
            for start in candidates.into_iter().flatten() {
                if start > job.latest_start() {
                    continue;
                }
                let gained = usize::from(job.is_exact(start));
                self.used[i] = true;
                self.order.push(i);
                self.starts.push(start);
                self.dfs(start + job.wcet(), exact + gained);
                self.starts.pop();
                self.order.pop();
                self.used[i] = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::StaticScheduler;
    use crate::scheduler::Scheduler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
    use tagio_core::time::Duration;
    use tagio_workload::{PeriodPool, SystemConfig};

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
    fn conflict_free_set_is_all_exact() {
        let set: TaskSet = vec![task(0, 8, 500, 2), task(1, 8, 500, 5)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&set);
        let (exact, s) = OptimalPsi::new().solve_exact(&jobs).unwrap();
        s.validate(&jobs).unwrap();
        assert_eq!(exact, jobs.len());
        assert_eq!(metrics::psi(&s, &jobs), 1.0);
    }

    #[test]
    fn conflicting_pair_keeps_exactly_one() {
        let set: TaskSet = vec![task(0, 8, 2000, 4), task(1, 8, 2000, 4)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&set);
        let (exact, s) = OptimalPsi::new().solve_exact(&jobs).unwrap();
        s.validate(&jobs).unwrap();
        assert_eq!(exact, 1);
    }

    #[test]
    fn overload_is_infeasible_with_diagnostic() {
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
        let err = OptimalPsi::new().solve_exact(&jobs).unwrap_err();
        assert_eq!(err.cause, InfeasibleCause::UtilisationOverload);
        assert!(!err.tasks.is_empty());
    }

    #[test]
    fn static_heuristic_never_beats_optimal() {
        // Small systems: few tasks with short hyper-periods.
        let mut cfg = SystemConfig::paper(0.25);
        cfg.periods = PeriodPool::divisors_of(
            Duration::from_millis(40),
            Duration::from_millis(10),
            Duration::from_millis(40),
        );
        let mut rng = StdRng::seed_from_u64(5);
        let mut checked = 0;
        for _ in 0..20 {
            let sys = cfg.generate(&mut rng);
            let jobs = JobSet::expand(&sys);
            if jobs.len() > 10 {
                continue;
            }
            let Ok((best_exact, best)) = OptimalPsi::new().solve_exact(&jobs) else {
                continue;
            };
            best.validate(&jobs).unwrap();
            if let Ok(s) = StaticScheduler::new().schedule(&jobs) {
                let heuristic_exact =
                    (metrics::psi(&s, &jobs) * jobs.len() as f64).round() as usize;
                assert!(
                    heuristic_exact <= best_exact,
                    "heuristic {heuristic_exact} > optimal {best_exact}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no comparable instances generated");
    }

    #[test]
    fn optimal_finds_the_clever_delay() {
        // Job A's window allows delaying it so both A and B hit ideals:
        // A: release 0, ideal 2, wcet 4ms, deadline 20 (latest start 16).
        // B: release 0, ideal 4, wcet 1ms, deadline 20.
        // Running A at its ideal blocks B; optimal runs B at 4 exactly and
        // A at... A's ideal 2 conflicts with B's 4..5 window (A occupies
        // 2..6). So only one can be exact unless A delays past 5: A is not
        // exact then. Best = 1 exact? No: A can run 5..9 (not exact),
        // B 4..5 exact => 1 exact; or A 2..6 exact, B 6..7 late => 1.
        // Both equal: optimal = 1.
        use tagio_core::job::{Job, JobId};
        use tagio_core::quality::QualityCurve;
        use tagio_core::task::Priority;
        let a = Job::new(
            JobId::new(TaskId(0), 0),
            Time::ZERO,
            Time::from_millis(2),
            Time::from_millis(20),
            Duration::from_millis(4),
            Duration::from_millis(2),
            Priority(1),
            QualityCurve::linear(2.0, 1.0),
        );
        let b = Job::new(
            JobId::new(TaskId(1), 0),
            Time::ZERO,
            Time::from_millis(4),
            Time::from_millis(20),
            Duration::from_millis(1),
            Duration::from_millis(2),
            Priority(2),
            QualityCurve::linear(2.0, 1.0),
        );
        let jobs = JobSet::from_jobs(vec![a, b], Duration::from_millis(20));
        let (exact, s) = OptimalPsi::new().solve_exact(&jobs).unwrap();
        s.validate(&jobs).unwrap();
        assert_eq!(exact, 1);
    }

    #[test]
    fn three_spread_ideals_all_exact_despite_shared_release() {
        let mk = |id: u32, delta_ms: u64| {
            IoTask::builder(TaskId(id), DeviceId(0))
                .wcet(Duration::from_millis(1))
                .period(Duration::from_millis(16))
                .ideal_offset(Duration::from_millis(delta_ms))
                .margin(Duration::from_millis(4))
                .build()
                .unwrap()
        };
        let set: TaskSet = vec![mk(0, 4), mk(1, 7), mk(2, 10)].into_iter().collect();
        let jobs = JobSet::expand(&set);
        let (exact, _) = OptimalPsi::new().solve_exact(&jobs).unwrap();
        assert_eq!(exact, 3);
    }

    #[test]
    fn empty_jobset_is_trivial() {
        let jobs = JobSet::from_jobs(vec![], Duration::from_millis(1));
        let (exact, s) = OptimalPsi::new().solve_exact(&jobs).unwrap();
        assert_eq!(exact, 0);
        assert!(s.is_empty());
    }

    #[test]
    fn node_budget_exhaustion_reports_the_partial_assignment() {
        // With a 1-node budget the search cannot place anything: it must
        // report exhaustion (not hang or panic) and name the unplaced
        // jobs it was still exploring.
        let set: TaskSet = (0..6)
            .map(|i| task(i, 32, 1000, 8 + u64::from(i) * 2))
            .collect();
        let jobs = JobSet::expand(&set);
        let err = OptimalPsi::with_node_budget(1)
            .solve_exact(&jobs)
            .unwrap_err();
        assert_eq!(err.cause, InfeasibleCause::BudgetExhausted);
        assert!(!err.jobs.is_empty(), "unplaced jobs are named");
        assert!(err.best_psi.is_some(), "partial psi attached");
    }

    #[test]
    fn node_budget_terminates_early_and_anytime() {
        let set: TaskSet = (0..6)
            .map(|i| task(i, 32, 1000, 8 + u64::from(i) * 2))
            .collect();
        let jobs = JobSet::expand(&set);
        let err = OptimalPsi::with_node_budget(2)
            .solve_exact(&jobs)
            .unwrap_err();
        assert_eq!(err.cause, InfeasibleCause::BudgetExhausted);
        // A budget large enough to find *some* complete schedule but not
        // finish the search still returns a best-so-far (anytime).
        let (exact, mid) = OptimalPsi::with_node_budget(50)
            .solve_exact(&jobs)
            .expect("anytime: a complete schedule was reachable in 50 nodes");
        mid.validate(&jobs).unwrap();
        let (optimal, _) = OptimalPsi::new().solve_exact(&jobs).unwrap();
        assert!(exact <= optimal);
    }
}
