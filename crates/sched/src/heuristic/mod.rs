//! The static heuristic I/O scheduler (paper Algorithm 1).
//!
//! Three phases:
//!
//! 1. **Dependency-graph formation** ([`graph::ConflictGraph::build`]) —
//!    identify execution conflicts between jobs at their ideal starts.
//! 2. **Graph decomposition** ([`graph::ConflictGraph::decompose`]) —
//!    repeatedly sacrifice the job with the highest penalty weight `ψ`
//!    until no conflicts remain, one dependency graph at a time;
//!    survivors (`λ*`) execute exactly at their ideal instants,
//!    maximising Ψ.
//! 3. **LCC-D allocation** ([`lccd::Timeline`]) — pack the
//!    sacrificed jobs (`λ¬`, highest priority first) into the free slots of
//!    their release windows, shifting exact jobs only as a last resort.
//!
//! The scheduler reports a [`NoFeasibleSlot`](InfeasibleCause::NoFeasibleSlot)
//! diagnostic when phase three fails — like the paper, it deliberately
//! stops rather than recursively displacing allocated jobs (which could
//! prevent termination; §III.A). The diagnostic names the unplaceable
//! job and carries the partial Ψ/Υ of the placements committed so far.

pub mod graph;
pub mod lccd;
pub mod repair;

pub use graph::ConflictGraph;
pub use lccd::{LadderWork, SlotPolicy, Timeline, TimelineScratch};
pub use repair::{
    ladder_in, repair_neighbourhood_in, retime_in, RepairOutcome, RepairScratch, Tier,
};

use crate::scheduler::Scheduler;
use crate::solve::{check_capacity, priority_rank};
use graph::Phases;
use tagio_core::job::JobSet;
use tagio_core::schedule::Schedule;
use tagio_core::solve::{Infeasible, InfeasibleCause};

/// The static heuristic scheduler ("static" in the paper's figures).
///
/// ```
/// use tagio_sched::heuristic::StaticScheduler;
/// use tagio_sched::Scheduler;
/// # use tagio_core::{job::JobSet, task::*, time::Duration};
/// # let tasks: TaskSet = vec![IoTask::builder(TaskId(0), DeviceId(0))
/// #     .wcet(Duration::from_micros(100)).period(Duration::from_millis(4))
/// #     .ideal_offset(Duration::from_millis(2)).margin(Duration::from_millis(1))
/// #     .build().unwrap()].into_iter().collect();
/// let jobs = JobSet::expand(&tasks);
/// let schedule = StaticScheduler::new().schedule(&jobs).expect("feasible");
/// assert!(schedule.validate(&jobs).is_ok());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticScheduler {
    policy: SlotPolicy,
}

impl StaticScheduler {
    /// The paper's configuration (LCC-D slot selection).
    #[must_use]
    pub fn new() -> Self {
        StaticScheduler {
            policy: SlotPolicy::LeastContentionCapacityDecreasing,
        }
    }

    /// A scheduler with an alternative slot policy (ablation studies).
    #[must_use]
    pub fn with_policy(policy: SlotPolicy) -> Self {
        StaticScheduler { policy }
    }
}

impl Scheduler for StaticScheduler {
    fn name(&self) -> &'static str {
        match self.policy {
            SlotPolicy::LeastContentionCapacityDecreasing => "static",
            SlotPolicy::FirstFit => "static-firstfit",
            SlotPolicy::BestFit => "static-bestfit",
            SlotPolicy::WorstFit => "static-worstfit",
        }
    }

    /// Runs Algorithm 1 (graph formation, decomposition, LCC-D
    /// allocation).
    ///
    /// # Errors
    /// [`InfeasibleCause::UtilisationOverload`] on outright overload,
    /// otherwise [`InfeasibleCause::NoFeasibleSlot`] naming the first
    /// sacrificed job the allocator could not place (Algorithm 1 line
    /// 19), with the partial Ψ/Υ of the committed placements.
    fn schedule(&self, jobs: &JobSet) -> Result<Schedule, Infeasible> {
        synthesize_in(jobs, self.policy, &mut TimelineScratch::default())
    }
}

/// Algorithm 1 under `policy`, on the buffers and work counters of
/// `scratch`: the one body behind [`StaticScheduler::schedule`] (fresh
/// scratch) and the repair ladder's re-synthesis tier (the ladder's
/// scratch). Errors as [`StaticScheduler::schedule`] documents.
pub(crate) fn synthesize_in(
    jobs: &JobSet,
    policy: SlotPolicy,
    scratch: &mut TimelineScratch,
) -> Result<Schedule, Infeasible> {
    check_capacity(jobs)?;
    // The scratch keeps phases one and two's buffers too; they come out
    // while the timeline borrows the rest of it.
    let mut phases = std::mem::take(&mut scratch.phases);
    let result = synthesize_on(jobs, policy, &mut phases, scratch);
    scratch.phases = phases;
    result
}

/// [`synthesize_in`] past the capacity check, with phases one and two
/// on `phases`.
fn synthesize_on(
    jobs: &JobSet,
    policy: SlotPolicy,
    phases: &mut Phases,
    scratch: &mut TimelineScratch,
) -> Result<Schedule, Infeasible> {
    let (exact, order, edges) = phases.run(jobs);
    scratch.work.conflict_edges += edges as u64;
    let mut timeline = Timeline::with_exact_jobs_in(jobs, exact, scratch);

    // Allocate sacrificed jobs, largest Pi first (Algorithm 1 line 11).
    let all = jobs.as_slice();
    order.sort_by_key(|&i| priority_rank(&all[i]));
    timeline.plan(order);
    for pos in 0..order.len() {
        let idx = order[pos];
        if timeline.allocate_in(order, pos, policy).is_none() {
            // Algorithm 1 line 19: {infeasible, 0} — enriched with
            // where the allocation died and how far it got.
            let (psi, upsilon) = timeline.partial_quality(&mut Vec::new());
            timeline.recycle(scratch);
            return Err(Infeasible::new(InfeasibleCause::NoFeasibleSlot)
                .with_jobs([all[idx].id()])
                .with_partial(psi, upsilon));
        }
    }
    Ok(timeline.into_schedule_in(scratch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulingReport;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagio_core::metrics;
    use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
    use tagio_core::time::Duration;
    use tagio_workload::generator::SystemConfig;

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
    fn conflict_free_set_is_fully_exact() {
        let set: TaskSet = vec![task(0, 8, 500, 2), task(1, 8, 500, 5)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&set);
        let s = StaticScheduler::new().schedule(&jobs).unwrap();
        s.validate(&jobs).unwrap();
        assert_eq!(metrics::psi(&s, &jobs), 1.0);
    }

    #[test]
    fn conflicting_pair_keeps_one_exact() {
        let set: TaskSet = vec![task(0, 8, 2000, 4), task(1, 8, 2000, 4)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&set);
        let s = StaticScheduler::new().schedule(&jobs).unwrap();
        s.validate(&jobs).unwrap();
        assert_eq!(metrics::psi(&s, &jobs), 0.5);
    }

    #[test]
    fn static_beats_gpiocp_on_psi_under_contention() {
        use crate::gpiocp::Gpiocp;
        let mut rng = StdRng::seed_from_u64(11);
        let mut static_wins = 0usize;
        let mut comparisons = 0usize;
        for _ in 0..20 {
            let sys = SystemConfig::paper(0.6).generate(&mut rng);
            let jobs = JobSet::expand(&sys);
            let st = SchedulingReport::evaluate(&StaticScheduler::new(), &jobs).unwrap();
            let gp = SchedulingReport::evaluate(&Gpiocp::new(), &jobs).unwrap();
            if st.schedulable && gp.schedulable {
                comparisons += 1;
                if st.psi >= gp.psi {
                    static_wins += 1;
                }
            }
        }
        assert!(comparisons > 0, "no comparable systems generated");
        assert!(
            static_wins * 10 >= comparisons * 8,
            "static won only {static_wins}/{comparisons}"
        );
    }

    #[test]
    fn produces_valid_schedules_across_utilisations() {
        let mut rng = StdRng::seed_from_u64(5);
        for u in [0.2, 0.4, 0.6, 0.8] {
            let cfg = SystemConfig::paper(u);
            for _ in 0..5 {
                let sys = cfg.generate(&mut rng);
                let jobs = JobSet::expand(&sys);
                if let Ok(s) = StaticScheduler::new().schedule(&jobs) {
                    s.validate(&jobs).unwrap();
                }
            }
        }
    }

    #[test]
    fn all_policies_produce_valid_schedules() {
        let mut rng = StdRng::seed_from_u64(6);
        let sys = SystemConfig::paper(0.5).generate(&mut rng);
        let jobs = JobSet::expand(&sys);
        for policy in [
            SlotPolicy::LeastContentionCapacityDecreasing,
            SlotPolicy::FirstFit,
            SlotPolicy::BestFit,
            SlotPolicy::WorstFit,
        ] {
            if let Ok(s) = StaticScheduler::with_policy(policy).schedule(&jobs) {
                s.validate(&jobs).unwrap();
            }
        }
    }

    #[test]
    fn scheduler_names_differ_by_policy() {
        assert_eq!(StaticScheduler::new().name(), "static");
        assert_eq!(
            StaticScheduler::with_policy(SlotPolicy::FirstFit).name(),
            "static-firstfit"
        );
    }

    #[test]
    fn schedules_tasks_with_release_offsets() {
        // §III.C: release offsets shift windows past the hyper-period
        // boundary; the timeline horizon must follow.
        let offset_task = IoTask::builder(TaskId(0), DeviceId(0))
            .wcet(Duration::from_micros(500))
            .period(Duration::from_millis(8))
            .ideal_offset(Duration::from_millis(4))
            .margin(Duration::from_millis(2))
            .release_offset(Duration::from_millis(5))
            .build()
            .unwrap();
        let set: TaskSet = vec![offset_task, task(1, 8, 500, 4)].into_iter().collect();
        let jobs = JobSet::expand(&set);
        let s = StaticScheduler::new().schedule(&jobs).expect("feasible");
        s.validate(&jobs).unwrap();
        // The offset task's job may legitimately finish after the 8ms
        // hyper-period boundary.
        assert!(jobs.horizon() > tagio_core::time::Time::from_millis(8));
    }

    #[test]
    fn empty_jobset_trivially_schedulable() {
        let jobs = JobSet::from_jobs(vec![], Duration::from_millis(1));
        let s = StaticScheduler::new().schedule(&jobs).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn psi_matches_exact_survivors_when_no_shift_needed() {
        // Three mutually conflicting jobs with generous windows: one stays
        // exact, two are reallocated without shifting.
        let set: TaskSet = vec![
            task(0, 16, 3000, 6),
            task(1, 16, 3000, 7),
            task(2, 16, 3000, 8),
        ]
        .into_iter()
        .collect();
        let jobs = JobSet::expand(&set);
        let s = StaticScheduler::new().schedule(&jobs).unwrap();
        s.validate(&jobs).unwrap();
        let psi = metrics::psi(&s, &jobs);
        assert!((psi - 1.0 / 3.0).abs() < 1e-9, "psi = {psi}");
    }
}
