//! Property-based equivalence of scratch-reusing and fresh-allocation
//! repair paths.
//!
//! The online admission loop threads one long-lived [`RepairScratch`]
//! through every repair-ladder call to kill per-event allocation churn.
//! That is only sound if a *dirty* scratch — carrying arbitrary leftover
//! buffer contents and capacities from unrelated earlier calls — never
//! changes any result. This suite drives random task-set perturbations
//! (arrivals, departures, WCET changes via re-admission) through the
//! re-timing and neighbourhood tiers and through the ladder under every
//! tier list the online service uses, comparing every reused-scratch
//! outcome against the same call on a fresh `RepairScratch::default()`
//! bit by bit (`Schedule`, replaced counts, winning tiers and full
//! `Infeasible` diagnostics alike).

use proptest::collection::vec;
use proptest::prelude::*;
use tagio_core::job::JobSet;
use tagio_core::task::{DeviceId, IoTask, Priority, TaskId, TaskSet};
use tagio_core::time::Duration;
use tagio_sched::{
    ladder_in, repair_neighbourhood_in, retime_in, RepairScratch, Scheduler, SlotPolicy,
    StaticScheduler, Tier,
};

/// Builds a valid task from drawn parameters. The ideal offset sits in
/// `[T/4, T/2]` with margin `T/4`, so every builder invariant holds for
/// any `wcet_permille` up to 240.
fn pool_task(
    id: u32,
    period_ix: usize,
    wcet_permille: u64,
    delta_permille: u64,
    prio: u32,
) -> IoTask {
    let periods_ms = [4u64, 8, 8, 16];
    let period = Duration::from_millis(periods_ms[period_ix % periods_ms.len()]);
    let wcet =
        Duration::from_micros((period.as_micros() * wcet_permille.clamp(1, 240) / 1000).max(1));
    let delta = Duration::from_micros(period.as_micros() * (250 + delta_permille % 251) / 1000);
    IoTask::builder(TaskId(id), DeviceId(0))
        .wcet(wcet)
        .period(period)
        .ideal_offset(delta)
        .margin(period / 4)
        .priority(Priority(prio % 3))
        .build()
        .expect("pool parameters are valid")
}

/// Every tier list the online service passes to the ladder.
const LADDERS: [&[Tier]; 6] = [
    &[Tier::Neighbourhood, Tier::Resynthesis],
    &[Tier::Neighbourhood, Tier::Resynthesis, Tier::Fps],
    &[
        Tier::Retime,
        Tier::Neighbourhood,
        Tier::Resynthesis,
        Tier::Fps,
    ],
    &[Tier::Resynthesis, Tier::Fps],
    &[Tier::Resynthesis],
    &[],
];

const POLICIES: [SlotPolicy; 4] = [
    SlotPolicy::LeastContentionCapacityDecreasing,
    SlotPolicy::FirstFit,
    SlotPolicy::BestFit,
    SlotPolicy::WorstFit,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A single scratch reused (dirty) across every tier, every tier list
    /// and every perturbation step must reproduce the fresh-allocation
    /// results exactly — successes and failure diagnostics alike.
    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_allocation(
        base_params in vec((0usize..4, 20u64..160, 0u64..251), 2..5),
        trace in vec((0usize..6, 20u64..220, 0u64..251), 1..10),
        policy_ix in 0usize..4,
    ) {
        let policy = POLICIES[policy_ix];
        let mut active: Vec<IoTask> = base_params
            .iter()
            .enumerate()
            .map(|(i, &(p, w, d))| pool_task(i as u32, p, w, d, i as u32))
            .collect();
        let base_tasks: TaskSet = active.iter().cloned().collect();
        let base_jobs = JobSet::expand(&base_tasks);
        // Only feasible bases seed a repair; infeasible draws still
        // exercise the ladder below through the perturbed sets.
        let base = match StaticScheduler::with_policy(policy).schedule(&base_jobs) {
            Ok(s) => s,
            Err(_) => tagio_core::schedule::Schedule::new(),
        };

        let mut scratch = RepairScratch::default();
        for (i, &(slot, wcet_permille, delta_permille)) in trace.iter().enumerate() {
            let slot = slot as u32;
            if let Some(pos) = active.iter().position(|t| t.id() == TaskId(slot)) {
                active.remove(pos);
            } else {
                active.push(pool_task(
                    slot,
                    slot as usize + i,
                    wcet_permille,
                    delta_permille,
                    slot,
                ));
            }
            if active.is_empty() {
                continue;
            }
            let tasks: TaskSet = active.iter().cloned().collect();
            let jobs = JobSet::expand(&tasks);

            let fresh = retime_in(&jobs, &base, &mut RepairScratch::default());
            let reused = retime_in(&jobs, &base, &mut scratch);
            prop_assert_eq!(fresh, reused, "retime diverged at step {}", i);

            let fresh = repair_neighbourhood_in(&jobs, &base, policy, &mut RepairScratch::default());
            let reused = repair_neighbourhood_in(&jobs, &base, policy, &mut scratch);
            prop_assert_eq!(fresh, reused, "neighbourhood diverged at step {}", i);

            for tiers in LADDERS {
                let fresh = ladder_in(&jobs, &base, tiers, &mut RepairScratch::default());
                let reused = ladder_in(&jobs, &base, tiers, &mut scratch);
                prop_assert_eq!(fresh, reused, "ladder {:?} diverged at step {}", tiers, i);
            }
        }
    }

    /// The neighbourhood tier reports the partial Ψ/Υ of every failure.
    #[test]
    fn failures_carry_partial_quality(
        base_params in vec((0usize..4, 20u64..160, 0u64..251), 2..5),
        trace in vec((0usize..6, 20u64..220, 0u64..251), 1..10),
        policy_ix in 0usize..4,
    ) {
        let policy = POLICIES[policy_ix];
        let mut active: Vec<IoTask> = base_params
            .iter()
            .enumerate()
            .map(|(i, &(p, w, d))| pool_task(i as u32, p, w, d, i as u32))
            .collect();
        let base_tasks: TaskSet = active.iter().cloned().collect();
        let base = StaticScheduler::with_policy(policy)
            .schedule(&JobSet::expand(&base_tasks))
            .unwrap_or_default();
        let mut scratch = RepairScratch::default();
        for (i, &(slot, wcet_permille, delta_permille)) in trace.iter().enumerate() {
            let slot = slot as u32;
            active.retain(|t| t.id() != TaskId(slot));
            active.push(pool_task(slot, slot as usize + i, wcet_permille, delta_permille, slot));
            let tasks: TaskSet = active.iter().cloned().collect();
            let jobs = JobSet::expand(&tasks);

            if let Err(e) = repair_neighbourhood_in(&jobs, &base, policy, &mut scratch) {
                prop_assert!(e.best_psi.is_some() && e.best_upsilon.is_some(), "neighbourhood at step {}", i);
            }
        }
    }
}
