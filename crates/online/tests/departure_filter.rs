//! The departure path against the repair ladder's reference.
//!
//! `OnlineScheduler` serves a departure, or a mode change's
//! deactivations, by filtering its live schedule down to the surviving
//! tasks' jobs. Asked to repair the old schedule into the survivors' job
//! set, the ladder's neighbourhood tier pins every placement that still
//! fits and has nothing left to place, so its first round must return the
//! very same table with no job re-placed.
//! This suite bootstraps random paper task sets (§V), optionally spikes
//! them, removes a random subset of tasks and compares the two schedules
//! entry for entry.

use proptest::prelude::*;
use rand::SeedableRng;
use tagio_core::event::{Mode, ModeId, SystemEvent};
use tagio_core::job::JobSet;
use tagio_core::task::{DeviceId, TaskId};
use tagio_online::service::OnlineScheduler;
use tagio_sched::{repair_neighbourhood_in, RepairScratch, SlotPolicy};
use tagio_workload::generator::SystemConfig;

/// The removal a case draws: `kind` picks the shape, `pick` and `mask`
/// the tasks. `None` when the partition has no task left to remove.
fn removal(svc: &OnlineScheduler, kind: usize, pick: usize, mask: u64) -> Option<SystemEvent> {
    let ids: Vec<TaskId> = svc.tasks().iter().map(|t| t.id()).collect();
    let tmax = svc.tasks().iter().map(|t| t.period()).max()?;
    let keep = |active: Vec<TaskId>| {
        SystemEvent::ModeChange(Mode {
            id: ModeId(1),
            active,
        })
    };
    Some(match kind {
        // A single departure.
        0 => SystemEvent::Departure(ids[pick % ids.len()]),
        // A mode change that deactivates a random subset.
        1 => keep(
            ids.iter()
                .enumerate()
                .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
                .map(|(_, id)| *id)
                .collect(),
        ),
        // Every task leaves.
        2 => keep(Vec::new()),
        // The longest-period tasks leave, so the hyper-period shrinks
        // unless the other periods already span it.
        _ => keep(
            svc.tasks()
                .iter()
                .filter(|t| t.period() < tmax)
                .map(|t| t.id())
                .collect(),
        ),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn departures_keep_exactly_the_surviving_placements(
        seed in 0u64..1 << 32,
        u_steps in 4u32..13,
        spike in 0u32..200,
        kind in 0usize..4,
        pick in 0usize..64,
        mask in 0u64..u64::MAX,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let tasks = SystemConfig::paper(f64::from(u_steps) * 0.05).generate(&mut rng);
        let Ok(mut svc) = OnlineScheduler::bootstrap(DeviceId(0), tasks) else {
            continue;
        };
        // Half the cases run under a spike of 100–199%, which rescales
        // every WCET, re-times the table and may shed tasks.
        if spike >= 100 {
            svc.apply(&SystemEvent::UtilisationSpike {
                device: DeviceId(0),
                percent: spike,
            });
        }
        let Some(event) = removal(&svc, kind, pick, mask) else {
            continue;
        };
        let before = svc.schedule().clone();
        let old_hyperperiod = svc.jobs().hyperperiod();
        svc.apply(&event);
        let jobs = JobSet::expand(svc.tasks());
        let scratch = &mut RepairScratch::default();
        let (expected, replaced) =
            repair_neighbourhood_in(&jobs, &before, SlotPolicy::default(), scratch)
                .expect("a subset of a feasible table repairs by pinning alone");
        prop_assert_eq!(replaced, 0);
        prop_assert_eq!(svc.schedule(), &expected);
        prop_assert_eq!(svc.jobs(), &jobs);
        prop_assert!(svc.schedule().validate(svc.jobs()).is_ok());
        let hyperperiod = jobs.hyperperiod();
        prop_assert!(hyperperiod.is_zero() || (old_hyperperiod % hyperperiod).is_zero());
    }
}
