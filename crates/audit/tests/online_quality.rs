//! The online service's cached Ψ/Υ against the audit's independent
//! recomputation.
//!
//! `OnlineScheduler` refreshes a cached `(Ψ, Υ)` pair at every commit
//! point and answers `psi()`/`upsilon()` from it. This suite drives one
//! service through random event traces — arrivals across a parameter
//! pool, duplicate re-offers, departures, utilisation spikes (both
//! overload and relief) and mode changes over the known pool — and after
//! *every* event checks the live schedule entry by entry and the cached
//! pair bit for bit against [`schedule::verify_quality`], whose
//! recomputation shares no code with `tagio_core::metrics`.

use proptest::collection::vec;
use proptest::prelude::*;
use tagio_audit::schedule;
use tagio_core::event::{Mode, ModeId, SystemEvent};
use tagio_core::task::{DeviceId, IoTask, Priority, TaskId};
use tagio_core::time::Duration;
use tagio_online::service::OnlineScheduler;

/// Builds a valid pool task from drawn parameters (same scheme as the
/// repair-ladder suite in `tagio-sched`).
fn pool_task(id: u32, period_ix: usize, wcet_permille: u64, prio: u32) -> IoTask {
    let periods_ms = [4u64, 8, 8, 16];
    let period = Duration::from_millis(periods_ms[period_ix % periods_ms.len()]);
    let wcet =
        Duration::from_micros((period.as_micros() * wcet_permille.clamp(1, 240) / 1000).max(1));
    IoTask::builder(TaskId(id), DeviceId(0))
        .wcet(wcet)
        .period(period)
        .ideal_offset(period / 2)
        .margin(period / 4)
        .priority(Priority(prio % 3))
        .quality(f64::from(id % 7) + 1.0, 0.25)
        .build()
        .expect("pool parameters are valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every event the live schedule is valid for the live job set
    /// and the cached Ψ/Υ equal the independent recomputation.
    #[test]
    fn cached_quality_matches_independent_recomputation(
        trace in vec((0u32..5, 0usize..4, 20u64..200, 0usize..5), 1..24),
    ) {
        let mut svc = OnlineScheduler::new(DeviceId(0));
        for (i, &(slot, period_ix, wcet_permille, kind)) in trace.iter().enumerate() {
            let event = match kind {
                // Arrival (or duplicate re-offer) of a pool slot.
                0 | 1 => SystemEvent::Arrival(pool_task(
                    slot,
                    period_ix,
                    wcet_permille,
                    slot + i as u32,
                )),
                2 => SystemEvent::Departure(TaskId(slot)),
                // Overload and relief spikes, 40%..230% of nominal.
                3 => SystemEvent::UtilisationSpike {
                    device: DeviceId(0),
                    percent: 40 + (wcet_permille as u32),
                },
                // A mode over a prefix of the slot space: everything
                // below the drawn slot stays, the rest departs.
                _ => SystemEvent::ModeChange(Mode {
                    id: ModeId(slot),
                    active: (0..=slot).map(TaskId).collect(),
                }),
            };
            let _ = svc.apply(&event);
            let entries = schedule::verify_entries(svc.schedule().as_slice(), svc.jobs());
            prop_assert!(entries.is_clean(), "step {}: {}", i, entries);
            let quality =
                schedule::verify_quality(svc.schedule(), svc.jobs(), svc.psi(), svc.upsilon());
            prop_assert!(quality.is_clean(), "step {}: {}", i, quality);
        }
    }
}
