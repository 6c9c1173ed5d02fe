//! Property-based determinism of the pooled epoch pipeline.
//!
//! The fleet's `apply_batch` stages every epoch sequentially, evaluates
//! partition lanes on the persistent worker pool, commits lane results
//! in partition-id order, and runs cross-partition retry waves over the
//! rejected arrivals. None of that parallel machinery may change a
//! single bit: the worker count is a pure throughput knob. This suite
//! drives fleets at pool widths {1, 2, 4, 7} through identical random
//! event traces — arrivals across several devices, departures,
//! utilisation spikes, and mode changes — with cross-partition retries
//! enabled (so the retry waves reorder work between partitions), and
//! after **every epoch** asserts that every width produced the same
//! outcomes, the same per-partition schedules and quality bits, and the
//! same fleet stats as the single-worker reference.
//!
//! Width 7 deliberately exceeds the partition count: the fleet clamps
//! lane width to the number of partitions, and an over-provisioned pool
//! must behave exactly like a fitted one.
//!
//! Workers pull lanes one at a time, so a skewed epoch (one long lane,
//! the others empty or nearly so) is where pull order varies most from
//! run to run. A fixed trace of such epochs is replayed at widths
//! {1, 2, 3, 4}, and must be bit-identical too.

use proptest::collection::vec;
use proptest::prelude::*;
use tagio_core::event::{Mode, ModeId, SystemEvent};
use tagio_core::task::{DeviceId, IoTask, Priority, TaskId};
use tagio_core::time::Duration;
use tagio_online::fleet::{FleetConfig, FleetOutcome, FleetScheduler};
use tagio_online::persist::stats_digest;

/// Devices in the fleet under test (4 partitions).
const DEVICES: u32 = 4;

/// Builds a valid pool task from drawn parameters (same scheme as
/// `tagio-audit`'s `online_quality` suite, plus a target device so the
/// router has real placement choices).
fn pool_task(id: u32, device: u32, period_ix: usize, wcet_permille: u64, prio: u32) -> IoTask {
    let periods_ms = [4u64, 8, 8, 16];
    let period = Duration::from_millis(periods_ms[period_ix % periods_ms.len()]);
    let wcet =
        Duration::from_micros((period.as_micros() * wcet_permille.clamp(1, 240) / 1000).max(1));
    IoTask::builder(TaskId(id), DeviceId(device % DEVICES))
        .wcet(wcet)
        .period(period)
        .ideal_offset(period / 2)
        .margin(period / 4)
        .priority(Priority(prio % 3))
        .quality(f64::from(id % 7) + 1.0, 0.25)
        .build()
        .expect("pool parameters are valid")
}

/// A fleet over [`DEVICES`] empty partitions at pool width `threads`,
/// with cross-partition retries on (the retry waves are the pipeline
/// stage most sensitive to ordering).
fn fleet_at(threads: usize) -> FleetScheduler {
    FleetScheduler::new(
        (0..DEVICES).map(DeviceId),
        FleetConfig {
            threads,
            retries: 2,
            seed: 7,
            ..FleetConfig::default()
        },
    )
}

/// Decodes one drawn trace step into a [`SystemEvent`].
fn event_for(
    step: usize,
    slot: u32,
    device: u32,
    period_ix: usize,
    wcet: u64,
    kind: usize,
) -> SystemEvent {
    match kind {
        // Arrivals (including duplicate re-offers of a live slot).
        0..=2 => SystemEvent::Arrival(pool_task(slot, device, period_ix, wcet, slot + step as u32)),
        3 => SystemEvent::Departure(TaskId(slot)),
        // Overload and relief spikes, 40%..230% of nominal.
        4 => SystemEvent::UtilisationSpike {
            device: DeviceId(device % DEVICES),
            percent: 40 + (wcet as u32),
        },
        // A mode over a prefix of the slot space.
        _ => SystemEvent::ModeChange(Mode {
            id: ModeId(slot),
            active: (0..=slot).map(TaskId).collect(),
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every pool width replays a random trace to bit-identical
    /// schedules, outcomes and stats, epoch by epoch.
    #[test]
    fn pool_width_never_changes_fleet_behaviour(
        trace in vec((0u32..10, 0u32..DEVICES, 0usize..4, 20u64..200, 0usize..6), 1..32),
    ) {
        let events: Vec<SystemEvent> = trace
            .iter()
            .enumerate()
            .map(|(i, &(slot, device, period_ix, wcet, kind))| {
                event_for(i, slot, device, period_ix, wcet, kind)
            })
            .collect();
        let mut reference = fleet_at(1);
        let mut wide: Vec<(usize, FleetScheduler)> =
            [2usize, 4, 7].iter().map(|&w| (w, fleet_at(w))).collect();
        // Epochs of 5 mix event kinds inside one batch, so staging,
        // lane evaluation, ordered commit, retry waves and deferred
        // departures all run against each other within the epoch.
        for (epoch, chunk) in events.chunks(5).enumerate() {
            let expected = reference.apply_batch(chunk);
            for (w, fleet) in &mut wide {
                let got = fleet.apply_batch(chunk);
                prop_assert_eq!(
                    &expected, &got,
                    "outcomes diverged at width {} in epoch {}", w, epoch
                );
                prop_assert_eq!(
                    reference.stats(), fleet.stats(),
                    "fleet stats diverged at width {} in epoch {}", w, epoch
                );
                for (a, b) in reference.partitions().iter().zip(fleet.partitions()) {
                    prop_assert_eq!(a.device(), b.device());
                    prop_assert_eq!(
                        a.schedule(), b.schedule(),
                        "schedule diverged at width {} in epoch {} on {:?}",
                        w, epoch, a.device()
                    );
                    prop_assert_eq!(
                        a.psi().to_bits(), b.psi().to_bits(),
                        "psi diverged at width {} in epoch {} on {:?}",
                        w, epoch, a.device()
                    );
                    prop_assert_eq!(
                        a.upsilon().to_bits(), b.upsilon().to_bits(),
                        "upsilon diverged at width {} in epoch {} on {:?}",
                        w, epoch, a.device()
                    );
                }
            }
        }
    }
}

/// Epochs that first fit routes almost entirely to partition 0 (every
/// arrival's affinity): partition 0 alone, then partition 0 plus one
/// arrival on device 2, then an overload of partition 0 whose retries
/// spill single offers onto the other partitions, next to one spike on
/// device 3.
fn skewed_epochs() -> Vec<Vec<SystemEvent>> {
    let arrivals = |ids: std::ops::Range<u32>, permille: u64| {
        ids.map(move |id| SystemEvent::Arrival(pool_task(id, 0, id as usize, permille, id)))
            .collect::<Vec<_>>()
    };
    let mut second = arrivals(8..14, 40);
    second.insert(3, SystemEvent::Arrival(pool_task(14, 2, 1, 60, 1)));
    let mut third = arrivals(20..28, 150);
    third.push(SystemEvent::UtilisationSpike {
        device: DeviceId(3),
        percent: 150,
    });
    vec![arrivals(0..8, 30), second, third]
}

#[test]
fn skewed_lanes_replay_identically_at_every_width() {
    let mut fleets: Vec<(usize, FleetScheduler)> = [1usize, 2, 3, 4]
        .iter()
        .map(|&w| (w, fleet_at(w)))
        .collect();
    for (epoch, events) in skewed_epochs().iter().enumerate() {
        let outcomes: Vec<Vec<FleetOutcome>> = fleets
            .iter_mut()
            .map(|(_, fleet)| fleet.apply_batch(events))
            .collect();
        let (reference, wide) = fleets.split_first().expect("four widths");
        for ((w, fleet), got) in wide.iter().zip(&outcomes[1..]) {
            assert_eq!(&outcomes[0], got, "outcomes, width {w}, epoch {epoch}");
            assert_eq!(reference.1.stats(), fleet.stats(), "fleet stats, width {w}");
            assert_eq!(
                reference.1.ladder_work(),
                fleet.ladder_work(),
                "work, width {w}"
            );
            for (a, b) in reference.1.partitions().iter().zip(fleet.partitions()) {
                let on = (w, epoch, a.device());
                assert_eq!(a.schedule(), b.schedule(), "schedule at {on:?}");
                assert_eq!(
                    stats_digest(a.stats()),
                    stats_digest(b.stats()),
                    "stats at {on:?}"
                );
                assert_eq!(a.psi().to_bits(), b.psi().to_bits(), "psi at {on:?}");
                assert_eq!(
                    a.upsilon().to_bits(),
                    b.upsilon().to_bits(),
                    "upsilon at {on:?}"
                );
            }
        }
    }
    // The trace really is skewed: partition 0 holds most of the work.
    let fleet = &fleets[0].1;
    let tasks: Vec<usize> = fleet.partitions().iter().map(|p| p.tasks().len()).collect();
    assert!(tasks[0] > tasks[1..].iter().sum::<usize>(), "{tasks:?}");
    assert!(
        fleet.stats().retries > 0,
        "no retry wave ran: {:?}",
        fleet.stats()
    );
}
