//! Crash consistency and failover of the fleet scheduler.
//!
//! Three layers, all property-based where the state space warrants it:
//!
//! 1. **WAL round-trip** — every event kind (arrivals with all eleven
//!    task fields, departures, mode changes, spikes, partition deaths)
//!    and the commit digests survive `format_record`/`parse_wal`
//!    bit-exactly, over random logs.
//! 2. **Crash injection** — a fleet journals every epoch and snapshots
//!    on an interval; the test kills it at a random epoch boundary
//!    (usually mid-snapshot-interval) and optionally tears the next
//!    record mid-append, then recovers from the latest snapshot plus
//!    the WAL suffix and finishes the trace. The recovered run must be
//!    bit-identical — schedules, Ψ/Υ, fleet stats — to the run that
//!    never crashed, at pool widths 1 and 4.
//! 3. **Failover semantics** — a partition death mid-batch orphans the
//!    same epoch's admissions, lost-task diagnostics carry the dead
//!    partition's id, and no task id is ever owned by two partitions
//!    after death plus recovery.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use tagio_core::event::{Mode, ModeId, SystemEvent};
use tagio_core::solve::InfeasibleCause;
use tagio_core::task::{DeviceId, IoTask, Priority, TaskId};
use tagio_core::time::Duration;
use tagio_online::fleet::{FleetConfig, FleetScheduler};
use tagio_online::persist::{schedule_digest, stats_digest, FleetSnapshot};
use tagio_online::scenario::{FleetScenario, FleetScenarioConfig};
use tagio_online::service::{EventOutcome, RejectReason};
use tagio_online::wal::{format_record, parse_wal, EpochRecord, MemoryWal, WalSink, WalSource};

/// Devices in the fleets under test (4 partitions).
const DEVICES: u32 = 4;

/// Builds a valid task from drawn parameters (same scheme as the
/// pool-determinism suite).
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

/// Decodes one drawn trace step into a [`SystemEvent`] — every kind,
/// partition deaths included.
fn event_for(
    step: usize,
    slot: u32,
    device: u32,
    period_ix: usize,
    wcet: u64,
    kind: usize,
) -> SystemEvent {
    match kind {
        0..=2 => SystemEvent::Arrival(pool_task(slot, device, period_ix, wcet, slot + step as u32)),
        3 => SystemEvent::Departure(TaskId(slot)),
        4 => SystemEvent::UtilisationSpike {
            device: DeviceId(device % DEVICES),
            percent: 40 + (wcet as u32),
        },
        5 => SystemEvent::ModeChange(Mode {
            id: ModeId(slot),
            active: (0..=slot).map(TaskId).collect(),
        }),
        _ => SystemEvent::PartitionDeath {
            device: DeviceId(device % DEVICES),
        },
    }
}

/// An empty fleet over [`DEVICES`] partitions at pool width `threads`,
/// retries on (failover leans on the retry machinery).
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

/// Everything deterministic about a fleet, for bit-equality checks.
fn fingerprint(fleet: &FleetScheduler) -> Vec<(DeviceId, u64, u64, u64, u64)> {
    fleet
        .partitions()
        .iter()
        .map(|p| {
            (
                p.device(),
                schedule_digest(p.schedule()),
                stats_digest(p.stats()),
                p.psi().to_bits(),
                p.upsilon().to_bits(),
            )
        })
        .collect()
}

/// Asserts the fleet-wide single-ownership invariant: every active task
/// lives in exactly one partition, and the owner map agrees.
fn assert_single_ownership(fleet: &FleetScheduler) {
    let mut seen: BTreeMap<TaskId, DeviceId> = BTreeMap::new();
    for p in fleet.partitions() {
        for t in p.tasks().iter() {
            if let Some(previous) = seen.insert(t.id(), p.device()) {
                panic!("{} active on both {previous} and {}", t.id(), p.device());
            }
            assert_eq!(
                fleet.owner_of(t.id()),
                Some(p.device()),
                "owner map disagrees with partition contents for {}",
                t.id()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The WAL dialect round-trips random logs exactly — every event
    /// kind, full task field sets and commit digests included.
    #[test]
    fn wal_round_trips_every_event_kind(
        records in vec(
            (
                vec((0u32..12, 0u32..DEVICES, 0usize..4, 20u64..200, 0usize..7), 1..8),
                vec((0u32..DEVICES, 0u64..u64::MAX, 0u64..u64::MAX), 0..4),
                0u64..u64::MAX,
            ),
            1..6,
        ),
    ) {
        let mut wal = MemoryWal::new();
        let mut expected = Vec::new();
        for (i, (events, digests, seed)) in records.iter().enumerate() {
            let record = EpochRecord {
                epoch: i + 1,
                seed: *seed,
                events: events
                    .iter()
                    .enumerate()
                    .map(|(j, &(slot, device, period_ix, wcet, kind))| {
                        event_for(j, slot, device, period_ix, wcet, kind)
                    })
                    .collect(),
                digests: digests
                    .iter()
                    .map(|&(d, sched, stats)| (DeviceId(d), (sched, stats)))
                    .collect(),
            };
            wal.append(&record).unwrap();
            expected.push(record);
        }
        let loaded = wal.load().unwrap();
        prop_assert!(!loaded.torn_tail);
        prop_assert_eq!(loaded.epochs, expected);
    }

    /// Tentpole pin: kill the fleet at a random epoch boundary (and
    /// usually mid-snapshot-interval), optionally tearing the next WAL
    /// record mid-append, then recover and finish the trace. The result
    /// must be bit-identical to the run that never crashed — at pool
    /// widths 1 and 4.
    #[test]
    fn recovery_from_any_epoch_boundary_is_bit_identical(
        trace in vec((0u32..10, 0u32..DEVICES, 0usize..4, 20u64..200, 0usize..7), 4..28),
        kill_pick in 0usize..1 << 16,
        snap_interval in 1usize..4,
        tear_bytes in 0usize..1 << 16,
    ) {
        let events: Vec<SystemEvent> = trace
            .iter()
            .enumerate()
            .map(|(i, &(slot, device, period_ix, wcet, kind))| {
                event_for(i, slot, device, period_ix, wcet, kind)
            })
            .collect();
        let chunks: Vec<&[SystemEvent]> = events.chunks(4).collect();
        let kill = 1 + kill_pick % chunks.len();

        // The reference run never crashes (width 1).
        let mut reference = fleet_at(1);
        for chunk in &chunks {
            let _ = reference.apply_batch(chunk);
        }

        for &width in &[1usize, 4] {
            // The journalled run: WAL every epoch, snapshot on the
            // interval (plus the genesis snapshot at epoch 0).
            let mut live = fleet_at(width);
            let mut wal = MemoryWal::new();
            let mut snapshots = vec![live.snapshot()];
            for (e, chunk) in chunks.iter().enumerate() {
                let _ = live.apply_batch(chunk);
                wal.append(&live.epoch_record(chunk)).unwrap();
                if (e + 1) % snap_interval == 0 {
                    snapshots.push(live.snapshot());
                }
            }

            // Crash: the log survives through epoch `kill`, plus a torn
            // fragment of the next record (the append the crash cut).
            let records = wal.load().unwrap().epochs;
            let mut survives: String = records[..kill].iter().map(format_record).collect();
            if kill < records.len() {
                let next = format_record(&records[kill]);
                survives.push_str(&next[..tear_bytes % next.len()]);
            }
            let damaged = parse_wal(&survives).unwrap();
            prop_assert_eq!(damaged.epochs.len(), kill, "torn tail must truncate");

            // Recover from the latest snapshot at or before the kill
            // (mid-interval kills replay a non-empty WAL suffix).
            let snapshot = snapshots
                .iter()
                .rev()
                .find(|s| s.epoch <= kill)
                .expect("genesis snapshot always qualifies");
            let (mut recovered, report) = FleetScheduler::recover(snapshot, &damaged)
                .unwrap_or_else(|e| panic!("recovery failed at width {width}: {e}"));
            prop_assert_eq!(report.snapshot_epoch, snapshot.epoch);
            prop_assert_eq!(report.replayed, kill - snapshot.epoch);

            // Finish the trace and compare against both the same-width
            // uninterrupted run and the width-1 reference.
            for chunk in &chunks[kill..] {
                let _ = recovered.apply_batch(chunk);
            }
            prop_assert_eq!(
                fingerprint(&recovered),
                fingerprint(&live),
                "width {} diverged from its own uninterrupted run", width
            );
            prop_assert_eq!(
                fingerprint(&recovered),
                fingerprint(&reference),
                "width {} diverged from the width-1 reference", width
            );
            prop_assert_eq!(recovered.stats(), live.stats());
            prop_assert_eq!(recovered.stats(), reference.stats());
            for (a, b) in recovered.partitions().iter().zip(reference.partitions()) {
                prop_assert_eq!(a.schedule(), b.schedule());
            }
            assert_single_ownership(&recovered);
        }
    }
}

/// A task aimed at `device` that a lightly-loaded partition accepts.
fn mk(id: u32, device: u32, delta_ms: u64) -> IoTask {
    IoTask::builder(TaskId(id), DeviceId(device))
        .wcet(Duration::from_micros(500))
        .period(Duration::from_millis(8))
        .ideal_offset(Duration::from_millis(delta_ms))
        .margin(Duration::from_millis(1))
        .quality(f64::from(id) + 1.0, 0.0)
        .build()
        .unwrap()
}

/// A death mid-batch orphans the very admissions the same epoch made
/// before it, and the orphans are rehomed onto survivors.
#[test]
fn death_mid_batch_orphans_same_epoch_admissions() {
    let mut fleet = fleet_at(1);
    let batch = [
        SystemEvent::Arrival(mk(500, 0, 2)),
        SystemEvent::PartitionDeath {
            device: DeviceId(0),
        },
        SystemEvent::Arrival(mk(501, 0, 4)),
    ];
    let outcomes = fleet.apply_batch(&batch);
    assert!(
        matches!(outcomes[0].outcome, EventOutcome::Admitted { .. }),
        "the pre-death arrival is admitted on the doomed partition first"
    );
    let EventOutcome::PartitionDied {
        ref orphans,
        ref rehomed,
        ref lost,
        ..
    } = outcomes[1].outcome
    else {
        panic!("expected PartitionDied, got {:?}", outcomes[1].outcome);
    };
    assert_eq!(
        orphans.iter().map(IoTask::id).collect::<Vec<_>>(),
        vec![TaskId(500)],
        "the same-epoch admission is orphaned by the death that follows it"
    );
    assert_eq!(rehomed.len() + lost.len(), orphans.len());
    for &(id, survivor) in rehomed {
        assert_ne!(survivor, DeviceId(0), "rehomed off the dead partition");
        assert_eq!(fleet.owner_of(id), Some(survivor));
    }
    // The post-death arrival aimed at the dead (now empty, restarted)
    // partition is routed normally — the partition is dead for the
    // epoch's orphans, not erased from the fleet.
    assert!(
        matches!(outcomes[2].outcome, EventOutcome::Admitted { .. }),
        "got {:?}",
        outcomes[2].outcome
    );
    assert_single_ownership(&fleet);
}

/// When no survivor can take an orphan, its rejection diagnostics name
/// the partition whose death orphaned it.
#[test]
fn lost_orphans_carry_the_dead_partitions_id() {
    // A single-partition fleet has no survivors: every orphan is lost.
    let mut fleet = FleetScheduler::new(
        [DeviceId(3)],
        FleetConfig {
            threads: 1,
            ..FleetConfig::default()
        },
    );
    let outcomes = fleet.apply_batch(&[
        SystemEvent::Arrival(mk(7, 3, 2)),
        SystemEvent::PartitionDeath {
            device: DeviceId(3),
        },
    ]);
    let EventOutcome::PartitionDied {
        ref lost,
        ref rehomed,
        ..
    } = outcomes[1].outcome
    else {
        panic!("expected PartitionDied, got {:?}", outcomes[1].outcome);
    };
    assert!(rehomed.is_empty());
    assert_eq!(lost.len(), 1);
    let (id, ref reason) = lost[0];
    assert_eq!(id, TaskId(7));
    let RejectReason::Infeasible(ref diagnostic) = *reason else {
        panic!("expected an Infeasible diagnostic, got {reason:?}");
    };
    assert_eq!(
        diagnostic.origin,
        Some(DeviceId(3)),
        "diagnostics must name the dead partition"
    );
    assert_eq!(diagnostic.cause, InfeasibleCause::NoFeasibleSlot);
    assert_eq!(fleet.owner_of(TaskId(7)), None);
    assert_eq!(fleet.stats().lost, 1);
}

/// A generated scenario with recurring deaths, crashed mid-stream and
/// recovered, never ends with a task owned by two partitions — and the
/// failover counters survive the crash intact.
#[test]
fn scenario_with_deaths_recovers_to_single_ownership() {
    let scenario = FleetScenario::generate(&FleetScenarioConfig {
        partitions: 3,
        arrivals: 18,
        death_every: 4,
        ..FleetScenarioConfig::default()
    });
    let events: Vec<SystemEvent> = scenario.events.iter().map(|e| e.event.clone()).collect();
    let chunks: Vec<&[SystemEvent]> = events.chunks(5).collect();
    let config = FleetConfig {
        threads: 1,
        ..FleetConfig::default()
    };

    let mut reference = FleetScheduler::bootstrap(&scenario.bases, config.clone());
    let mut wal = MemoryWal::new();
    let mut snapshot = None;
    for (e, chunk) in chunks.iter().enumerate() {
        let _ = reference.apply_batch(chunk);
        wal.append(&reference.epoch_record(chunk)).unwrap();
        if e + 1 == chunks.len() / 2 {
            snapshot = Some(reference.snapshot());
        }
    }
    assert!(
        reference.stats().deaths > 0,
        "the scenario must exercise failover"
    );
    assert!(
        reference.stats().rehomed + reference.stats().lost > 0,
        "deaths must orphan something"
    );

    // Crash immediately after the snapshot: recovery replays the second
    // half of the stream from the WAL alone.
    let snapshot = snapshot.expect("snapshot taken mid-stream");
    let (recovered, report) =
        FleetScheduler::recover(&snapshot, &wal.load().unwrap()).expect("recovery succeeds");
    assert_eq!(report.replayed, chunks.len() - chunks.len() / 2);
    assert_eq!(recovered.stats(), reference.stats());
    assert_eq!(fingerprint(&recovered), fingerprint(&reference));
    assert_single_ownership(&recovered);

    // A parsed copy of the snapshot (the on-disk path) recovers too.
    let reparsed = FleetSnapshot::parse(&snapshot.write()).expect("snapshot text parses");
    let (recovered, _) =
        FleetScheduler::recover(&reparsed, &wal.load().unwrap()).expect("recovery succeeds");
    assert_eq!(fingerprint(&recovered), fingerprint(&reference));
}
