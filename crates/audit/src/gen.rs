//! Deterministic artifact generation (`audit gen`).
//!
//! Runs a short, fixed recovery scenario — tenanted arrivals across
//! three partitions, a utilisation spike, a departure and a partition
//! death — and emits the resulting snapshot, WAL and event trace. The
//! same generator feeds the committed goldens under
//! `tests/golden/audit/`, the mutation suites, and the CI gate that
//! audits freshly produced artifacts.

use std::collections::BTreeMap;
use tagio_core::event::{SystemEvent, TimedEvent};
use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
use tagio_core::time::{Duration, Time};
use tagio_online::codec::format_trace;
use tagio_online::wal::{format_record, parse_wal};
use tagio_online::{
    FleetConfig, FleetScheduler, FleetSnapshot, TenantId, TenantRegistry, TenantSpec, WalContents,
};

/// Everything one generator run produces, in both parsed and text
/// form (the text forms are exactly what `audit gen` writes to disk).
#[derive(Debug, Clone)]
pub struct GeneratedArtifacts {
    /// Mid-run checkpoint (after epoch 2 of 4): the WAL suffix replays
    /// a spike, a departure and a partition death on top of it.
    pub snapshot: FleetSnapshot,
    /// `snapshot.write()`.
    pub snapshot_text: String,
    /// All four epochs, in order.
    pub wal: WalContents,
    /// The WAL byte stream (concatenated `format_record`s).
    pub wal_text: String,
    /// The same events as a timed trace (1 ms per epoch).
    pub trace_text: String,
    /// Parsed trace events.
    pub events: Vec<TimedEvent>,
}

fn task(id: u32, device: u32, delta_ms: u64, tenant: u32) -> IoTask {
    let mut b = IoTask::builder(TaskId(id), DeviceId(device))
        .wcet(Duration::from_micros(400))
        .period(Duration::from_millis(8))
        .ideal_offset(Duration::from_millis(delta_ms))
        .margin(Duration::from_millis(1))
        .quality(f64::from(id) + 1.0, 0.0);
    if tenant != 0 {
        b = b.tenant(TenantId(tenant));
    }
    b.build()
        .expect("generator tasks are valid by construction")
}

/// The four scripted epochs.
#[must_use]
pub fn batches() -> Vec<Vec<SystemEvent>> {
    vec![
        vec![
            SystemEvent::Arrival(task(10, 0, 2, 1)),
            SystemEvent::Arrival(task(11, 1, 3, 2)),
            SystemEvent::Arrival(task(12, 2, 4, 2)),
            SystemEvent::Arrival(task(13, 0, 5, 0)),
        ],
        vec![
            SystemEvent::Arrival(task(14, 1, 6, 1)),
            SystemEvent::Departure(TaskId(13)),
        ],
        vec![
            SystemEvent::UtilisationSpike {
                device: DeviceId(0),
                percent: 130,
            },
            SystemEvent::Arrival(task(15, 2, 2, 2)),
        ],
        vec![
            SystemEvent::PartitionDeath {
                device: DeviceId(2),
            },
            SystemEvent::Arrival(task(16, 0, 3, 2)),
        ],
    ]
}

/// Builds the scripted fleet at epoch 0.
#[must_use]
pub fn fleet() -> FleetScheduler {
    let mut registry = TenantRegistry::new();
    registry.register(TenantId(1), TenantSpec::guaranteed(500_000));
    registry.register(TenantId(2), TenantSpec::best_effort(200_000).with_weight(2));
    let mut bases = BTreeMap::new();
    for device in 0..3u32 {
        let base: TaskSet = vec![task(device, device, 2 + u64::from(device), 0)]
            .into_iter()
            .collect();
        bases.insert(DeviceId(device), base);
    }
    FleetScheduler::bootstrap(
        &bases,
        FleetConfig {
            threads: 1,
            tenants: registry,
            ..FleetConfig::default()
        },
    )
}

/// Runs the scenario and captures every artifact.
///
/// # Panics
/// Panics only if the generator's own fixed scenario stops producing
/// a parseable WAL — a regression the test suite would catch.
#[must_use]
pub fn generate() -> GeneratedArtifacts {
    let mut live = fleet();
    let mut wal_text = String::new();
    let mut snapshot = None;
    let mut events = Vec::new();
    for (i, batch) in batches().iter().enumerate() {
        for event in batch {
            events.push(TimedEvent {
                at: Time::from_millis((i + 1) as u64),
                event: event.clone(),
            });
        }
        let _ = live.apply_batch(batch);
        wal_text.push_str(&format_record(&live.epoch_record(batch)));
        if i == 1 {
            snapshot = Some(live.snapshot());
        }
    }
    let snapshot = snapshot.expect("scenario has more than two epochs");
    let snapshot_text = snapshot.write();
    let wal = parse_wal(&wal_text).expect("generator WAL parses");
    let trace_text = format_trace(&events);
    GeneratedArtifacts {
        snapshot,
        snapshot_text,
        wal,
        wal_text,
        trace_text,
        events,
    }
}
