//! Every partition's live jobs are the expansion of its active set.
//!
//! An admitted arrival whose period divides the partition's hyper-period
//! merges the newcomer's jobs into the live set (`JobSet::with_task`)
//! instead of expanding every task again; every other state change
//! expands. This suite checks the invariant the merge relies on after
//! every epoch of a churn stream (arrivals, departures, spikes, a mode
//! change, partition deaths, tenants), and again after a restore from a
//! mid-stream snapshot and after every epoch the WAL replays.

use std::collections::BTreeMap;
use tagio_core::event::SystemEvent;
use tagio_core::job::JobSet;
use tagio_core::task::DeviceId;
use tagio_core::time::Duration;
use tagio_online::fleet::{FleetConfig, FleetScheduler};
use tagio_online::persist::FleetSnapshot;
use tagio_online::scenario::{FleetScenario, FleetScenarioConfig};
use tagio_online::wal::{MemoryWal, WalSink, WalSource};

/// Events per `apply_batch` call.
const EPOCH: usize = 8;

/// Asserts the invariant on every partition of `fleet`.
fn assert_live_jobs_expand(fleet: &FleetScheduler, when: &str) {
    for p in fleet.partitions() {
        assert!(
            *p.jobs() == JobSet::expand(p.tasks()),
            "{when}: the live jobs of {} are not the expansion of its {} tasks",
            p.device(),
            p.tasks().len()
        );
    }
}

/// Each partition's active-task count and hyper-period.
fn shapes(fleet: &FleetScheduler) -> BTreeMap<DeviceId, (usize, Duration)> {
    fleet
        .partitions()
        .iter()
        .map(|p| (p.device(), (p.tasks().len(), p.jobs().hyperperiod())))
        .collect()
}

#[test]
fn live_jobs_are_the_expansion_of_the_active_set_after_every_epoch() {
    let cfg = FleetScenarioConfig::builder()
        .partitions(3)
        .base_utilisation(0.45)
        .arrivals(96)
        .departure_permille(300)
        .spike_every(11)
        .mode_change(true)
        .death_every(40)
        .tenants(2)
        .seed(7)
        .build()
        .expect("valid scenario parameters");
    let scenario = FleetScenario::generate(&cfg);
    let events: Vec<SystemEvent> = scenario.events.iter().map(|e| e.event.clone()).collect();
    let kinds = |pick: fn(&SystemEvent) -> bool| events.iter().filter(|e| pick(e)).count();
    let arrivals = kinds(|e| matches!(e, SystemEvent::Arrival(_)));
    let departures = kinds(|e| matches!(e, SystemEvent::Departure(_)));
    let spikes = kinds(|e| matches!(e, SystemEvent::UtilisationSpike { .. }));
    let modes = kinds(|e| matches!(e, SystemEvent::ModeChange(_)));
    let deaths = kinds(|e| matches!(e, SystemEvent::PartitionDeath { .. }));
    assert!(
        arrivals > 50 && departures > 10 && spikes > 3 && modes == 1 && deaths > 1,
        "{arrivals} arrivals, {departures} departures, {spikes} spikes, {modes} mode \
         changes, {deaths} deaths"
    );

    let config = FleetConfig {
        threads: 1,
        tenants: cfg.tenant_registry(),
        ..FleetConfig::default()
    };
    let mut fleet = FleetScheduler::bootstrap(&scenario.bases, config);
    assert_live_jobs_expand(&fleet, "bootstrap");
    let mut wal = MemoryWal::new();
    let mut snapshot = String::new();
    // Partitions that grew by a task at an unchanged hyper-period (the
    // merge's case, unless the epoch also shrank them) and partitions
    // whose hyper-period grew.
    let (mut same_period_growth, mut grown_period) = (0, 0);
    for (k, epoch) in events.chunks(EPOCH).enumerate() {
        let before = shapes(&fleet);
        let _ = fleet.apply_batch(epoch);
        wal.append(&fleet.epoch_record(epoch))
            .expect("in-memory append");
        assert_live_jobs_expand(&fleet, &format!("epoch {}", k + 1));
        for (device, (tasks, hyperperiod)) in shapes(&fleet) {
            let (old_tasks, old_hyperperiod) = before[&device];
            same_period_growth +=
                usize::from(old_tasks > 0 && tasks > old_tasks && hyperperiod == old_hyperperiod);
            grown_period += usize::from(old_tasks > 0 && hyperperiod > old_hyperperiod);
        }
        if k == 4 {
            snapshot = fleet.snapshot().write();
        }
    }
    assert!(
        same_period_growth > 10 && grown_period > 0,
        "{same_period_growth} same-period growths, {grown_period} grown hyper-periods"
    );

    let snapshot = FleetSnapshot::parse(&snapshot).expect("the fleet's own snapshot parses");
    let mut restored = snapshot
        .restore()
        .expect("the fleet's own snapshot restores");
    assert_live_jobs_expand(&restored, "restore");
    let log = wal.load().expect("the fleet's own WAL loads");
    let mut replayed = 0;
    for record in log.epochs.iter().filter(|r| r.epoch > snapshot.epoch) {
        let _ = restored.apply_batch(&record.events);
        assert_live_jobs_expand(&restored, &format!("replayed epoch {}", record.epoch));
        replayed += 1;
    }
    assert!(replayed > 5, "{replayed} epochs replayed");
    for (got, want) in restored.partitions().iter().zip(fleet.partitions()) {
        assert_eq!(got.schedule(), want.schedule(), "{}", want.device());
        assert!(got.jobs() == want.jobs(), "{}", want.device());
    }
}
