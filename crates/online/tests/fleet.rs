//! Fleet-level regression tests: thread-count determinism, cross-
//! partition retry monotonicity, the scaling headline — a fleet admits
//! at least as much as a single partition offered the same aggregate
//! load — and ownership across a same-batch restart.
//!
//! Everything here is a pure function of the scenario seeds (wall-clock
//! latencies are deliberately excluded from every comparison).

use std::collections::BTreeMap;
use tagio_core::event::SystemEvent;
use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
use tagio_core::time::Duration;
use tagio_online::fleet::{FleetConfig, FleetScheduler, PlacementPolicy};
use tagio_online::scenario::{FleetScenario, FleetScenarioConfig};
use tagio_online::service::{EventOutcome, OnlineStats};

/// The default fleet sweep shared with the `fleet_scenarios` binary:
/// (partitions, arrivals) per scenario.
fn default_sweep() -> Vec<(u32, usize)> {
    vec![(2, 8), (2, 16), (4, 16), (4, 32)]
}

fn scenarios_at(partitions: u32, arrivals: usize, base_seed: u64) -> Vec<FleetScenario> {
    (0..2)
        .map(|i| {
            FleetScenario::generate(&FleetScenarioConfig {
                partitions,
                arrivals,
                seed: base_seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add(arrivals as u64 * 7919)
                    .wrapping_add(u64::from(partitions) * 104_729)
                    .wrapping_add(i),
                ..FleetScenarioConfig::default()
            })
        })
        .collect()
}

/// The deterministic slice of [`OnlineStats`] (wall-clock fields out).
fn deterministic_stats(stats: &OnlineStats) -> impl PartialEq + std::fmt::Debug {
    (
        (stats.arrivals, stats.admitted, stats.rejected),
        (stats.fast_rejects, stats.reject_causes.clone()),
        (stats.repairs, stats.resyntheses, stats.fps_fallbacks),
        (stats.shed, stats.shed_overload, stats.shed_infeasible),
        (stats.departures, stats.mode_changes, stats.spikes),
        (stats.repair_events, stats.admission_events),
    )
}

/// Replays `scenario` and returns the fleet for post-mortem inspection.
fn run(scenario: &FleetScenario, config: FleetConfig, batch: usize) -> FleetScheduler {
    let mut fleet = FleetScheduler::bootstrap(&scenario.bases, config);
    let stream: Vec<_> = scenario.events.iter().map(|e| e.event.clone()).collect();
    for chunk in stream.chunks(batch) {
        let _ = fleet.apply_batch(chunk);
    }
    fleet
}

#[test]
fn thread_count_never_changes_schedules_or_stats() {
    for policy in PlacementPolicy::ALL {
        for (partitions, arrivals) in default_sweep() {
            for scenario in scenarios_at(partitions, arrivals, 2020) {
                let config = |threads| FleetConfig {
                    policy,
                    threads,
                    ..FleetConfig::default()
                };
                let serial = run(&scenario, config(1), 4);
                let wide = run(&scenario, config(4), 4);
                // Fleet counters are bit-identical...
                assert_eq!(serial.stats(), wide.stats(), "policy {policy}");
                // ...and so is every partition: schedule and stats.
                for (a, b) in serial.partitions().iter().zip(wide.partitions()) {
                    assert_eq!(a.device(), b.device());
                    assert_eq!(
                        a.schedule(),
                        b.schedule(),
                        "policy {policy}, partition {:?}",
                        a.device()
                    );
                    assert_eq!(a.tasks().len(), b.tasks().len());
                    assert_eq!(
                        deterministic_stats(a.stats()),
                        deterministic_stats(b.stats())
                    );
                    assert_eq!(a.psi().to_bits(), b.psi().to_bits());
                    assert_eq!(a.upsilon().to_bits(), b.upsilon().to_bits());
                }
            }
        }
    }
}

/// Lane-phase and retry-wave offers commit through one path: a lane-phase
/// admission reports one attempt (with no retry budget, every admission
/// is one), and `retry_admissions` counts exactly the admitted outcomes
/// that took more.
#[test]
fn retry_admissions_count_exactly_the_admitted_retries() {
    let mut retried_anywhere = 0;
    for policy in PlacementPolicy::ALL {
        for (partitions, arrivals) in default_sweep() {
            for scenario in scenarios_at(partitions, arrivals, 2020) {
                for (retries, threads) in [(0, 1), (1, 1), (1, 4), (partitions as usize, 4)] {
                    let config = FleetConfig {
                        policy,
                        retries,
                        threads,
                        ..FleetConfig::default()
                    };
                    let mut fleet = FleetScheduler::bootstrap(&scenario.bases, config);
                    let stream: Vec<_> = scenario.events.iter().map(|e| e.event.clone()).collect();
                    let (mut first, mut retried) = (0, 0);
                    for chunk in stream.chunks(4) {
                        for out in fleet.apply_batch(chunk) {
                            if matches!(out.outcome, EventOutcome::Admitted { .. }) {
                                match out.attempts {
                                    1 => first += 1,
                                    n => {
                                        assert!(n > 1 && retries > 0, "policy {policy}: {out:?}");
                                        retried += 1;
                                    }
                                }
                            }
                        }
                    }
                    let stats = fleet.stats();
                    assert_eq!(stats.retry_admissions, retried, "policy {policy}");
                    assert_eq!(stats.admitted, first + retried, "policy {policy}");
                    retried_anywhere += retried;
                }
            }
        }
    }
    assert!(
        retried_anywhere > 0,
        "the sweep must exercise retry admissions"
    );
}

#[test]
fn cross_partition_retry_never_reduces_acceptance() {
    for (partitions, arrivals) in default_sweep() {
        for scenario in scenarios_at(partitions, arrivals, 77) {
            let config = |retries| FleetConfig {
                policy: PlacementPolicy::FirstFit,
                retries,
                threads: 1,
                ..FleetConfig::default()
            };
            let without = run(&scenario, config(0), 4);
            let with = run(&scenario, config(partitions as usize), 4);
            assert!(
                with.stats().admitted >= without.stats().admitted,
                "partitions={partitions} arrivals={arrivals}: retry admitted {} < {}",
                with.stats().admitted,
                without.stats().admitted,
            );
            assert_eq!(with.stats().arrivals, without.stats().arrivals);
        }
    }
}

#[test]
fn fleet_accepts_at_least_the_single_partition_baseline() {
    // The scaling headline: at equal aggregate load (identical event
    // stream, identical base task sets) a multi-partition fleet admits
    // at least as many arrivals as one partition holding everything.
    for (partitions, arrivals) in default_sweep() {
        for scenario in scenarios_at(partitions, arrivals, 2020) {
            let config = FleetConfig {
                policy: PlacementPolicy::BestFit,
                threads: 1,
                ..FleetConfig::default()
            };
            let fleet = run(&scenario, config.clone(), 4);
            let single = run(&scenario.collapsed(), config, 4);
            assert_eq!(fleet.stats().arrivals, single.stats().arrivals);
            assert!(
                fleet.stats().admitted >= single.stats().admitted,
                "partitions={partitions} arrivals={arrivals}: fleet {} < single {}",
                fleet.stats().admitted,
                single.stats().admitted,
            );
        }
    }
}

#[test]
fn skewed_traffic_benefits_from_load_spreading_policies() {
    // Under a fully-skewed arrival stream the affinity policy piles work
    // on the hot device; the spreading policies must do no worse.
    let scenario = FleetScenario::generate(&FleetScenarioConfig {
        partitions: 4,
        arrivals: 24,
        skew: 1.0,
        base_utilisation: 0.5,
        seed: 11,
        ..FleetScenarioConfig::default()
    });
    let admitted = |policy| {
        let fleet = run(
            &scenario,
            FleetConfig {
                policy,
                retries: 0,
                threads: 1,
                ..FleetConfig::default()
            },
            4,
        );
        fleet.stats().admitted
    };
    assert!(admitted(PlacementPolicy::BestFit) >= admitted(PlacementPolicy::FirstFit));
    assert!(admitted(PlacementPolicy::Rebalance) >= admitted(PlacementPolicy::FirstFit));
}

#[test]
fn batch_size_one_matches_whole_stream_epochs_on_admissions() {
    // Batching granularity may shift *which* partition sees an arrival
    // first (routing snapshots are per epoch), but the pipeline itself
    // must stay deterministic for a fixed batch size.
    let scenario = FleetScenario::generate(&FleetScenarioConfig {
        partitions: 2,
        arrivals: 12,
        seed: 5,
        ..FleetScenarioConfig::default()
    });
    let config = FleetConfig {
        threads: 1,
        ..FleetConfig::default()
    };
    let a = run(&scenario, config.clone(), 3);
    let b = run(&scenario, config, 3);
    assert_eq!(a.stats(), b.stats());
    for (x, y) in a.partitions().iter().zip(b.partitions()) {
        assert_eq!(x.schedule(), y.schedule());
    }
}

fn mk(id: u32, device: u32, period_ms: u64, wcet_us: u64, delta_ms: u64) -> IoTask {
    IoTask::builder(TaskId(id), DeviceId(device))
        .wcet(Duration::from_micros(wcet_us))
        .period(Duration::from_millis(period_ms))
        .ideal_offset(Duration::from_millis(delta_ms))
        .margin(Duration::from_millis(period_ms) / 8)
        .quality(f64::from(id) + 1.0, 0.0)
        .build()
        .unwrap()
}

#[test]
fn same_batch_restart_to_lower_partition_keeps_ownership() {
    let mut bases = BTreeMap::new();
    bases.insert(
        DeviceId(0),
        vec![mk(0, 0, 8, 500, 2)].into_iter().collect::<TaskSet>(),
    );
    bases.insert(
        DeviceId(1),
        vec![mk(1, 1, 8, 500, 3)].into_iter().collect::<TaskSet>(),
    );
    let mut fleet = FleetScheduler::bootstrap(
        &bases,
        FleetConfig {
            policy: PlacementPolicy::FirstFit,
            threads: 1,
            ..FleetConfig::default()
        },
    );
    // Task 1 is owned by partition 1. Restart it in one batch with
    // affinity for device 0: the arrival routes to partition 0 (lower
    // index), the departure to partition 1.
    let _ = fleet.apply_batch(&[
        SystemEvent::Departure(TaskId(1)),
        SystemEvent::Arrival(mk(1, 0, 8, 400, 2)),
    ]);
    // The task is live on partition 0, so the fleet must still know its owner.
    assert_eq!(fleet.owner_of(TaskId(1)), Some(DeviceId(0)));
    // And a later same-id arrival must be duplicate-rejected, not admitted twice.
    let out = fleet.apply(&SystemEvent::Arrival(mk(1, 1, 8, 400, 3)));
    assert!(matches!(out.outcome, EventOutcome::Rejected { .. }));
}
