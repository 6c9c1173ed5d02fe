//! Scenario-driven regression tests of the online scheduling service.
//!
//! The headline assertions mirror the `online_scenarios` experiment's
//! acceptance criteria on its default arrival sweep: across seeded
//! scenarios, incremental repair must admit **at least** as many tasks as
//! the always-re-synthesise baseline. The latency half (full
//! re-synthesis at least 1.5× slower on wall-clock means, with a second
//! strike) lives in `repair_latency.rs`. Scenarios are pure functions of
//! their seeds, so everything except wall-clock latency is
//! bit-reproducible.

use tagio_core::task::TaskId;
use tagio_online::scenario::{Scenario, ScenarioConfig};
use tagio_online::service::RepairStrategy;

/// The default arrival sweep shared with the `online_scenarios` binary:
/// arrival counts per scenario, each replayed over a few seeds.
fn default_sweep() -> Vec<usize> {
    vec![4, 8, 12, 16]
}

fn scenarios_at(arrivals: usize, base_seed: u64) -> Vec<Scenario> {
    (0..3)
        .map(|i| {
            Scenario::generate(&ScenarioConfig {
                arrivals,
                seed: base_seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add(arrivals as u64 * 7919)
                    .wrapping_add(i),
                ..ScenarioConfig::default()
            })
        })
        .collect()
}

#[test]
fn incremental_accepts_at_least_the_full_resynthesis_count() {
    for arrivals in default_sweep() {
        for scenario in scenarios_at(arrivals, 2020) {
            let inc = scenario.replay(RepairStrategy::Incremental);
            let full = scenario.replay(RepairStrategy::FullResynthesis);
            assert!(
                inc.admitted >= full.admitted,
                "arrivals={arrivals}: incremental admitted {} < full {}",
                inc.admitted,
                full.admitted
            );
            // Both replays end on a valid schedule with bounded metrics.
            for out in [&inc, &full] {
                assert!(out.admitted <= out.arrivals);
                assert!((0.0..=1.0).contains(&out.psi));
            }
        }
    }
}

#[test]
fn replays_are_reproducible_across_runs() {
    let scenario = Scenario::generate(&ScenarioConfig {
        arrivals: 16,
        seed: 77,
        ..ScenarioConfig::default()
    });
    let a = scenario.replay(RepairStrategy::Incremental);
    let b = scenario.replay(RepairStrategy::Incremental);
    assert_eq!(a.admitted, b.admitted);
    assert_eq!(a.repairs, b.repairs);
    assert_eq!(a.resyntheses, b.resyntheses);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.psi.to_bits(), b.psi.to_bits());
    assert_eq!(a.upsilon.to_bits(), b.upsilon.to_bits());
}

#[test]
fn quality_degradation_is_bounded_and_repairs_dominate() {
    // At the default base utilisation the incremental path should do the
    // overwhelming share of its integrations as repairs, and the final
    // schedule should stay close to the bootstrap quality.
    let mut repairs = 0usize;
    let mut resyntheses = 0usize;
    for scenario in scenarios_at(16, 2020) {
        let out = scenario.replay(RepairStrategy::Incremental);
        repairs += out.repairs;
        resyntheses += out.resyntheses;
        // An FPS-guarantee admission deliberately trades all of Ψ for
        // acceptance; only bound the drop when that tier never fired.
        if out.fps_fallbacks == 0 {
            assert!(
                out.psi_drop <= 0.6,
                "psi dropped by {} over one scenario",
                out.psi_drop
            );
        }
    }
    assert!(
        repairs > resyntheses,
        "expected repair to dominate: {repairs} repairs vs {resyntheses} re-syntheses"
    );
}

#[test]
fn trace_dump_replays_identically_through_parse() {
    // The regression-harness contract: a scenario serialised to its text
    // trace and parsed back drives the service to the same final state.
    let scenario = Scenario::generate(&ScenarioConfig {
        arrivals: 10,
        seed: 5,
        ..ScenarioConfig::default()
    });
    let reparsed = Scenario {
        device: scenario.device,
        base: scenario.base.clone(),
        events: tagio_online::scenario::parse_trace(&tagio_online::scenario::format_trace(
            &scenario.events,
        ))
        .expect("own trace parses"),
    };
    let a = scenario.replay(RepairStrategy::Incremental);
    let b = reparsed.replay(RepairStrategy::Incremental);
    assert_eq!(a.admitted, b.admitted);
    assert_eq!(a.psi.to_bits(), b.psi.to_bits());
}

#[test]
fn heavy_spike_sheds_and_leaves_a_valid_schedule() {
    // Drive a grown system into a 3x overload: whatever the service
    // sheds, the surviving schedule must stay feasible, the shed +
    // survivor sets must partition the pre-spike set, and relief must
    // not resurrect shed tasks.
    let scenario = Scenario::generate(&ScenarioConfig {
        arrivals: 12,
        spike_every: 0,
        mode_change: false,
        departure_permille: 0,
        seed: 3,
        ..ScenarioConfig::default()
    });
    let mut svc =
        tagio_online::service::OnlineScheduler::bootstrap(scenario.device, scenario.base.clone())
            .expect("base bootstraps");
    for ev in &scenario.events {
        let _ = svc.apply(&ev.event);
    }
    let before: Vec<TaskId> = svc.tasks().iter().map(|t| t.id()).collect();
    let outcome = svc.apply(&tagio_core::event::SystemEvent::UtilisationSpike {
        device: scenario.device,
        percent: 300,
    });
    let tagio_online::service::EventOutcome::SpikeApplied { shed, .. } = outcome else {
        panic!("expected SpikeApplied, got {outcome:?}");
    };
    assert!(!shed.is_empty(), "a 3x spike on a grown system must shed");
    let after: Vec<TaskId> = svc.tasks().iter().map(|t| t.id()).collect();
    assert_eq!(after.len() + shed.len(), before.len());
    for id in &shed {
        assert!(before.contains(id) && !after.contains(id));
    }
    assert_eq!(svc.stats().shed, shed.len());
    svc.schedule().validate(svc.jobs()).unwrap();
    // Relief: survivors return to nominal WCETs, shed tasks stay gone.
    svc.apply(&tagio_core::event::SystemEvent::UtilisationSpike {
        device: scenario.device,
        percent: 100,
    });
    assert_eq!(
        svc.tasks().iter().map(|t| t.id()).collect::<Vec<_>>(),
        after
    );
    svc.schedule().validate(svc.jobs()).unwrap();
}
