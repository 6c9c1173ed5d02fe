//! The repair ladder's work on a small rejection storm, pinned.
//!
//! [`LadderWork`] counts work, not time, so a fixed seeded stream gives
//! the same counts on any machine and at any pool width. This test
//! replays four small fleets at base utilisation 0.9 (arrivals only, as
//! on the `fleet-u90-reject` benchmark workload, where most integrations
//! fail both ladder tiers) and pins every counter exactly. A change that
//! moves a count re-pins it here and says why; a count that rises is
//! work the change added.

use tagio_core::event::SystemEvent;
use tagio_core::Metrics;
use tagio_online::fleet::{FleetConfig, FleetScheduler};
use tagio_online::scenario::{FleetScenario, FleetScenarioConfig};
use tagio_sched::heuristic::LadderWork;

#[test]
fn rejection_storm_work_is_pinned() {
    let mut work = LadderWork::default();
    let mut admitted = 0;
    for seed in 1..=4 {
        let cfg = FleetScenarioConfig::builder()
            .partitions(4)
            .base_utilisation(0.9)
            .arrivals(32)
            .departure_permille(0)
            .spike_every(0)
            .mode_change(false)
            .seed(seed)
            .build()
            .expect("valid storm parameters");
        let scenario = FleetScenario::generate(&cfg);
        let config = FleetConfig {
            threads: 2,
            ..FleetConfig::default()
        };
        let mut fleet = FleetScheduler::bootstrap(&scenario.bases, config);
        let events: Vec<SystemEvent> = scenario.events.iter().map(|e| e.event.clone()).collect();
        for epoch in events.chunks(16) {
            let _ = fleet.apply_batch(epoch);
        }
        work.merge(&fleet.ladder_work());
        admitted += fleet.aggregate_stats().admitted;
    }
    // The decisions behind the counts: 51 of the 128 arrivals admitted.
    assert_eq!(admitted, 51);
    assert_eq!(
        work,
        LadderWork {
            allocate_calls: 57_731,
            lccd_rankings: 32_108,
            prefilter_visits: 486_573,
            contention_pairs: 1_069_337,
            shift_calls: 10_915,
            shift_candidates: 50_394,
            dry_run_passes: 10_309,
            neighbourhood_rounds: 427,
            resyntheses: 136,
            conflict_edges: 84_118,
        }
    );
}
