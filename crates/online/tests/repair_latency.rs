//! The latency half of the `online_scenarios` acceptance criteria, in
//! its own test binary: wall-clock ratios need the machine to
//! themselves, and cargo runs test binaries sequentially while tests
//! *within* a binary share it. The sweep and seeds mirror
//! `online_service.rs` (and the experiment binary's defaults).

use tagio_online::scenario::{Scenario, ScenarioConfig};
use tagio_online::service::RepairStrategy;

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

/// One full measurement pass: the sweep-wide mean admission latency of
/// each strategy, with each scenario replayed three times and the best
/// mean kept (replays are deterministic, so the minimum is the fairest
/// filter for scheduler noise).
fn measure() -> (f64, f64) {
    let best = |scenario: &Scenario, strategy: RepairStrategy| {
        (0..3)
            .map(|_| scenario.replay(strategy).mean_admission_micros)
            .fold(f64::INFINITY, f64::min)
    };
    let mut inc_total = 0.0;
    let mut full_total = 0.0;
    let mut points = 0.0;
    for arrivals in default_sweep() {
        for scenario in scenarios_at(arrivals, 2020) {
            inc_total += best(&scenario, RepairStrategy::Incremental);
            full_total += best(&scenario, RepairStrategy::FullResynthesis);
            points += 1.0;
        }
    }
    (inc_total / points, full_total / points)
}

#[test]
fn incremental_is_faster_than_full_resynthesis_on_the_default_sweep() {
    // Latency is the one non-deterministic output, so the bound is
    // asserted on the mean across the whole sweep (hundreds of timed
    // admissions per strategy) and the measurement gets a second strike:
    // a genuine regression fails both passes, while a one-off scheduler
    // stall on a loaded machine does not fail the build.
    //
    // The margin is 1.5x, not the paper's headline gap: the sweep-scan
    // conflict graph and heap-based decomposition made full re-synthesis
    // near-linear too, so at these small sweep sizes the strategies are
    // separated by a constant factor rather than an asymptotic one. The
    // invariant under test is the *ordering* — incremental repair must
    // stay the cheaper admission path.
    let mut measurements = Vec::new();
    for strike in 0..2 {
        let (inc_mean, full_mean) = measure();
        assert!(
            inc_mean > 0.0 && full_mean > 0.0,
            "both strategies must construct schedules"
        );
        measurements.push((inc_mean, full_mean));
        if full_mean >= 1.5 * inc_mean {
            return;
        }
        eprintln!(
            "strike {strike}: full mean {full_mean:.1}us < 1.5x incremental {inc_mean:.1}us, retrying"
        );
    }
    panic!(
        "full re-synthesis is not >= 1.5x slower than incremental repair in either pass: \
         {measurements:?} (us, (incremental, full) per pass)"
    );
}
