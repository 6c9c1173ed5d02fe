//! Multi-partition online scheduling: **placement policies on a fleet vs.
//! a single partition at equal aggregate load**.
//!
//! Each system is a seeded [`FleetScenario`] — per-device base workloads
//! plus one fleet-wide event stream whose arrivals carry skewed origin
//! devices — replayed through a
//! [`FleetScheduler`](tagio_online::fleet::FleetScheduler) once per
//! placement policy, and once more
//! *collapsed* onto a single partition (identical events and base tasks,
//! one device's capacity): the `single` baseline column. The sweep axis
//! combines partition count and arrival count (`PxA` labels), so the
//! table reads as partition count × arrival rate × placement policy.
//!
//! Reported per method:
//!
//! * `acceptance` — fleet-unique admitted / routed arrivals (the
//!   headline: every fleet column must sit at or above `single` at the
//!   same point — pinned by `crates/online/tests/fleet.rs`);
//! * `retries` / `retry_adm` — cross-partition re-offers attempted, and
//!   admissions that needed one;
//! * `migrations` — admissions on a partition other than the arrival's
//!   origin device;
//! * `repair_latency_us` — mean admission-construction latency across
//!   all partitions (wall clock, **not deterministic** across runs);
//! * `psi` / `upsilon` — mean live-schedule quality over busy
//!   partitions after the stream;
//! * `shed` — tasks dropped fleet-wide to survive spikes;
//! * `rej_overload` / `rej_infeasible` — final rejection causes carried
//!   through the retry chain (admission gate vs. failed integration).
//!
//! Replays batch 4 events per epoch and run each fleet single-threaded
//! inside the method (the experiment engine already parallelises across
//! systems); results are identical for any thread split.
//!
//! Flags: `--systems N` (scenarios per point), `--seed N`, `--threads N`
//! (worker pool, `0` = all cores), `--json`. JSON schema: EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p tagio-bench --bin fleet_scenarios -- --systems 5
//! ```

use tagio_bench::{Method, Options, Outcome, Runner, Sweep};
use tagio_online::fleet::{FleetConfig, PlacementPolicy};
use tagio_online::scenario::{FleetReplayOutcome, FleetScenario, FleetScenarioConfig};

/// Events per routing epoch during replay.
const BATCH: usize = 4;

/// The default fleet sweep (shared with `crates/online/tests/fleet.rs`):
/// (partitions, arrivals) pairs, labelled `PxA`.
const SWEEP: [(u32, usize); 4] = [(2, 8), (2, 16), (4, 16), (4, 32)];

fn metrics(out: &FleetReplayOutcome) -> Outcome {
    // One schema for every consumer: the column names come from
    // `FleetReplayOutcome::metric_set`, not from a binary-local list
    // that could drift.
    Outcome::with_metrics(out.metric_set())
}

fn fleet_config(policy: PlacementPolicy) -> FleetConfig {
    FleetConfig {
        policy,
        threads: 1, // the engine parallelises across systems instead
        ..FleetConfig::default()
    }
}

fn policy_method(policy: PlacementPolicy) -> Method<FleetScenario> {
    Method::new(policy.as_str(), move |scenario: &FleetScenario, _| {
        metrics(&scenario.replay(fleet_config(policy), BATCH))
    })
}

/// The equal-aggregate-load baseline: the same scenario collapsed onto
/// one partition (best-fit routing is irrelevant with one target).
fn single_method() -> Method<FleetScenario> {
    Method::new("single", |scenario: &FleetScenario, _| {
        metrics(
            &scenario
                .collapsed()
                .replay(fleet_config(PlacementPolicy::BestFit), BATCH),
        )
    })
}

fn main() {
    let opts = Options::from_args();
    opts.reject_budgets_override("fleet_scenarios");
    opts.reject_methods_override("fleet_scenarios");
    opts.reject_ga_budget_override("fleet_scenarios"); // no GA here
    let title = format!(
        "fleet scenarios — placement policies vs a single partition ({} scenarios/point)",
        opts.systems
    );
    let sweep = Sweep::labelled(
        "fleet",
        SWEEP.map(|(partitions, arrivals)| {
            (
                format!("{partitions}x{arrivals}"),
                f64::from(partitions) * 1000.0 + arrivals as f64,
            )
        }),
    );
    let methods = vec![
        policy_method(PlacementPolicy::FirstFit),
        policy_method(PlacementPolicy::BestFit),
        policy_method(PlacementPolicy::Rebalance),
        single_method(),
    ];
    let seed = opts.seed;
    let systems = opts.systems;
    let report = Runner::new(title, opts.clone()).run(
        &sweep,
        |point| {
            // Decode the combined axis (partitions * 1000 + arrivals).
            let partitions = (point.x / 1000.0) as u32;
            let arrivals = (point.x as usize) % 1000;
            (0..systems)
                .map(|i| {
                    FleetScenario::generate(&FleetScenarioConfig {
                        partitions,
                        arrivals,
                        seed: seed
                            .wrapping_mul(1_000_003)
                            .wrapping_add(arrivals as u64 * 7919)
                            .wrapping_add(u64::from(partitions) * 104_729)
                            .wrapping_add(i as u64),
                        ..FleetScenarioConfig::default()
                    })
                })
                .collect::<Vec<_>>()
        },
        &methods,
    );
    report.emit(tagio_bench::Report::render_table);
}
