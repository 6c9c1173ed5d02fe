//! Multi-tenant heavy traffic: **QoS contracts vs an open fleet**.
//!
//! Each system is a seeded tenant-tagged [`FleetScenario`]: Zipf tenant
//! popularity (hot tenants dominate), a diurnal load curve (demand
//! swings 0.5×–1.5× over the stream), and correlated burst storms (a
//! drawn tenant pins a run of arrivals onto one origin device). Fleets
//! sweep well past the `fleet_scenarios` sizes — up to 16 partitions ×
//! 192 arrivals — so the router's tenant gates run saturated.
//!
//! Two methods replay identical traffic:
//!
//! * `qos` — the scenario's tenant contracts enforced
//!   ([`FleetScenarioConfig::tenant_registry`]: the hottest tenants run
//!   best-effort on half-share quotas, the rest guaranteed), so the
//!   router applies hard quota gates plus deficit-weighted fair
//!   admission under saturation;
//! * `open` — the trivial registry: same tagged traffic, no contracts,
//!   every tenant competes unchecked (the pre-tenant fleet behaviour).
//!
//! On top of the shared fleet schema
//! ([`FleetReplayOutcome::metric_set`]), each tenant contributes four
//! trailing columns — `tn<k>_acceptance`, `tn<k>_shed`, `tn<k>_rej`,
//! `tn<k>_psi` — so the table shows exactly who pays for saturation:
//! under `qos` the best-effort hot tenants absorb the rejections while
//! guaranteed tenants hold their acceptance; under `open` the pain
//! spreads indiscriminately.
//!
//! Flags: `--systems N` (scenarios per point), `--seed N`, `--threads N`
//! (worker pool, `0` = all cores), `--json`. JSON schema: EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p tagio-bench --bin tenant_scenarios -- --systems 5
//! ```

use tagio_bench::{Method, Options, Outcome, Runner, Sweep};
use tagio_online::fleet::FleetConfig;
use tagio_online::scenario::{FleetReplayOutcome, FleetScenario, FleetScenarioConfig};
use tagio_online::tenant::TenantRegistry;

/// Events per routing epoch during replay.
const BATCH: usize = 4;

/// The heavy-traffic sweep: (partitions, arrivals) pairs, labelled
/// `PxA` — deliberately beyond the largest `fleet_scenarios` point
/// (4x32), so aggregate demand outruns fleet headroom.
const SWEEP: [(u32, usize); 3] = [(4, 64), (8, 128), (16, 192)];

/// Tenants per scenario; the hottest [`BEST_EFFORT`] run best-effort.
const TENANTS: u32 = 6;
const BEST_EFFORT: u32 = 2;

fn scenario_config(partitions: u32, arrivals: usize, seed: u64) -> FleetScenarioConfig {
    FleetScenarioConfig {
        partitions,
        arrivals,
        seed,
        tenants: TENANTS,
        best_effort_tenants: BEST_EFFORT,
        tenant_zipf: 1.1,
        diurnal_period: 32,
        burst_every: 16,
        ..FleetScenarioConfig::default()
    }
}

fn metrics(out: &FleetReplayOutcome) -> Outcome {
    // The shared fleet schema plus four per-tenant columns, named by
    // `FleetReplayOutcome::metric_set` — never a binary-local list.
    Outcome::with_metrics(out.metric_set())
}

fn replay(scenario: &FleetScenario, registry: TenantRegistry) -> FleetReplayOutcome {
    scenario.replay(
        FleetConfig {
            threads: 1, // the engine parallelises across systems instead
            tenants: registry,
            ..FleetConfig::default()
        },
        BATCH,
    )
}

/// QoS contracts on: the scenario's implied registry gates the router.
fn qos_method() -> Method<(FleetScenario, TenantRegistry)> {
    Method::new(
        "qos",
        |(scenario, registry): &(FleetScenario, TenantRegistry), _| {
            metrics(&replay(scenario, registry.clone()))
        },
    )
}

/// Contracts off: identical tagged traffic through the trivial registry.
fn open_method() -> Method<(FleetScenario, TenantRegistry)> {
    Method::new(
        "open",
        |(scenario, _): &(FleetScenario, TenantRegistry), _| {
            metrics(&replay(scenario, TenantRegistry::new()))
        },
    )
}

fn main() {
    let opts = Options::from_args();
    opts.reject_budgets_override("tenant_scenarios");
    opts.reject_methods_override("tenant_scenarios");
    opts.reject_ga_budget_override("tenant_scenarios"); // no GA here
    let title = format!(
        "tenant scenarios — QoS contracts vs an open fleet under heavy traffic ({} scenarios/point)",
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
    let methods = vec![qos_method(), open_method()];
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
                    let config = scenario_config(
                        partitions,
                        arrivals,
                        seed.wrapping_mul(1_000_003)
                            .wrapping_add(arrivals as u64 * 7919)
                            .wrapping_add(u64::from(partitions) * 104_729)
                            .wrapping_add(i as u64),
                    );
                    (FleetScenario::generate(&config), config.tenant_registry())
                })
                .collect::<Vec<_>>()
        },
        &methods,
    );
    report.emit(tagio_bench::Report::render_table);
}
