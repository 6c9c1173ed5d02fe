//! Online scheduling under streaming events: **incremental repair vs.
//! full re-synthesis** on arrival-rate sweeps.
//!
//! Each system is a seeded [`Scenario`] — a paper-§V.A base workload plus
//! a stream of arrivals, departures, a mode change and utilisation
//! spikes — replayed through the `tagio-online` service twice: once with
//! the incremental-repair strategy (repair → neighbourhood repair → full
//! re-synthesis → FPS guarantee) and once always re-synthesising from
//! scratch. Reported per method:
//!
//! * `acceptance` — admitted / attempted arrivals;
//! * `repair_latency_us` — mean wall-clock admission-construction
//!   latency (incremental should sit below full re-synthesis on this
//!   default sweep; `tagio-online`'s `repair_latency.rs` asserts full
//!   re-synthesis is at least 1.5× slower on the sweep-wide wall-clock
//!   means, with a second strike), **not deterministic** across runs;
//! * `psi` / `upsilon` — the live schedule's quality after the stream;
//! * `psi_drop` — Ψ degradation versus the bootstrapped base schedule;
//! * `shed` — tasks dropped to survive overload spikes, split into
//!   `shed_overload` (decided by arithmetic) and `shed_infeasible`
//!   (construction kept failing) from the solvers' diagnostics;
//! * `rej_overload` / `rej_infeasible` — arrival rejections by
//!   diagnostic cause (admission gate vs. failed integration).
//!
//! The sweep axis is the number of arrival attempts per scenario.
//! Scenario event-trace format and JSON schema: EXPERIMENTS.md.
//!
//! Flags: `--systems N` (scenarios per point) `--seed N`, `--threads N`
//! (worker pool, `0` = all cores), `--json`.
//!
//! ```text
//! cargo run --release -p tagio-bench --bin online_scenarios -- --systems 10
//! ```

use tagio_bench::{Method, Options, Outcome, Runner, Sweep};
use tagio_online::scenario::{Scenario, ScenarioConfig};
use tagio_online::service::RepairStrategy;

fn strategy_method(name: &str, strategy: RepairStrategy) -> Method<Scenario> {
    Method::new(name, move |scenario: &Scenario, _| {
        let out = scenario.replay(strategy);
        Outcome::with_metrics(vec![
            ("acceptance", out.acceptance),
            ("repair_latency_us", out.mean_admission_micros),
            ("psi", out.psi),
            ("upsilon", out.upsilon),
            ("psi_drop", out.psi_drop),
            ("shed", out.shed as f64),
            // Shed/reject reasons from the solvers' Infeasible
            // diagnostics: arithmetic overload vs. failed construction.
            ("shed_overload", out.shed_overload as f64),
            ("shed_infeasible", out.shed_infeasible as f64),
            ("rej_overload", out.reject_overload as f64),
            ("rej_infeasible", out.reject_infeasible as f64),
        ])
    })
}

fn main() {
    let opts = Options::from_args();
    opts.reject_budgets_override("online_scenarios");
    opts.reject_methods_override("online_scenarios");
    opts.reject_ga_budget_override("online_scenarios"); // no GA here
    let title = format!(
        "online scenarios — incremental repair vs full re-synthesis ({} scenarios/point)",
        opts.systems
    );
    // The default arrival sweep (shared with tagio-online's regression
    // tests): arrival attempts per scenario.
    let sweep = Sweep::labelled(
        "arrivals",
        [4.0, 8.0, 12.0, 16.0].map(|x| (format!("{x:.0}"), x)),
    );
    let methods = vec![
        strategy_method("incremental", RepairStrategy::Incremental),
        strategy_method("full-resynth", RepairStrategy::FullResynthesis),
    ];
    let seed = opts.seed;
    let systems = opts.systems;
    let report = Runner::new(title, opts.clone()).run(
        &sweep,
        |point| {
            let arrivals = point.x as usize;
            (0..systems)
                .map(|i| {
                    Scenario::generate(&ScenarioConfig {
                        arrivals,
                        seed: seed
                            .wrapping_mul(1_000_003)
                            .wrapping_add(arrivals as u64 * 7919)
                            .wrapping_add(i as u64),
                        ..ScenarioConfig::default()
                    })
                })
                .collect::<Vec<_>>()
        },
        &methods,
    );
    report.emit(tagio_bench::Report::render_table);
}
