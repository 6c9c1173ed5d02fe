//! # tagio-bench
//!
//! The experiment harness regenerating every table and figure of the
//! paper's evaluation (Section V). Each figure has a dedicated binary:
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `fig5_schedulability` | Fig. 5 — schedulability vs. utilisation |
//! | `fig6_psi` | Fig. 6 — Ψ of the offline methods |
//! | `fig7_upsilon` | Fig. 7 — Υ of the offline methods |
//! | `table1_hwcost` | Table I — hardware overhead |
//! | `noc_latency` | §I motivation — request-path latency under contention |
//! | `ablation_lccd` | LCC-D vs First-/Best-/Worst-Fit slot policies |
//! | `ablation_ga` | GA budget sensitivity (population × generations) |
//! | `ablation_baselines` | classic baselines (FPS, EDF, GPIOCP) at a glance |
//! | `online_scenarios` | beyond the paper — online repair vs. full re-synthesis |
//! | `fleet_scenarios` | beyond the paper — multi-partition fleet vs. one partition |
//! | `failover_scenarios` | beyond the paper — fleet recovery from partition deaths |
//! | `tenant_scenarios` | beyond the paper — tenant QoS contracts vs. an open fleet |
//!
//! All binaries run on the shared experiment [`engine`] — a [`Sweep`]
//! descriptor, named [`Method`]s resolved through the scheduler registry,
//! and a [`Runner`] that fans systems across a worker pool — and emit
//! either aligned text tables or `--json` documents ([`report::Report`]).
//!
//! Binaries accept `--systems N`, `--pop N`, `--gens N`, `--seed N`,
//! `--threads N` (worker pool size, `0` = all cores) and `--json`;
//! defaults are laptop-scale (documented in EXPERIMENTS.md, along with
//! expected runtimes and the JSON schema). The paper's full scale is
//! `--systems 1000 --pop 300 --gens 500`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod engine;
pub mod json;
pub mod report;

pub use engine::{Method, Outcome, Runner, Sweep, SweepPoint};
pub use report::Report;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagio_core::job::JobSet;
use tagio_core::task::TaskSet;
use tagio_ga::GaConfig;
use tagio_workload::SystemConfig;

/// Common command-line options of the experiment binaries.
///
/// GA population/generation defaults come from [`GaConfig::quick`]; the
/// paper's published 300×500 lives in [`GaConfig::paper`] (the single
/// source of those parameters).
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Synthetic systems per utilisation point (paper: 1000).
    pub systems: usize,
    /// GA population.
    pub population: usize,
    /// GA generations.
    pub generations: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads shared by the sweep and the GA (`0` = all cores).
    pub threads: usize,
    /// Emit the report as JSON instead of text tables.
    pub json: bool,
    /// Optional comma-separated list of built-in method names (binaries
    /// that support it pass this to [`tagio_sched::MethodSet::parse`]).
    pub methods: Option<String>,
    /// Optional comma-separated GA budget-list override
    /// (`POPxGENS[+seed]`, e.g. `20x20,50x50+seed`) — supported by
    /// `ablation_ga` only.
    pub budgets: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        let quick = GaConfig::quick();
        Options {
            systems: 20,
            population: quick.population,
            generations: quick.generations,
            seed: 2020,
            threads: 0,
            json: false,
            methods: None,
            budgets: None,
        }
    }
}

impl Options {
    /// Parses `--systems`, `--pop`, `--gens`, `--seed`, `--threads`,
    /// `--json` and `--methods` from the process arguments, falling back
    /// to the defaults.
    ///
    /// Flag misuse (unknown flag, missing or non-integer value) prints a
    /// usage error to stderr and exits with code 2 — every misuse path of
    /// every experiment binary must end in a non-zero exit (pinned by
    /// `tests/cli_exit.rs`).
    #[must_use]
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(&e))
    }

    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = Options::default();
        let args: Vec<String> = args.collect();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            let int = |name: &str, v: String| -> Result<u64, String> {
                v.parse().map_err(|_| format!("{name} needs an integer"))
            };
            match flag.as_str() {
                "--systems" => opts.systems = int("--systems", value("--systems")?)? as usize,
                "--pop" => match int("--pop", value("--pop")?)? {
                    0 => return Err("--pop needs a positive population".into()),
                    pop => opts.population = pop as usize,
                },
                "--gens" => opts.generations = int("--gens", value("--gens")?)? as usize,
                "--seed" => opts.seed = int("--seed", value("--seed")?)?,
                "--threads" => opts.threads = int("--threads", value("--threads")?)? as usize,
                "--json" => opts.json = true,
                "--methods" => opts.methods = Some(value("--methods")?),
                "--budgets" => opts.budgets = Some(value("--budgets")?),
                other => {
                    return Err(format!(
                        "unknown flag {other} (try --systems/--pop/--gens/--seed/--threads/--json/--methods/--budgets)"
                    ))
                }
            }
        }
        Ok(opts)
    }

    /// Guard for binaries with a fixed method list: `--methods` must not
    /// be silently ignored. Usage error (exit 2) when `--methods` was
    /// given.
    pub fn reject_methods_override(&self, binary: &str) {
        if self.methods.is_some() {
            usage_error(&format!(
                "--methods is not supported by {binary} (its method list is fixed)"
            ));
        }
    }

    /// Guard for every binary except `ablation_ga`: `--budgets` must not
    /// be silently ignored. Usage error (exit 2) when it was given.
    pub fn reject_budgets_override(&self, binary: &str) {
        if self.budgets.is_some() {
            usage_error(&format!(
                "--budgets is not supported by {binary} (only ablation_ga sweeps GA budgets)"
            ));
        }
    }

    /// Parses the `--budgets` list into `(population, generations,
    /// ideal-seeded)` triples, or the given default when absent. Usage
    /// error (exit 2) on a malformed entry.
    #[must_use]
    pub fn budget_list(&self, default: &[(usize, usize, bool)]) -> Vec<(usize, usize, bool)> {
        let Some(csv) = &self.budgets else {
            return default.to_vec();
        };
        let parse_entry = |entry: &str| -> Option<(usize, usize, bool)> {
            let (spec, seeded) = match entry.strip_suffix("+seed") {
                Some(spec) => (spec, true),
                None => (entry, false),
            };
            let (pop, gens) = spec.split_once('x')?;
            let pop = pop.parse().ok().filter(|&pop| pop > 0)?;
            Some((pop, gens.parse().ok()?, seeded))
        };
        let budgets: Vec<(usize, usize, bool)> = csv
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|entry| {
                parse_entry(entry.trim()).unwrap_or_else(|| {
                    usage_error(&format!(
                        "--budgets: malformed entry `{entry}` (expected POPxGENS or POPxGENS+seed, POP > 0)"
                    ))
                })
            })
            .collect();
        if budgets.is_empty() {
            usage_error("--budgets: empty budget list");
        }
        budgets
    }

    /// Guard for binaries that sweep their own fixed GA budget list:
    /// `--pop`/`--gens` must not be silently ignored (and misrecorded in
    /// the JSON provenance block). Usage error (exit 2) on an override.
    pub fn reject_ga_budget_override(&self, binary: &str) {
        let default = Options::default();
        if self.population != default.population || self.generations != default.generations {
            usage_error(&format!(
                "--pop/--gens are not supported by {binary} (its GA budget list is fixed)"
            ));
        }
    }

    /// The resolved worker-pool width: `--threads`, or every available
    /// core when `0` — via the one workspace-wide resolution rule
    /// ([`tagio_core::pool::available_workers`]), so every binary
    /// (fleet_scenarios, the GA sweeps, …) reads `--threads 0`
    /// identically. See EXPERIMENTS.md, "Threading model".
    #[must_use]
    pub fn thread_count(&self) -> usize {
        tagio_core::pool::resolve_width(self.threads)
    }

    /// The GA configuration implied by these options, based on
    /// [`GaConfig::quick`] with the CLI's population/generations.
    ///
    /// GA-internal evaluation threads are the workers left over after the
    /// sweep's outer pool map over systems claims its share, so the
    /// two parallel layers compose without oversubscribing: sweeping many
    /// systems runs each GA serially, while a sweep of fewer systems than
    /// cores (e.g. one paper-scale run) hands the spare cores to the GA.
    #[must_use]
    pub fn ga_config(&self) -> GaConfig {
        let total = self.thread_count();
        let outer = total.min(self.systems.max(1));
        GaConfig {
            population: self.population,
            generations: self.generations,
            threads: (total / outer).max(1),
            ..GaConfig::quick()
        }
    }
}

/// Prints a usage error to stderr and exits with code 2 (the
/// conventional CLI usage-error status). Every flag-misuse path of every
/// experiment binary funnels through here so none can exit 0.
pub fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// One generated evaluation system with its expanded jobs.
#[derive(Debug, Clone)]
pub struct EvalSystem {
    /// Per-system seed (derived from the base seed).
    pub seed: u64,
    /// The task set.
    pub tasks: TaskSet,
    /// Its jobs over one hyper-period.
    pub jobs: JobSet,
}

/// Generates `count` systems at utilisation `u` (paper §V.A parameters).
#[must_use]
pub fn generate_systems(u: f64, count: usize, base_seed: u64) -> Vec<EvalSystem> {
    (0..count)
        .map(|i| {
            let seed = base_seed
                .wrapping_mul(1_000_003)
                .wrapping_add((u * 100.0) as u64 * 7919)
                .wrapping_add(i as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            let tasks = SystemConfig::paper(u).generate(&mut rng);
            let jobs = JobSet::expand(&tasks);
            EvalSystem { seed, tasks, jobs }
        })
        .collect()
}

/// The Fig. 5 utilisation sweep (0.2 … 0.9, step 0.05).
#[must_use]
pub fn fig5_sweep() -> Vec<f64> {
    tagio_workload::paper_utilisation_sweep()
}

/// The Figs. 6–7 utilisation sweep (0.3 … 0.7, step 0.1 as plotted).
#[must_use]
pub fn fig67_sweep() -> Vec<f64> {
    vec![0.3, 0.4, 0.5, 0.6, 0.7]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Options {
        Options::parse(args.iter().map(|s| (*s).to_string())).expect("valid test args")
    }

    #[test]
    fn defaults_are_laptop_scale() {
        let o = Options::default();
        assert!(o.systems <= 50);
        assert!(o.population < 300);
        assert_eq!(o.threads, 0);
        assert!(!o.json);
    }

    #[test]
    fn defaults_come_from_quick_config() {
        let (o, quick) = (Options::default(), GaConfig::quick());
        assert_eq!(o.population, quick.population);
        assert_eq!(o.generations, quick.generations);
    }

    #[test]
    fn parses_all_flags() {
        let o = parse(&[
            "--systems",
            "7",
            "--pop",
            "40",
            "--gens",
            "9",
            "--seed",
            "5",
            "--threads",
            "3",
            "--json",
            "--methods",
            "static,ga",
        ]);
        assert_eq!(o.systems, 7);
        assert_eq!(o.population, 40);
        assert_eq!(o.generations, 9);
        assert_eq!(o.seed, 5);
        assert_eq!(o.threads, 3);
        assert!(o.json);
        assert_eq!(o.methods.as_deref(), Some("static,ga"));
    }

    #[test]
    fn budget_list_parses_and_defaults() {
        let default = [(20, 20, false), (50, 50, true)];
        assert_eq!(Options::default().budget_list(&default), default.to_vec());
        let custom = Options {
            budgets: Some("8x8, 12x16+seed".into()),
            ..Options::default()
        };
        assert_eq!(
            custom.budget_list(&default),
            vec![(8, 8, false), (12, 16, true)]
        );
    }

    #[test]
    fn rejects_malformed_argument_lists() {
        let err = |args: &[&str]| {
            Options::parse(args.iter().map(|s| (*s).to_string())).expect_err("must be rejected")
        };
        assert!(err(&["--bogus"]).contains("unknown flag"));
        assert!(err(&["--systems"]).contains("needs a value"));
        assert!(err(&["--systems", "many"]).contains("needs an integer"));
        assert!(err(&["--seed", "1", "--gens"]).contains("needs a value"));
        assert!(err(&["--pop", "0"]).contains("positive population"));
    }

    #[test]
    fn thread_count_resolves_zero_to_all_cores() {
        let o = Options::default();
        assert!(o.thread_count() >= 1);
        let fixed = Options {
            threads: 3,
            ..Options::default()
        };
        assert_eq!(fixed.thread_count(), 3);
    }

    #[test]
    fn ga_config_splits_threads_between_layers() {
        // Many systems: the outer sweep takes every worker, the GA runs
        // serially inside each.
        let wide = Options {
            systems: 64,
            threads: 8,
            ..Options::default()
        };
        assert_eq!(wide.ga_config().threads, 1);
        // Few systems: spare workers go to the GA.
        let narrow = Options {
            systems: 2,
            threads: 8,
            ..Options::default()
        };
        assert_eq!(narrow.ga_config().threads, 4);
        let single = Options {
            systems: 1,
            threads: 8,
            ..Options::default()
        };
        assert_eq!(single.ga_config().threads, 8);
    }

    #[test]
    fn generate_systems_is_deterministic() {
        let a = generate_systems(0.4, 3, 1);
        let b = generate_systems(0.4, 3, 1);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tasks, y.tasks);
        }
    }

    #[test]
    fn systems_differ_across_seeds_and_indices() {
        let a = generate_systems(0.4, 2, 1);
        let b = generate_systems(0.4, 2, 2);
        assert_ne!(a[0].tasks, a[1].tasks);
        assert_ne!(a[0].tasks, b[0].tasks);
    }

    #[test]
    fn sweeps_match_paper_ranges() {
        assert_eq!(fig5_sweep().len(), 15);
        assert_eq!(fig67_sweep(), vec![0.3, 0.4, 0.5, 0.6, 0.7]);
    }
}
