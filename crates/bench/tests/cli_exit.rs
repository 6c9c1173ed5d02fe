//! Every flag-misuse path of every experiment binary must exit
//! **non-zero** (code 2, the conventional usage-error status) with a
//! diagnostic on stderr and nothing on stdout — a misuse that exits 0
//! poisons shell pipelines and CI scripts that trust `$?`.

use std::process::{Command, Output};

/// The compiled experiment binaries, via the `CARGO_BIN_EXE_<name>`
/// variables cargo sets for integration tests of the defining crate.
fn binaries() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "fig5_schedulability",
            env!("CARGO_BIN_EXE_fig5_schedulability"),
        ),
        ("fig6_psi", env!("CARGO_BIN_EXE_fig6_psi")),
        ("fig7_upsilon", env!("CARGO_BIN_EXE_fig7_upsilon")),
        ("table1_hwcost", env!("CARGO_BIN_EXE_table1_hwcost")),
        ("noc_latency", env!("CARGO_BIN_EXE_noc_latency")),
        ("ablation_lccd", env!("CARGO_BIN_EXE_ablation_lccd")),
        ("ablation_ga", env!("CARGO_BIN_EXE_ablation_ga")),
        (
            "ablation_baselines",
            env!("CARGO_BIN_EXE_ablation_baselines"),
        ),
        ("online_scenarios", env!("CARGO_BIN_EXE_online_scenarios")),
        ("fleet_scenarios", env!("CARGO_BIN_EXE_fleet_scenarios")),
        (
            "failover_scenarios",
            env!("CARGO_BIN_EXE_failover_scenarios"),
        ),
        ("tenant_scenarios", env!("CARGO_BIN_EXE_tenant_scenarios")),
    ]
}

fn run(path: &str, args: &[&str]) -> Output {
    Command::new(path)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {path}: {e}"))
}

fn assert_usage_error(name: &str, out: &Output, what: &str) {
    assert_eq!(
        out.status.code(),
        Some(2),
        "{name} ({what}): expected exit code 2, got {:?}",
        out.status.code()
    );
    assert!(
        !out.stderr.is_empty(),
        "{name} ({what}): no diagnostic on stderr"
    );
    assert!(
        out.stdout.is_empty(),
        "{name} ({what}): flag misuse must not produce report output"
    );
}

#[test]
fn unknown_flags_exit_nonzero_everywhere() {
    for (name, path) in binaries() {
        assert_usage_error(name, &run(path, &["--frobnicate"]), "unknown flag");
    }
}

#[test]
fn missing_flag_values_exit_nonzero_everywhere() {
    for (name, path) in binaries() {
        assert_usage_error(name, &run(path, &["--systems"]), "missing value");
        assert_usage_error(name, &run(path, &["--seed", "plenty"]), "non-integer value");
    }
}

#[test]
fn fixed_method_binaries_reject_methods_override() {
    for name in [
        "fig5_schedulability",
        "fig6_psi",
        "fig7_upsilon",
        "table1_hwcost",
        "noc_latency",
        "ablation_ga",
        "online_scenarios",
        "fleet_scenarios",
        "failover_scenarios",
        "tenant_scenarios",
    ] {
        let path = binaries()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("binary listed")
            .1;
        let out = run(path, &["--methods", "static"]);
        assert_usage_error(name, &out, "--methods on a fixed-list binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--methods") && stderr.contains(name),
            "{name}: diagnostic should name the flag and the binary: {stderr}"
        );
    }
}

#[test]
fn methods_accepting_binaries_reject_unknown_names() {
    for name in ["ablation_baselines", "ablation_lccd"] {
        let path = binaries()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("binary listed")
            .1;
        // A formerly parameterized spec is just another unknown name.
        for bad in ["made-up-method", "ga:pop=8"] {
            let out = run(path, &["--methods", bad]);
            assert_usage_error(name, &out, "unknown method name");
            assert!(
                String::from_utf8_lossy(&out.stderr).contains(bad),
                "{name}: diagnostic should echo the bad name {bad}"
            );
        }
    }
}

#[test]
fn budgets_flag_is_ablation_ga_only_and_validated() {
    for (name, path) in binaries() {
        if name == "ablation_ga" {
            // Accepted, but malformed entries are usage errors.
            let out = run(path, &["--budgets", "notabudget"]);
            assert_usage_error(name, &out, "malformed --budgets entry");
            assert!(String::from_utf8_lossy(&out.stderr).contains("notabudget"));
            // A zero population is a usage error, not a GA panic.
            let out = run(path, &["--budgets", "0x5"]);
            assert_usage_error(name, &out, "zero-population --budgets entry");
            assert!(String::from_utf8_lossy(&out.stderr).contains("0x5"));
        } else {
            assert_usage_error(
                name,
                &run(path, &["--budgets", "8x8"]),
                "--budgets on a non-budget binary",
            );
        }
    }
}

#[test]
fn fixed_budget_binaries_reject_ga_overrides() {
    for name in [
        "table1_hwcost",
        "noc_latency",
        "ablation_ga",
        "online_scenarios",
        "fleet_scenarios",
        "failover_scenarios",
        "tenant_scenarios",
    ] {
        let path = binaries()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("binary listed")
            .1;
        assert_usage_error(name, &run(path, &["--pop", "10"]), "--pop override");
        assert_usage_error(name, &run(path, &["--gens", "10"]), "--gens override");
    }
}

#[test]
fn zero_population_is_a_usage_error() {
    let (name, path) = binaries()
        .into_iter()
        .find(|(n, _)| *n == "fig5_schedulability")
        .expect("binary listed");
    let out = run(path, &["--pop", "0"]);
    assert_usage_error(name, &out, "--pop 0");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--pop"));
}
