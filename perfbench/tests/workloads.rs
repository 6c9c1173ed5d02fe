//! Smoke and determinism tests of the three workloads at tiny sizes.

use perfbench::fleet::{self, FleetSpec};
use perfbench::offline::{self, OfflineSpec};
use perfbench::report::{Outcome, END_TO_END, PER_LAYER};

const TINY_REJECT: FleetSpec = FleetSpec {
    arrivals: 32,
    scenarios: 2,
    ..fleet::REJECT
};

const TINY_CHURN: FleetSpec = FleetSpec {
    // Enough epochs for one periodic snapshot and one partition death.
    arrivals: 96,
    death_every: 48,
    scenarios: 2,
    ..fleet::CHURN
};

const TINY_SYNTH: OfflineSpec = OfflineSpec {
    utilisations: &[0.5, 0.9],
    sets_per_point: 1,
    population: 8,
    generations: 4,
    ..offline::SYNTH
};

fn tiny(workload: &str, seed: u64, trace: bool) -> Outcome {
    match workload {
        "reject" => fleet::run(&TINY_REJECT, seed, 0.0, trace),
        "churn" => fleet::run(&TINY_CHURN, seed, 0.0, trace),
        _ => offline::run(&TINY_SYNTH, seed, 0.0, trace),
    }
}

/// Metrics that are a pure function of the seed: counts, ratios of
/// counts, Ψ/Υ and sizes (no wall-clock time, no memory). Snapshot size
/// is not one: snapshots carry the partitions' wall-clock stats.
const DETERMINISTIC: &[&str] = &[
    "acceptance",
    "psi",
    "upsilon",
    "fleet.retries_per_arrival",
    "fleet.retry_yield",
    "fleet.epochs",
    "service.offers",
    "service.gate_reject_ratio",
    "service.integrations",
    "service.integration_fail_ratio",
    "service.repairs",
    "service.resyntheses",
    "service.fps_fallbacks",
    "cache.lookups",
    "cache.hit_ratio",
    "job.jobs_per_expand",
    "repair.calls",
    "repair.pass",
    "repair.fail",
    "lccd.calls",
    "lccd.pass",
    "fps.calls",
    "fps.pass",
    "probe.ladder_fail",
    "wal.bytes_per_epoch",
    "persist.replayed_epochs",
    "ga.evaluations",
    "ga.front_size",
    "ga.hypervolume",
    "trace.spans",
];

#[test]
fn every_workload_passes_a_smoke_run_in_both_modes() {
    for workload in ["reject", "churn", "synth"] {
        for trace in [false, true] {
            let out = tiny(workload, 7, trace);
            assert!(out.correct(), "{workload} trace={trace}: {:?}", out.notes);
            assert!(out.attempted > 0);
            let set = if trace { PER_LAYER } else { END_TO_END };
            let line = out.json_line(set);
            assert!(line.starts_with("{\"correct\": true,"), "{line}");
            assert_eq!(line.matches("\"unit\"").count(), set.len());
        }
        let out = tiny(workload, 7, false);
        for (name, _) in END_TO_END {
            assert!(out.get(name) > 0.0, "{workload}: {name} is not positive");
        }
    }
}

#[test]
fn same_seed_runs_agree_on_every_deterministic_value() {
    for workload in ["reject", "churn", "synth"] {
        let a = tiny(workload, 11, true);
        let b = tiny(workload, 11, true);
        assert_eq!(a.digest, b.digest, "{workload}: decision digest");
        for name in DETERMINISTIC {
            assert_eq!(
                a.get(name).to_bits(),
                b.get(name).to_bits(),
                "{workload}: {name}"
            );
        }
        // Tracing observes; it does not change a decision.
        let untraced = tiny(workload, 11, false);
        assert_eq!(a.digest, untraced.digest, "{workload}: traced digest");
        for name in ["acceptance", "psi", "upsilon"] {
            assert_eq!(a.get(name).to_bits(), untraced.get(name).to_bits());
        }
    }
}

#[test]
fn replays_reproduce_the_first_pass() {
    // With time to spare more passes run, and each must reproduce the
    // first pass's decisions.
    let once = fleet::run(&TINY_CHURN, 5, 0.0, false);
    let again = fleet::run(&TINY_CHURN, 5, 5.0, false);
    assert!(again.correct(), "{:?}", again.notes);
    assert!(
        !again.notes.iter().any(|n| n.contains(" x 1 passes")),
        "{:?}",
        again.notes
    );
    assert_eq!(once.digest, again.digest);
    assert_eq!(once.attempted, again.attempted);
    let synth = offline::run(&TINY_SYNTH, 5, 5.0, false);
    assert!(synth.correct(), "{:?}", synth.notes);
    assert!(
        !synth.notes.iter().any(|n| n.contains(" x 1 passes")),
        "{:?}",
        synth.notes
    );
}

#[test]
fn different_seeds_give_different_inputs() {
    for workload in ["reject", "churn", "synth"] {
        assert_ne!(
            tiny(workload, 1, false).digest,
            tiny(workload, 2, false).digest
        );
    }
}

#[test]
fn traced_fleet_runs_report_their_layers() {
    let reject = tiny("reject", 3, true);
    for name in [
        "service.integrations",
        "repair.calls",
        "fleet.epochs",
        "trace.spans",
    ] {
        assert!(reject.get(name) > 0.0, "reject: {name}");
    }
    let churn = tiny("churn", 3, true);
    for name in [
        "cache.lookups",
        "wal.append_us",
        "persist.snapshot_bytes",
        "persist.recover_ms",
        "recovery_ms_p50",
    ] {
        assert!(churn.get(name) > 0.0, "churn: {name}");
    }
    let synth = tiny("synth", 3, true);
    for name in [
        "lccd.calls",
        "ga.evaluations",
        "ga.search_ms",
        "job.expand_us",
    ] {
        assert!(synth.get(name) > 0.0, "synth: {name}");
    }
}
