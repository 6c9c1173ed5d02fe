//! The metric vocabulary and the result line.
//!
//! Every metric the benchmark can print is declared here with its unit,
//! so the untraced and traced modes print exactly these sets and the
//! names cannot drift from `BENCHMARK.json`.

use crate::trace::Tracer;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_sec", "1/s"),
    ("scenario_ops_per_sec_p50", "1/s"),
    ("epoch_p50_us", "us"),
    ("epoch_p90_us", "us"),
    ("acceptance", "ratio"),
    ("psi", "ratio"),
    ("upsilon", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with tracing on (`0`
/// where the layer does no work on that workload).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fleet.self_ms", "ms"),
    ("fleet.retries_per_arrival", "ratio"),
    ("fleet.retry_yield", "ratio"),
    ("fleet.epochs", "count"),
    ("service.offers", "count"),
    ("service.gate_reject_ratio", "ratio"),
    ("service.integrations", "count"),
    ("service.integration_fail_ratio", "ratio"),
    ("service.construction_ms", "ms"),
    ("service.admission_ms", "ms"),
    ("service.repairs", "count"),
    ("service.resyntheses", "count"),
    ("service.fps_fallbacks", "count"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("analysis.precheck_us", "us"),
    ("job.expand_us", "us"),
    ("job.jobs_per_expand", "count"),
    ("repair.calls", "count"),
    ("repair.pass", "count"),
    ("repair.fail", "count"),
    ("repair.pass_us", "us"),
    ("repair.fail_us", "us"),
    ("lccd.calls", "count"),
    ("lccd.pass", "count"),
    ("lccd.pass_us", "us"),
    ("lccd.fail_us", "us"),
    ("fps.calls", "count"),
    ("fps.pass", "count"),
    ("fps.us", "us"),
    ("probe.ladder_fail", "count"),
    ("wal.append_us", "us"),
    ("wal.bytes_per_epoch", "B"),
    ("wal.load_ms", "ms"),
    ("persist.snapshot_us", "us"),
    ("persist.snapshot_bytes", "B"),
    ("persist.parse_ms", "ms"),
    ("persist.recover_ms", "ms"),
    ("persist.replayed_epochs", "count"),
    ("recovery_ms_p50", "ms"),
    ("ga.search_ms", "ms"),
    ("ga.evaluations", "count"),
    ("ga.evals_per_sec", "1/s"),
    ("ga.front_size", "count"),
    ("ga.hypervolume", "area"),
    ("pool.lane_overlap", "ratio"),
    ("calib.slowdown", "ratio"),
    ("trace.ops_per_sec", "1/s"),
    ("trace.spans", "count"),
];

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured values by metric name (end-to-end and per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Scenarios or task sets verified.
    pub attempted: u64,
    /// Of those, how many failed verification.
    pub failed: u64,
    /// Deterministic digest of every decision the run made.
    pub digest: u64,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
    /// The spans the traced mode recorded.
    pub spans: Tracer,
}

impl Outcome {
    /// Sets metric `name` (must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in report.rs"
        );
        self.values.insert(name, value);
    }

    /// The value of `name`, `0.0` when the run did not set it.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Whether every check passed and every value is a finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.values.values().all(|v| v.is_finite())
    }

    /// The result line: one JSON object with the metrics of `set`.
    #[must_use]
    pub fn json_line(&self, set: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = set
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The declared unit of `name`.
fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_unique_and_have_units() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn names_match_the_benchmark_manifest() {
        // BENCHMARK.json at the repository root declares the same sets.
        let manifest = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json next to the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let declared = manifest.matches("\"name\": ").count();
        // Workloads carry names too.
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + 3);
    }

    #[test]
    fn result_line_carries_every_metric_of_the_set() {
        let mut out = Outcome {
            attempted: 2,
            ..Outcome::default()
        };
        out.set("ops_per_sec", 1234.5);
        let line = out.json_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0,"));
        assert!(line.contains("\"ops_per_sec\": {\"value\": 1234.5, \"unit\": \"1/s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        out.failed = 1;
        assert!(!out.correct());
    }
}
