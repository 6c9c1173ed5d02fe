//! Structured sweep reports: the one output type every experiment binary
//! shares, rendering both the aligned text tables the figures are read
//! from and machine-readable `--json` documents (schema documented in
//! `EXPERIMENTS.md`).

use crate::engine::Outcome;
use crate::json;
use crate::Options;
use std::fmt::Write as _;
use tagio_sched::Summary;

/// Per-method results at one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodReport {
    /// Method display name.
    pub method: String,
    /// Systems (or trials) evaluated.
    pub samples: usize,
    /// How many of them were feasible/schedulable.
    pub feasible: usize,
    /// Named metric distributions over the feasible samples, in first-seen
    /// order.
    pub metrics: Vec<(String, Summary)>,
}

impl MethodReport {
    /// Folds a slice of outcomes into one report row.
    #[must_use]
    pub fn from_outcomes(method: impl Into<String>, outcomes: &[Outcome]) -> Self {
        let mut report = MethodReport {
            method: method.into(),
            samples: outcomes.len(),
            feasible: 0,
            metrics: Vec::new(),
        };
        for outcome in outcomes {
            if outcome.feasible {
                report.feasible += 1;
            }
            for (name, value) in &outcome.metrics {
                match report.metrics.iter_mut().find(|(n, _)| n == name) {
                    Some((_, summary)) => summary.push(*value),
                    None => {
                        let mut summary = Summary::new();
                        summary.push(*value);
                        report.metrics.push((name.clone(), summary));
                    }
                }
            }
        }
        report
    }

    /// Fraction of samples found feasible; `0.0` with no samples.
    #[must_use]
    pub fn feasible_fraction(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.feasible as f64 / self.samples as f64
        }
    }

    /// The distribution of metric `name`, if any sample reported it.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.metrics
            .iter()
            .find(|(n, _)| n.as_str() == name)
            .map(|(_, s)| s)
    }
}

/// All method results at one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointReport {
    /// Display label of the point (e.g. `0.45`).
    pub label: String,
    /// Numeric value of the swept parameter.
    pub x: f64,
    /// One row per method, in method order.
    pub methods: Vec<MethodReport>,
}

/// A complete experiment result: every method at every sweep point, plus
/// the options that produced it (for reproducibility).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Human-readable experiment title.
    pub title: String,
    /// Name of the swept parameter (e.g. `U`, `inj.rate`).
    pub parameter: String,
    /// The options the run was invoked with.
    pub options: Options,
    /// One entry per sweep point, in sweep order.
    pub points: Vec<PointReport>,
}

impl Report {
    /// Renders the figure-style series table: one column per sweep point,
    /// one row per method. `metric: None` plots the feasible fraction
    /// (Fig. 5's schedulability); `Some(name)` plots that metric's mean
    /// among feasible samples (Figs. 6–7).
    #[must_use]
    pub fn render_series(&self, metric: Option<&str>) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = write!(out, "{:<14}", self.parameter);
        for point in &self.points {
            let _ = write!(out, " {:>7}", point.label);
        }
        let _ = writeln!(out);
        let methods = self.points.first().map_or(0, |p| p.methods.len());
        for m in 0..methods {
            let name = &self.points[0].methods[m].method;
            let _ = write!(out, "{name:<14}");
            for point in &self.points {
                let row = &point.methods[m];
                let v = match metric {
                    None => row.feasible_fraction(),
                    Some(name) => row.metric(name).map_or(0.0, Summary::mean),
                };
                let _ = write!(out, " {v:>7.3}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders the point-by-point statistics table: per method, the
    /// feasible fraction and each metric's `mean [min, max]`.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        for point in &self.points {
            let _ = writeln!(out, "{} = {}", self.parameter, point.label);
            for row in &point.methods {
                let _ = write!(
                    out,
                    "  {:<18} n={:<5} feasible {:>6.3}",
                    row.method,
                    row.samples,
                    row.feasible_fraction()
                );
                for (name, summary) in &row.metrics {
                    let _ = write!(
                        out,
                        " | {name} {:>9.3} [{:.3}, {:.3}]",
                        summary.mean(),
                        summary.min(),
                        summary.max()
                    );
                }
                let _ = writeln!(out);
            }
        }
        out
    }

    /// Serialises the whole report as one JSON document (schema in
    /// `EXPERIMENTS.md`; guaranteed parseable — see `json::parse`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"title\":{},\"parameter\":{},\"options\":{{\"systems\":{},\"population\":{},\"generations\":{},\"seed\":{},\"threads\":{}}},\"points\":[",
            json::string(&self.title),
            json::string(&self.parameter),
            self.options.systems,
            self.options.population,
            self.options.generations,
            self.options.seed,
            self.options.thread_count(),
        );
        for (i, point) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"label\":{},\"x\":{},\"methods\":[",
                json::string(&point.label),
                json::number(point.x)
            );
            for (j, row) in point.methods.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"method\":{},\"samples\":{},\"feasible\":{},\"feasible_fraction\":{},\"metrics\":{{",
                    json::string(&row.method),
                    row.samples,
                    row.feasible,
                    json::number(row.feasible_fraction()),
                );
                for (k, (name, summary)) in row.metrics.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{}:{{\"count\":{},\"mean\":{},\"min\":{},\"max\":{}}}",
                        json::string(name),
                        summary.count(),
                        json::number(summary.mean()),
                        json::number(summary.min()),
                        json::number(summary.max()),
                    );
                }
                out.push_str("}}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Prints the report: JSON to stdout when `--json` was given,
    /// otherwise the chosen text rendering.
    pub fn emit(&self, text: impl FnOnce(&Report) -> String) {
        if self.options.json {
            println!("{}", self.to_json());
        } else {
            print!("{}", text(self));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let outcomes = [
            Outcome::with_metrics(vec![("psi", 1.0), ("upsilon", 0.8)]),
            Outcome::infeasible(),
            Outcome::with_metrics(vec![("psi", 0.5), ("upsilon", 0.6)]),
        ];
        let row = MethodReport::from_outcomes("static", &outcomes);
        Report {
            title: "unit \"test\" sweep".into(),
            parameter: "U".into(),
            options: Options::default(),
            points: vec![PointReport {
                label: "0.40".into(),
                x: 0.4,
                methods: vec![row],
            }],
        }
    }

    #[test]
    fn from_outcomes_folds_feasibility_and_metrics() {
        let report = sample_report();
        let row = &report.points[0].methods[0];
        assert_eq!(row.samples, 3);
        assert_eq!(row.feasible, 2);
        assert!((row.feasible_fraction() - 2.0 / 3.0).abs() < 1e-12);
        let psi = row.metric("psi").unwrap();
        assert_eq!(psi.count(), 2);
        assert_eq!((psi.min(), psi.max()), (0.5, 1.0));
        assert!(row.metric("latency").is_none());
    }

    #[test]
    fn series_rendering_is_aligned() {
        let report = sample_report();
        let text = report.render_series(Some("psi"));
        assert!(text.starts_with("# unit"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3); // title, header, one method
        assert!(lines[1].starts_with("U"));
        assert!(lines[2].starts_with("static"));
        assert!(lines[2].contains("0.750")); // mean of 1.0 and 0.5
    }

    #[test]
    fn table_rendering_lists_stats() {
        let text = sample_report().render_table();
        assert!(text.contains("U = 0.40"));
        assert!(text.contains("feasible  0.667"));
        assert!(text.contains("psi     0.750 [0.500, 1.000]"));
    }

    #[test]
    fn json_output_is_well_formed_and_complete() {
        let report = sample_report();
        let doc = report.to_json();
        json::parse(&doc).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{doc}"));
        for needle in [
            "\"title\":\"unit \\\"test\\\" sweep\"",
            "\"parameter\":\"U\"",
            "\"systems\":20",
            "\"method\":\"static\"",
            "\"psi\":{\"count\":2",
            "\"feasible\":2",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
    }

    #[test]
    fn scheduler_fold_summarises_schedulable_systems_only() {
        // The paper's figures average Ψ/Υ "among schedulable systems":
        // the infeasible report counts as a sample but adds no Ψ/Υ.
        use tagio_sched::SchedulingReport;
        let reports = [
            SchedulingReport {
                method: "static".into(),
                schedulable: true,
                psi: 1.0,
                upsilon: 0.9,
                diagnostic: None,
            },
            SchedulingReport {
                method: "static".into(),
                schedulable: false,
                psi: 0.0,
                upsilon: 0.0,
                diagnostic: None,
            },
            SchedulingReport {
                method: "static".into(),
                schedulable: true,
                psi: 0.4,
                upsilon: 0.5,
                diagnostic: None,
            },
        ];
        let outcomes: Vec<Outcome> = reports.iter().map(Outcome::from_report).collect();
        let row = MethodReport::from_outcomes("static", &outcomes);
        assert_eq!((row.samples, row.feasible), (3, 2));
        assert!((row.feasible_fraction() - 2.0 / 3.0).abs() < 1e-12);
        let psi = row.metric("psi").unwrap();
        assert_eq!((psi.count(), psi.min(), psi.max()), (2, 0.4, 1.0));
        let upsilon = row.metric("upsilon").unwrap();
        assert_eq!(upsilon.count(), 2);
        assert!((upsilon.mean() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_valid_json() {
        let report = Report {
            title: "empty".into(),
            parameter: "U".into(),
            options: Options::default(),
            points: Vec::new(),
        };
        json::parse(&report.to_json()).unwrap();
        assert_eq!(report.render_series(None).lines().count(), 2);
    }
}
