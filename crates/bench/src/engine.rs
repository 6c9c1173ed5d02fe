//! The generic experiment engine: [`Sweep`] descriptors, [`Method`]
//! adapters (built from the scheduler registry, the threaded GA, or any
//! closure), and a [`Runner`] that fans each sweep point's systems across
//! a worker pool and folds the outcomes into a structured
//! [`Report`] document.
//!
//! Every experiment binary is a thin declaration on top of this module:
//! describe the sweep, name the methods, run, render.

use crate::report::{MethodReport, PointReport, Report};
use crate::{EvalSystem, Options};
use tagio_core::pool::WorkerPool;
use tagio_ga::{hypervolume_2d, GaConfig, Objectives};
use tagio_sched::{
    make_scheduler, taskset_schedulable_np_fps, GaScheduler, MethodError, MethodSet,
    SchedulingReport, SolverCtx,
};

/// One point of a sweep: a display label plus the numeric parameter value.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Display label (used as the column header and in JSON).
    pub label: String,
    /// Numeric value handed to system generation and method evaluation.
    pub x: f64,
}

/// A parameter sweep: the swept axis of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Name of the swept parameter (e.g. `U`, `inj.rate`).
    pub parameter: String,
    /// The points, in evaluation (and rendering) order.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// A sweep over numeric values, labelled `{x:.2}`.
    #[must_use]
    pub fn over(parameter: impl Into<String>, xs: impl IntoIterator<Item = f64>) -> Self {
        Sweep {
            parameter: parameter.into(),
            points: xs
                .into_iter()
                .map(|x| SweepPoint {
                    label: format!("{x:.2}"),
                    x,
                })
                .collect(),
        }
    }

    /// A sweep with explicit labels.
    #[must_use]
    pub fn labelled(
        parameter: impl Into<String>,
        points: impl IntoIterator<Item = (String, f64)>,
    ) -> Self {
        Sweep {
            parameter: parameter.into(),
            points: points
                .into_iter()
                .map(|(label, x)| SweepPoint { label, x })
                .collect(),
        }
    }

    /// A degenerate single-point sweep, for experiments whose axis is the
    /// method list itself (budget ablations, Table I).
    #[must_use]
    pub fn single(parameter: impl Into<String>, label: impl Into<String>, x: f64) -> Self {
        Sweep {
            parameter: parameter.into(),
            points: vec![SweepPoint {
                label: label.into(),
                x,
            }],
        }
    }
}

/// What one method produced on one system: a feasibility flag plus any
/// named metrics (folded into min/mean/max summaries by the report layer).
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Whether the method found the system feasible/schedulable.
    pub feasible: bool,
    /// Named metric samples, e.g. `("psi", 0.93)`.
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// A bare feasibility flag with no metrics (Fig. 5's shape).
    #[must_use]
    pub fn flag(feasible: bool) -> Self {
        Outcome {
            feasible,
            metrics: Vec::new(),
        }
    }

    /// An infeasible outcome.
    #[must_use]
    pub fn infeasible() -> Self {
        Self::flag(false)
    }

    /// A feasible outcome carrying metric samples. Accepts any named
    /// collection — `vec![("psi", 0.9)]` or a
    /// [`MetricSet`](tagio_core::MetricSet) snapshot alike.
    #[must_use]
    pub fn with_metrics<N: Into<String>>(metrics: impl IntoIterator<Item = (N, f64)>) -> Self {
        Outcome {
            feasible: true,
            metrics: metrics.into_iter().map(|(n, v)| (n.into(), v)).collect(),
        }
    }

    /// Maps a [`SchedulingReport`]: Ψ/Υ contribute only when schedulable
    /// (the figures average "among schedulable systems").
    #[must_use]
    pub fn from_report(report: &SchedulingReport) -> Self {
        if report.schedulable {
            Outcome::with_metrics(vec![("psi", report.psi), ("upsilon", report.upsilon)])
        } else {
            Outcome::infeasible()
        }
    }
}

/// A named way of evaluating one system of type `S` at one sweep point.
pub struct Method<S> {
    name: String,
    #[allow(clippy::type_complexity)]
    eval: Box<dyn Fn(&S, &SweepPoint) -> Outcome + Sync>,
}

impl<S: Sync> Method<S> {
    /// Wraps a closure as a method.
    pub fn new(
        name: impl Into<String>,
        eval: impl Fn(&S, &SweepPoint) -> Outcome + Sync + 'static,
    ) -> Self {
        Method {
            name: name.into(),
            eval: Box::new(eval),
        }
    }

    /// The method's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates one system at one sweep point.
    #[must_use]
    pub fn evaluate(&self, system: &S, point: &SweepPoint) -> Outcome {
        (self.eval)(system, point)
    }
}

impl Method<EvalSystem> {
    /// A built-in method by name (see [`tagio_sched::registry`] for the
    /// table).
    ///
    /// # Errors
    /// Returns [`MethodError`] for names outside the table.
    pub fn scheduler(name: &str) -> Result<Self, MethodError> {
        Ok(Self::wrap(name.trim().to_owned(), make_scheduler(name)?))
    }

    /// One method per entry of a [`MethodSet`] — the bridge from
    /// `--methods fps-offline,static,...` to the engine. Each system is
    /// solved under a [`SolverCtx`] carrying its per-system seed, and a
    /// `ga` entry is replaced by [`Method::ga`] with `config` — CLI
    /// budget, per-system seeds and the engine's thread split — so its
    /// column stays comparable to the figure binaries' GA.
    #[must_use]
    pub fn from_set_with_ga(set: MethodSet, config: &GaConfig) -> Vec<Self> {
        set.into_iter()
            .map(|(name, scheduler)| {
                if name == "ga" {
                    Method::ga(name, config.clone())
                } else {
                    Self::wrap(name, scheduler)
                }
            })
            .collect()
    }

    fn wrap(name: String, solver: tagio_sched::BoxedSolver) -> Self {
        Method::new(name, move |sys: &EvalSystem, _: &SweepPoint| {
            let ctx = SolverCtx::seeded(sys.seed);
            let report = SchedulingReport::evaluate_with(solver.as_ref(), &sys.jobs, &ctx)
                .unwrap_or_else(|bug| panic!("{bug}"));
            Outcome::from_report(&report)
        })
    }

    /// The paper's FPS-online curve: not a schedule constructor but the
    /// worst-case response-time test \[18\] on the task set.
    #[must_use]
    pub fn fps_online() -> Self {
        Method::new("fps-online", |sys: &EvalSystem, _: &SweepPoint| {
            Outcome::flag(taskset_schedulable_np_fps(&sys.tasks))
        })
    }

    /// The GA with an explicit configuration, seeded per system. Reports
    /// the best Ψ and best Υ over the returned non-dominated front (the
    /// paper's convention for Figs. 6–7) plus the front's hypervolume.
    #[must_use]
    pub fn ga(name: impl Into<String>, config: GaConfig) -> Self {
        Method::new(
            name,
            move |sys: &EvalSystem, _: &SweepPoint| match GaScheduler::new()
                .with_config(config.clone())
                .search_with(&sys.jobs, &SolverCtx::seeded(sys.seed))
            {
                Ok(result) => {
                    let best_psi = result.front.iter().map(|t| t.0).fold(f64::MIN, f64::max);
                    let best_ups = result.front.iter().map(|t| t.1).fold(f64::MIN, f64::max);
                    let front: Vec<Objectives> = result
                        .front
                        .iter()
                        .map(|t| Objectives::from(vec![t.0, t.1]))
                        .collect();
                    Outcome::with_metrics(vec![
                        ("psi", best_psi),
                        ("upsilon", best_ups),
                        ("hypervolume", hypervolume_2d(&front, [0.0, 0.0])),
                    ])
                }
                Err(_) => Outcome::infeasible(),
            },
        )
    }
}

/// Drives one experiment: generates each sweep point's systems, fans every
/// method over them on a worker pool sized by `--threads`, and folds the
/// outcomes into a [`Report`].
pub struct Runner {
    title: String,
    options: Options,
    progress: bool,
}

impl Runner {
    /// A runner for an experiment titled `title`.
    #[must_use]
    pub fn new(title: impl Into<String>, options: Options) -> Self {
        Runner {
            title: title.into(),
            options,
            progress: true,
        }
    }

    /// Disables the per-point progress lines on stderr (tests).
    #[must_use]
    pub fn quiet(mut self) -> Self {
        self.progress = false;
        self
    }

    /// Runs the experiment: for each sweep point, `generate` produces the
    /// systems (serially — generation is cheap and seed-ordered) and every
    /// method evaluates all of them in parallel, preserving system order.
    ///
    /// The worker pool is `min(threads, systems)` wide; [`Options::ga_config`]
    /// gives the GA the leftover `threads / pool` workers, so nested
    /// parallelism never oversubscribes.
    pub fn run<S: Sync>(
        &self,
        sweep: &Sweep,
        generate: impl Fn(&SweepPoint) -> Vec<S>,
        methods: &[Method<S>],
    ) -> Report {
        let threads = self.options.thread_count();
        let mut points = Vec::with_capacity(sweep.points.len());
        for point in &sweep.points {
            let systems = generate(point);
            let outer = threads.min(systems.len()).max(1);
            let rows = methods
                .iter()
                .map(|method| {
                    let outcomes = WorkerPool::global()
                        .map(&systems, outer, |sys| method.evaluate(sys, point));
                    MethodReport::from_outcomes(method.name(), &outcomes)
                })
                .collect();
            if self.progress {
                eprintln!("  {}={} done", sweep.parameter, point.label);
            }
            points.push(PointReport {
                label: point.label.clone(),
                x: point.x,
                methods: rows,
            });
        }
        Report {
            title: self.title.clone(),
            parameter: sweep.parameter.clone(),
            options: self.options.clone(),
            points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_systems;

    fn quiet_runner(options: Options) -> Runner {
        Runner::new("engine test", options).quiet()
    }

    #[test]
    fn sweep_constructors_label_points() {
        let s = Sweep::over("U", [0.2, 0.25]);
        assert_eq!(s.points[0].label, "0.20");
        assert_eq!(s.points[1].x, 0.25);
        let l = Sweep::labelled("budget", [("20x20".to_owned(), 0.0)]);
        assert_eq!(l.points[0].label, "20x20");
        assert_eq!(Sweep::single("table", "I", 0.0).points.len(), 1);
    }

    #[test]
    fn runner_preserves_method_and_point_order() {
        let opts = Options {
            systems: 4,
            ..Options::default()
        };
        let sweep = Sweep::over("U", [0.3, 0.4]);
        let methods = vec![
            Method::new("even", |sys: &u64, _: &SweepPoint| {
                Outcome::flag(sys.is_multiple_of(2))
            }),
            Method::new("scaled", |sys: &u64, point: &SweepPoint| {
                Outcome::with_metrics(vec![("value", *sys as f64 * point.x)])
            }),
        ];
        let report = quiet_runner(opts).run(&sweep, |_| vec![0, 1, 2, 3], &methods);
        assert_eq!(report.points.len(), 2);
        for point in &report.points {
            assert_eq!(point.methods[0].method, "even");
            assert_eq!(point.methods[1].method, "scaled");
            assert_eq!(point.methods[0].samples, 4);
            assert_eq!(point.methods[0].feasible, 2);
        }
        let scaled = report.points[1].methods[1].metric("value").unwrap();
        // systems 0..4 at x = 0.4: mean of {0, 0.4, 0.8, 1.2}.
        assert!((scaled.mean() - 0.6).abs() < 1e-12);
        assert!((scaled.max() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn runner_output_is_thread_count_invariant() {
        let sweep = Sweep::over("U", [0.4]);
        let methods = vec![
            Method::scheduler("fps-offline").unwrap(),
            Method::scheduler("static").unwrap(),
        ];
        let mut reports = Vec::new();
        for threads in [1, 4] {
            let opts = Options {
                systems: 6,
                threads,
                ..Options::default()
            };
            let report = quiet_runner(opts.clone()).run(
                &sweep,
                |p| generate_systems(p.x, opts.systems, opts.seed),
                &methods,
            );
            reports.push(report.points);
        }
        assert_eq!(reports[0], reports[1]);
    }

    #[test]
    fn scheduler_method_reports_registry_unknowns() {
        assert!(Method::scheduler("static:best-fit").is_ok());
        assert!(Method::scheduler("nope").is_err());
    }

    #[test]
    fn ga_method_reports_front_extremes() {
        let systems = generate_systems(0.3, 1, 7);
        let cfg = GaConfig {
            population: 16,
            generations: 8,
            threads: 1,
            ..GaConfig::default()
        };
        let point = SweepPoint {
            label: "0.30".into(),
            x: 0.3,
        };
        let outcome = Method::ga("ga", cfg).evaluate(&systems[0], &point);
        if outcome.feasible {
            let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, vec!["psi", "upsilon", "hypervolume"]);
        }
    }
}
