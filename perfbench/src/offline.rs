//! The `offline-synth` workload: the paper's offline solvers on paper
//! task sets. Each set goes through `JobSet::expand`, LCC-D
//! (`StaticScheduler::schedule`) and the GA (`GaScheduler::search_with`
//! at one worker). No online layer runs here.

use crate::calib;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{
    another_pass_fits, beyond, mean, median, percentile, pooled_rate, ratio, Digest, Timed,
};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use tagio_audit::schedule::{recompute_quality, verify_entries};
use tagio_core::job::JobSet;
use tagio_core::schedule::Schedule;
use tagio_core::solve::SolverCtx;
use tagio_core::task::TaskSet;
use tagio_ga::{hypervolume_2d, GaConfig, Objectives};
use tagio_sched::heuristic::StaticScheduler;
use tagio_sched::{GaScheduleResult, GaScheduler, Scheduler};
use tagio_workload::SystemConfig;

/// The inputs of the offline workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfflineSpec {
    /// Workload name.
    pub name: &'static str,
    /// Target utilisations of the paper generator.
    pub utilisations: &'static [f64],
    /// Task sets per utilisation point in one pass.
    pub sets_per_point: usize,
    /// GA population.
    pub population: usize,
    /// GA generations.
    pub generations: usize,
}

/// The offline solvers at the `GaConfig::quick()` budget.
pub const SYNTH: OfflineSpec = OfflineSpec {
    name: "offline-synth",
    utilisations: &[0.5, 0.6, 0.7, 0.8, 0.9],
    sets_per_point: 40,
    population: 40,
    generations: 30,
};

impl OfflineSpec {
    fn ga(&self) -> GaScheduler {
        GaScheduler::new().with_config(GaConfig {
            population: self.population,
            generations: self.generations,
            threads: 1,
            ..GaConfig::quick()
        })
    }
}

/// One solved task set.
struct Solved {
    jobs: JobSet,
    lccd: Option<Schedule>,
    ga: Option<GaScheduleResult>,
    expand: Duration,
    lccd_time: Duration,
    ga_time: Duration,
}

impl Solved {
    fn wall(&self) -> Duration {
        self.expand + self.lccd_time + self.ga_time
    }
}

fn solve(
    spec: &OfflineSpec,
    set: &TaskSet,
    seed: u64,
    tracer: &mut Tracer,
    request: u64,
) -> Solved {
    let (jobs, expand) = tracer.time("job.expand", request, None, || JobSet::expand(set));
    let (lccd, lccd_time) = tracer.time("lccd.schedule", request, None, || {
        StaticScheduler::new().schedule(&jobs).ok()
    });
    let ctx = SolverCtx::seeded(seed);
    let (ga, ga_time) = tracer.time("ga.search", request, None, || {
        spec.ga().search_with(&jobs, &ctx).ok()
    });
    Solved {
        jobs,
        lccd,
        ga,
        expand,
        lccd_time,
        ga_time,
    }
}

/// Checks one schedule with `Schedule::validate` and the audit crate's
/// independent verifier, and that the independent Ψ/Υ recomputation
/// matches `claimed` (when given) bit for bit. Returns the recomputed
/// (Ψ, Υ).
fn verify(
    what: &str,
    schedule: &Schedule,
    jobs: &JobSet,
    claimed: Option<(f64, f64)>,
) -> Result<(f64, f64), String> {
    schedule
        .validate(jobs)
        .map_err(|e| format!("{what}: validate: {e}"))?;
    let report = verify_entries(schedule.as_slice(), jobs);
    if !report.is_clean() {
        return Err(format!("{what}: audit: {report:?}"));
    }
    let (psi, upsilon) = recompute_quality(schedule, jobs);
    let produced = claimed.unwrap_or((
        tagio_core::metrics::psi(schedule, jobs),
        tagio_core::metrics::upsilon(schedule, jobs),
    ));
    if psi.to_bits() != produced.0.to_bits() || upsilon.to_bits() != produced.1.to_bits() {
        return Err(format!(
            "{what}: recomputed (psi, upsilon) ({psi}, {upsilon}) != produced {produced:?}"
        ));
    }
    Ok((psi, upsilon))
}

/// Per-layer totals of the first pass.
#[derive(Debug, Default)]
struct Totals {
    expand: Duration,
    jobs: u64,
    lccd_pass: u64,
    lccd_fail: u64,
    lccd_pass_time: Duration,
    lccd_fail_time: Duration,
    ga_time: Duration,
    ga_runs: u64,
    front_sizes: u64,
    hypervolume: Vec<f64>,
}

/// Runs the offline workload: one pass over every task set, then more
/// passes while another one fits in `seconds`. Every count, Ψ/Υ value
/// and digest comes from the first pass; every later pass must
/// reproduce it. End-to-end timings are calibrated ([`crate::calib`]).
#[must_use]
pub fn run(spec: &OfflineSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut tracer = Tracer::new(trace);
    let mut out = Outcome::default();
    let inputs: Vec<(f64, u64)> = spec
        .utilisations
        .iter()
        .flat_map(|&u| std::iter::repeat_n(u, spec.sets_per_point))
        .enumerate()
        .map(|(i, u)| (u, crate::mix(seed, i as u64)))
        .collect();
    let mut totals = Totals::default();
    let mut digests: Vec<u64> = Vec::with_capacity(inputs.len());
    let (mut regions, mut raw, mut setups, mut slowdowns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut psi, mut upsilon) = (Vec::new(), Vec::new());
    let mut request = 0u64;
    let started = Instant::now();
    let mut pass = 0usize;
    while another_pass_fits(pass, started.elapsed(), seconds) {
        let first = pass == 0;
        for (i, &(u, set_seed)) in inputs.iter().enumerate() {
            request += 1;
            let scale = calib::scale();
            let t0 = Instant::now();
            let set = SystemConfig::paper(u).generate(&mut StdRng::seed_from_u64(set_seed));
            setups.push(t0.elapsed().as_secs_f64() * scale);
            let solved = solve(spec, &set, set_seed, &mut tracer, request);
            slowdowns.push(1.0 / scale);
            raw.push(Timed {
                ops: 1,
                wall: solved.wall(),
            });
            regions.push(Timed {
                ops: 1,
                wall: solved.wall().mul_f64(scale),
            });

            // --- verification and digest, outside the timed region ---
            let mut digest = Digest::default();
            let mut failure = None;
            digest.word(solved.jobs.len() as u64);
            if let Some(schedule) = &solved.lccd {
                digest.word(1);
                match verify("LCC-D", schedule, &solved.jobs, None) {
                    Ok((p, y)) => {
                        digest.word(p.to_bits());
                        digest.word(y.to_bits());
                    }
                    Err(e) => failure = Some(e),
                }
            }
            let mut best = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            if let Some(ga) = &solved.ga {
                for (p, y, schedule) in &ga.front {
                    if let Err(e) = verify("GA", schedule, &solved.jobs, Some((*p, *y))) {
                        failure.get_or_insert(e);
                    }
                    digest.word(p.to_bits());
                    digest.word(y.to_bits());
                    best = (best.0.max(*p), best.1.max(*y));
                }
            }
            if first {
                out.attempted += 1;
                digests.push(digest.value());
                totals.expand += solved.expand;
                totals.jobs += solved.jobs.len() as u64;
                if solved.lccd.is_some() {
                    totals.lccd_pass += 1;
                    totals.lccd_pass_time += solved.lccd_time;
                } else {
                    totals.lccd_fail += 1;
                    totals.lccd_fail_time += solved.lccd_time;
                }
                if let Some(ga) = &solved.ga {
                    totals.ga_runs += 1;
                    totals.ga_time += solved.ga_time;
                    totals.front_sizes += ga.front.len() as u64;
                    let front: Vec<Objectives> = ga
                        .front
                        .iter()
                        .map(|(p, y, _)| Objectives::from(vec![*p, *y]))
                        .collect();
                    totals.hypervolume.push(hypervolume_2d(&front, [0.0, 0.0]));
                    psi.push(best.0);
                    upsilon.push(best.1);
                }
            } else if digest.value() != digests[i] {
                failure.get_or_insert_with(|| "results differ from pass 0".to_string());
            }
            if let Some(why) = failure {
                out.failed += 1;
                out.notes.push(format!("set {i} pass {pass}: {why}"));
            }
        }
        pass += 1;
    }
    let mut digest = Digest::default();
    for d in &digests {
        digest.word(*d);
    }
    out.digest = digest.value();

    // A task set is this workload's scenario. (The median over the five
    // utilisation points jumps between points from seed to seed.)
    let set_rates: Vec<f64> = regions.iter().map(Timed::rate).collect();
    let latencies_us: Vec<f64> = regions.iter().map(|r| r.wall.as_secs_f64() * 1e6).collect();
    let ops_per_sec = pooled_rate(&regions);
    out.set("ops_per_sec", ops_per_sec);
    out.set("scenario_ops_per_sec_p50", median(&set_rates));
    out.set("epoch_p50_us", percentile(&latencies_us, 50.0));
    out.set("epoch_p90_us", percentile(&latencies_us, 90.0));
    out.set(
        "acceptance",
        ratio(
            totals.lccd_pass as f64,
            (totals.lccd_pass + totals.lccd_fail) as f64,
        ),
    );
    out.set("psi", mean(&psi));
    out.set("upsilon", mean(&upsilon));
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "{}: {} task sets x {} passes, {} latency samples ({} beyond p90), GA width 1 at {}x{}; \
         uncalibrated ops_per_sec {}, median machine slow-down {:.4}",
        spec.name,
        inputs.len(),
        pass,
        latencies_us.len(),
        beyond(latencies_us.len(), 90.0),
        spec.population,
        spec.generations,
        pooled_rate(&raw),
        median(&slowdowns),
    ));

    let sets = inputs.len() as f64;
    out.set(
        "job.expand_us",
        ratio(totals.expand.as_secs_f64() * 1e6, sets),
    );
    out.set("job.jobs_per_expand", ratio(totals.jobs as f64, sets));
    out.set("lccd.calls", (totals.lccd_pass + totals.lccd_fail) as f64);
    out.set("lccd.pass", totals.lccd_pass as f64);
    out.set(
        "lccd.pass_us",
        ratio(
            totals.lccd_pass_time.as_secs_f64() * 1e6,
            totals.lccd_pass as f64,
        ),
    );
    out.set(
        "lccd.fail_us",
        ratio(
            totals.lccd_fail_time.as_secs_f64() * 1e6,
            totals.lccd_fail as f64,
        ),
    );
    let evaluations = totals.ga_runs * (spec.population * (spec.generations + 1)) as u64;
    let ga_secs = totals.ga_time.as_secs_f64();
    out.set("ga.search_ms", ratio(ga_secs * 1e3, totals.ga_runs as f64));
    out.set("ga.evaluations", evaluations as f64);
    out.set("ga.evals_per_sec", ratio(evaluations as f64, ga_secs));
    out.set(
        "ga.front_size",
        ratio(totals.front_sizes as f64, totals.ga_runs as f64),
    );
    out.set("ga.hypervolume", mean(&totals.hypervolume));
    out.set("calib.slowdown", median(&slowdowns));
    if trace {
        out.set("trace.ops_per_sec", ops_per_sec);
        out.set("trace.spans", tracer.spans().len() as f64);
    }
    out.spans = tracer;
    out
}
