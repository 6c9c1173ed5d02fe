//! The multi-objective GA-based I/O scheduler (paper §III.B).
//!
//! Each job's actual start time `κi^j` is one gene; a genome is a complete
//! tentative schedule. Constraint 1 (release window) is enforced at
//! initialisation and mutation by drawing `κ` inside the quality window
//! `[ideal − θ, ideal + θ]` (clipped to the release window). Constraint 2
//! (no overlap) is enforced by the **reconfiguration function** applied
//! before evaluation: jobs are laid out in `κ` order (ties: higher priority
//! first, footnote 2), pushed later just enough to remove conflicts, and
//! finally snapped back to their ideal starts where the neighbouring
//! executions leave room. Infeasible individuals score `(−1, −1)`.
//!
//! Objectives are the paper's `(Ψ, Υ)`, summed by
//! [`metrics::quality_with_peak`] straight from the reconfigured starts by
//! job position: no [`Schedule`] is built or sorted per genome, and the
//! bits equal [`metrics::quality`] of `reconfigure(genome)`. The engine
//! returns every non-dominated schedule found, from which callers
//! typically take the best-Ψ and best-Υ ends (as Figs. 6 and 7 do).
//!
//! ## Per-problem tables
//!
//! The GA scores tens of thousands of genomes of one job set, so the
//! work that does not depend on the genome is done once per search:
//! - each job's **rank** under (priority high → low, task, index), ties
//!   by position. The rank is distinct per job, so the execution order
//!   is the sort of packed `(κ, rank)` keys, with no comparator reading
//!   two jobs per comparison. A key is one `u64` while every gene
//!   leaves the rank its low bits (always, for genes inside the
//!   hyper-period) and a `u128` otherwise, so any `u64` gene is safe;
//! - one flat row per job of release, WCET, latest start, ideal start and
//!   deadline in µs, which the three passes read instead of the jobs;
//! - the peak quality `Σ V(δ)`, Υ's denominator.
//!
//! Each evaluation worker keeps its own sort keys, execution order and
//! per-pass buffers from one genome to the next (the engine's
//! `Problem::Scratch`). [`reconfigure`] builds the same tables for its
//! one genome and runs the same passes.

use crate::scheduler::Scheduler;
use crate::solve::check_capacity;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::cmp::Reverse;
use tagio_core::job::JobSet;
use tagio_core::metrics;
use tagio_core::schedule::{entry_for, Schedule};
use tagio_core::solve::{Infeasible, InfeasibleCause, SolverCtx};
use tagio_core::time::Time;
use tagio_ga::{GaConfig, Objectives, Problem};

/// The GA-based scheduler ("GA" in the paper's figures).
///
/// Overrides [`Scheduler::schedule_with`]: the [`SolverCtx`] seed, when
/// set, replaces the constructor-baked one. The scheduler is
/// bit-identical across runs (and thread counts) for a fixed seed.
#[derive(Debug, Clone, PartialEq)]
pub struct GaScheduler {
    config: GaConfig,
    seed: u64,
}

/// Everything a GA run produces: the non-dominated schedules and the
/// conventional extreme points.
#[derive(Debug, Clone)]
pub struct GaScheduleResult {
    /// All non-dominated `(Ψ, Υ, schedule)` triples found.
    pub front: Vec<(f64, f64, Schedule)>,
    /// The schedule maximising Ψ (Fig. 6 reports this end).
    pub best_psi: Schedule,
    /// The schedule maximising Υ (Fig. 7 reports this end).
    pub best_upsilon: Schedule,
}

impl GaScheduler {
    /// A scheduler with the engine's default parameters and seed 0.
    #[must_use]
    pub fn new() -> Self {
        GaScheduler {
            config: GaConfig::quick(),
            seed: 0,
        }
    }

    /// Sets the GA parameters (population 300 × 500 generations reproduces
    /// the paper's budget).
    #[must_use]
    pub fn with_config(mut self, config: GaConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the search under a default context and returns the full
    /// non-dominated front.
    ///
    /// # Errors
    /// See [`GaScheduler::search_with`].
    pub fn search(&self, jobs: &JobSet) -> Result<GaScheduleResult, Infeasible> {
        self.search_with(jobs, &SolverCtx::new())
    }

    /// Runs the search with the `ctx` seed (or the constructor seed when
    /// `ctx` sets none) and returns the full non-dominated front.
    ///
    /// # Errors
    /// [`InfeasibleCause::UtilisationOverload`] on outright overload and
    /// [`InfeasibleCause::NoFeasibleSlot`] when the search found no
    /// feasible genome.
    pub fn search_with(
        &self,
        jobs: &JobSet,
        ctx: &SolverCtx,
    ) -> Result<GaScheduleResult, Infeasible> {
        if jobs.is_empty() {
            let empty = Schedule::new();
            return Ok(GaScheduleResult {
                front: vec![(1.0, 1.0, empty.clone())],
                best_psi: empty.clone(),
                best_upsilon: empty,
            });
        }
        check_capacity(jobs)?;
        let problem = IoSchedulingProblem::new(jobs);
        let mut rng = StdRng::seed_from_u64(ctx.seed_or(self.seed));
        let front = tagio_ga::run(&problem, &self.config, &mut rng);
        if front.is_empty() {
            return Err(Infeasible::new(InfeasibleCause::NoFeasibleSlot));
        }
        let mut triples: Vec<(f64, f64, Schedule)> = Vec::with_capacity(front.len());
        let mut scratch = ReconfigScratch::default();
        for sol in front.solutions() {
            let schedule = problem
                .schedule(&sol.genome, &mut scratch)
                .expect("archived solutions are feasible");
            triples.push((
                sol.objectives.values()[0],
                sol.objectives.values()[1],
                schedule,
            ));
        }
        let best_psi = triples
            .iter()
            .max_by(|a, b| a.0.partial_cmp(&b.0).expect("psi is finite"))
            .expect("front is non-empty")
            .2
            .clone();
        let best_upsilon = triples
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("upsilon is finite"))
            .expect("front is non-empty")
            .2
            .clone();
        Ok(GaScheduleResult {
            front: triples,
            best_psi,
            best_upsilon,
        })
    }
}

impl Default for GaScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for GaScheduler {
    fn name(&self) -> &'static str {
        "ga"
    }

    /// The balanced schedule of the front found with the constructor
    /// seed (see [`GaScheduler::schedule_with`]).
    fn schedule(&self, jobs: &JobSet) -> Result<Schedule, Infeasible> {
        self.schedule_with(jobs, &SolverCtx::new())
    }

    /// Returns the balanced (equal-weight) non-dominated schedule of the
    /// front found under `ctx`.
    fn schedule_with(&self, jobs: &JobSet, ctx: &SolverCtx) -> Result<Schedule, Infeasible> {
        let result = self.search_with(jobs, ctx)?;
        Ok(result
            .front
            .iter()
            .max_by(|a, b| {
                (a.0 + a.1)
                    .partial_cmp(&(b.0 + b.1))
                    .expect("objectives are finite")
            })
            .expect("search_with returns a non-empty front")
            .2
            .clone())
    }
}

/// The GA's view of one job set. Everything a genome's evaluation reads
/// that does not depend on the genome is built once, in
/// [`IoSchedulingProblem::new`] (see the module docs).
struct IoSchedulingProblem<'a> {
    jobs: &'a JobSet,
    /// Per-job tables by job position.
    table: Vec<JobTimes>,
    /// Job positions by rank: the inverse of [`JobTimes::rank`].
    by_rank: Vec<usize>,
    /// Low bits a narrow sort key gives the rank: enough for `0..len`.
    rank_bits: u32,
    /// `jobs.peak_quality()`, Υ's denominator.
    peak: f64,
}

/// One job's tie-break rank and times (µs), as the reconfiguration
/// function reads them.
#[derive(Debug, Clone, Copy)]
struct JobTimes {
    /// Place under (priority high → low, task, index, position): the
    /// order equal `κ` run in. Distinct for distinct jobs.
    rank: u32,
    release: u64,
    wcet: u64,
    latest_start: u64,
    ideal: u64,
    deadline: u64,
}

/// Per-worker buffers of the reconfiguration function, reused from one
/// genome to the next. Every pass writes an entry before reading it.
#[derive(Debug, Default)]
struct ReconfigScratch {
    /// `κ << rank_bits | rank` sort keys, when every gene leaves room.
    keys: Vec<u64>,
    /// `κ << 32 | rank` sort keys, for genomes with wider genes.
    wide_keys: Vec<u128>,
    /// The execution order: job positions.
    order: Vec<usize>,
    /// Pass 1's latest feasible start, by place in `order`.
    latest: Vec<u64>,
    /// The reconfigured start of every job, by job position.
    assigned: Vec<u64>,
}

impl<'a> IoSchedulingProblem<'a> {
    fn new(jobs: &'a JobSet) -> Self {
        let all = jobs.as_slice();
        assert!(u32::try_from(all.len()).is_ok(), "job count exceeds u32");
        // A stable sort, so jobs equal in (priority, task, index) keep
        // their positions' order, as the comparator sort did.
        let mut by_rank: Vec<usize> = (0..all.len()).collect();
        by_rank.sort_by_key(|&i| {
            (
                Reverse(all[i].priority()),
                all[i].id().task,
                all[i].id().index,
            )
        });
        let mut rank = vec![0u32; all.len()];
        for (r, &i) in (0u32..).zip(&by_rank) {
            rank[i] = r;
        }
        let table = all
            .iter()
            .zip(rank)
            .map(|(job, rank)| JobTimes {
                rank,
                release: job.release().as_micros(),
                wcet: job.wcet().as_micros(),
                latest_start: job.latest_start().as_micros(),
                ideal: job.ideal_start().as_micros(),
                deadline: job.abs_deadline().as_micros(),
            })
            .collect();
        IoSchedulingProblem {
            jobs,
            table,
            by_rank,
            rank_bits: (usize::BITS - all.len().saturating_sub(1).leading_zeros()).max(1),
            peak: jobs.peak_quality(),
        }
    }

    /// Writes the execution order of `genome` into `scratch.order`: by
    /// `κ`, equal `κ` by rank (footnote 2: higher priority first). The
    /// rank is distinct per job, so the keys are distinct and the
    /// unstable sort returns the one order the comparator defines.
    ///
    /// The GA's genes lie inside the hyper-period, so `κ` and the rank
    /// share one `u64` key; a genome with a gene too wide for that sorts
    /// `u128` keys instead, in the same order.
    fn order_into(&self, genome: &[u64], scratch: &mut ReconfigScratch) {
        let bits = self.rank_bits;
        let widest = genome.iter().fold(0, |acc, &kappa| acc | kappa);
        scratch.order.clear();
        if widest.leading_zeros() >= bits {
            let keys = &mut scratch.keys;
            keys.clear();
            keys.extend(
                genome
                    .iter()
                    .zip(&self.table)
                    .map(|(&kappa, t)| kappa << bits | u64::from(t.rank)),
            );
            keys.sort_unstable();
            let mask = (1u64 << bits) - 1;
            let ranks = keys.iter().map(|&key| (key & mask) as usize);
            scratch.order.extend(ranks.map(|r| self.by_rank[r]));
        } else {
            let keys = &mut scratch.wide_keys;
            keys.clear();
            keys.extend(
                genome
                    .iter()
                    .zip(&self.table)
                    .map(|(&kappa, t)| u128::from(kappa) << 32 | u128::from(t.rank)),
            );
            keys.sort_unstable();
            let ranks = keys.iter().map(|&key| key as u32 as usize);
            scratch.order.extend(ranks.map(|r| self.by_rank[r]));
        }
    }

    /// The reconfiguration function's passes on `genome`: leaves the
    /// execution order in `scratch.order` and every job's reconfigured
    /// start in `scratch.assigned`, or returns the position of the job
    /// that cannot meet its deadline under that order.
    fn assign(&self, genome: &[u64], scratch: &mut ReconfigScratch) -> Result<(), usize> {
        let n = self.table.len();
        assert_eq!(n, genome.len(), "genome length mismatch");
        self.order_into(genome, scratch);
        let ReconfigScratch {
            order,
            latest,
            assigned,
            ..
        } = scratch;
        let table = &self.table;

        // Pass 1 (backwards): the latest feasible start L of each job given
        // that every later job in the order must still meet its deadline:
        // L_k = min(Dk − Ck, L_{k+1} − Ck).
        latest.resize(n, 0);
        let mut succ_latest = u64::MAX;
        for (slot, &idx) in latest.iter_mut().zip(order.iter()).rev() {
            let t = &table[idx];
            // `None`: the successor chain is already impossible, this
            // job's WCET alone exceeds what the jobs after it leave.
            let chained = succ_latest.checked_sub(t.wcet).ok_or(idx)?;
            *slot = t.latest_start.min(chained);
            succ_latest = *slot;
        }

        // Pass 2 (forwards): honour κ wherever feasible. Each start is clamped
        // to [max(release, previous finish), L]; jobs whose κ collides with a
        // running predecessor are pushed just late enough (footnote 2: equal
        // starts execute in priority order), and jobs whose κ would starve a
        // successor are pulled just early enough.
        assigned.resize(n, 0);
        let mut cursor = 0u64;
        for (&idx, &l) in order.iter().zip(latest.iter()) {
            let t = &table[idx];
            let lo = cursor.max(t.release);
            if lo > l {
                // The κ-order is infeasible for this job.
                return Err(idx);
            }
            let start = genome[idx].clamp(lo, l);
            assigned[idx] = start;
            cursor = start + t.wcet;
        }

        // Pass 3: snap each job to its ideal start when the gap between its
        // neighbours allows it.
        for pos in 0..n {
            let idx = order[pos];
            let t = &table[idx];
            if assigned[idx] == t.ideal {
                continue;
            }
            let lo = match pos.checked_sub(1) {
                Some(prev) => assigned[order[prev]] + table[order[prev]].wcet,
                None => 0,
            };
            let hi = order.get(pos + 1).map_or(u64::MAX, |&next| assigned[next]);
            if t.ideal >= lo.max(t.release) && t.ideal + t.wcet <= hi.min(t.deadline) {
                assigned[idx] = t.ideal;
            }
        }
        Ok(())
    }

    /// The reconfigured schedule of `genome`, in execution order.
    fn schedule(
        &self,
        genome: &[u64],
        scratch: &mut ReconfigScratch,
    ) -> Result<Schedule, Infeasible> {
        let all = self.jobs.as_slice();
        self.assign(genome, scratch).map_err(|idx| {
            Infeasible::new(InfeasibleCause::NoFeasibleSlot).with_jobs([all[idx].id()])
        })?;
        Ok(scratch
            .order
            .iter()
            .map(|&i| entry_for(&all[i], Time::from_micros(scratch.assigned[i])))
            .collect())
    }
}

impl Problem for IoSchedulingProblem<'_> {
    type Gene = u64; // κ in microseconds
    type Scratch = ReconfigScratch;

    fn genome_len(&self) -> usize {
        self.jobs.len()
    }

    /// Constraint 1 by construction: `κ` is drawn inside the quality window
    /// clipped to the release window (the paper initialises and mutates in
    /// `[Ti·j + δi − θi, Ti·j + δi + θi]`).
    fn random_gene(&self, locus: usize, rng: &mut dyn Rng) -> u64 {
        let job = &self.jobs.as_slice()[locus];
        let lo = job.window_start().as_micros();
        let hi = job.window_end().as_micros().max(lo);
        rng.random_range(lo..=hi)
    }

    /// The ideal start is the natural seed for κ (extension; engaged only
    /// when `GaConfig::hint_fraction > 0`).
    fn hint_gene(&self, locus: usize) -> Option<u64> {
        Some(self.jobs.as_slice()[locus].ideal_start().as_micros())
    }

    /// `(Ψ, Υ)` of the reconfigured starts; `(−1, −1)` when infeasible.
    fn evaluate(&self, genome: &[u64], scratch: &mut ReconfigScratch) -> Objectives {
        let (psi, upsilon) = match self.assign(genome, scratch) {
            Ok(()) => metrics::quality_with_peak(self.jobs, self.peak, |i| {
                Some(Time::from_micros(scratch.assigned[i]))
            }),
            Err(_) => (-1.0, -1.0),
        };
        Objectives::from(vec![psi, upsilon])
    }
}

/// The reconfiguration function (paper §III.B): resolves Constraint 2
/// conflicts while preserving the genome's execution order, then snaps jobs
/// back to their ideal instants where possible.
///
/// # Errors
/// An [`InfeasibleCause::NoFeasibleSlot`] diagnostic naming the job that
/// cannot meet its deadline under the genome's execution order.
///
/// # Panics
/// Panics on a genome whose length differs from the job set (caller
/// bug, not an input condition).
pub fn reconfigure(jobs: &JobSet, starts: &[u64]) -> Result<Schedule, Infeasible> {
    IoSchedulingProblem::new(jobs).schedule(starts, &mut ReconfigScratch::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulingReport;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagio_core::job::JobId;
    use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
    use tagio_core::time::Duration;
    use tagio_workload::generator::SystemConfig;

    fn task(id: u32, period_ms: u64, wcet_us: u64, delta_ms: u64) -> IoTask {
        IoTask::builder(TaskId(id), DeviceId(0))
            .wcet(Duration::from_micros(wcet_us))
            .period(Duration::from_millis(period_ms))
            .ideal_offset(Duration::from_millis(delta_ms))
            .margin(Duration::from_millis(period_ms) / 4)
            .build()
            .unwrap()
    }

    fn quick_ga() -> GaScheduler {
        GaScheduler::new()
            .with_config(GaConfig {
                population: 30,
                generations: 25,
                ..GaConfig::default()
            })
            .with_seed(42)
    }

    #[test]
    fn reconfigure_serialises_conflicts_in_priority_order() {
        let mut set: TaskSet = vec![task(0, 8, 1000, 4), task(1, 8, 1000, 4)]
            .into_iter()
            .collect();
        set.assign_dmpo();
        let jobs = JobSet::expand(&set);
        // Same κ for both: the higher-priority job must run first.
        let starts: Vec<u64> = jobs.iter().map(|j| j.ideal_start().as_micros()).collect();
        let s = reconfigure(&jobs, &starts).expect("feasible");
        s.validate(&jobs).unwrap();
        let hp = jobs.iter().max_by_key(|j| j.priority()).unwrap().id();
        assert_eq!(s.start_of(hp), Some(Time::from_millis(4)));
    }

    #[test]
    fn reconfigure_snaps_back_to_ideal() {
        let set: TaskSet = vec![task(0, 8, 500, 2), task(1, 8, 500, 5)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&set);
        // Genes deliberately off-ideal but conflict-free.
        let starts: Vec<u64> = jobs
            .iter()
            .map(|j| j.ideal_start().as_micros() + 300)
            .collect();
        let s = reconfigure(&jobs, &starts).expect("feasible");
        // Snap pass should restore both to their ideal starts.
        for j in &jobs {
            assert_eq!(s.start_of(j.id()), Some(j.ideal_start()));
        }
    }

    #[test]
    fn reconfigure_detects_infeasibility() {
        // tight: period 1ms, wcet 600us (two jobs per hyper-period);
        // long: period 2ms, wcet 800us. Sequencing the long job first
        // starves tight job #0 (latest start 400us < 800us).
        let tight = IoTask::builder(TaskId(0), DeviceId(0))
            .wcet(Duration::from_micros(600))
            .period(Duration::from_millis(1))
            .ideal_offset(Duration::from_micros(300))
            .margin(Duration::from_micros(300))
            .build()
            .unwrap();
        let long = IoTask::builder(TaskId(1), DeviceId(0))
            .wcet(Duration::from_micros(800))
            .period(Duration::from_millis(2))
            .ideal_offset(Duration::from_micros(400))
            .margin(Duration::from_micros(300))
            .build()
            .unwrap();
        let set: TaskSet = vec![tight, long].into_iter().collect();
        let jobs = JobSet::expand(&set);
        // Infeasible order: long (κ=0), tight#0 (κ=900), tight#1 (κ=1500).
        let starts: Vec<u64> = jobs
            .iter()
            .map(|j| match (j.id().task, j.id().index) {
                (TaskId(1), _) => 0,
                (_, 0) => 900,
                _ => 1_500,
            })
            .collect();
        let err = reconfigure(&jobs, &starts).unwrap_err();
        assert_eq!(err.cause, InfeasibleCause::NoFeasibleSlot);
        assert!(!err.jobs.is_empty(), "the starved job is named");
        // Feasible order: tight#0, long, tight#1.
        let starts: Vec<u64> = jobs
            .iter()
            .map(|j| match (j.id().task, j.id().index) {
                (TaskId(1), _) => 700,
                (_, 0) => 0,
                _ => 1_500,
            })
            .collect();
        assert!(reconfigure(&jobs, &starts).is_ok());
    }

    #[test]
    fn ga_finds_exact_schedule_for_conflict_free_set() {
        let set: TaskSet = vec![task(0, 8, 500, 2), task(1, 8, 500, 5)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&set);
        let result = quick_ga().search(&jobs).expect("feasible");
        let (psi, upsilon, s) = result
            .front
            .iter()
            .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
            .unwrap();
        s.validate(&jobs).unwrap();
        assert_eq!(*psi, 1.0);
        assert_eq!(*upsilon, 1.0);
    }

    #[test]
    fn ga_schedules_are_valid_on_random_systems() {
        let mut rng = StdRng::seed_from_u64(3);
        let sys = SystemConfig::paper(0.4).generate(&mut rng);
        let jobs = JobSet::expand(&sys);
        if let Ok(result) = quick_ga().search(&jobs) {
            for (_, _, s) in &result.front {
                s.validate(&jobs).unwrap();
            }
        }
    }

    #[test]
    fn ga_is_deterministic_per_seed() {
        let set: TaskSet = vec![task(0, 8, 2000, 4), task(1, 8, 2000, 4)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&set);
        let a = quick_ga().search(&jobs).unwrap();
        let b = quick_ga().search(&jobs).unwrap();
        assert_eq!(a.front.len(), b.front.len());
        assert_eq!(a.best_psi, b.best_psi);
    }

    #[test]
    fn best_psi_dominates_balanced_on_psi() {
        let mut rng = StdRng::seed_from_u64(9);
        let sys = SystemConfig::paper(0.5).generate(&mut rng);
        let jobs = JobSet::expand(&sys);
        if let Ok(result) = quick_ga().search(&jobs) {
            let psi_best = metrics::psi(&result.best_psi, &jobs);
            for (psi, _, _) in &result.front {
                assert!(psi_best >= *psi - 1e-12);
            }
        }
    }

    #[test]
    fn scheduler_trait_returns_valid_schedule() {
        let set: TaskSet = vec![task(0, 8, 1000, 4), task(1, 8, 1000, 4)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&set);
        let r = SchedulingReport::evaluate(&quick_ga(), &jobs).unwrap();
        assert!(r.schedulable);
        assert!(
            r.psi >= 0.5,
            "at least one of two jobs exact, got {}",
            r.psi
        );
    }

    #[test]
    fn empty_jobset_is_trivially_perfect() {
        let jobs = JobSet::from_jobs(vec![], Duration::from_millis(1));
        let result = GaScheduler::new().search(&jobs).unwrap();
        assert_eq!(result.front[0].0, 1.0);
    }

    #[test]
    fn reconfigured_start_never_precedes_gene_or_release() {
        let mut rng = StdRng::seed_from_u64(10);
        let sys = SystemConfig::paper(0.3).generate(&mut rng);
        let jobs = JobSet::expand(&sys);
        let starts: Vec<u64> = jobs.iter().map(|j| j.window_start().as_micros()).collect();
        if let Ok(s) = reconfigure(&jobs, &starts) {
            for (j, &g) in jobs.iter().zip(&starts) {
                let assigned = s.start_of(j.id()).unwrap();
                // Snap-to-ideal may move a start off its gene, but never
                // before the release.
                assert!(assigned >= j.release());
                let _ = g;
            }
        }
    }

    #[test]
    fn pareto_front_is_mutually_non_dominated() {
        let mut rng = StdRng::seed_from_u64(12);
        let sys = SystemConfig::paper(0.6).generate(&mut rng);
        let jobs = JobSet::expand(&sys);
        if let Ok(result) = quick_ga().search(&jobs) {
            for (i, a) in result.front.iter().enumerate() {
                for (j, b) in result.front.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let dominates = a.0 >= b.0 && a.1 >= b.1 && (a.0 > b.0 || a.1 > b.1);
                    assert!(!dominates, "front member {i} dominates {j}");
                }
            }
        }
    }

    #[test]
    fn ga_beats_fps_on_upsilon() {
        use crate::fps::FpsOffline;
        let mut rng = StdRng::seed_from_u64(21);
        let mut ga_total = 0.0;
        let mut fps_total = 0.0;
        let mut count = 0;
        for _ in 0..5 {
            let sys = SystemConfig::paper(0.5).generate(&mut rng);
            let jobs = JobSet::expand(&sys);
            let fps = SchedulingReport::evaluate(&FpsOffline::new(), &jobs).unwrap();
            if let Ok(result) = quick_ga().search(&jobs) {
                let best = result
                    .front
                    .iter()
                    .map(|t| t.1)
                    .fold(f64::NEG_INFINITY, f64::max);
                if fps.schedulable {
                    ga_total += best;
                    fps_total += fps.upsilon;
                    count += 1;
                }
            }
        }
        assert!(count > 0);
        assert!(
            ga_total >= fps_total,
            "GA upsilon {ga_total} < FPS upsilon {fps_total}"
        );
    }

    #[test]
    fn ideal_seeding_produces_valid_nonworse_start() {
        let mut rng = StdRng::seed_from_u64(31);
        let sys = SystemConfig::paper(0.5).generate(&mut rng);
        let jobs = JobSet::expand(&sys);
        let seeded = quick_ga()
            .with_config(GaConfig {
                population: 30,
                generations: 25,
                hint_fraction: 0.2,
                ..GaConfig::default()
            })
            .search(&jobs)
            .expect("feasible");
        for (_, _, s) in &seeded.front {
            s.validate(&jobs).unwrap();
        }
        // The seeded genome (all jobs at ideal, reconfigured) is in the
        // initial population, so the archive's best psi must at least match
        // the reconfigured all-ideal layout.
        let all_ideal: Vec<u64> = jobs.iter().map(|j| j.ideal_start().as_micros()).collect();
        if let Ok(baseline) = reconfigure(&jobs, &all_ideal) {
            let baseline_psi = metrics::psi(&baseline, &jobs);
            let best = seeded.front.iter().map(|t| t.0).fold(f64::MIN, f64::max);
            assert!(best + 1e-9 >= baseline_psi, "{best} < {baseline_psi}");
        }
    }

    #[test]
    fn parallel_ga_front_identical_to_serial_on_paper_system() {
        // Same seed => identical ParetoFront (genomes and objectives) for
        // threads in {1, 2, 4}, on a system drawn from the paper's generator.
        let mut rng = StdRng::seed_from_u64(40);
        let sys = SystemConfig::paper(0.5).generate(&mut rng);
        let jobs = JobSet::expand(&sys);
        let problem = IoSchedulingProblem::new(&jobs);
        let serial_cfg = GaConfig {
            population: 32,
            generations: 20,
            threads: 1,
            ..GaConfig::default()
        };
        let serial = tagio_ga::run(&problem, &serial_cfg, &mut StdRng::seed_from_u64(7));
        let s = quick_ga().with_config(serial_cfg.clone()).search(&jobs);
        for threads in [2, 4] {
            let parallel_cfg = GaConfig {
                threads,
                ..serial_cfg.clone()
            };
            let parallel = tagio_ga::run(&problem, &parallel_cfg, &mut StdRng::seed_from_u64(7));
            assert_eq!(serial.len(), parallel.len(), "width {threads}");
            for (a, b) in serial.solutions().iter().zip(parallel.solutions()) {
                assert_eq!(a.genome, b.genome, "width {threads}");
                assert_eq!(a.objectives, b.objectives, "width {threads}");
            }
            // And end to end: the scheduler's derived outputs agree too.
            let p = quick_ga().with_config(parallel_cfg).search(&jobs);
            match (&s, p) {
                (Ok(s), Ok(p)) => {
                    assert_eq!(s.best_psi, p.best_psi);
                    assert_eq!(s.best_upsilon, p.best_upsilon);
                }
                (Err(_), Err(_)) => {}
                _ => panic!("feasibility differs at width {threads}"),
            }
        }
    }

    #[test]
    fn schedules_tasks_with_release_offsets() {
        // §III.C: methods apply unchanged to offset releases.
        let offset_task = IoTask::builder(TaskId(0), DeviceId(0))
            .wcet(Duration::from_micros(500))
            .period(Duration::from_millis(8))
            .ideal_offset(Duration::from_millis(4))
            .margin(Duration::from_millis(2))
            .release_offset(Duration::from_millis(3))
            .build()
            .unwrap();
        let set: TaskSet = vec![offset_task, task(1, 8, 500, 4)].into_iter().collect();
        let jobs = JobSet::expand(&set);
        let result = quick_ga().search(&jobs).expect("feasible");
        for (_, _, s) in &result.front {
            s.validate(&jobs).unwrap();
        }
    }

    #[test]
    fn jobid_lookup_consistency() {
        // Guard against genome/job index misalignment.
        let set: TaskSet = vec![task(0, 4, 100, 2), task(1, 8, 100, 4)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&set);
        let starts: Vec<u64> = jobs.iter().map(|j| j.ideal_start().as_micros()).collect();
        let s = reconfigure(&jobs, &starts).unwrap();
        assert_eq!(s.len(), jobs.len());
        assert!(jobs.iter().all(|j| s.start_of(j.id()).is_some()));
        let _ = JobId::new(TaskId(0), 0);
    }

    #[test]
    fn genome_scores_match_schedule_based_scoring_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut feasible = 0;
        for u in [0.3, 0.5, 0.7, 0.9] {
            let jobs = JobSet::expand(&SystemConfig::paper(u).generate(&mut rng));
            let problem = IoSchedulingProblem::new(&jobs);
            let horizon = jobs.hyperperiod().as_micros();
            // One scratch for every genome, as an evaluation worker holds.
            let mut scratch = ReconfigScratch::default();
            for kind in 0..30 {
                let genome: Vec<u64> = (0..jobs.len())
                    .map(|locus| match kind % 3 {
                        0 => problem.random_gene(locus, &mut rng),
                        _ => rng.random_range(0..horizon),
                    })
                    .collect();
                // The schedule-based scoring `evaluate` ran before it
                // summed by job position, kept as the oracle.
                let want = match reconfigure(&jobs, &genome) {
                    Ok(s) => [metrics::psi(&s, &jobs), metrics::upsilon(&s, &jobs)],
                    Err(_) => [-1.0, -1.0],
                };
                feasible += usize::from(want[0] >= 0.0);
                let got: [f64; 2] = problem
                    .evaluate(&genome, &mut scratch)
                    .values()
                    .try_into()
                    .unwrap();
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "u={u} #{kind}"
                );
            }
        }
        assert!(feasible > 0 && feasible < 120, "{feasible} of 120 feasible");
    }

    /// The comparator-sorted reconfiguration the ranked keys replaced,
    /// kept as the oracle: the execution order, every job's reconfigured
    /// start by job position, or the job that cannot meet its deadline.
    fn reference_assign_starts(
        jobs: &JobSet,
        starts: &[u64],
    ) -> Result<(Vec<usize>, Vec<Time>), JobId> {
        let all = jobs.as_slice();
        assert_eq!(all.len(), starts.len(), "genome length mismatch");
        let mut order: Vec<usize> = (0..all.len()).collect();
        order.sort_by(|&a, &b| {
            starts[a]
                .cmp(&starts[b])
                .then(all[b].priority().cmp(&all[a].priority()))
                .then(all[a].id().task.cmp(&all[b].id().task))
                .then(all[a].id().index.cmp(&all[b].id().index))
        });
        let mut latest: Vec<Time> = vec![Time::ZERO; all.len()];
        let mut succ_latest = Time::MAX;
        for &idx in order.iter().rev() {
            let job = &all[idx];
            let l = match succ_latest.checked_sub_duration(job.wcet()) {
                Some(t) => job.latest_start().min(t),
                None => return Err(job.id()),
            };
            latest[idx] = l;
            succ_latest = l;
        }
        let mut assigned: Vec<Time> = vec![Time::ZERO; all.len()];
        let mut cursor = Time::ZERO;
        for &idx in &order {
            let job = &all[idx];
            let lo = cursor.max(job.release());
            if lo > latest[idx] {
                return Err(job.id());
            }
            let start = Time::from_micros(starts[idx]).clamp(lo, latest[idx]);
            assigned[idx] = start;
            cursor = start + job.wcet();
        }
        for pos in 0..order.len() {
            let idx = order[pos];
            let job = &all[idx];
            let ideal = job.ideal_start();
            if assigned[idx] == ideal {
                continue;
            }
            let lo = if pos > 0 {
                let prev = order[pos - 1];
                assigned[prev] + all[prev].wcet()
            } else {
                Time::ZERO
            };
            let hi = if pos + 1 < order.len() {
                assigned[order[pos + 1]]
            } else {
                Time::MAX
            };
            if ideal >= lo.max(job.release()) && ideal + job.wcet() <= hi.min(job.abs_deadline()) {
                assigned[idx] = ideal;
            }
        }
        Ok((order, assigned))
    }

    /// Checks the ranked-key passes and `reconfigure` against the
    /// reference on one genome; returns whether it was feasible.
    fn check_against_reference(
        jobs: &JobSet,
        problem: &IoSchedulingProblem<'_>,
        scratch: &mut ReconfigScratch,
        genome: &[u64],
        what: &str,
    ) -> bool {
        let want = reference_assign_starts(jobs, genome);
        let got = problem.assign(genome, scratch);
        let fresh = reconfigure(jobs, genome);
        match want {
            Ok((order, assigned)) => {
                assert_eq!(got, Ok(()), "{what}");
                assert_eq!(scratch.order, order, "{what}: execution order");
                let got_starts: Vec<Time> = scratch
                    .assigned
                    .iter()
                    .map(|&t| Time::from_micros(t))
                    .collect();
                assert_eq!(got_starts, assigned, "{what}: assigned starts");
                let schedule: Schedule = order
                    .iter()
                    .map(|&i| entry_for(&jobs.as_slice()[i], assigned[i]))
                    .collect();
                assert_eq!(fresh.expect("feasible"), schedule, "{what}: reconfigure");
                true
            }
            Err(job) => {
                let idx = got.expect_err(what);
                assert_eq!(jobs.as_slice()[idx].id(), job, "{what}: failing job");
                assert_eq!(
                    fresh.expect_err(what).jobs,
                    vec![job],
                    "{what}: reconfigure"
                );
                false
            }
        }
    }

    #[test]
    fn ranked_key_order_matches_the_comparator_reference() {
        let mut rng = StdRng::seed_from_u64(26);
        let mut sets: Vec<JobSet> = Vec::new();
        // Paper systems: many jobs, every priority distinct per task.
        for u in [0.3, 0.6, 0.9] {
            sets.push(JobSet::expand(&SystemConfig::paper(u).generate(&mut rng)));
        }
        // Priority ties across tasks: equal periods without DMPO leave
        // every task at one priority, so equal κ fall back to task, then
        // index.
        let tied: TaskSet = vec![task(2, 8, 900, 4), task(0, 8, 700, 4), task(1, 4, 300, 2)]
            .into_iter()
            .collect();
        sets.push(JobSet::expand(&tied));
        // Release offsets shift the windows off the period grid.
        let offset = IoTask::builder(TaskId(3), DeviceId(0))
            .wcet(Duration::from_micros(600))
            .period(Duration::from_millis(8))
            .ideal_offset(Duration::from_millis(4))
            .margin(Duration::from_millis(2))
            .release_offset(Duration::from_millis(3))
            .build()
            .unwrap();
        let mut with_offset: TaskSet = vec![offset, task(4, 8, 800, 4), task(5, 4, 500, 1)]
            .into_iter()
            .collect();
        with_offset.assign_dmpo();
        sets.push(JobSet::expand(&with_offset));
        // Three jobs where most κ orders starve one (the set of
        // `reconfigure_detects_infeasibility`).
        let tight = IoTask::builder(TaskId(0), DeviceId(0))
            .wcet(Duration::from_micros(600))
            .period(Duration::from_millis(1))
            .ideal_offset(Duration::from_micros(300))
            .margin(Duration::from_micros(300))
            .build()
            .unwrap();
        let long = IoTask::builder(TaskId(1), DeviceId(0))
            .wcet(Duration::from_micros(800))
            .period(Duration::from_millis(2))
            .ideal_offset(Duration::from_micros(400))
            .margin(Duration::from_micros(300))
            .build()
            .unwrap();
        sets.push(JobSet::expand(&vec![tight, long].into_iter().collect()));

        let (mut feasible, mut infeasible) = (0, 0);
        for (n, jobs) in sets.iter().enumerate() {
            let problem = IoSchedulingProblem::new(jobs);
            let mut scratch = ReconfigScratch::default();
            let horizon = jobs.hyperperiod().as_micros();
            let ideal: Vec<u64> = jobs.iter().map(|j| j.ideal_start().as_micros()).collect();
            let narrow_max = u64::MAX >> problem.rank_bits;
            for kind in 0..40 {
                let genome: Vec<u64> = (0..jobs.len())
                    .map(|locus| match kind % 5 {
                        // Inside the quality window.
                        0 => problem.random_gene(locus, &mut rng),
                        // Equal κ: everything at one of a few instants.
                        1 => [0, horizon / 2, ideal[locus]][rng.random_range(0..3usize)],
                        // Anywhere in the hyper-period: mostly infeasible
                        // orders.
                        2 => rng.random_range(0..horizon),
                        // Outside the window, up to the widest gene a
                        // narrow key holds, one past it, or the top of
                        // u64.
                        3 => {
                            let top = [narrow_max, narrow_max + 1, u64::MAX][kind / 5 % 3];
                            match rng.random_range(0..4u32) {
                                0 => top,
                                1 => top - rng.random_range(0..1_000u64),
                                2 => horizon + rng.random_range(0..horizon),
                                _ => ideal[locus],
                            }
                        }
                        // The ideal starts, with some jobs pushed late.
                        _ => ideal[locus] + rng.random_range(0..3u64) * 500,
                    })
                    .collect();
                let what = format!("set {n}, genome {kind}");
                if check_against_reference(jobs, &problem, &mut scratch, &genome, &what) {
                    feasible += 1;
                } else {
                    infeasible += 1;
                }
            }
        }
        assert!(
            feasible > 20 && infeasible > 20,
            "{feasible} feasible, {infeasible} infeasible"
        );
    }
}
