//! Criterion bench: the cost of **one GA generation** — population
//! evaluation (the reconfiguration function + Ψ/Υ metrics per genome)
//! followed by NSGA-II survivor selection — at 1 vs. N evaluation threads.
//!
//! This is the hot path the parallel engine refactor targets: at paper
//! scale (`--pop 300 --gens 500`) the GA evaluates 150k genomes per
//! system, so the `threads/4` row tracking ≥ 2× below `threads/1` on a
//! 4-core box is the refactor's perf trajectory. (On a single-core runner
//! the two rows coincide — the engine is bit-identical either way.)
//!
//! ```text
//! cargo bench -p tagio-bench --bench ga_generation
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::hint::black_box;
use tagio_bench::generate_systems;
use tagio_core::job::JobSet;
use tagio_core::metrics;
use tagio_ga::nsga2::rank_and_crowd;
use tagio_ga::{evaluate_population, Objectives, Problem};
use tagio_sched::reconfigure;

/// The I/O scheduling problem exactly as the GA scheduler poses it: one
/// start-time gene per job, reconfiguration before evaluation, the paper's
/// (Ψ, Υ) objectives, (−1, −1) for infeasible layouts.
struct IoProblem<'a> {
    jobs: &'a JobSet,
}

impl Problem for IoProblem<'_> {
    type Gene = u64;

    fn genome_len(&self) -> usize {
        self.jobs.len()
    }

    fn random_gene(&self, locus: usize, rng: &mut dyn Rng) -> u64 {
        let job = &self.jobs.as_slice()[locus];
        let lo = job.window_start().as_micros();
        let hi = job.window_end().as_micros().max(lo);
        rng.random_range(lo..=hi)
    }

    fn evaluate(&self, genome: &[u64]) -> Objectives {
        let (psi, upsilon) = match reconfigure(self.jobs, genome) {
            Ok(schedule) => metrics::quality(&schedule, self.jobs),
            Err(_) => (-1.0, -1.0),
        };
        Objectives::from(vec![psi, upsilon])
    }
}

fn bench_ga_generation(c: &mut Criterion) {
    let sys = generate_systems(0.6, 1, 42).pop().expect("one system");
    let problem = IoProblem { jobs: &sys.jobs };
    let mut rng = StdRng::seed_from_u64(1);
    let population: Vec<Vec<u64>> = (0..256)
        .map(|_| {
            (0..problem.genome_len())
                .map(|locus| problem.random_gene(locus, &mut rng))
                .collect()
        })
        .collect();

    let mut group = c.benchmark_group("ga_generation");
    group.sample_size(10);
    let cores = tagio_core::pool::available_workers();
    let mut counts = vec![1usize, 4, cores];
    counts.sort_unstable();
    counts.dedup(); // duplicate criterion ids are an error on 1- or 4-core boxes
    for threads in counts {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let scores = evaluate_population(&problem, &population, threads);
                    black_box(rank_and_crowd(&scores))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ga_generation);
criterion_main!(benches);
