//! Criterion bench: the GA scheduler at a one-generation budget —
//! `GaScheduler::search_with` scoring an initial population and one
//! generation of offspring through the reconfiguration function, then
//! NSGA-II survivor selection and the front's schedules — at 1, 4 and
//! all-cores evaluation widths.
//!
//! This is the shipped search path, so the rows move with every change
//! to genome evaluation or survivor selection. At paper scale
//! (`--pop 300 --gens 500`) the GA evaluates 150k genomes per system.
//! On a multi-core box the `threads/4` row should sit ≥ 2× below
//! `threads/1`; on a single-core runner the rows coincide (the search is
//! bit-identical at every width).
//!
//! ```text
//! cargo bench -p tagio-bench --bench ga_generation
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tagio_bench::generate_systems;
use tagio_core::solve::SolverCtx;
use tagio_ga::GaConfig;
use tagio_sched::GaScheduler;

fn bench_ga_generation(c: &mut Criterion) {
    let sys = generate_systems(0.6, 1, 42).pop().expect("one system");
    let ctx = SolverCtx::seeded(1);

    let mut group = c.benchmark_group("ga_generation");
    group.sample_size(10);
    let cores = tagio_core::pool::available_workers();
    let mut counts = vec![1usize, 4, cores];
    counts.sort_unstable();
    counts.dedup(); // duplicate criterion ids are an error on 1- or 4-core boxes
    for threads in counts {
        let ga = GaScheduler::new().with_config(GaConfig {
            population: 256,
            generations: 1,
            threads,
            ..GaConfig::default()
        });
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| black_box(ga.search_with(&sys.jobs, &ctx)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ga_generation);
criterion_main!(benches);
