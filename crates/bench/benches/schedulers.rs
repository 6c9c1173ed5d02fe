//! Criterion micro-benchmarks of the scheduling methods (Figs. 5–7
//! workloads at one utilisation point each).
//!
//! These measure *runtime cost* of producing one offline schedule; the
//! figure-shaped outputs come from the `fig5_…`/`fig6_…`/`fig7_…` binaries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::hint::black_box;
use tagio_bench::generate_systems;
use tagio_ga::GaConfig;
use tagio_sched::{
    reconfigure, ConflictGraph, EdfOffline, FpsOffline, GaScheduler, Gpiocp, Scheduler,
    StaticScheduler,
};

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedulers");
    group.sample_size(10);
    for u in [0.3, 0.6] {
        let sys = generate_systems(u, 1, 42).pop().expect("one system");
        group.bench_with_input(BenchmarkId::new("fps-offline", u), &sys, |b, sys| {
            b.iter(|| black_box(FpsOffline::new().schedule(&sys.jobs)));
        });
        group.bench_with_input(BenchmarkId::new("edf-offline", u), &sys, |b, sys| {
            b.iter(|| black_box(EdfOffline::new().schedule(&sys.jobs)));
        });
        group.bench_with_input(BenchmarkId::new("gpiocp", u), &sys, |b, sys| {
            b.iter(|| black_box(Gpiocp::new().schedule(&sys.jobs)));
        });
        group.bench_with_input(BenchmarkId::new("static", u), &sys, |b, sys| {
            b.iter(|| black_box(StaticScheduler::new().schedule(&sys.jobs)));
        });
        let tiny_ga = GaScheduler::new()
            .with_config(GaConfig {
                population: 16,
                generations: 8,
                ..GaConfig::default()
            })
            .with_seed(1);
        group.bench_with_input(BenchmarkId::new("ga-16x8", u), &sys, |b, sys| {
            b.iter(|| black_box(tiny_ga.search(&sys.jobs)));
        });
    }
    group.finish();
}

fn bench_fps_online_test(c: &mut Criterion) {
    let sys = generate_systems(0.6, 1, 7).pop().expect("one system");
    c.bench_function("fps-online-test", |b| {
        b.iter(|| black_box(tagio_sched::taskset_schedulable_np_fps(&sys.tasks)));
    });
}

fn bench_algorithm_phases(c: &mut Criterion) {
    // The static method's phases and the GA's inner loop, in isolation.
    let sys = generate_systems(0.6, 1, 11).pop().expect("one system");
    c.bench_function("conflict-graph-build", |b| {
        b.iter(|| black_box(ConflictGraph::build(&sys.jobs)));
    });
    let graph = ConflictGraph::build(&sys.jobs);
    c.bench_function("graph-decompose", |b| {
        b.iter(|| black_box(graph.decompose(&sys.jobs)));
    });
    let mut rng = StdRng::seed_from_u64(1);
    let starts: Vec<u64> = sys
        .jobs
        .iter()
        .map(|j| {
            let lo = j.window_start().as_micros();
            let hi = j.window_end().as_micros().max(lo);
            rng.random_range(lo..=hi)
        })
        .collect();
    c.bench_function("ga-reconfigure", |b| {
        b.iter(|| black_box(reconfigure(&sys.jobs, &starts)));
    });
}

criterion_group!(
    benches,
    bench_schedulers,
    bench_fps_online_test,
    bench_algorithm_phases
);
criterion_main!(benches);
