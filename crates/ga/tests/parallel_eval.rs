//! Property test: chunked parallel fitness evaluation returns exactly the
//! `Objectives` vector of the serial map, for any population size, seed and
//! thread count — the invariant the threaded engine (and the experiment
//! binaries built on it) rely on for reproducibility. Each chunk reuses one
//! scratch across its genomes, so the serial reference evaluates every
//! genome on a fresh scratch.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tagio_ga::{evaluate_population, Objectives, Problem};

/// A nonlinear two-objective problem with enough arithmetic per genome that
/// any evaluation-order or data-race defect would perturb the f64 bits.
struct Ripple;

impl Problem for Ripple {
    type Gene = f64;
    type Scratch = ();

    fn genome_len(&self) -> usize {
        4
    }

    fn random_gene(&self, _locus: usize, rng: &mut dyn Rng) -> f64 {
        rng.next_f64()
    }

    fn evaluate(&self, genome: &[f64], _: &mut ()) -> Objectives {
        let sum: f64 = genome.iter().sum();
        let ripple: f64 = genome.iter().map(|x| (x * 12.9898).sin()).product();
        Objectives::from(vec![sum, 1.0 + ripple])
    }
}

/// A problem that scores through a working buffer and keeps it between
/// calls: the sorted genes, the previous genome's ranks and a call count
/// all linger in the scratch when the next genome arrives. Each
/// evaluation overwrites what it reads, so its bits depend on the genome
/// alone, as `Problem::Scratch` requires.
struct SortedPrefix;

#[derive(Default)]
struct PrefixScratch {
    sorted: Vec<f64>,
    rank: Vec<usize>,
    calls: u64,
}

impl Problem for SortedPrefix {
    type Gene = f64;
    type Scratch = PrefixScratch;

    fn genome_len(&self) -> usize {
        6
    }

    fn random_gene(&self, _locus: usize, rng: &mut dyn Rng) -> f64 {
        rng.next_f64()
    }

    fn evaluate(&self, genome: &[f64], scratch: &mut PrefixScratch) -> Objectives {
        scratch.calls += 1;
        scratch.sorted.resize(genome.len(), f64::NAN);
        scratch.sorted.copy_from_slice(genome);
        scratch.sorted.sort_by(f64::total_cmp);
        scratch.rank.resize(genome.len(), usize::MAX);
        for (slot, gene) in scratch.rank.iter_mut().zip(genome) {
            *slot = scratch.sorted.partition_point(|v| v < gene);
        }
        // Weighted so that the rank order, not only the multiset of
        // genes, moves the bits.
        let spread: f64 = scratch
            .rank
            .iter()
            .zip(genome)
            .map(|(&r, g)| g * (r as f64 + 1.0).sqrt())
            .sum();
        Objectives::from(vec![scratch.sorted[..3].iter().sum(), spread])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_evaluation_equals_serial(
        count in 1usize..150,
        seed in 0u64..1_000,
        threads in 0usize..9,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let genomes: Vec<Vec<f64>> = (0..count)
            .map(|_| (0..4).map(|l| Ripple.random_gene(l, &mut rng)).collect())
            .collect();
        let serial: Vec<Objectives> = genomes.iter().map(|g| Ripple.evaluate(g, &mut ())).collect();
        let parallel = evaluate_population(&Ripple, &genomes, threads);
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn reused_scratch_evaluation_equals_fresh_scratch(
        count in 1usize..150,
        seed in 0u64..1_000,
        threads in 0usize..9,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let genomes: Vec<Vec<f64>> = (0..count)
            .map(|_| (0..6).map(|l| SortedPrefix.random_gene(l, &mut rng)).collect())
            .collect();
        let fresh: Vec<Objectives> = genomes
            .iter()
            .map(|g| SortedPrefix.evaluate(g, &mut PrefixScratch::default()))
            .collect();
        let parallel = evaluate_population(&SortedPrefix, &genomes, threads);
        prop_assert_eq!(parallel, fresh);
    }
}
