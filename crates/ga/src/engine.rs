//! The GA engine: uniform-weight scalarised parent selection (as in the
//! paper) with NSGA-II elitist survivor selection, returning the archive of
//! non-dominated solutions found during the search.

use crate::nsga2::rank_and_crowd;
use crate::objectives::Objectives;
use crate::weights::uniform_spread_2d;
use rand::{Rng, RngExt};
use std::mem;

/// A problem solvable by the engine. Objectives are **maximised**.
///
/// Implementations encode one decision variable per locus; the engine never
/// inspects genes beyond cloning them, so repairs/decoding stay inside
/// [`Problem::evaluate`].
pub trait Problem {
    /// One decision variable.
    type Gene: Clone;

    /// Working memory [`Problem::evaluate`] may reuse from one genome to
    /// the next (`()` when it needs none). Each evaluation worker owns
    /// one, made with `Default`, so it may hold whatever the previous
    /// genome left in it: an evaluation must not read what it did not
    /// write first.
    type Scratch: Default + Send;

    /// Number of loci in a genome.
    fn genome_len(&self) -> usize;

    /// Draws a random gene for `locus`, for initialisation and for
    /// mutation: a mutated locus is re-drawn, which is the paper's mutation
    /// (re-sample `κ` inside the quality window).
    fn random_gene(&self, locus: usize, rng: &mut dyn Rng) -> Self::Gene;

    /// An optional domain hint for `locus` (e.g. a job's ideal start).
    /// When [`GaConfig::hint_fraction`] is positive, that fraction of the
    /// initial population is built from hint genes instead of random ones.
    /// The default provides no hint.
    fn hint_gene(&self, locus: usize) -> Option<Self::Gene> {
        let _ = locus;
        None
    }

    /// Evaluates a genome into its objective vector, using `scratch` as
    /// working memory. The result must depend on `genome` alone.
    fn evaluate(&self, genome: &[Self::Gene], scratch: &mut Self::Scratch) -> Objectives;
}

/// Engine parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Population size (the paper uses 300).
    pub population: usize,
    /// Number of generations (the paper uses 500).
    pub generations: usize,
    /// Fraction of the initial population built from [`Problem::hint_gene`]
    /// values (0.0 = the paper's fully-random initialisation).
    pub hint_fraction: f64,
    /// Chunking width for fitness evaluation on the shared persistent
    /// pool; `0` means one per available core (the workspace-wide
    /// [`tagio_core::pool::resolve_width`] rule). Evaluation is pure and
    /// all randomness stays in the sequential variation step, so the
    /// returned front is bit-identical for every thread count.
    pub threads: usize,
}

impl GaConfig {
    /// A reduced configuration for fast experimentation.
    #[must_use]
    pub fn quick() -> Self {
        GaConfig {
            population: 60,
            generations: 80,
            ..GaConfig::default()
        }
    }
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 100,
            generations: 100,
            hint_fraction: 0.0,
            threads: 0,
        }
    }
}

/// Per-offspring probability of crossover (otherwise cloning).
const CROSSOVER_RATE: f64 = 0.9;

/// Per-locus mutation probability.
const MUTATION_RATE: f64 = 0.05;

/// Maximum archive size (pruned by crowding distance).
const ARCHIVE_CAPACITY: usize = 256;

/// Evaluates every genome of `genomes`, chunked with width `threads`
/// across the workspace's persistent worker pool (`0` = one per
/// available core, by the shared [`tagio_core::pool::resolve_width`]
/// rule every other `--threads`-style knob uses).
///
/// Each chunk evaluates its genomes in order on one
/// [`Problem::Scratch`] of its own. Results are written back by index,
/// so the output is identical to evaluating every genome on a fresh
/// scratch, regardless of the thread count — [`Problem::evaluate`] is
/// required to be pure. Small populations are kept on fewer chunks (at
/// least [`MIN_EVAL_CHUNK`] genomes per worker) so scheduling overhead
/// cannot dominate toy problems.
pub fn evaluate_population<P>(
    problem: &P,
    genomes: &[Vec<P::Gene>],
    threads: usize,
) -> Vec<Objectives>
where
    P: Problem + Sync,
    P::Gene: Sync,
{
    let requested = tagio_core::pool::resolve_width(threads);
    let workers = requested.min(genomes.len().div_ceil(MIN_EVAL_CHUNK)).max(1);
    let mut out = vec![Objectives::default(); genomes.len()];
    let evaluate_chunk = |slots: &mut [Objectives], chunk: &[Vec<P::Gene>]| {
        let mut scratch = P::Scratch::default();
        for (slot, genome) in slots.iter_mut().zip(chunk) {
            *slot = problem.evaluate(genome, &mut scratch);
        }
    };
    if workers == 1 {
        evaluate_chunk(&mut out, genomes);
    } else {
        let evaluate_chunk = &evaluate_chunk;
        let chunk = genomes.len().div_ceil(workers);
        tagio_core::pool::WorkerPool::global().map_chunks(
            out.chunks_mut(chunk)
                .zip(genomes.chunks(chunk))
                .map(|(slots, chunk)| move || evaluate_chunk(slots, chunk)),
        );
    }
    out
}

/// Minimum genomes per evaluation worker before another thread is engaged.
pub const MIN_EVAL_CHUNK: usize = 8;

/// One non-dominated solution.
#[derive(Debug, Clone)]
pub struct Solution<G> {
    /// The genome.
    pub genome: Vec<G>,
    /// Its objective vector.
    pub objectives: Objectives,
}

/// The archive of non-dominated solutions found during a run.
#[derive(Debug, Clone)]
pub struct ParetoFront<G> {
    solutions: Vec<Solution<G>>,
}

impl<G: Clone> ParetoFront<G> {
    fn new() -> Self {
        ParetoFront {
            solutions: Vec::new(),
        }
    }

    fn offer(&mut self, genome: &[G], objectives: &Objectives) {
        if self
            .solutions
            .iter()
            .any(|s| s.objectives.dominates(objectives) || s.objectives == *objectives)
        {
            return;
        }
        self.solutions
            .retain(|s| !objectives.dominates(&s.objectives));
        self.solutions.push(Solution {
            genome: genome.to_vec(),
            objectives: objectives.clone(),
        });
        if self.solutions.len() > ARCHIVE_CAPACITY {
            self.prune();
        }
    }

    fn prune(&mut self) {
        let pts: Vec<Objectives> = self
            .solutions
            .iter()
            .map(|s| s.objectives.clone())
            .collect();
        let front: Vec<usize> = (0..pts.len()).collect();
        let crowd = crate::nsga2::crowding_distance(&pts, &front);
        let mut order: Vec<usize> = (0..pts.len()).collect();
        order.sort_by(|&a, &b| {
            crowd[b]
                .partial_cmp(&crowd[a])
                .unwrap_or(core::cmp::Ordering::Equal)
        });
        order.truncate(ARCHIVE_CAPACITY);
        order.sort_unstable();
        let mut kept = Vec::with_capacity(ARCHIVE_CAPACITY);
        for idx in order {
            kept.push(self.solutions[idx].clone());
        }
        self.solutions = kept;
    }

    /// The archived solutions (non-dominated, unordered).
    #[must_use]
    pub fn solutions(&self) -> &[Solution<G>] {
        &self.solutions
    }

    /// `true` when no feasible solution was archived.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.solutions.is_empty()
    }

    /// Number of archived solutions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.solutions.len()
    }
}

/// Runs the GA and returns the archive of non-dominated solutions.
///
/// Parent selection is a binary tournament on each offspring slot's own
/// weight vector (uniformly spread across the population, as in the paper);
/// survivor selection is elitist NSGA-II (rank, then crowding) over the
/// combined parent+offspring pool. Infeasible solutions should evaluate to a
/// dominated sentinel (the paper returns −1 for both objectives).
///
/// Fitness evaluation of the initial population and of each generation's
/// offspring is chunked across [`GaConfig::threads`] scoped workers (see
/// [`evaluate_population`]); everything touching the RNG — initialisation,
/// tournament selection, crossover, mutation — stays sequential, so the
/// result is bit-identical for every thread count.
///
/// # Panics
/// Panics if the problem has an empty genome or the population is zero.
pub fn run<P, R>(problem: &P, config: &GaConfig, rng: &mut R) -> ParetoFront<P::Gene>
where
    P: Problem + Sync,
    P::Gene: Sync,
    R: Rng,
{
    assert!(problem.genome_len() > 0, "empty genome");
    assert!(config.population > 0, "empty population");
    let len = problem.genome_len();
    let weights = uniform_spread_2d(config.population);

    let hinted = (config.hint_fraction.clamp(0.0, 1.0) * config.population as f64).round() as usize;
    let mut population: Vec<Vec<P::Gene>> = (0..config.population)
        .map(|i| {
            (0..len)
                .map(|l| {
                    if i < hinted {
                        problem
                            .hint_gene(l)
                            .unwrap_or_else(|| problem.random_gene(l, rng))
                    } else {
                        problem.random_gene(l, rng)
                    }
                })
                .collect()
        })
        .collect();
    let mut scores: Vec<Objectives> = evaluate_population(problem, &population, config.threads);

    let mut front = ParetoFront::new();
    for (g, o) in population.iter().zip(&scores) {
        offer_if_finite(&mut front, g, o);
    }

    for _ in 0..config.generations {
        // --- variation ---
        let mut offspring: Vec<Vec<P::Gene>> = Vec::with_capacity(config.population);
        for slot in 0..config.population {
            let w = &weights[slot % weights.len()];
            let a = tournament(&scores, w, rng);
            let b = tournament(&scores, w, rng);
            let mut child: Vec<P::Gene> = if rng.random::<f64>() < CROSSOVER_RATE {
                // uniform crossover
                (0..len)
                    .map(|l| {
                        if rng.random::<bool>() {
                            population[a][l].clone()
                        } else {
                            population[b][l].clone()
                        }
                    })
                    .collect()
            } else {
                population[a].clone()
            };
            for (l, gene) in child.iter_mut().enumerate() {
                if rng.random::<f64>() < MUTATION_RATE {
                    *gene = problem.random_gene(l, rng);
                }
            }
            offspring.push(child);
        }
        let offspring_scores: Vec<Objectives> =
            evaluate_population(problem, &offspring, config.threads);
        for (g, o) in offspring.iter().zip(&offspring_scores) {
            offer_if_finite(&mut front, g, o);
        }

        // --- elitist survivor selection (NSGA-II over parents+offspring) ---
        let mut pool = population;
        pool.extend(offspring);
        let mut pool_scores = scores;
        pool_scores.extend(offspring_scores);
        let rc = rank_and_crowd(&pool_scores);
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_by(|&x, &y| {
            rc[x].0.cmp(&rc[y].0).then(
                rc[y]
                    .1
                    .partial_cmp(&rc[x].1)
                    .unwrap_or(core::cmp::Ordering::Equal),
            )
        });
        order.truncate(config.population);
        // `order` holds distinct indices, so each survivor is moved out
        // of the pool exactly once.
        population = order.iter().map(|&i| mem::take(&mut pool[i])).collect();
        scores = order
            .iter()
            .map(|&i| mem::take(&mut pool_scores[i]))
            .collect();
    }
    front
}

fn offer_if_finite<G: Clone>(front: &mut ParetoFront<G>, genome: &[G], objectives: &Objectives) {
    // Infeasible sentinels (e.g. the paper's −1) and NaNs stay out of the
    // archive.
    if objectives
        .values()
        .iter()
        .all(|v| v.is_finite() && *v >= 0.0)
    {
        front.offer(genome, objectives);
    }
}

fn tournament<R: Rng + ?Sized>(scores: &[Objectives], weights: &[f64; 2], rng: &mut R) -> usize {
    let i = rng.random_range(0..scores.len());
    let j = rng.random_range(0..scores.len());
    let wi = scores[i].weighted_sum(weights);
    let wj = scores[j].weighted_sum(weights);
    if wi >= wj {
        i
    } else {
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Maximise (x, 1-x) over genes in [0,1]: the whole segment is
    /// Pareto-optimal, objectives trade off linearly.
    struct Segment;

    impl Problem for Segment {
        type Gene = f64;
        type Scratch = ();
        fn genome_len(&self) -> usize {
            1
        }
        fn random_gene(&self, _locus: usize, rng: &mut dyn Rng) -> f64 {
            rng.random::<f64>()
        }
        fn evaluate(&self, genome: &[f64], _: &mut ()) -> Objectives {
            let x = genome[0].clamp(0.0, 1.0);
            Objectives::from(vec![x, 1.0 - x])
        }
    }

    /// A single-optimum problem: maximise (v, v) with v = 1 - |x - 0.7|.
    struct Peak;

    impl Problem for Peak {
        type Gene = f64;
        type Scratch = ();
        fn genome_len(&self) -> usize {
            1
        }
        fn random_gene(&self, _locus: usize, rng: &mut dyn Rng) -> f64 {
            rng.random::<f64>()
        }
        fn evaluate(&self, genome: &[f64], _: &mut ()) -> Objectives {
            let v = 1.0 - (genome[0] - 0.7).abs();
            Objectives::from(vec![v, v])
        }
    }

    /// The largest value of objective `k` on the front.
    fn best_value(front: &ParetoFront<f64>, k: usize) -> f64 {
        front
            .solutions()
            .iter()
            .map(|s| s.objectives.values()[k])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    #[test]
    fn finds_spread_on_linear_front() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = GaConfig {
            population: 40,
            generations: 30,
            ..GaConfig::default()
        };
        let front = run(&Segment, &cfg, &mut rng);
        assert!(front.len() >= 10, "front too small: {}", front.len());
        let best_x = best_value(&front, 0);
        let best_y = best_value(&front, 1);
        assert!(best_x > 0.95 && best_y > 0.95);
    }

    #[test]
    fn converges_to_single_peak() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = GaConfig {
            population: 30,
            generations: 40,
            ..GaConfig::default()
        };
        let front = run(&Peak, &cfg, &mut rng);
        // identical objectives => archive keeps exactly the best point
        assert_eq!(front.len(), 1);
        assert!(front.solutions()[0].objectives.values()[0] > 0.99);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = GaConfig::quick();
        let a = run(&Segment, &cfg, &mut StdRng::seed_from_u64(3));
        let b = run(&Segment, &cfg, &mut StdRng::seed_from_u64(3));
        assert_eq!(a.len(), b.len());
        let ax: Vec<f64> = a.solutions().iter().map(|s| s.genome[0]).collect();
        let bx: Vec<f64> = b.solutions().iter().map(|s| s.genome[0]).collect();
        assert_eq!(ax, bx);
    }

    #[test]
    fn archive_respects_capacity() {
        // Every point of the segment is non-dominated, so 300 distinct
        // random genomes overflow the archive and pruning must hold it at
        // the cap.
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = GaConfig {
            population: 300,
            generations: 1,
            ..GaConfig::default()
        };
        let front = run(&Segment, &cfg, &mut rng);
        assert_eq!(front.len(), ARCHIVE_CAPACITY);
    }

    #[test]
    fn infeasible_sentinels_never_archived() {
        struct AlwaysInfeasible;
        impl Problem for AlwaysInfeasible {
            type Gene = f64;
            type Scratch = ();
            fn genome_len(&self) -> usize {
                1
            }
            fn random_gene(&self, _l: usize, rng: &mut dyn Rng) -> f64 {
                rng.random::<f64>()
            }
            fn evaluate(&self, _g: &[f64], _: &mut ()) -> Objectives {
                Objectives::from(vec![-1.0, -1.0])
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        let front = run(&AlwaysInfeasible, &GaConfig::quick(), &mut rng);
        assert!(front.is_empty());
    }

    #[test]
    fn best_weighted_picks_extremes() {
        let mut rng = StdRng::seed_from_u64(6);
        let front = run(&Segment, &GaConfig::quick(), &mut rng);
        let best_weighted = |weights: &[f64]| {
            front
                .solutions()
                .iter()
                .max_by(|a, b| {
                    let wa = a.objectives.weighted_sum(weights);
                    wa.total_cmp(&b.objectives.weighted_sum(weights))
                })
                .expect("non-empty front")
        };
        let x_heavy = best_weighted(&[1.0, 0.0]);
        let y_heavy = best_weighted(&[0.0, 1.0]);
        assert!(x_heavy.objectives.values()[0] >= y_heavy.objectives.values()[0]);
    }

    #[test]
    fn hint_fraction_seeds_initial_population() {
        /// A problem whose only good solution is the hint: random genes are
        /// far from the optimum, so a hinted run must find a better point
        /// within zero generations than random init alone would start from.
        struct Needle;
        impl Problem for Needle {
            type Gene = f64;
            type Scratch = ();
            fn genome_len(&self) -> usize {
                1
            }
            fn random_gene(&self, _l: usize, rng: &mut dyn Rng) -> f64 {
                rng.random::<f64>() * 0.1 // far from the needle at 0.9
            }
            fn hint_gene(&self, _l: usize) -> Option<f64> {
                Some(0.9)
            }
            fn evaluate(&self, g: &[f64], _: &mut ()) -> Objectives {
                let v = 1.0 - (g[0] - 0.9).abs();
                Objectives::from(vec![v, v])
            }
        }
        let cfg = GaConfig {
            population: 10,
            generations: 0,
            hint_fraction: 0.5,
            ..GaConfig::default()
        };
        let front = run(&Needle, &cfg, &mut StdRng::seed_from_u64(8));
        let best = best_value(&front, 0);
        assert!(best > 0.99, "hint not used: best {best}");
    }

    #[test]
    fn parallel_front_identical_to_serial() {
        // threads = 4 with population 32 engages the worker pool
        // (MIN_EVAL_CHUNK = 8), and must return the exact front of the
        // serial path: genomes and objectives, bit for bit.
        for threads in [4, 7] {
            let serial = GaConfig {
                population: 32,
                generations: 25,
                threads: 1,
                ..GaConfig::default()
            };
            let parallel = GaConfig {
                threads,
                ..serial.clone()
            };
            let a = run(&Segment, &serial, &mut StdRng::seed_from_u64(11));
            let b = run(&Segment, &parallel, &mut StdRng::seed_from_u64(11));
            assert_eq!(a.len(), b.len(), "front sizes differ at {threads} threads");
            for (x, y) in a.solutions().iter().zip(b.solutions()) {
                assert_eq!(x.genome, y.genome);
                assert_eq!(x.objectives, y.objectives);
            }
        }
    }

    #[test]
    fn evaluate_population_matches_serial_map() {
        let mut rng = StdRng::seed_from_u64(13);
        let genomes: Vec<Vec<f64>> = (0..100)
            .map(|_| vec![Segment.random_gene(0, &mut rng)])
            .collect();
        let serial: Vec<Objectives> = genomes
            .iter()
            .map(|g| Segment.evaluate(g, &mut ()))
            .collect();
        for threads in [0, 1, 2, 4, 16] {
            assert_eq!(evaluate_population(&Segment, &genomes, threads), serial);
        }
    }

    #[test]
    fn evaluate_population_handles_empty_and_tiny_inputs() {
        assert!(evaluate_population(&Segment, &[], 4).is_empty());
        let one = vec![vec![0.25]];
        assert_eq!(
            evaluate_population(&Segment, &one, 4),
            vec![Segment.evaluate(&one[0], &mut ())]
        );
    }

    #[test]
    #[should_panic(expected = "empty genome")]
    fn empty_genome_panics() {
        struct Empty;
        impl Problem for Empty {
            type Gene = f64;
            type Scratch = ();
            fn genome_len(&self) -> usize {
                0
            }
            fn random_gene(&self, _l: usize, _r: &mut dyn Rng) -> f64 {
                0.0
            }
            fn evaluate(&self, _g: &[f64], _: &mut ()) -> Objectives {
                Objectives::from(vec![0.0, 0.0])
            }
        }
        let mut rng = StdRng::seed_from_u64(7);
        let _ = run(&Empty, &GaConfig::quick(), &mut rng);
    }
}
