//! # tagio-ga
//!
//! A small, dependency-light multi-objective genetic algorithm engine, built
//! as the solver substrate for the paper's GA-based I/O scheduling method
//! (§III.B). The paper describes its solver only by its selection scheme —
//! per-individual objective weights "spread uniformly from `[1.0, 0]` to
//! `[0, 1.0]`" — and its outputs (the non-dominated solutions found during
//! the search); this crate implements exactly that, with NSGA-II elitism for
//! survivor selection so the front stays well spread.
//!
//! The engine is problem-agnostic: implement [`Problem`] and call [`run`].
//! [`evaluate_population`] scores each generation on the workspace's
//! shared [`tagio_core::pool::WorkerPool`] directly; the crate has no
//! parallel-map layer of its own.
//!
//! ```
//! use rand::{Rng, RngExt, SeedableRng};
//! use tagio_ga::{run, GaConfig, Objectives, Problem};
//!
//! /// Maximise (x, 1 − x) over x ∈ [0, 1].
//! struct Segment;
//!
//! impl Problem for Segment {
//!     type Gene = f64;
//!     type Scratch = ();
//!     fn genome_len(&self) -> usize { 1 }
//!     fn random_gene(&self, _locus: usize, rng: &mut dyn Rng) -> f64 {
//!         rng.random::<f64>()
//!     }
//!     fn evaluate(&self, genome: &[f64], _: &mut ()) -> Objectives {
//!         let x = genome[0].clamp(0.0, 1.0);
//!         Objectives::from(vec![x, 1.0 - x])
//!     }
//! }
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let front = run(&Segment, &GaConfig::quick(), &mut rng);
//! assert!(!front.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod engine;
pub mod hypervolume;
pub mod nsga2;
pub mod objectives;
pub mod weights;

pub use engine::{evaluate_population, run, GaConfig, ParetoFront, Problem, Solution};
pub use hypervolume::hypervolume_2d;
pub use objectives::Objectives;
