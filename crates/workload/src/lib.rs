//! # tagio-workload
//!
//! Synthetic workload generation for evaluating timing-accurate I/O
//! scheduling, reproducing §V.A of the DAC 2020 paper: UUniFast utilisation
//! distribution ([`uunifast`]), period pools with a fixed 1440 ms
//! hyper-period ([`periods`]), and the full system generator
//! ([`generator`]).
//!
//! ```
//! use rand::SeedableRng;
//! use tagio_workload::generator::SystemConfig;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let system = SystemConfig::paper(0.5).generate(&mut rng);
//! assert_eq!(system.len(), 10);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod generator;
pub mod periods;
pub mod uunifast;

pub use generator::{paper_utilisation_sweep, SystemConfig};
pub use periods::{PeriodPool, PAPER_HYPERPERIOD};
