//! The tagio benchmark: three seeded workloads over the fleet admission
//! path and the paper's offline solvers, with pooled end-to-end metrics
//! and a traced mode that reports per-layer metrics.
//!
//! See `README.md` in this directory for why each workload exists, the
//! definition and unit of every metric, and which end-to-end metric each
//! layer metric should move.

pub mod calib;
pub mod fleet;
pub mod offline;
pub mod report;
pub mod stats;
pub mod trace;

use report::Outcome;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[fleet::REJECT.name, fleet::CHURN.name, offline::SYNTH.name];

/// Runs workload `name` for about `seconds` of timed work; `None` for an
/// unknown name.
#[must_use]
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    match name {
        n if n == fleet::REJECT.name => Some(fleet::run(&fleet::REJECT, seed, seconds, trace)),
        n if n == fleet::CHURN.name => Some(fleet::run(&fleet::CHURN, seed, seconds, trace)),
        n if n == offline::SYNTH.name => Some(offline::run(&offline::SYNTH, seed, seconds, trace)),
        _ => None,
    }
}

/// The generator seed of input `index` under workload seed `seed`
/// (SplitMix64 over both), so inputs are independent of each other and
/// a pure function of the seed.
#[must_use]
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
