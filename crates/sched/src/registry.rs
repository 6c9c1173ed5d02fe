//! The closed table of built-in scheduling methods, so experiments
//! select solvers by name (`"fps-offline,static:best-fit,ga"`) instead
//! of hardcoding one import and constructor call per method — plus
//! [`MethodSet`], an ordered, instantiated selection ready to evaluate.
//!
//! # Method names
//!
//! | name | method |
//! |------|--------|
//! | `fps-offline` | non-preemptive FPS simulated offline |
//! | `edf-offline` | non-preemptive EDF simulated offline |
//! | `gpiocp` | GPIOCP FIFO replay of timed requests |
//! | `static`, `static:lcc-d` | Algorithm 1 with LCC-D slot selection |
//! | `static:first-fit`, `static:best-fit`, `static:worst-fit` | Algorithm 1 with a classical slot policy |
//! | `ga` | the multi-objective GA: quick config, serial evaluation, seed from the [`SolverCtx`](tagio_core::solve::SolverCtx) |
//! | `optimal-psi` | exhaustive best-Ψ oracle, default node budget |
//!
//! A name outside the table is rejected ([`MethodError::Unknown`]), so a
//! typo can never silently select defaults. Configurations beyond the
//! table are built with the solvers' constructors.

use crate::edf::EdfOffline;
use crate::fps::FpsOffline;
use crate::ga_sched::GaScheduler;
use crate::gpiocp::Gpiocp;
use crate::heuristic::{SlotPolicy, StaticScheduler};
use crate::optimal::OptimalPsi;
use crate::scheduler::Scheduler;
use tagio_ga::GaConfig;

/// A ready-to-use solver trait object (shareable across worker threads).
pub type BoxedSolver = Box<dyn Scheduler + Send + Sync>;

/// Why a method selection failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MethodError {
    /// The name is not a built-in method.
    Unknown {
        /// The requested name.
        name: String,
        /// Every built-in name, in table order.
        known: Vec<String>,
    },
    /// A selection list contained no names at all (a typo must not
    /// select zero methods).
    EmptySelection(String),
}

impl core::fmt::Display for MethodError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Unknown { name, known } => write!(
                f,
                "unknown scheduling method `{name}` (known: {})",
                known.join(", ")
            ),
            Self::EmptySelection(csv) => write!(f, "empty method list: {csv:?}"),
        }
    }
}

impl std::error::Error for MethodError {}

/// Every built-in method: name, one-line summary, factory. Names are
/// stable: experiment CLIs, reports and the JSON output all key on them.
#[allow(clippy::type_complexity)] // the row shape is spelled out once, here
const BUILTINS: [(&str, &str, fn() -> BoxedSolver); 10] = [
    (
        "fps-offline",
        "non-preemptive fixed-priority schedule simulated offline",
        || Box::new(FpsOffline::new()),
    ),
    (
        "edf-offline",
        "non-preemptive earliest-deadline-first schedule simulated offline",
        || Box::new(EdfOffline::new()),
    ),
    (
        "gpiocp",
        "GPIOCP FIFO replay of timed requests (prior state of the art)",
        || Box::new(Gpiocp::new()),
    ),
    (
        "static",
        "Algorithm 1: dependency graphs + LCC-D slot allocation",
        || Box::new(StaticScheduler::new()),
    ),
    (
        "static:lcc-d",
        "Algorithm 1 with LCC-D slot allocation (same solver as `static`)",
        || Box::new(StaticScheduler::new()),
    ),
    (
        "static:first-fit",
        "Algorithm 1 with first-fit slot allocation",
        || Box::new(StaticScheduler::with_policy(SlotPolicy::FirstFit)),
    ),
    (
        "static:best-fit",
        "Algorithm 1 with best-fit slot allocation",
        || Box::new(StaticScheduler::with_policy(SlotPolicy::BestFit)),
    ),
    (
        "static:worst-fit",
        "Algorithm 1 with worst-fit slot allocation",
        || Box::new(StaticScheduler::with_policy(SlotPolicy::WorstFit)),
    ),
    (
        "ga",
        "multi-objective GA: quick config, serial evaluation, seed from \
         the caller's context",
        // Built-in methods may already run inside a sweep's worker pool,
        // so this GA evaluates serially — `threads: 0` would nest an
        // all-core pool per system.
        || {
            Box::new(GaScheduler::new().with_config(GaConfig {
                threads: 1,
                ..GaConfig::quick()
            }))
        },
    ),
    (
        "optimal-psi",
        "exhaustive best-Psi oracle (exponential; tiny job sets only)",
        || Box::new(OptimalPsi::new()),
    ),
];

/// The built-in names, in table order.
#[must_use]
pub fn method_names() -> Vec<String> {
    BUILTINS
        .iter()
        .map(|(name, _, _)| (*name).to_owned())
        .collect()
}

/// Instantiates the built-in method `name` (surrounding whitespace is
/// ignored).
///
/// # Errors
/// [`MethodError::Unknown`] when `name` is not in the table.
pub fn make_scheduler(name: &str) -> Result<BoxedSolver, MethodError> {
    let name = name.trim();
    let (_, _, make) = BUILTINS
        .iter()
        .find(|(builtin, _, _)| *builtin == name)
        .ok_or_else(|| MethodError::Unknown {
            name: name.to_owned(),
            known: method_names(),
        })?;
    Ok(make())
}

/// An ordered set of instantiated methods, keyed by the name they were
/// requested with.
///
/// ```
/// use tagio_sched::MethodSet;
/// let set = MethodSet::parse("fps-offline,static:best-fit").unwrap();
/// assert_eq!(set.names(), vec!["fps-offline", "static:best-fit"]);
/// assert!(MethodSet::parse("not-a-method").is_err());
/// ```
pub struct MethodSet {
    methods: Vec<(String, BoxedSolver)>,
}

impl MethodSet {
    /// Parses a comma-separated list of built-in names, preserving order;
    /// whitespace and blank segments are skipped.
    ///
    /// # Errors
    /// The first [`MethodError::Unknown`] of the list, or
    /// [`MethodError::EmptySelection`] for a list with no names at all.
    pub fn parse(csv: &str) -> Result<Self, MethodError> {
        let methods = csv
            .split(',')
            .map(str::trim)
            .filter(|name| !name.is_empty())
            .map(|name| Ok((name.to_owned(), make_scheduler(name)?)))
            .collect::<Result<Vec<_>, MethodError>>()?;
        if methods.is_empty() {
            return Err(MethodError::EmptySelection(csv.to_owned()));
        }
        Ok(MethodSet { methods })
    }

    /// Display names, in order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.methods.iter().map(|(n, _)| n.as_str()).collect()
    }
}

impl IntoIterator for MethodSet {
    type Item = (String, BoxedSolver);
    type IntoIter = std::vec::IntoIter<(String, BoxedSolver)>;

    /// Consumes the set into its `(display name, solver)` pairs, in
    /// order — the shape experiment engines wrap into their own method
    /// adapters.
    fn into_iter(self) -> Self::IntoIter {
        self.methods.into_iter()
    }
}

impl core::fmt::Debug for MethodSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MethodSet")
            .field("methods", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_documented_and_instantiate() {
        let mut names = method_names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BUILTINS.len());
        for (name, summary, _) in BUILTINS {
            assert!(!summary.is_empty(), "{name} has no summary");
            assert!(make_scheduler(name).is_ok(), "{name} not constructible");
        }
    }
}
