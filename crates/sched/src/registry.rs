//! The fixed table of built-in scheduling methods with
//! **parameterized method names**, so experiments select and configure
//! solvers by string (`"fps-offline,static:best-fit,ga:pop=64,gens=500"`)
//! instead of hardcoding one import and constructor call per method —
//! plus [`MethodSet`], an ordered, instantiated selection ready to
//! evaluate.
//!
//! # Method-name grammar
//!
//! ```text
//! spec   := base [ ":" param ( "," param )* ]
//! base   := word
//! param  := key "=" value        (keyed parameter)
//!         | word                 (flag parameter)
//! word, key, value := [A-Za-z0-9_.+-]+
//! ```
//!
//! Whitespace around any token is ignored. Examples:
//!
//! * `static` — the base method with its defaults;
//! * `static:best-fit` — one flag parameter selecting a variant;
//! * `ga:pop=64,gens=500,seed=7` — keyed parameters.
//!
//! Duplicate keys/flags are rejected at parse time; keys a method does
//! not understand are rejected by its factory ([`MethodError::BadParam`]),
//! so a typo can never silently select defaults.

use crate::scheduler::Scheduler;
use tagio_core::job::JobSet;
use tagio_core::schedule::Schedule;
use tagio_core::solve::{Infeasible, SolverCtx};

/// A ready-to-use solver trait object (shareable across worker threads).
pub type BoxedSolver = Box<dyn Scheduler + Send + Sync>;

/// A parsed method specification: a base name plus ordered parameters
/// (see the [module docs](self) for the grammar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSpec {
    base: String,
    /// `(key, Some(value))` for keyed parameters, `(flag, None)` for
    /// flags, in source order.
    params: Vec<(String, Option<String>)>,
}

/// Characters allowed in bases, keys, flags and values.
fn is_word_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '+' | '-')
}

fn check_word(s: &str, role: &str) -> Result<(), MethodParseError> {
    if s.is_empty() {
        return Err(MethodParseError::Empty(role.to_owned()));
    }
    match s.chars().find(|c| !is_word_char(*c)) {
        Some(c) => Err(MethodParseError::BadChar {
            role: role.to_owned(),
            token: s.to_owned(),
            ch: c,
        }),
        None => Ok(()),
    }
}

impl MethodSpec {
    /// Parses one specification (`"ga:pop=64,gens=500"`).
    ///
    /// # Errors
    /// [`MethodParseError`] on empty tokens, characters outside the
    /// grammar, or duplicate keys/flags.
    pub fn parse(spec: &str) -> Result<Self, MethodParseError> {
        let spec = spec.trim();
        let (base, rest) = match spec.split_once(':') {
            Some((base, rest)) => (base.trim(), Some(rest)),
            None => (spec, None),
        };
        check_word(base, "method name")?;
        let mut params: Vec<(String, Option<String>)> = Vec::new();
        if let Some(rest) = rest {
            for raw in rest.split(',') {
                let raw = raw.trim();
                let param = match raw.split_once('=') {
                    Some((key, value)) => {
                        let (key, value) = (key.trim(), value.trim());
                        check_word(key, "parameter key")?;
                        check_word(value, "parameter value")?;
                        (key.to_owned(), Some(value.to_owned()))
                    }
                    None => {
                        check_word(raw, "parameter")?;
                        (raw.to_owned(), None)
                    }
                };
                if params.iter().any(|(k, _)| *k == param.0) {
                    return Err(MethodParseError::DuplicateKey(param.0));
                }
                params.push(param);
            }
        }
        Ok(MethodSpec {
            base: base.to_owned(),
            params,
        })
    }

    /// Builds a spec programmatically (downstream factories and tests).
    ///
    /// # Errors
    /// The same grammar violations [`MethodSpec::parse`] reports.
    pub fn build(
        base: &str,
        params: impl IntoIterator<Item = (String, Option<String>)>,
    ) -> Result<Self, MethodParseError> {
        let mut canonical = base.trim().to_owned();
        let params: Vec<(String, Option<String>)> = params.into_iter().collect();
        for (i, (key, value)) in params.iter().enumerate() {
            canonical.push(if i == 0 { ':' } else { ',' });
            canonical.push_str(key);
            if let Some(value) = value {
                canonical.push('=');
                canonical.push_str(value);
            }
        }
        Self::parse(&canonical)
    }

    /// The base method name.
    #[must_use]
    pub fn base(&self) -> &str {
        &self.base
    }

    /// The parameters in source order: `(key, Some(value))` or
    /// `(flag, None)`.
    pub fn params(&self) -> impl Iterator<Item = (&str, Option<&str>)> {
        self.params.iter().map(|(k, v)| (k.as_str(), v.as_deref()))
    }

    /// Begins consuming parameters for factory-side validation.
    #[must_use]
    pub fn args(&self) -> MethodArgs<'_> {
        MethodArgs {
            spec: self,
            used: vec![false; self.params.len()],
        }
    }
}

impl core::fmt::Display for MethodSpec {
    /// The canonical rendering: parse(format(spec)) == spec.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.base)?;
        for (i, (key, value)) in self.params.iter().enumerate() {
            write!(f, "{}{key}", if i == 0 { ':' } else { ',' })?;
            if let Some(value) = value {
                write!(f, "={value}")?;
            }
        }
        Ok(())
    }
}

/// Cursor over a [`MethodSpec`]'s parameters that tracks which were
/// consumed, so factories reject unknown keys with one
/// [`MethodArgs::finish`] call.
#[derive(Debug)]
pub struct MethodArgs<'a> {
    spec: &'a MethodSpec,
    used: Vec<bool>,
}

impl MethodArgs<'_> {
    /// Consumes and returns the flag parameter `name`, if present.
    pub fn flag(&mut self, name: &str) -> bool {
        for (i, (key, value)) in self.spec.params.iter().enumerate() {
            if key == name && value.is_none() && !self.used[i] {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    /// Consumes and returns the raw value of keyed parameter `key`.
    pub fn value(&mut self, key: &str) -> Option<&str> {
        for (i, (k, value)) in self.spec.params.iter().enumerate() {
            if k == key && value.is_some() && !self.used[i] {
                self.used[i] = true;
                return value.as_deref();
            }
        }
        None
    }

    /// Consumes keyed parameter `key` parsed as `T`.
    ///
    /// # Errors
    /// [`MethodError::BadParam`] when the value does not parse.
    pub fn parsed<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, MethodError> {
        match self.value(key).map(str::to_owned) {
            None => Ok(None),
            Some(raw) => raw.parse::<T>().map(Some).map_err(|_| {
                MethodError::bad_param(
                    self.spec.base.clone(),
                    format!("parameter `{key}` has malformed value `{raw}`"),
                )
            }),
        }
    }

    /// Rejects every parameter no accessor consumed.
    ///
    /// # Errors
    /// [`MethodError::BadParam`] naming the first unconsumed parameter.
    pub fn finish(self) -> Result<(), MethodError> {
        for (i, (key, value)) in self.spec.params.iter().enumerate() {
            if !self.used[i] {
                let rendered = match value {
                    Some(v) => format!("{key}={v}"),
                    None => key.clone(),
                };
                return Err(MethodError::bad_param(
                    self.spec.base.clone(),
                    format!("unknown parameter `{rendered}`"),
                ));
            }
        }
        Ok(())
    }
}

/// A grammar violation in a method specification string.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MethodParseError {
    /// A required token (base name, key, value, flag) was empty.
    Empty(String),
    /// A token contains a character outside `[A-Za-z0-9_.+-]`.
    BadChar {
        /// What the token was meant to be.
        role: String,
        /// The offending token.
        token: String,
        /// The first bad character.
        ch: char,
    },
    /// The same key or flag appears twice.
    DuplicateKey(String),
}

impl core::fmt::Display for MethodParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Empty(role) => write!(f, "empty {role}"),
            Self::BadChar { role, token, ch } => {
                write!(f, "bad character `{ch}` in {role} `{token}`")
            }
            Self::DuplicateKey(key) => write!(f, "duplicate parameter `{key}`"),
        }
    }
}

impl std::error::Error for MethodParseError {}

/// Why a method could not be selected or instantiated.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MethodError {
    /// The specification string violates the grammar.
    Parse(MethodParseError),
    /// The base name is not a built-in method.
    Unknown {
        /// The requested base name.
        name: String,
        /// Every built-in base name, in table order.
        known: Vec<String>,
    },
    /// The method rejected a parameter (unknown key, malformed value,
    /// conflicting flags).
    BadParam {
        /// The method's base name.
        method: String,
        /// What was wrong.
        message: String,
    },
    /// A selection list contained no names at all (a typo must not
    /// select zero methods).
    EmptySelection(String),
}

impl MethodError {
    fn bad_param(method: String, message: String) -> Self {
        MethodError::BadParam { method, message }
    }
}

impl From<MethodParseError> for MethodError {
    fn from(e: MethodParseError) -> Self {
        MethodError::Parse(e)
    }
}

impl core::fmt::Display for MethodError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Parse(e) => write!(f, "malformed method spec: {e}"),
            Self::Unknown { name, known } => write!(
                f,
                "unknown scheduling method `{name}` (known: {})",
                known.join(", ")
            ),
            Self::BadParam { method, message } => write!(f, "method `{method}`: {message}"),
            Self::EmptySelection(csv) => write!(f, "empty method list: {csv:?}"),
        }
    }
}

impl std::error::Error for MethodError {}

/// Every built-in method: base name, one-line summary, factory. Names
/// are stable: experiment CLIs, reports and the JSON output all key on
/// them.
#[allow(clippy::type_complexity)] // the row shape is spelled out once, here
const BUILTINS: [(
    &str,
    &str,
    fn(&MethodSpec) -> Result<BoxedSolver, MethodError>,
); 6] = [
    (
        "fps-offline",
        "non-preemptive fixed-priority schedule simulated offline",
        |spec| {
            spec.args().finish()?;
            Ok(Box::new(crate::fps::FpsOffline::new()))
        },
    ),
    (
        "edf-offline",
        "non-preemptive earliest-deadline-first schedule simulated offline",
        |spec| {
            spec.args().finish()?;
            Ok(Box::new(crate::edf::EdfOffline::new()))
        },
    ),
    (
        "gpiocp",
        "GPIOCP FIFO replay of timed requests (prior state of the art)",
        |spec| {
            spec.args().finish()?;
            Ok(Box::new(crate::gpiocp::Gpiocp::new()))
        },
    ),
    (
        "static",
        "Algorithm 1: dependency graphs + slot allocation; flags \
         lcc-d (default) | first-fit | best-fit | worst-fit",
        make_static,
    ),
    (
        "ga",
        "multi-objective GA; keys pop=N, gens=N, seed=N (pins the seed, \
         overriding the caller's per-call context), threads=N, hint=F \
         (ideal-seeded fraction); defaults: quick config, seed 0, serial \
         evaluation",
        make_ga,
    ),
    (
        "optimal-psi",
        "exhaustive best-Psi oracle (exponential; tiny job sets only); \
         key nodes=N (branch-node budget)",
        |spec| {
            use crate::optimal::OptimalPsi;
            let mut args = spec.args();
            let nodes = args.parsed::<u64>("nodes")?;
            args.finish()?;
            Ok(Box::new(match nodes {
                Some(n) => OptimalPsi::with_node_budget(n),
                None => OptimalPsi::new(),
            }))
        },
    ),
];

fn make_static(spec: &MethodSpec) -> Result<BoxedSolver, MethodError> {
    use crate::heuristic::{SlotPolicy, StaticScheduler};
    let mut args = spec.args();
    let mut policy = None;
    for (flag, p) in [
        ("lcc-d", SlotPolicy::LeastContentionCapacityDecreasing),
        ("first-fit", SlotPolicy::FirstFit),
        ("best-fit", SlotPolicy::BestFit),
        ("worst-fit", SlotPolicy::WorstFit),
    ] {
        if args.flag(flag) && policy.replace(p).is_some() {
            return Err(MethodError::bad_param(
                "static".into(),
                "conflicting slot-policy flags".into(),
            ));
        }
    }
    args.finish()?;
    Ok(Box::new(StaticScheduler::with_policy(
        policy.unwrap_or_default(),
    )))
}

fn make_ga(spec: &MethodSpec) -> Result<BoxedSolver, MethodError> {
    use crate::ga_sched::GaScheduler;
    use tagio_ga::GaConfig;
    let mut args = spec.args();
    // Built-in methods may already run inside a sweep's worker pool, so
    // this GA evaluates serially by default — `threads: 0` would nest an
    // all-core pool per system.
    let mut config = GaConfig {
        threads: 1,
        ..GaConfig::quick()
    };
    if let Some(pop) = args.parsed::<usize>("pop")? {
        config.population = pop;
    }
    if let Some(gens) = args.parsed::<usize>("gens")? {
        config.generations = gens;
    }
    if let Some(threads) = args.parsed::<usize>("threads")? {
        config.threads = threads;
    }
    if let Some(hint) = args.parsed::<f64>("hint")? {
        if !(0.0..=1.0).contains(&hint) {
            return Err(MethodError::bad_param(
                "ga".into(),
                format!("hint={hint} outside [0, 1]"),
            ));
        }
        config.hint_fraction = hint;
    }
    let seed = args.parsed::<u64>("seed")?;
    args.finish()?;
    if config.population == 0 {
        return Err(MethodError::bad_param(
            "ga".into(),
            "pop=0 (population must be positive)".into(),
        ));
    }
    let ga = GaScheduler::new().with_config(config);
    Ok(match seed {
        // An explicit spec seed must win over whatever seed the caller's
        // context carries (the experiment engine seeds per system): pin
        // it at this boundary.
        Some(seed) => Box::new(PinnedSeed(ga.with_seed(seed))),
        None => Box::new(ga),
    })
}

/// A GA whose spec pinned `seed=N`: it ignores the per-call context, so
/// its constructor seed beats the caller's per-call seeding.
struct PinnedSeed(crate::ga_sched::GaScheduler);

impl Scheduler for PinnedSeed {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn schedule(&self, jobs: &JobSet) -> Result<Schedule, Infeasible> {
        self.0.schedule(jobs)
    }

    fn schedule_with(&self, jobs: &JobSet, _ctx: &SolverCtx) -> Result<Schedule, Infeasible> {
        self.0.schedule(jobs)
    }
}

/// The built-in base names, in table order.
#[must_use]
pub fn method_names() -> Vec<String> {
    BUILTINS
        .iter()
        .map(|(name, _, _)| (*name).to_owned())
        .collect()
}

/// Parses `spec` and instantiates the built-in method it names.
///
/// # Errors
/// [`MethodError`] on grammar violations, unknown base names, or
/// parameters the method rejects.
pub fn make_scheduler(spec: &str) -> Result<BoxedSolver, MethodError> {
    let parsed = MethodSpec::parse(spec)?;
    let (_, _, make) = BUILTINS
        .iter()
        .find(|(name, _, _)| *name == parsed.base())
        .ok_or_else(|| MethodError::Unknown {
            name: parsed.base().to_owned(),
            known: method_names(),
        })?;
    make(&parsed)
}

/// An ordered set of instantiated methods, keyed by the spec string they
/// were requested with.
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
    /// Instantiates the named built-in methods, preserving order.
    ///
    /// # Errors
    /// The first [`MethodError`] any spec produces.
    pub fn from_names<I, S>(names: I) -> Result<Self, MethodError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut methods = Vec::new();
        for name in names {
            let name = name.as_ref().trim();
            methods.push((name.to_owned(), make_scheduler(name)?));
        }
        Ok(MethodSet { methods })
    }

    /// Parses a comma-separated list of built-in methods.
    ///
    /// Note the comma does double duty: it separates methods *and*
    /// parameters. The splitting rule is simple and deterministic: a
    /// segment containing `=` (and no `:` of its own) continues the
    /// preceding parameterized spec, every other segment starts a new
    /// spec. So `"static:best-fit,ga:pop=8,gens=9"` selects **two**
    /// methods with `gens=9` attached to the `ga` spec — but *flag*
    /// parameters attach only directly after their `:`; a spec needing
    /// two flags can be built via [`MethodSpec`]/[`make_scheduler`],
    /// not via a CSV list.
    ///
    /// # Errors
    /// The first [`MethodError`] any spec produces, or
    /// [`MethodError::EmptySelection`] for a list with no names at all.
    pub fn parse(csv: &str) -> Result<Self, MethodError> {
        let set = Self::from_names(split_specs(csv))?;
        if set.is_empty() {
            return Err(MethodError::EmptySelection(csv.to_owned()));
        }
        Ok(set)
    }

    /// The paper's offline comparison set: FPS-offline, GPIOCP, the static
    /// heuristic and the GA (Figs. 5–7 without the FPS-online test).
    #[must_use]
    pub fn paper_baselines() -> Self {
        Self::from_names(["fps-offline", "gpiocp", "static", "ga"])
            .expect("paper baselines are built in")
    }

    /// Display names, in order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.methods.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Number of methods in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// `true` when the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }

    /// Iterates `(display name, solver)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &(dyn Scheduler + Send + Sync))> {
        self.methods.iter().map(|(n, s)| (n.as_str(), s.as_ref()))
    }
}

/// Splits a CSV selection into method specs: a segment containing `=`
/// (and no `:` of its own) attaches to the open parameterized spec —
/// no method base contains `=` — and every other segment starts a new
/// spec. Flag parameters therefore bind only directly after their `:`
/// (see [`MethodSet::parse`]).
fn split_specs(csv: &str) -> Vec<String> {
    let mut specs: Vec<String> = Vec::new();
    for segment in csv.split(',') {
        let trimmed = segment.trim();
        if trimmed.is_empty() {
            continue;
        }
        // A keyed parameter (`k=v` with no `:` of its own) continues the
        // open spec: no method base contains `=`, and a segment with a
        // `:` is always the start of a new parameterized spec.
        let continues = trimmed.contains('=')
            && !trimmed.contains(':')
            && specs.last().is_some_and(|open| open.contains(':'));
        match (continues, specs.last_mut()) {
            (true, Some(open)) => {
                open.push(',');
                open.push_str(trimmed);
            }
            _ => specs.push(trimmed.to_owned()),
        }
    }
    specs
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
    use crate::scheduler::SchedulingReport;
    use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
    use tagio_core::time::Duration;

    fn jobs() -> JobSet {
        let set: TaskSet = vec![IoTask::builder(TaskId(0), DeviceId(0))
            .wcet(Duration::from_micros(100))
            .period(Duration::from_millis(4))
            .ideal_offset(Duration::from_millis(2))
            .margin(Duration::from_millis(1))
            .build()
            .unwrap()]
        .into_iter()
        .collect();
        JobSet::expand(&set)
    }

    #[test]
    fn every_registered_name_instantiates() {
        for name in method_names() {
            assert!(make_scheduler(&name).is_ok(), "{name} not constructible");
        }
        assert!(matches!(
            make_scheduler("nonsense"),
            Err(MethodError::Unknown { .. })
        ));
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names = method_names();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
        // Every name is selectable through the grammar, and documented.
        for (name, summary, _) in BUILTINS {
            assert!(check_word(name, "method name").is_ok(), "{name}");
            assert!(!summary.is_empty(), "{name} has no summary");
        }
    }

    #[test]
    fn spec_grammar_parses_flags_and_keys() {
        let s = MethodSpec::parse(" ga : pop = 64 , gens=500, seed=7 ").unwrap();
        assert_eq!(s.base(), "ga");
        assert_eq!(s.to_string(), "ga:pop=64,gens=500,seed=7");
        let s = MethodSpec::parse("static:best-fit").unwrap();
        assert_eq!(s.params().collect::<Vec<_>>(), vec![("best-fit", None)]);
        assert_eq!(MethodSpec::parse("static").unwrap().to_string(), "static");
    }

    #[test]
    fn spec_grammar_rejects_duplicates_and_bad_chars() {
        assert!(matches!(
            MethodSpec::parse("ga:pop=1,pop=2"),
            Err(MethodParseError::DuplicateKey(k)) if k == "pop"
        ));
        assert!(matches!(
            MethodSpec::parse("ga:lcc-d,lcc-d"),
            Err(MethodParseError::DuplicateKey(_))
        ));
        assert!(matches!(
            MethodSpec::parse(""),
            Err(MethodParseError::Empty(_))
        ));
        assert!(matches!(
            MethodSpec::parse("ga:pop="),
            Err(MethodParseError::Empty(_))
        ));
        assert!(matches!(
            MethodSpec::parse("g a"),
            Err(MethodParseError::BadChar { .. })
        ));
        assert!(matches!(
            MethodSpec::parse("ga:po p=1"),
            Err(MethodParseError::BadChar { .. })
        ));
    }

    #[test]
    fn unknown_parameters_are_rejected_not_ignored() {
        for bad in [
            "fps-offline:fast",
            "static:pop=3",
            "static:first-fit,best-fit",
            "ga:population=9",
            "ga:pop=many",
            "ga:hint=1.5",
            "ga:pop=0",
            "optimal-psi:nodes=a-lot",
        ] {
            assert!(
                matches!(make_scheduler(bad), Err(MethodError::BadParam { .. })),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn parameterized_ga_applies_its_configuration() {
        // A 1-generation, tiny-population GA must still solve the
        // single-job set — and a different seed must not break
        // feasibility (both exercise the factory's plumbing end-to-end).
        for spec in ["ga:pop=8,gens=1", "ga:pop=8,gens=1,seed=7,hint=0.5"] {
            let solver = make_scheduler(spec).unwrap();
            let schedule = solver
                .schedule_with(&jobs(), &SolverCtx::new())
                .expect("tiny budget still schedules one job");
            schedule.validate(&jobs()).unwrap();
        }
    }

    #[test]
    fn explicit_spec_seed_beats_the_callers_context_seed() {
        // `ga:seed=7` pins the seed: two different caller contexts must
        // produce the same schedule, equal to a constructor-seeded GA.
        use crate::ga_sched::GaScheduler;
        let contended: TaskSet = (0..3)
            .map(|id| {
                IoTask::builder(TaskId(id), DeviceId(0))
                    .wcet(Duration::from_micros(2_000))
                    .period(Duration::from_millis(32))
                    .ideal_offset(Duration::from_millis(8 + u64::from(id) * 2))
                    .margin(Duration::from_millis(8))
                    .build()
                    .unwrap()
            })
            .collect();
        let jobs = JobSet::expand(&contended);
        let pinned = make_scheduler("ga:pop=16,gens=6,seed=7").unwrap();
        let a = pinned.schedule_with(&jobs, &SolverCtx::seeded(1)).unwrap();
        let b = pinned.schedule_with(&jobs, &SolverCtx::seeded(2)).unwrap();
        assert_eq!(a, b, "spec seed pins the run");
        let reference = GaScheduler::new()
            .with_config(tagio_ga::GaConfig {
                population: 16,
                generations: 6,
                threads: 1,
                ..tagio_ga::GaConfig::quick()
            })
            .with_seed(7)
            .schedule(&jobs)
            .unwrap();
        assert_eq!(a, reference);
        assert_eq!(pinned.schedule(&jobs).unwrap(), reference);
        // Without `seed=`, the caller's context seed takes effect.
        let unpinned = make_scheduler("ga:pop=16,gens=6").unwrap();
        let c = unpinned
            .schedule_with(&jobs, &SolverCtx::seeded(7))
            .unwrap();
        assert_eq!(c, reference);
    }

    #[test]
    fn csv_splitting_keeps_parameters_attached() {
        assert_eq!(
            split_specs("static:best-fit,ga:pop=8,gens=9,fps-offline"),
            vec!["static:best-fit", "ga:pop=8,gens=9", "fps-offline"]
        );
        let set = MethodSet::parse("static:best-fit,ga:pop=8,gens=2,fps-offline").unwrap();
        assert_eq!(
            set.names(),
            vec!["static:best-fit", "ga:pop=8,gens=2", "fps-offline"]
        );
    }

    #[test]
    fn parse_rejects_unknown_and_reports_known() {
        let err = MethodSet::parse("fps-offline,bogus").unwrap_err();
        match &err {
            MethodError::Unknown { name, known } => {
                assert_eq!(name, "bogus");
                assert!(known.iter().any(|n| n == "fps-offline"));
            }
            other => panic!("{other:?}"),
        }
        assert!(err.to_string().contains("fps-offline"));
    }

    #[test]
    fn parse_tolerates_spaces_and_empty_segments() {
        let set = MethodSet::parse(" fps-offline , static ,").unwrap();
        assert_eq!(set.names(), vec!["fps-offline", "static"]);
        assert!(matches!(
            MethodSet::parse(" , ,"),
            Err(MethodError::EmptySelection(_))
        ));
    }

    #[test]
    fn paper_baselines_match_figure_legend() {
        let set = MethodSet::paper_baselines();
        assert_eq!(set.names(), vec!["fps-offline", "gpiocp", "static", "ga"]);
        assert!(!set.is_empty());
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn boxed_solvers_are_shareable_across_threads() {
        fn assert_sync<T: Sync + Send>(_: &T) {}
        let set = MethodSet::paper_baselines();
        assert_sync(&set);
        let jobs = jobs();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for (_, solver) in set.iter() {
                        SchedulingReport::evaluate(solver, &jobs).unwrap();
                    }
                });
            }
        });
    }
}
