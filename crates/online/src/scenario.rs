//! Seeded, reproducible event-trace scenarios.
//!
//! A [`Scenario`] is a base system (admitted at bootstrap) plus an ordered
//! stream of [`TimedEvent`]s — arrivals drawn from the paper's §V.A
//! workload distribution, interleaved departures, a mid-stream mode
//! change and periodic utilisation spikes. Generation is a pure function
//! of [`ScenarioConfig`] (all randomness flows from its seed), which is
//! what makes the scenario-driven regression harness possible: the same
//! config always produces the same stream, so acceptance ratios, repair
//! latencies and Ψ/Υ degradation are comparable across strategies, runs
//! and machines.
//!
//! Scenarios also round-trip through a line-based text format
//! ([`format_trace`](crate::codec::format_trace) /
//! [`parse_trace`](crate::codec::parse_trace) in [`crate::codec`],
//! documented in `EXPERIMENTS.md`) so traces can be stored, diffed and
//! replayed outside the generator.

use crate::fleet::{FleetConfig, FleetScheduler};
use crate::service::{builder_from, OnlineScheduler, RepairStrategy};
use crate::tenant::{TenantCounters, TenantRegistry, TenantSpec, PPM};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use tagio_core::event::{Mode, ModeId, SystemEvent, TimedEvent};
use tagio_core::solve::InfeasibleCause;
use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet, TenantId};
use tagio_core::time::{Duration, Time};
use tagio_workload::generator::{paper_task_count, SystemConfig};
use tagio_workload::periods::PeriodPool;

/// The device partition every single-partition [`Scenario`] targets.
const SCENARIO_DEVICE: DeviceId = DeviceId(0);

/// Smallest period drawn for *arriving* tasks (base systems use the full
/// paper pool). Short-period arrivals release many jobs at once and model
/// bursty device traffic; this floor keeps arrival streams moderate.
const MIN_ARRIVAL_PERIOD: Duration = Duration::from_millis(30);

/// Parameters of scenario generation (the seed drives everything).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Utilisation of the base system admitted at bootstrap (a paper §V.A
    /// multiple of 0.05).
    pub base_utilisation: f64,
    /// Arrival attempts in the stream.
    pub arrivals: usize,
    /// Per-mille probability that a departure of a random known task
    /// follows an arrival.
    pub departure_permille: u32,
    /// Emit a utilisation spike after every `spike_every`-th arrival
    /// (`0` disables spikes).
    pub spike_every: usize,
    /// Emit one mode change halfway through the stream.
    pub mode_change: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            base_utilisation: 0.4,
            arrivals: 20,
            departure_permille: 450,
            spike_every: 7,
            mode_change: true,
            seed: 2020,
        }
    }
}

/// A generated (or hand-written) online-scheduling scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The device partition.
    pub device: DeviceId,
    /// The base system admitted at bootstrap.
    pub base: TaskSet,
    /// The event stream, ordered by instant.
    pub events: Vec<TimedEvent>,
}

/// What one replay of a scenario produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Arrival attempts seen by the service (stream + re-admissions).
    pub arrivals: usize,
    /// Arrivals admitted.
    pub admitted: usize,
    /// `admitted / arrivals` (1.0 when no arrivals).
    pub acceptance: f64,
    /// Mean *admission* construction latency, microseconds — the
    /// incremental-repair-vs-full-re-synthesis comparison number.
    pub mean_admission_micros: f64,
    /// Mean construction latency over every event kind, microseconds.
    pub mean_event_micros: f64,
    /// Incremental repairs that succeeded.
    pub repairs: usize,
    /// Full re-syntheses.
    pub resyntheses: usize,
    /// Admissions that needed the quality-blind FPS feasibility
    /// guarantee (each wipes Ψ until a later re-synthesis).
    pub fps_fallbacks: usize,
    /// Tasks shed under overload.
    pub shed: usize,
    /// Sheds decided by arithmetic alone (utilisation gate, or a WCET
    /// invalid at the spike level).
    pub shed_overload: usize,
    /// Sheds forced by schedule-construction failures below capacity.
    pub shed_infeasible: usize,
    /// Arrival rejections whose diagnostic cause was utilisation
    /// overload (the admission gate's fast rejects).
    pub reject_overload: usize,
    /// Arrival rejections whose diagnostic came from the failed
    /// integration tiers (no feasible slot / blocking bound).
    pub reject_infeasible: usize,
    /// Ψ of the final schedule.
    pub psi: f64,
    /// Υ of the final schedule.
    pub upsilon: f64,
    /// Ψ degradation versus the freshly bootstrapped base schedule.
    pub psi_drop: f64,
    /// Υ degradation versus the freshly bootstrapped base schedule.
    pub upsilon_drop: f64,
}

/// The paper's period pool, built once per generation, with its
/// blocking-safe WCET cap: half the shortest pool period. A longer
/// non-preemptive operation could fully cover some release window of a
/// shortest-period task, making *any* admission of one unschedulable
/// (the same rule `SystemConfig::generate` applies offline).
struct PaperPool {
    pool: PeriodPool,
    blocking_cap: Duration,
}

impl PaperPool {
    fn new() -> Self {
        let pool = PeriodPool::paper_default();
        let shortest = *pool
            .candidates()
            .first()
            .expect("the paper pool is non-empty");
        PaperPool {
            blocking_cap: shortest / 2,
            pool,
        }
    }

    /// The global deadline-monotonic priority of a task with `period`
    /// (shorter period ⇒ larger value), stable across arrivals — unlike
    /// re-running DMPO over the whole set, it never re-ranks
    /// already-admitted tasks (so cached analysis results stay valid).
    fn dm_priority(&self, period: Duration) -> u32 {
        (self.pool.hyperperiod().as_micros() / period.as_micros().max(1)) as u32
    }

    /// `task` as `id` on `device`, its WCET capped at the blocking bound
    /// and re-prioritised with the global DM rule.
    fn rebuild_with_dm_priority(&self, task: &IoTask, id: TaskId, device: DeviceId) -> IoTask {
        let prio = self.dm_priority(task.period());
        builder_from(task, id, device)
            .wcet(task.wcet().min(self.blocking_cap))
            .priority(tagio_core::task::Priority(prio))
            .quality(f64::from(prio) + 1.0, task.vmin())
            .build()
            .expect("rebuilding a valid task preserves validity")
    }
}

/// The same task re-tagged with `tenant` (everything else unchanged).
fn tag_tenant(task: &IoTask, tenant: TenantId) -> IoTask {
    builder_from(task, task.id(), task.device())
        .tenant(tenant)
        .build()
        .expect("re-tagging a valid task preserves validity")
}

/// An event stream under construction: each event lands 10 ms after
/// the one before it.
#[derive(Default)]
struct Stream {
    at: Time,
    events: Vec<TimedEvent>,
}

impl Stream {
    fn push(&mut self, event: SystemEvent) {
        self.at += Duration::from_millis(10);
        self.events.push(TimedEvent { at: self.at, event });
    }
}

/// One fresh paper-style arrival, drawn as both generators draw it: a
/// pool period of at least [`MIN_ARRIVAL_PERIOD`], a 2–10% utilisation
/// scaled by `demand`, the WCET capped at the margin and the blocking
/// bound, then an ideal offset inside the margin-trimmed window; the
/// task gets the global DM priority.
fn draw_arrival(
    rng: &mut StdRng,
    pool: &PaperPool,
    id: TaskId,
    device: DeviceId,
    tenant: TenantId,
    demand: f64,
) -> IoTask {
    let period = pool.pool.sample_at_least(MIN_ARRIVAL_PERIOD, rng);
    let margin = period / 4;
    let u = (0.02 + 0.08 * rng.random::<f64>()) * demand;
    let wcet_us = ((period.as_micros() as f64) * u).round().max(1.0) as u64;
    let wcet = Duration::from_micros(wcet_us)
        .min(margin)
        .min(pool.blocking_cap);
    let delta_us = rng.random_range(margin.as_micros()..=(period - margin).as_micros());
    pool.rebuild_with_dm_priority(
        &IoTask::builder(id, device)
            .wcet(wcet)
            .period(period)
            .ideal_offset(Duration::from_micros(delta_us))
            .margin(margin)
            .tenant(tenant)
            .build()
            .expect("generated arrival parameters are valid"),
        id,
        device,
    )
}

/// A departure of a random known task with probability `permille`/1000;
/// no draw at all when `permille` is zero.
fn draw_departure(rng: &mut StdRng, permille: u32, known: &[TaskId]) -> Option<TaskId> {
    (permille > 0 && rng.random_range(0..1000) < permille)
        .then(|| known[rng.random_range(0..known.len())])
}

/// A spike level: overload or relief, in percent of nominal.
fn draw_spike_percent(rng: &mut StdRng) -> u32 {
    [80, 110, 125, 150, 100][rng.random_range(0..5usize)]
}

/// The mid-stream mode change, after arrival `k` of `arrivals` when
/// `enabled`: keep every other known task.
fn midpoint_mode(enabled: bool, k: usize, arrivals: usize, known: &[TaskId]) -> Option<Mode> {
    (enabled && k + 1 == arrivals / 2).then(|| Mode {
        id: ModeId(1),
        active: known.iter().copied().step_by(2).collect(),
    })
}

impl Scenario {
    /// Generates the scenario determined by `config`.
    #[must_use]
    pub fn generate(config: &ScenarioConfig) -> Scenario {
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Base system from the paper generator, re-prioritised with the
        // stable global DM rule.
        let pool = PaperPool::new();
        let raw = SystemConfig::paper(config.base_utilisation).generate(&mut rng);
        let base: TaskSet = raw
            .iter()
            .enumerate()
            .map(|(i, t)| pool.rebuild_with_dm_priority(t, TaskId(i as u32), SCENARIO_DEVICE))
            .collect();
        let mut known: Vec<TaskId> = base.iter().map(IoTask::id).collect();
        let first_arrival_id = base.len() as u32;
        let mut stream = Stream::default();
        for k in 0..config.arrivals {
            let id = TaskId(first_arrival_id + k as u32);
            let task = draw_arrival(
                &mut rng,
                &pool,
                id,
                SCENARIO_DEVICE,
                TenantId::ANONYMOUS,
                1.0,
            );
            known.push(id);
            stream.push(SystemEvent::Arrival(task));
            if let Some(victim) = draw_departure(&mut rng, config.departure_permille, &known) {
                stream.push(SystemEvent::Departure(victim));
            }
            // Periodic spike (overload or relief).
            if config.spike_every > 0 && (k + 1) % config.spike_every == 0 {
                stream.push(SystemEvent::UtilisationSpike {
                    device: SCENARIO_DEVICE,
                    percent: draw_spike_percent(&mut rng),
                });
            }
            if let Some(mode) = midpoint_mode(config.mode_change, k, config.arrivals, &known) {
                stream.push(SystemEvent::ModeChange(mode));
            }
        }
        Scenario {
            device: SCENARIO_DEVICE,
            base,
            events: stream.events,
        }
    }

    /// Replays the scenario through a fresh [`OnlineScheduler`] using
    /// `strategy`, and summarises what happened.
    ///
    /// If the base system cannot be bootstrapped wholesale it is admitted
    /// task-by-task instead (counted as arrivals), so every scenario
    /// replays.
    #[must_use]
    pub fn replay(&self, strategy: RepairStrategy) -> ReplayOutcome {
        let mut svc = match OnlineScheduler::bootstrap(self.device, self.base.clone()) {
            Ok(svc) => svc.with_strategy(strategy),
            Err(base) => {
                let mut svc = OnlineScheduler::new(self.device).with_strategy(strategy);
                for t in &base {
                    let _ = svc.apply(&SystemEvent::Arrival(t.clone()));
                }
                svc
            }
        };
        let psi0 = svc.psi();
        let ups0 = svc.upsilon();
        for ev in &self.events {
            let _ = svc.apply(&ev.event);
        }
        let stats = svc.stats();
        use tagio_core::solve::InfeasibleCause;
        let reject_overload = stats.rejects_with_cause(InfeasibleCause::UtilisationOverload);
        let reject_infeasible = stats
            .reject_causes
            .iter()
            .filter(|(cause, _)| **cause != InfeasibleCause::UtilisationOverload)
            .map(|(_, n)| n)
            .sum();
        ReplayOutcome {
            arrivals: stats.arrivals,
            admitted: stats.admitted,
            acceptance: stats.acceptance_ratio(),
            mean_admission_micros: stats.mean_admission_micros(),
            mean_event_micros: stats.mean_event_micros(),
            repairs: stats.repairs,
            resyntheses: stats.resyntheses,
            fps_fallbacks: stats.fps_fallbacks,
            shed: stats.shed,
            shed_overload: stats.shed_overload,
            shed_infeasible: stats.shed_infeasible,
            reject_overload,
            reject_infeasible,
            psi: svc.psi(),
            upsilon: svc.upsilon(),
            psi_drop: psi0 - svc.psi(),
            upsilon_drop: ups0 - svc.upsilon(),
        }
    }
}

/// Parameters of multi-partition (fleet) scenario generation. As with
/// [`ScenarioConfig`], the seed drives everything.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScenarioConfig {
    /// Number of device partitions (`DeviceId(0)..DeviceId(n)`).
    pub partitions: u32,
    /// Per-partition base-system utilisation at bootstrap.
    pub base_utilisation: f64,
    /// Total arrival attempts across the fleet.
    pub arrivals: usize,
    /// Origin-device skew of the arrival stream: `0.0` draws origins
    /// uniformly, `1.0` aims every arrival at `DeviceId(0)` (a hot
    /// device). Affinity-respecting policies (first-fit) feel the skew;
    /// load-spreading ones (best-fit, rebalance) largely do not.
    pub skew: f64,
    /// Per-mille probability that a departure of a random known task
    /// follows an arrival.
    pub departure_permille: u32,
    /// Emit a utilisation spike on a random partition after every
    /// `spike_every`-th arrival (`0` disables spikes).
    pub spike_every: usize,
    /// Emit one fleet-wide mode change halfway through the stream.
    pub mode_change: bool,
    /// Kill a random partition after every `death_every`-th arrival
    /// (`0` disables deaths). Deaths exercise the fleet's failover path:
    /// the dead partition restarts empty and its tasks are mass
    /// re-admitted onto survivors.
    pub death_every: usize,
    /// RNG seed.
    pub seed: u64,
    /// Number of tenants (`TenantId(1)..=TenantId(n)`). `0` disables the
    /// tenant model entirely: every task stays anonymous, no tenant
    /// randomness is drawn, and generation is byte-identical to the
    /// pre-tenant format.
    pub tenants: u32,
    /// How many of the *hottest* tenants (smallest ids, most popular
    /// under the Zipf draw) run best-effort; the rest are guaranteed.
    pub best_effort_tenants: u32,
    /// Zipf popularity exponent `s` for the tenant draw: tenant `k` is
    /// drawn with weight `1/k^s`. `0.0` is uniform; larger values
    /// concentrate traffic on the hot tenants.
    pub tenant_zipf: f64,
    /// Diurnal load curve period in arrivals (`0` disables): arrival
    /// utilisation is modulated by a triangle wave peaking mid-period
    /// (factor 0.5 at the trough, 1.5 at the peak).
    pub diurnal_period: usize,
    /// Start a correlated burst storm every `burst_every`-th arrival
    /// (`0` disables): the next four arrivals share one Zipf-drawn
    /// tenant and one origin device.
    pub burst_every: usize,
}

/// Arrivals per burst storm (see [`FleetScenarioConfig::burst_every`]).
const BURST_LEN: usize = 4;

impl Default for FleetScenarioConfig {
    fn default() -> Self {
        FleetScenarioConfig {
            partitions: 2,
            base_utilisation: 0.4,
            arrivals: 16,
            skew: 0.5,
            departure_permille: 300,
            spike_every: 9,
            mode_change: true,
            death_every: 0,
            seed: 2020,
            tenants: 0,
            best_effort_tenants: 0,
            tenant_zipf: 1.0,
            diurnal_period: 0,
            burst_every: 0,
        }
    }
}

impl FleetScenarioConfig {
    /// A validating builder seeded with the default configuration.
    ///
    /// Field-soup construction (`FleetScenarioConfig { .. }`) cannot stop
    /// a zero-partition fleet, an arrival count that overflows the
    /// fleet-unique id scheme, a NaN skew or a base utilisation the
    /// paper's generator cannot build — each of which generates scenarios
    /// that look plausible and replay wrong, or panics. The builder
    /// rejects them at build time:
    ///
    /// ```
    /// use tagio_online::scenario::{ConfigError, FleetScenarioConfig};
    /// let cfg = FleetScenarioConfig::builder()
    ///     .partitions(4)
    ///     .arrivals(32)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.partitions, 4);
    /// let err = FleetScenarioConfig::builder().partitions(0).build();
    /// assert_eq!(err, Err(ConfigError::ZeroPartitions));
    /// ```
    #[must_use]
    pub fn builder() -> FleetScenarioConfigBuilder {
        FleetScenarioConfigBuilder {
            config: FleetScenarioConfig::default(),
        }
    }

    /// Validates this configuration (the builder's `build` check, usable
    /// on hand-assembled configs too).
    ///
    /// # Errors
    /// See [`ConfigError`] for each rejected class.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.partitions == 0 {
            return Err(ConfigError::ZeroPartitions);
        }
        if paper_task_count(self.base_utilisation).is_none() {
            return Err(ConfigError::InvalidBaseUtilisation);
        }
        // Device `d` owns base ids `d*100_000..`, and arrival ids start
        // at `partitions*100_000`; the last arrival id must fit in the
        // `u32` id space or later arrivals silently wrap onto base
        // ranges and duplicate-reject at the router.
        let last_id = (u64::from(self.partitions) * 100_000).saturating_add(self.arrivals as u64);
        if last_id > u64::from(u32::MAX) {
            return Err(ConfigError::IdRangeCollision {
                partitions: self.partitions,
                arrivals: self.arrivals,
            });
        }
        if !self.skew.is_finite() {
            return Err(ConfigError::NonFiniteSkew);
        }
        if !self.tenant_zipf.is_finite() || self.tenant_zipf < 0.0 {
            return Err(ConfigError::InvalidTenantZipf);
        }
        Ok(())
    }

    /// The tenant contracts this configuration implies: the hottest
    /// [`Self::best_effort_tenants`] tenants are best-effort (hard-capped
    /// at half the even fleet share), the rest guaranteed at an even
    /// fleet share (`partitions · PPM / tenants`). Empty — the trivial
    /// registry — when the tenant model is disabled.
    #[must_use]
    pub fn tenant_registry(&self) -> TenantRegistry {
        let mut registry = TenantRegistry::new();
        if self.tenants == 0 {
            return registry;
        }
        let share = (u64::from(self.partitions) * PPM) / u64::from(self.tenants).max(1);
        for k in 1..=self.tenants {
            let spec = if k <= self.best_effort_tenants {
                TenantSpec::best_effort(share / 2)
            } else {
                TenantSpec::guaranteed(share)
            };
            registry.register(TenantId(k), spec);
        }
        registry
    }
}

/// Why a [`FleetScenarioConfig`] was rejected at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `partitions == 0`: a fleet with no devices routes nothing.
    ZeroPartitions,
    /// `base_utilisation` is not a multiple of 0.05 in `(0, 1]` (NaN
    /// included), so [`SystemConfig::paper`] cannot build the base systems.
    InvalidBaseUtilisation,
    /// `partitions * 100_000 + arrivals` exceeds the `u32` task-id
    /// space, so arrival ids would wrap onto a base partition's range
    /// and be duplicate-rejected at the router.
    IdRangeCollision {
        /// The offending partition count.
        partitions: u32,
        /// The offending arrival count.
        arrivals: usize,
    },
    /// `skew` is NaN or infinite — the origin draw compares it against
    /// a uniform sample, so every comparison would be vacuous.
    NonFiniteSkew,
    /// `tenant_zipf` is NaN, infinite or negative — the popularity
    /// weights `1/k^s` would be meaningless.
    InvalidTenantZipf,
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::ZeroPartitions => f.write_str("fleet scenarios need at least 1 partition"),
            ConfigError::InvalidBaseUtilisation => {
                f.write_str("base_utilisation must be a multiple of 0.05 in (0, 1]")
            }
            ConfigError::IdRangeCollision {
                partitions,
                arrivals,
            } => write!(
                f,
                "{partitions} partitions x {arrivals} arrivals overflow the fleet-unique \
                 task-id ranges (d*100_000 per device, arrivals above them)"
            ),
            ConfigError::NonFiniteSkew => f.write_str("skew must be finite"),
            ConfigError::InvalidTenantZipf => {
                f.write_str("tenant_zipf must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`FleetScenarioConfig`] — see
/// [`FleetScenarioConfig::builder`].
#[derive(Debug, Clone)]
pub struct FleetScenarioConfigBuilder {
    config: FleetScenarioConfig,
}

impl FleetScenarioConfigBuilder {
    /// Number of device partitions.
    #[must_use]
    pub fn partitions(mut self, partitions: u32) -> Self {
        self.config.partitions = partitions;
        self
    }

    /// Per-partition base-system utilisation at bootstrap.
    #[must_use]
    pub fn base_utilisation(mut self, utilisation: f64) -> Self {
        self.config.base_utilisation = utilisation;
        self
    }

    /// Total arrival attempts across the fleet.
    #[must_use]
    pub fn arrivals(mut self, arrivals: usize) -> Self {
        self.config.arrivals = arrivals;
        self
    }

    /// Per-mille probability of a departure after each arrival.
    #[must_use]
    pub fn departure_permille(mut self, permille: u32) -> Self {
        self.config.departure_permille = permille;
        self
    }

    /// Spike cadence in arrivals (`0` disables spikes).
    #[must_use]
    pub fn spike_every(mut self, every: usize) -> Self {
        self.config.spike_every = every;
        self
    }

    /// Whether to emit one fleet-wide mode change mid-stream.
    #[must_use]
    pub fn mode_change(mut self, emit: bool) -> Self {
        self.config.mode_change = emit;
        self
    }

    /// Partition-death cadence in arrivals (`0` disables deaths).
    #[must_use]
    pub fn death_every(mut self, every: usize) -> Self {
        self.config.death_every = every;
        self
    }

    /// RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Number of tenants (`0` disables the tenant model).
    #[must_use]
    pub fn tenants(mut self, tenants: u32) -> Self {
        self.config.tenants = tenants;
        self
    }

    /// How many of the hottest tenants run best-effort.
    #[must_use]
    pub fn best_effort_tenants(mut self, n: u32) -> Self {
        self.config.best_effort_tenants = n;
        self
    }

    /// Burst-storm cadence in arrivals (`0` disables).
    #[must_use]
    pub fn burst_every(mut self, every: usize) -> Self {
        self.config.burst_every = every;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    /// [`ConfigError::ZeroPartitions`],
    /// [`ConfigError::InvalidBaseUtilisation`],
    /// [`ConfigError::IdRangeCollision`], [`ConfigError::NonFiniteSkew`] or
    /// [`ConfigError::InvalidTenantZipf`].
    pub fn build(self) -> Result<FleetScenarioConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A generated multi-partition scenario: per-device base systems plus one
/// fleet-wide event stream whose arrivals carry (skewed) origin devices.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScenario {
    /// Per-partition base systems (task ids are fleet-unique).
    pub bases: BTreeMap<DeviceId, TaskSet>,
    /// The event stream, ordered by instant.
    pub events: Vec<TimedEvent>,
}

/// What one fleet replay produced (fleet-unique arrival accounting; see
/// [`FleetStats`](crate::fleet::FleetStats) for the distinction from the
/// per-partition aggregate).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReplayOutcome {
    /// Unique arrivals routed.
    pub arrivals: usize,
    /// Arrivals admitted somewhere in the fleet.
    pub admitted: usize,
    /// `admitted / arrivals` (`1.0` when no arrivals).
    pub acceptance: f64,
    /// Cross-partition re-offers attempted.
    pub retries: usize,
    /// Admissions that needed at least one retry.
    pub retry_admissions: usize,
    /// Admissions on a partition other than the arrival's origin device.
    pub migrations: usize,
    /// Arrivals rejected at the router as duplicates.
    pub duplicate_rejects: usize,
    /// Final rejections whose cause was the utilisation gate.
    pub reject_overload: usize,
    /// Final rejections from failed integration tiers.
    pub reject_infeasible: usize,
    /// Tasks shed fleet-wide to survive spikes.
    pub shed: usize,
    /// Successful incremental repairs across all partitions.
    pub repairs: usize,
    /// Full re-syntheses across all partitions.
    pub resyntheses: usize,
    /// Mean admission-construction latency across all partitions,
    /// microseconds (wall clock — not deterministic).
    pub mean_admission_micros: f64,
    /// Mean Ψ over busy partitions after the stream.
    pub mean_psi: f64,
    /// Mean Υ over busy partitions after the stream.
    pub mean_upsilon: f64,
    /// Partition deaths routed.
    pub deaths: usize,
    /// Tasks orphaned by those deaths.
    pub orphaned: usize,
    /// Orphans re-admitted onto a surviving partition.
    pub rehomed: usize,
    /// Orphans no survivor could take (diagnosed, then dropped).
    pub lost: usize,
    /// Per-tenant slices of the replay (router counters, partition-level
    /// sheds, and each tenant's job-weighted Ψ over the final
    /// schedules). Empty for untenanted scenarios, which keeps the
    /// pre-tenant metric schema unchanged.
    pub tenants: BTreeMap<TenantId, TenantReplay>,
}

/// One tenant's slice of a fleet replay.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReplay {
    /// Unique arrivals the router saw for this tenant.
    pub arrivals: usize,
    /// Arrivals admitted somewhere in the fleet.
    pub admitted: usize,
    /// Arrivals rejected (router quota/fair gate or final partition
    /// verdict).
    pub rejected: usize,
    /// Active tasks of this tenant shed by partitions under overload.
    pub shed: usize,
    /// `admitted / arrivals` (`1.0` when no arrivals).
    pub acceptance: f64,
    /// Job-weighted mean Ψ over this tenant's jobs in the final
    /// schedules (`1.0` when the tenant holds no jobs).
    pub psi: f64,
}

impl FleetReplayOutcome {
    /// The outcome as a named [`MetricSet`](tagio_core::MetricSet) — the exact column schema the
    /// `fleet_scenarios` experiment reports, so every consumer (the
    /// experiment binary, ad-hoc analysis) emits identical metric names.
    #[must_use]
    pub fn metric_set(&self) -> tagio_core::MetricSet {
        let mut set = tagio_core::MetricSet::new();
        set.push("acceptance", self.acceptance);
        set.push("retries", self.retries as f64);
        set.push("retry_adm", self.retry_admissions as f64);
        set.push("migrations", self.migrations as f64);
        set.push("repair_latency_us", self.mean_admission_micros);
        set.push("psi", self.mean_psi);
        set.push("upsilon", self.mean_upsilon);
        set.push("shed", self.shed as f64);
        set.push("rej_overload", self.reject_overload as f64);
        set.push("rej_infeasible", self.reject_infeasible as f64);
        // Per-tenant columns ride behind the fixed schema and only when
        // the replay was tenanted, so untenanted consumers (and their
        // pinned goldens) see the exact pre-tenant column set.
        for (tenant, t) in &self.tenants {
            set.push(format!("{tenant}_acceptance"), t.acceptance);
            set.push(format!("{tenant}_shed"), t.shed as f64);
            set.push(format!("{tenant}_rej"), t.rejected as f64);
            set.push(format!("{tenant}_psi"), t.psi);
        }
        set
    }
}

impl FleetScenario {
    /// Generates the fleet scenario determined by `config`.
    #[must_use]
    pub fn generate(config: &FleetScenarioConfig) -> FleetScenario {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let partitions = config.partitions.max(1);
        // Per-partition base systems with fleet-unique id ranges: device
        // `d` owns ids `d*100_000..`, and the arrival stream starts at
        // `partitions*100_000` — above every base range for any
        // partition count (base systems are far smaller than 100_000
        // tasks), so ids never collide and nothing is silently
        // duplicate-rejected at the router.
        let arrival_ids = partitions * 100_000;
        let pool = PaperPool::new();
        let mut bases = BTreeMap::new();
        let mut known: Vec<TaskId> = Vec::new();
        for d in 0..partitions {
            let device = DeviceId(d);
            let raw = SystemConfig::paper(config.base_utilisation).generate(&mut rng);
            let base: TaskSet = raw
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let rebuilt =
                        pool.rebuild_with_dm_priority(t, TaskId(d * 100_000 + i as u32), device);
                    if config.tenants == 0 {
                        rebuilt
                    } else {
                        // Base tasks get tenants round-robin — no RNG, so
                        // enabling tenancy leaves the seeded parameter
                        // stream untouched.
                        tag_tenant(&rebuilt, TenantId((i as u32) % config.tenants + 1))
                    }
                })
                .collect();
            known.extend(base.iter().map(IoTask::id));
            bases.insert(device, base);
        }
        // Zipf popularity weights 1/k^s for the tenant draw, as a
        // cumulative table (drawn by binary search on one uniform
        // sample). Tenant knobs draw no randomness at all when disabled,
        // keeping untenanted streams byte-identical to older generations.
        let zipf_cum: Vec<f64> = {
            let mut cum = Vec::with_capacity(config.tenants as usize);
            let mut total = 0.0;
            for t in 1..=config.tenants {
                total += 1.0 / f64::from(t).powf(config.tenant_zipf);
                cum.push(total);
            }
            cum
        };
        let zipf_total = zipf_cum.last().copied().unwrap_or(0.0);
        let mut burst: Option<(TenantId, DeviceId, usize)> = None;
        let mut stream = Stream::default();
        for k in 0..config.arrivals {
            // A live burst storm pins tenant and origin (no draws);
            // otherwise draw the origin device (`skew` routes to the hot
            // device 0, the rest spreads uniformly), then the tenant.
            let storming = match burst.as_mut() {
                Some((_, _, left)) if *left > 0 => {
                    *left -= 1;
                    true
                }
                _ => false,
            };
            let (origin, tenant) = if storming {
                let (tenant, origin, _) = burst.expect("storming implies a live burst");
                (origin, tenant)
            } else {
                let origin = if rng.random::<f64>() < config.skew {
                    DeviceId(0)
                } else {
                    DeviceId(rng.random_range(0..partitions))
                };
                let tenant = if config.tenants == 0 {
                    TenantId::ANONYMOUS
                } else {
                    let r = rng.random::<f64>() * zipf_total;
                    let ix = zipf_cum.partition_point(|&c| c <= r);
                    TenantId(ix.min(config.tenants as usize - 1) as u32 + 1)
                };
                if config.burst_every > 0 && (k + 1) % config.burst_every == 0 {
                    burst = Some((tenant, origin, BURST_LEN));
                }
                (origin, tenant)
            };
            // Diurnal modulation: a triangle wave over `diurnal_period`
            // arrivals scales demand between 0.5x (trough) and 1.5x
            // (peak) — integer-derived, so it is exactly reproducible.
            let demand = if config.diurnal_period > 0 {
                let p = config.diurnal_period;
                let phase = k % p;
                0.5 + (phase.min(p - phase) as f64) / (p as f64 / 2.0)
            } else {
                1.0
            };
            let id = TaskId(arrival_ids + k as u32);
            let task = draw_arrival(&mut rng, &pool, id, origin, tenant, demand);
            known.push(id);
            stream.push(SystemEvent::Arrival(task));
            if let Some(victim) = draw_departure(&mut rng, config.departure_permille, &known) {
                stream.push(SystemEvent::Departure(victim));
            }
            if config.spike_every > 0 && (k + 1) % config.spike_every == 0 {
                let percent = draw_spike_percent(&mut rng);
                stream.push(SystemEvent::UtilisationSpike {
                    device: DeviceId(rng.random_range(0..partitions)),
                    percent,
                });
            }
            // Periodic partition death (disabled by default; drawing no
            // randomness when off keeps death-free streams byte-identical
            // to pre-failover generations).
            if config.death_every > 0 && (k + 1) % config.death_every == 0 {
                stream.push(SystemEvent::PartitionDeath {
                    device: DeviceId(rng.random_range(0..partitions)),
                });
            }
            if let Some(mode) = midpoint_mode(config.mode_change, k, config.arrivals, &known) {
                stream.push(SystemEvent::ModeChange(mode));
            }
        }
        FleetScenario {
            bases,
            events: stream.events,
        }
    }

    /// The same scenario collapsed onto a single partition: every base
    /// task and every event re-targeted to `DeviceId(0)`. This is the
    /// equal-aggregate-load baseline the fleet is compared against — the
    /// total offered work is identical, the capacity is one device.
    #[must_use]
    pub fn collapsed(&self) -> FleetScenario {
        let device = DeviceId(0);
        let merged: TaskSet = self
            .bases
            .values()
            .flat_map(|base| base.iter().map(|t| t.retarget(device)))
            .collect();
        let mut bases = BTreeMap::new();
        bases.insert(device, merged);
        let events = self
            .events
            .iter()
            .map(|e| TimedEvent {
                at: e.at,
                event: e.event.retargeted(device),
            })
            .collect();
        FleetScenario { bases, events }
    }

    /// Replays the scenario through a freshly bootstrapped
    /// [`FleetScheduler`] under `config`, batching `batch` events per
    /// epoch (`0` batches the whole stream as one epoch), and summarises
    /// what happened. Deterministic apart from wall-clock latencies for
    /// any `config.threads`.
    #[must_use]
    pub fn replay(&self, config: FleetConfig, batch: usize) -> FleetReplayOutcome {
        let mut fleet = FleetScheduler::bootstrap(&self.bases, config);
        let stream: Vec<SystemEvent> = self.events.iter().map(|e| e.event.clone()).collect();
        let epoch = if batch == 0 {
            stream.len().max(1)
        } else {
            batch
        };
        for chunk in stream.chunks(epoch) {
            let _ = fleet.apply_batch(chunk);
        }
        let stats = fleet.stats();
        let reject_overload = stats.rejects_with_cause(InfeasibleCause::UtilisationOverload);
        let reject_infeasible = stats
            .reject_causes
            .iter()
            .filter(|(cause, _)| **cause != InfeasibleCause::UtilisationOverload)
            .map(|(_, n)| n)
            .sum();
        let aggregate = fleet.aggregate_stats();
        let tenants = per_tenant_replay(&fleet);
        FleetReplayOutcome {
            arrivals: stats.arrivals,
            admitted: stats.admitted,
            acceptance: stats.acceptance_ratio(),
            retries: stats.retries,
            retry_admissions: stats.retry_admissions,
            migrations: stats.migrations,
            duplicate_rejects: stats.duplicate_rejects,
            reject_overload,
            reject_infeasible,
            shed: aggregate.shed,
            repairs: aggregate.repairs,
            resyntheses: aggregate.resyntheses,
            mean_admission_micros: aggregate.mean_admission_micros(),
            mean_psi: fleet.mean_psi(),
            mean_upsilon: fleet.mean_upsilon(),
            deaths: stats.deaths,
            orphaned: stats.orphaned,
            rehomed: stats.rehomed,
            lost: stats.lost,
            tenants,
        }
    }
}

/// Folds a replayed fleet's tenant state into per-tenant summaries:
/// router counters, partition-level sheds, and each tenant's
/// job-weighted Ψ over the final schedules (computed on the tenant's
/// filtered job set, so one tenant's placement quality is visible even
/// when another's jobs crowd the same partition).
fn per_tenant_replay(fleet: &FleetScheduler) -> BTreeMap<TenantId, TenantReplay> {
    let mut counters: BTreeMap<TenantId, TenantCounters> = fleet.stats().tenants.clone();
    for p in fleet.partitions() {
        for (&tenant, c) in &p.stats().tenants {
            counters.entry(tenant).or_default().shed += c.shed;
        }
    }
    if counters.is_empty() {
        return BTreeMap::new();
    }
    // Job-weighted Ψ per tenant: filter each partition's jobs and
    // schedule entries down to the tenant's task ids, score the slice,
    // and weight by its job count.
    let mut psi_acc: BTreeMap<TenantId, (f64, usize)> = BTreeMap::new();
    for p in fleet.partitions() {
        let mut ids: BTreeMap<TenantId, std::collections::BTreeSet<TaskId>> = BTreeMap::new();
        for t in p.tasks().iter() {
            if !t.tenant().is_anonymous() {
                ids.entry(t.tenant()).or_default().insert(t.id());
            }
        }
        for (tenant, ids) in ids {
            let jobs: Vec<tagio_core::job::Job> = p
                .jobs()
                .iter()
                .filter(|j| ids.contains(&j.id().task))
                .cloned()
                .collect();
            let n = jobs.len();
            if n == 0 {
                continue;
            }
            let jobs = tagio_core::job::JobSet::from_jobs(jobs, p.jobs().hyperperiod());
            let schedule: tagio_core::schedule::Schedule = p
                .schedule()
                .iter()
                .filter(|e| ids.contains(&e.job.task))
                .cloned()
                .collect();
            let slot = psi_acc.entry(tenant).or_insert((0.0, 0));
            slot.0 += tagio_core::metrics::psi(&schedule, &jobs) * n as f64;
            slot.1 += n;
        }
    }
    counters
        .into_iter()
        .map(|(tenant, c)| {
            let (sum, n) = psi_acc.get(&tenant).copied().unwrap_or((0.0, 0));
            let replay = TenantReplay {
                arrivals: c.arrivals,
                admitted: c.admitted,
                rejected: c.rejected,
                shed: c.shed,
                acceptance: if c.arrivals == 0 {
                    1.0
                } else {
                    c.admitted as f64 / c.arrivals as f64
                },
                psi: if n == 0 { 1.0 } else { sum / n as f64 },
            };
            (tenant, replay)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{format_trace, parse_trace};

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let cfg = ScenarioConfig::default();
        let a = Scenario::generate(&cfg);
        let b = Scenario::generate(&cfg);
        assert_eq!(a, b);
        let c = Scenario::generate(&ScenarioConfig {
            seed: 7,
            ..ScenarioConfig::default()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn generated_stream_contains_every_event_kind() {
        let s = Scenario::generate(&ScenarioConfig {
            arrivals: 30,
            departure_permille: 500,
            spike_every: 5,
            ..ScenarioConfig::default()
        });
        let has = |kind: fn(&SystemEvent) -> bool| s.events.iter().any(|e| kind(&e.event));
        assert!(has(|e| matches!(e, SystemEvent::Arrival(_))));
        assert!(has(|e| matches!(e, SystemEvent::Departure(_))));
        assert!(has(|e| matches!(e, SystemEvent::UtilisationSpike { .. })));
        assert!(has(|e| matches!(e, SystemEvent::ModeChange(_))));
        // Events are time-ordered.
        assert!(s.events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn replay_produces_consistent_summary() {
        let s = Scenario::generate(&ScenarioConfig {
            arrivals: 8,
            ..ScenarioConfig::default()
        });
        let out = s.replay(RepairStrategy::Incremental);
        assert!(out.arrivals >= 8);
        assert!(out.admitted <= out.arrivals);
        assert!((0.0..=1.0).contains(&out.acceptance));
        assert!((0.0..=1.0).contains(&out.psi));
        assert!(out.upsilon >= 0.0);
        assert!(out.repairs + out.resyntheses > 0);
    }

    #[test]
    fn replay_is_deterministic_apart_from_latency() {
        let s = Scenario::generate(&ScenarioConfig {
            arrivals: 6,
            ..ScenarioConfig::default()
        });
        let a = s.replay(RepairStrategy::Incremental);
        let b = s.replay(RepairStrategy::Incremental);
        assert_eq!(
            (a.arrivals, a.admitted, a.repairs),
            (b.arrivals, b.admitted, b.repairs)
        );
        assert_eq!((a.psi, a.upsilon), (b.psi, b.upsilon));
    }

    #[test]
    fn trace_round_trips() {
        let s = Scenario::generate(&ScenarioConfig {
            arrivals: 12,
            departure_permille: 400,
            spike_every: 4,
            ..ScenarioConfig::default()
        });
        let text = format_trace(&s.events);
        let parsed = parse_trace(&text).expect("own output parses");
        assert_eq!(parsed, s.events);
    }

    #[test]
    fn fleet_generation_is_deterministic_and_multi_device() {
        let cfg = FleetScenarioConfig {
            partitions: 3,
            arrivals: 12,
            ..FleetScenarioConfig::default()
        };
        let a = FleetScenario::generate(&cfg);
        let b = FleetScenario::generate(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.bases.len(), 3);
        // Base ids are fleet-unique.
        let mut ids: Vec<TaskId> = a
            .bases
            .values()
            .flat_map(|b| b.iter().map(|t| t.id()))
            .collect();
        let total = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total);
        // Arrivals name devices inside the fleet.
        for e in &a.events {
            if let SystemEvent::Arrival(t) = &e.event {
                assert!(t.device().0 < 3);
            }
        }
        assert_ne!(
            a,
            FleetScenario::generate(&FleetScenarioConfig {
                seed: 9,
                partitions: 3,
                arrivals: 12,
                ..FleetScenarioConfig::default()
            })
        );
    }

    #[test]
    fn id_ranges_stay_unique_for_many_partitions() {
        // Base ids live at d*100_000.. and arrivals start above every
        // base range; 11+ partitions used to collide with a fixed
        // 1_000_000 arrival base.
        let s = FleetScenario::generate(&FleetScenarioConfig {
            partitions: 11,
            arrivals: 3,
            ..FleetScenarioConfig::default()
        });
        let mut ids: Vec<TaskId> = s
            .bases
            .values()
            .flat_map(|b| b.iter().map(|t| t.id()))
            .collect();
        for e in &s.events {
            if let SystemEvent::Arrival(t) = &e.event {
                ids.push(t.id());
            }
        }
        let total = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total, "no id collides across the fleet");
    }

    #[test]
    fn full_skew_aims_every_arrival_at_the_hot_device() {
        let s = FleetScenario::generate(&FleetScenarioConfig {
            partitions: 4,
            arrivals: 10,
            skew: 1.0,
            ..FleetScenarioConfig::default()
        });
        for e in &s.events {
            if let SystemEvent::Arrival(t) = &e.event {
                assert_eq!(t.device(), DeviceId(0));
            }
        }
    }

    #[test]
    fn collapsed_scenario_targets_one_device_with_equal_load() {
        let s = FleetScenario::generate(&FleetScenarioConfig {
            partitions: 3,
            arrivals: 8,
            ..FleetScenarioConfig::default()
        });
        let single = s.collapsed();
        assert_eq!(single.bases.len(), 1);
        let merged = &single.bases[&DeviceId(0)];
        let fleet_tasks: usize = s.bases.values().map(TaskSet::len).sum();
        assert_eq!(merged.len(), fleet_tasks, "no work lost in the collapse");
        assert_eq!(single.events.len(), s.events.len());
        for e in &single.events {
            let device = match &e.event {
                SystemEvent::Arrival(task) => Some(task.device()),
                SystemEvent::UtilisationSpike { device, .. }
                | SystemEvent::PartitionDeath { device } => Some(*device),
                SystemEvent::Departure(_) | SystemEvent::ModeChange(_) => None,
            };
            assert!(device.is_none_or(|d| d == DeviceId(0)));
        }
    }

    #[test]
    fn fleet_replay_produces_consistent_summary() {
        let s = FleetScenario::generate(&FleetScenarioConfig {
            partitions: 2,
            arrivals: 8,
            ..FleetScenarioConfig::default()
        });
        let out = s.replay(
            FleetConfig {
                threads: 1,
                ..FleetConfig::default()
            },
            4,
        );
        assert!(out.arrivals >= 8);
        assert!(out.admitted <= out.arrivals);
        assert!((0.0..=1.0).contains(&out.acceptance));
        assert!((0.0..=1.0).contains(&out.mean_psi));
        assert!(out.mean_upsilon >= 0.0);
        assert!(out.repairs + out.resyntheses > 0);
    }

    #[test]
    fn builder_accepts_valid_and_rejects_invalid_configs() {
        let cfg = FleetScenarioConfig::builder()
            .partitions(3)
            .base_utilisation(0.5)
            .arrivals(24)
            .departure_permille(100)
            .spike_every(5)
            .mode_change(false)
            .seed(7)
            .build()
            .expect("valid config builds");
        assert_eq!(cfg.partitions, 3);
        assert_eq!(cfg.arrivals, 24);
        assert!(!cfg.mode_change);
        // The built value generates exactly like the equivalent literal.
        assert_eq!(
            FleetScenario::generate(&cfg),
            FleetScenario::generate(&FleetScenarioConfig {
                partitions: 3,
                base_utilisation: 0.5,
                arrivals: 24,
                skew: 0.5,
                departure_permille: 100,
                spike_every: 5,
                mode_change: false,
                death_every: 0,
                seed: 7,
                tenants: 0,
                best_effort_tenants: 0,
                tenant_zipf: 1.0,
                diurnal_period: 0,
                burst_every: 0,
            })
        );

        assert_eq!(
            FleetScenarioConfig::builder().partitions(0).build(),
            Err(ConfigError::ZeroPartitions)
        );
        for skew in [f64::NAN, f64::INFINITY] {
            let cfg = FleetScenarioConfig {
                skew,
                ..FleetScenarioConfig::default()
            };
            assert_eq!(cfg.validate(), Err(ConfigError::NonFiniteSkew));
        }
        let err = FleetScenarioConfig::builder()
            .partitions(42_950)
            .arrivals(usize::MAX)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::IdRangeCollision { .. }));
        // Errors render human-readable text.
        assert!(err.to_string().contains("overflow"));
        assert!(ConfigError::ZeroPartitions.to_string().contains("1"));
    }

    #[test]
    fn builder_rejects_base_utilisations_the_generator_cannot_build() {
        for bad in [0.42, 0.0, 1.05, f64::NAN] {
            assert_eq!(
                FleetScenarioConfig::builder().base_utilisation(bad).build(),
                Err(ConfigError::InvalidBaseUtilisation),
                "accepted base_utilisation={bad}"
            );
        }
        for good in [0.05, 0.4, 0.9, 1.0] {
            let cfg = FleetScenarioConfig::builder()
                .base_utilisation(good)
                .arrivals(2)
                .build()
                .unwrap_or_else(|e| panic!("rejected base_utilisation={good}: {e}"));
            assert!(!FleetScenario::generate(&cfg).events.is_empty());
        }
        assert!(ConfigError::InvalidBaseUtilisation
            .to_string()
            .contains("multiple of 0.05"));
    }

    #[test]
    fn metric_set_matches_outcome_fields() {
        let s = FleetScenario::generate(&FleetScenarioConfig {
            partitions: 2,
            arrivals: 6,
            ..FleetScenarioConfig::default()
        });
        let out = s.replay(
            FleetConfig {
                threads: 1,
                ..FleetConfig::default()
            },
            4,
        );
        let set = out.metric_set();
        assert_eq!(set.get("acceptance"), Some(out.acceptance));
        assert_eq!(set.get("retries"), Some(out.retries as f64));
        assert_eq!(set.get("psi"), Some(out.mean_psi));
        assert_eq!(
            set.get("rej_infeasible"),
            Some(out.reject_infeasible as f64)
        );
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn death_cadence_emits_deaths_only_when_enabled() {
        let quiet = FleetScenario::generate(&FleetScenarioConfig {
            partitions: 3,
            arrivals: 12,
            ..FleetScenarioConfig::default()
        });
        assert!(!quiet
            .events
            .iter()
            .any(|e| matches!(e.event, SystemEvent::PartitionDeath { .. })));
        let noisy = FleetScenario::generate(&FleetScenarioConfig {
            partitions: 3,
            arrivals: 12,
            death_every: 4,
            ..FleetScenarioConfig::default()
        });
        let deaths: Vec<DeviceId> = noisy
            .events
            .iter()
            .filter_map(|e| match e.event {
                SystemEvent::PartitionDeath { device } => Some(device),
                _ => None,
            })
            .collect();
        assert_eq!(deaths.len(), 3, "12 arrivals / death_every 4");
        assert!(deaths.iter().all(|d| d.0 < 3), "victims live in the fleet");
    }

    #[test]
    fn dm_priority_orders_by_period() {
        let pool = PaperPool::new();
        let dm = |ms| pool.dm_priority(Duration::from_millis(ms));
        assert!(dm(10) > dm(20));
        assert_eq!(dm(1440), 1);
        let shortest = *pool.pool.candidates().iter().min().unwrap();
        assert_eq!(pool.blocking_cap, shortest / 2);
    }

    #[test]
    fn tenant_tags_round_trip_and_stay_off_untenanted_traces() {
        let tenanted = FleetScenario::generate(&FleetScenarioConfig {
            partitions: 2,
            arrivals: 10,
            tenants: 3,
            ..FleetScenarioConfig::default()
        });
        let text = format_trace(&tenanted.events);
        assert!(text.contains(" tn="), "tenanted arrivals carry the tag");
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed, tenanted.events, "tn= survives the round trip");

        let plain = FleetScenario::generate(&FleetScenarioConfig {
            partitions: 2,
            arrivals: 10,
            ..FleetScenarioConfig::default()
        });
        assert!(
            !format_trace(&plain.events).contains("tn="),
            "anonymous traffic emits the pre-tenant grammar"
        );
        let bad = "@12 arrive t7 d0 c=100 t=10000 dl=10000 o=0 delta=2000 \
                   theta=1000 p=5 vmax=1 vmin=0.5 tn=x";
        assert!(parse_trace(bad).is_err(), "non-numeric tenant tag rejected");
    }

    #[test]
    fn tenanted_generation_tags_every_task_in_range() {
        let cfg = FleetScenarioConfig {
            partitions: 2,
            arrivals: 16,
            tenants: 3,
            ..FleetScenarioConfig::default()
        };
        let s = FleetScenario::generate(&cfg);
        for base in s.bases.values() {
            for t in base.iter() {
                assert!((1..=3).contains(&t.tenant().0), "base tagged round-robin");
            }
        }
        for e in &s.events {
            if let SystemEvent::Arrival(t) = &e.event {
                assert!((1..=3).contains(&t.tenant().0), "arrival in 1..=tenants");
            }
        }
    }

    #[test]
    fn disabled_tenant_knobs_draw_no_randomness() {
        // With the tenant model off, the Zipf exponent must be inert:
        // the stream is byte-identical whatever its value, pinning
        // back-compat with pre-tenant generations.
        let base = FleetScenarioConfig {
            partitions: 2,
            arrivals: 12,
            departure_permille: 300,
            spike_every: 4,
            ..FleetScenarioConfig::default()
        };
        let a = FleetScenario::generate(&base);
        let b = FleetScenario::generate(&FleetScenarioConfig {
            tenant_zipf: 3.5,
            best_effort_tenants: 2,
            ..base
        });
        assert_eq!(a, b);
    }

    #[test]
    fn burst_storms_pin_tenant_and_origin() {
        let cfg = FleetScenarioConfig {
            partitions: 4,
            arrivals: 12,
            skew: 0.0,
            departure_permille: 0,
            spike_every: 0,
            mode_change: false,
            tenants: 4,
            burst_every: 3,
            ..FleetScenarioConfig::default()
        };
        let s = FleetScenario::generate(&cfg);
        let arrivals: Vec<&IoTask> = s
            .events
            .iter()
            .filter_map(|e| match &e.event {
                SystemEvent::Arrival(t) => Some(t),
                _ => None,
            })
            .collect();
        assert_eq!(arrivals.len(), 12);
        // Arrival k=2 triggers a storm: the next BURST_LEN = 4 arrivals,
        // k=3..=6, share its tenant and origin device. The trigger at
        // k=5 falls inside that storm and is skipped; k=8 starts the next
        // one (k=9..=11, cut short by the end of the stream).
        for (trigger, rider) in [
            (2usize, 3usize),
            (2, 4),
            (2, 5),
            (2, 6),
            (8, 9),
            (8, 10),
            (8, 11),
        ] {
            assert_eq!(arrivals[trigger].tenant(), arrivals[rider].tenant());
            assert_eq!(arrivals[trigger].device(), arrivals[rider].device());
        }
        assert_eq!(s, FleetScenario::generate(&cfg), "storms are deterministic");
    }

    #[test]
    fn diurnal_curve_rescales_wcet_without_perturbing_the_stream() {
        let flat_cfg = FleetScenarioConfig {
            partitions: 2,
            arrivals: 10,
            departure_permille: 0,
            spike_every: 0,
            mode_change: false,
            ..FleetScenarioConfig::default()
        };
        let flat = FleetScenario::generate(&flat_cfg);
        let waved = FleetScenario::generate(&FleetScenarioConfig {
            diurnal_period: 6,
            ..flat_cfg
        });
        let pick = |s: &FleetScenario| -> Vec<IoTask> {
            s.events
                .iter()
                .filter_map(|e| match &e.event {
                    SystemEvent::Arrival(t) => Some(t.clone()),
                    _ => None,
                })
                .collect()
        };
        let (a, b) = (pick(&flat), pick(&waved));
        assert_eq!(a.len(), b.len());
        let mut differs = false;
        for (x, y) in a.iter().zip(&b) {
            // The wave multiplies the drawn utilisation after the RNG
            // draws, so everything but the wcet is untouched.
            assert_eq!(x.id(), y.id());
            assert_eq!(x.device(), y.device());
            assert_eq!(x.period(), y.period());
            assert_eq!(x.ideal_offset(), y.ideal_offset());
            differs |= x.wcet() != y.wcet();
        }
        assert!(differs, "the curve visibly reshapes demand");
    }

    #[test]
    fn tenant_registry_maps_popularity_onto_contracts() {
        use crate::tenant::QosClass;
        let cfg = FleetScenarioConfig {
            partitions: 2,
            tenants: 4,
            best_effort_tenants: 1,
            ..FleetScenarioConfig::default()
        };
        let registry = cfg.tenant_registry();
        assert_eq!(registry.iter().count(), 4);
        let share = (2 * PPM) / 4;
        let hot = registry.spec(TenantId(1));
        assert_eq!(hot.qos, QosClass::BestEffort);
        assert_eq!(hot.quota_ppm, share / 2, "best-effort gets a half share");
        for k in 2..=4 {
            let spec = registry.spec(TenantId(k));
            assert_eq!(spec.qos, QosClass::Guaranteed);
            assert_eq!(spec.quota_ppm, share);
        }
        assert!(
            FleetScenarioConfig::default()
                .tenant_registry()
                .is_trivial(),
            "disabled model implies the trivial registry"
        );
    }

    #[test]
    fn builder_rejects_bad_zipf_exponents() {
        for bad in [f64::NAN, f64::INFINITY, -0.5] {
            let cfg = FleetScenarioConfig {
                tenants: 2,
                tenant_zipf: bad,
                ..FleetScenarioConfig::default()
            };
            assert_eq!(
                cfg.validate(),
                Err(ConfigError::InvalidTenantZipf),
                "accepted tenant_zipf={bad}"
            );
        }
        assert!(ConfigError::InvalidTenantZipf.to_string().contains("zipf"));
    }

    #[test]
    fn tenanted_replay_reports_per_tenant_slices() {
        let cfg = FleetScenarioConfig {
            partitions: 2,
            arrivals: 12,
            tenants: 3,
            best_effort_tenants: 1,
            ..FleetScenarioConfig::default()
        };
        let s = FleetScenario::generate(&cfg);
        let out = s.replay(
            FleetConfig {
                threads: 1,
                tenants: cfg.tenant_registry(),
                ..FleetConfig::default()
            },
            4,
        );
        assert!(!out.tenants.is_empty(), "tenanted replay slices its stats");
        let mut admitted = 0;
        for t in out.tenants.values() {
            assert!(t.admitted <= t.arrivals);
            assert!((0.0..=1.0).contains(&t.acceptance));
            assert!((0.0..=1.0).contains(&t.psi));
            admitted += t.admitted;
        }
        assert!(admitted <= out.admitted, "slices never exceed the total");
        // The metric schema grows by exactly four columns per tenant,
        // strictly behind the pinned fixed set.
        let set = out.metric_set();
        assert_eq!(set.len(), 10 + 4 * out.tenants.len());
        for tenant in out.tenants.keys() {
            assert!(set.get(&format!("{tenant}_acceptance")).is_some());
            assert!(set.get(&format!("{tenant}_psi")).is_some());
        }
    }
}
