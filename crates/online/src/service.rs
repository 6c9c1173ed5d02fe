//! The event-driven online scheduling service.
//!
//! [`OnlineScheduler`] owns one partition (one I/O device) of a running
//! system: its active task set, the expanded job set, the live validated
//! [`Schedule`], and an incremental [`AnalysisCache`]. Each
//! [`SystemEvent`] is applied transactionally — on rejection or failure
//! the previous schedule stays in force.
//!
//! The admission pipeline for an arrival:
//!
//! 1. **utilisation gate** — `U + u_new > 1` can never be feasible on one
//!    device; reject without touching anything (a *fast reject*);
//! 2. **cached pre-check** — the NP-FPS response-time test over the
//!    candidate set, answered mostly from the cache (only entries the
//!    newcomer can affect are recomputed). Priority ties are resolved by
//!    the analysis's documented total order (equal priority, smaller id
//!    outranks — matching the FPS dispatcher), so a pass signals that
//!    the FPS simulation realises a schedule; the FPS fallback tier
//!    still admits only on the *actual* simulated schedule, never on
//!    the pre-check alone (defence in depth);
//! 3. **integration** — one run of the construction ladder
//!    ([`ladder_in`]): incremental repair around the live schedule, then
//!    a full LCC-D re-synthesis, then (only under a pre-check guarantee)
//!    the FPS schedule.
//!
//! Every schedule the service builds comes from that one loop, each
//! construction with its own [`Tier`] list per strategy. The
//! full-re-synthesis baseline and bootstrap run on a fresh
//! [`RepairScratch`], as the offline method does, so the partition's
//! [`LadderWork`] counts only the incremental strategy's ladders.
//!
//! Departures filter the live schedule: the survivors keep every
//! placement, and the departed task's rows leave the hyper-period table
//! (§III.C). Mode changes are batches of departures and re-admissions
//! from the known-task pool. Utilisation spikes rescale every active
//! WCET and, when the result no longer fits, shed active tasks until it
//! does — best-effort and over-quota tenants
//! first (per the installed [`TenantRegistry`]), then in quality order
//! (smallest `Vmax` first). With no registry installed the order is the
//! pre-tenant quality-only one.

use crate::codec::{add_counters, counters, Counter};
use crate::tenant::{shed_rank, TenantCounters, TenantRegistry};
use std::borrow::Cow;
use std::collections::BTreeMap;
use tagio_core::event::{Mode, SystemEvent};
use tagio_core::job::JobSet;
use tagio_core::schedule::Schedule;
use tagio_core::solve::{Infeasible, InfeasibleCause};
use tagio_core::task::{DeviceId, IoTask, IoTaskBuilder, TaskId, TaskSet, TenantId};
use tagio_core::{metrics, MetricSet, Metrics, ModeId};
use tagio_sched::{ladder_in, AnalysisCache, LadderWork, RepairOutcome, RepairScratch, Tier};

/// How the service integrates schedule changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairStrategy {
    /// Repair the disturbed neighbourhood around the live schedule,
    /// falling back to full re-synthesis (the default).
    #[default]
    Incremental,
    /// Always re-synthesise from scratch (the offline method replayed per
    /// event) — the baseline the `online_scenarios` experiment compares
    /// against.
    FullResynthesis,
}

/// A schedule construction the service runs through the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Construction {
    /// An arrival; `guaranteed` when the NP-FPS pre-check passed.
    Arrival { guaranteed: bool },
    /// A utilisation spike's rescaled (and possibly shed) set.
    Spike,
    /// A departure's or mode change's survivors.
    Shrink,
}

impl RepairStrategy {
    /// The ladder tiers of `construction` under this strategy. An
    /// arrival ends with the FPS baseline only under the pre-check's
    /// guarantee; an incremental shrink runs no tier and filters.
    fn tiers(self, construction: Construction) -> &'static [Tier] {
        use Tier::{Fps, Neighbourhood, Resynthesis, Retime};
        match (self, construction) {
            (RepairStrategy::Incremental, Construction::Arrival { guaranteed }) => {
                &[Neighbourhood, Resynthesis, Fps][..2 + usize::from(guaranteed)]
            }
            (RepairStrategy::FullResynthesis, Construction::Arrival { guaranteed }) => {
                &[Resynthesis, Fps][..1 + usize::from(guaranteed)]
            }
            (RepairStrategy::Incremental, Construction::Spike) => {
                &[Retime, Neighbourhood, Resynthesis, Fps]
            }
            (RepairStrategy::FullResynthesis, Construction::Spike) => BOOTSTRAP,
            (RepairStrategy::Incremental, Construction::Shrink) => &[],
            (RepairStrategy::FullResynthesis, Construction::Shrink) => &[Resynthesis],
        }
    }
}

/// Bootstrap's tiers: the offline method, then the FPS baseline.
const BOOTSTRAP: &[Tier] = &[Tier::Resynthesis, Tier::Fps];

/// Why an arrival (or re-admission) was turned away.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// No admission path produced a feasible schedule; the attached
    /// [`Infeasible`] diagnostic says why and where. An
    /// [`InfeasibleCause::UtilisationOverload`] cause means the
    /// admission gate alone decided (a *fast reject*, no schedule work);
    /// other causes come from the failed integration tiers.
    Infeasible(Infeasible),
    /// A task with this id is already active.
    DuplicateTask,
    /// The task's parameters cannot hold under the current spike level.
    InvalidUnderLoad,
}

impl RejectReason {
    /// The solver diagnostic, when the rejection carries one.
    #[must_use]
    pub fn diagnostic(&self) -> Option<&Infeasible> {
        match self {
            RejectReason::Infeasible(d) => Some(d),
            _ => None,
        }
    }
}

/// The service's verdict on one applied event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventOutcome {
    /// An arrival was admitted and the schedule updated.
    Admitted {
        /// The admitted task.
        task: TaskId,
        /// Jobs (re-)placed by the integration (the disturbed
        /// neighbourhood; the whole job set when re-synthesised).
        replaced: usize,
        /// `true` when integration needed a full re-synthesis (or the FPS
        /// fallback) instead of incremental repair.
        resynthesized: bool,
    },
    /// An arrival was turned away; the schedule is unchanged.
    Rejected {
        /// The rejected task.
        task: TaskId,
        /// Why.
        reason: RejectReason,
    },
    /// A departure removed the task's jobs from the schedule.
    Departed {
        /// The departed task.
        task: TaskId,
    },
    /// A mode change completed (each sub-decision listed).
    ModeChanged {
        /// The target mode.
        mode: ModeId,
        /// Pool tasks admitted into the active set.
        admitted: Vec<TaskId>,
        /// Pool tasks that failed re-admission.
        rejected: Vec<TaskId>,
        /// Active tasks deactivated by the mode.
        departed: Vec<TaskId>,
    },
    /// A utilisation spike was applied; `shed` lists any tasks dropped
    /// (in shedding order) to restore feasibility.
    SpikeApplied {
        /// New WCET scale in percent of nominal.
        percent: u32,
        /// Tasks shed, lowest peak quality first.
        shed: Vec<TaskId>,
    },
    /// The partition crashed and restarted empty (a
    /// [`SystemEvent::PartitionDeath`] on its device): every live
    /// structure — active set, pool, schedule, spike scaling, caches —
    /// is gone. `orphans` lists the *nominal* definitions of the tasks
    /// that were active at the moment of death, in active-set order.
    /// A fleet router fills `rehomed`/`lost` after mass re-admission;
    /// both stay empty for a standalone service.
    PartitionDied {
        /// The partition that died.
        device: DeviceId,
        /// Nominal tasks orphaned by the crash (active-set order).
        orphans: Vec<IoTask>,
        /// Orphans a fleet re-admitted, with their new partition.
        rehomed: Vec<(TaskId, DeviceId)>,
        /// Orphans no surviving partition could take, with the final
        /// rejection (its diagnostic names the dead partition as
        /// [`Infeasible::origin`]).
        lost: Vec<(TaskId, RejectReason)>,
    },
    /// The event did not concern this service (wrong device, unknown
    /// task, …); nothing changed.
    Ignored {
        /// Why the event was skipped.
        reason: &'static str,
    },
}

/// Running counters of everything the service decided.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    /// Arrival events seen (including mode-change re-admissions).
    pub arrivals: usize,
    /// Arrivals admitted.
    pub admitted: usize,
    /// Arrivals rejected (any reason).
    pub rejected: usize,
    /// Rejections decided by the admission gate alone (no schedule work).
    pub fast_rejects: usize,
    /// Rejections carrying a solver diagnostic, counted by cause
    /// (`utilisation-overload` = the gate, other causes = failed
    /// integration).
    pub reject_causes: BTreeMap<InfeasibleCause, usize>,
    /// Tasks shed to survive spikes where arithmetic alone (the
    /// utilisation gate, or a WCET no longer valid at the spike level)
    /// decided the victim.
    pub shed_overload: usize,
    /// Tasks shed because schedule construction kept failing below
    /// capacity.
    pub shed_infeasible: usize,
    /// Departure events applied (including mode-change deactivations).
    pub departures: usize,
    /// Successful incremental repairs.
    pub repairs: usize,
    /// Full re-syntheses (incremental path failed or disabled).
    pub resyntheses: usize,
    /// Admissions saved by the FPS feasibility guarantee.
    pub fps_fallbacks: usize,
    /// Tasks shed to survive utilisation spikes.
    pub shed: usize,
    /// Spike events applied.
    pub spikes: usize,
    /// Mode changes applied.
    pub mode_changes: usize,
    /// Events ignored.
    pub ignored: usize,
    /// Total wall-clock time spent constructing schedules (all event
    /// kinds).
    pub repair_time: std::time::Duration,
    /// Number of schedule constructions timed into `repair_time`.
    pub repair_events: usize,
    /// Wall-clock time spent on *admission* constructions only (the
    /// repair-vs-re-synthesis comparison the experiments report).
    pub admission_time: std::time::Duration,
    /// Number of admission constructions timed into `admission_time`.
    pub admission_events: usize,
    /// Per-tenant decision counters. Anonymous traffic
    /// ([`TenantId::ANONYMOUS`]) is never tracked here, so the map stays
    /// empty — and every emitted metric, digest and snapshot byte stays
    /// identical — for untenanted runs.
    pub tenants: BTreeMap<TenantId, TenantCounters>,
}

impl OnlineStats {
    /// Admitted fraction of all arrivals (`1.0` when none were seen).
    #[must_use]
    pub fn acceptance_ratio(&self) -> f64 {
        if self.arrivals == 0 {
            1.0
        } else {
            self.admitted as f64 / self.arrivals as f64
        }
    }

    /// Mean schedule-construction latency in microseconds over every
    /// event kind (`0.0` when no construction ran).
    #[must_use]
    pub fn mean_event_micros(&self) -> f64 {
        if self.repair_events == 0 {
            0.0
        } else {
            self.repair_time.as_micros() as f64 / self.repair_events as f64
        }
    }

    /// Mean *admission* construction latency in microseconds — the
    /// incremental-repair-vs-full-re-synthesis number the
    /// `online_scenarios` experiment compares (`0.0` when no admission
    /// was attempted past the gate).
    #[must_use]
    pub fn mean_admission_micros(&self) -> f64 {
        if self.admission_events == 0 {
            0.0
        } else {
            self.admission_time.as_micros() as f64 / self.admission_events as f64
        }
    }

    /// Rejections whose diagnostic cause is `cause`.
    #[must_use]
    pub fn rejects_with_cause(&self, cause: InfeasibleCause) -> usize {
        self.reject_causes.get(&cause).copied().unwrap_or(0)
    }

    fn record_reject_cause(&mut self, cause: InfeasibleCause) {
        *self.reject_causes.entry(cause).or_insert(0) += 1;
    }

    /// The mutable per-tenant counter slot for `tenant`, or `None` for
    /// anonymous traffic (which is deliberately unaccounted so legacy
    /// untenanted runs stay byte-identical).
    fn tenant_entry(&mut self, tenant: TenantId) -> Option<&mut TenantCounters> {
        if tenant.is_anonymous() {
            None
        } else {
            Some(self.tenants.entry(tenant).or_default())
        }
    }

    /// Folds another partition's counters into this one — the fleet-level
    /// aggregation: every count and duration adds up, reject causes merge
    /// per cause. Note that fleet-level acceptance derived from an
    /// aggregate over-counts retried arrivals (each partition that was
    /// offered a task counts it); [`FleetStats`](crate::fleet::FleetStats)
    /// tracks unique arrivals separately.
    pub fn merge(&mut self, other: &OnlineStats) {
        add_counters(&Self::COUNTERS, self, other);
        self.repair_time += other.repair_time;
        self.admission_time += other.admission_time;
        for (cause, n) in &other.reject_causes {
            *self.reject_causes.entry(*cause).or_insert(0) += n;
        }
        for (tenant, counters) in &other.tenants {
            self.tenants.entry(*tenant).or_default().merge(counters);
        }
    }

    /// The decision counters in `pstats` and stats-digest order, the one
    /// list `merge`, `pstats` and the digest iterate. The wall clocks stay
    /// outside; `pstats` writes each just before the count it timed.
    pub(crate) const COUNTERS: [Counter<OnlineStats>; 16] = counters![
        arrivals,
        admitted,
        rejected,
        fast_rejects,
        shed_overload,
        shed_infeasible,
        departures,
        repairs,
        resyntheses,
        fps_fallbacks,
        shed,
        spikes,
        mode_changes,
        ignored,
        repair_events,
        admission_events,
    ];
}

impl Metrics for OnlineStats {
    fn merge(&mut self, other: &Self) {
        OnlineStats::merge(self, other);
    }

    fn snapshot(&self) -> MetricSet {
        let mut m = MetricSet::new();
        m.push("arrivals", self.arrivals as f64);
        m.push("admitted", self.admitted as f64);
        m.push("rejected", self.rejected as f64);
        m.push("fast_rejects", self.fast_rejects as f64);
        m.push("departures", self.departures as f64);
        m.push("repairs", self.repairs as f64);
        m.push("resyntheses", self.resyntheses as f64);
        m.push("fps_fallbacks", self.fps_fallbacks as f64);
        m.push("shed", self.shed as f64);
        m.push("spikes", self.spikes as f64);
        m.push("mode_changes", self.mode_changes as f64);
        m.push("ignored", self.ignored as f64);
        m.push("acceptance", self.acceptance_ratio());
        m.push("event_latency_us", self.mean_event_micros());
        m.push("admission_latency_us", self.mean_admission_micros());
        // Per-tenant columns appear only when tenant-tagged traffic was
        // seen, so untenanted emissions keep their pinned shape.
        for (tenant, c) in &self.tenants {
            m.push(format!("{tenant}_admitted"), c.admitted as f64);
            m.push(format!("{tenant}_rejected"), c.rejected as f64);
            m.push(format!("{tenant}_shed"), c.shed as f64);
        }
        m
    }
}

/// The event-driven scheduling service for one device partition.
///
/// See the [module docs](self) for the admission pipeline and the crate
/// docs for a usage example.
#[derive(Debug)]
pub struct OnlineScheduler {
    device: DeviceId,
    strategy: RepairStrategy,
    /// Active tasks at their *effective* (spike-scaled) WCETs.
    tasks: TaskSet,
    /// Every task ever admitted, at nominal WCET (mode changes re-admit
    /// from here).
    pool: BTreeMap<TaskId, IoTask>,
    /// Current WCET scale (percent of nominal).
    spike_percent: u32,
    jobs: JobSet,
    schedule: Schedule,
    cache: AnalysisCache,
    stats: OnlineStats,
    /// Cached `(Ψ, Υ)` of the live schedule, refreshed at every commit
    /// point, so reads cost nothing instead of two O(jobs) scans.
    quality: (f64, f64),
    /// Reused working memory for the repair ladder.
    scratch: RepairScratch,
    /// Tenant quotas and QoS classes consulted by overload shedding.
    /// The trivial (empty) registry reproduces the legacy quality-only
    /// shedding order exactly.
    registry: TenantRegistry,
}

impl OnlineScheduler {
    /// A service for `device` with no active tasks and the default
    /// strategy.
    #[must_use]
    pub fn new(device: DeviceId) -> Self {
        OnlineScheduler {
            device,
            strategy: RepairStrategy::default(),
            tasks: TaskSet::new(),
            pool: BTreeMap::new(),
            spike_percent: 100,
            jobs: JobSet::from_jobs(Vec::new(), tagio_core::time::Duration::ZERO),
            schedule: Schedule::new(),
            cache: AnalysisCache::new(),
            stats: OnlineStats::default(),
            quality: (1.0, 1.0),
            scratch: RepairScratch::default(),
            registry: TenantRegistry::new(),
        }
    }

    /// Overrides the integration strategy (builder style).
    #[must_use]
    pub fn with_strategy(mut self, strategy: RepairStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Starts a service from an initial task set (one full synthesis; the
    /// set must belong to `device`).
    ///
    /// # Errors
    /// Returns the task set back when no feasible schedule exists for it.
    pub fn bootstrap(device: DeviceId, tasks: TaskSet) -> Result<Self, TaskSet> {
        let mut svc = OnlineScheduler::new(device);
        if tasks.iter().any(|t| t.device() != device) {
            return Err(tasks);
        }
        let jobs = JobSet::expand(&tasks);
        let scratch = &mut RepairScratch::default();
        let Ok(outcome) = ladder_in(&jobs, &Schedule::new(), BOOTSTRAP, scratch) else {
            return Err(tasks);
        };
        for t in &tasks {
            svc.pool.insert(t.id(), t.clone());
        }
        svc.install(tasks, jobs, outcome.schedule);
        Ok(svc)
    }

    /// Rebuilds a service from snapshotted state (`crate::persist`): the
    /// active set at effective WCETs, the nominal pool, the spike level,
    /// the exact live schedule, and the decision counters, under the
    /// default strategy. Jobs, cached
    /// Ψ/Υ and a cold analysis cache are rederived — cold-vs-warm cache
    /// equivalence means decisions are unchanged; only the first few
    /// admissions after a restore pay the analysis again.
    ///
    /// # Errors
    /// Returns a message when the schedule does not validate against the
    /// active set's expanded jobs (a corrupt or mismatched snapshot).
    pub(crate) fn restore(
        device: DeviceId,
        active: TaskSet,
        pool: BTreeMap<TaskId, IoTask>,
        spike_percent: u32,
        schedule: Schedule,
        stats: OnlineStats,
    ) -> Result<Self, String> {
        let jobs = JobSet::expand(&active);
        schedule
            .validate(&jobs)
            .map_err(|e| format!("snapshot schedule invalid for {device}: {e}"))?;
        let mut svc = OnlineScheduler::new(device);
        svc.pool = pool;
        svc.spike_percent = spike_percent.max(1);
        svc.stats = stats;
        svc.install(active, jobs, schedule);
        Ok(svc)
    }

    /// Installs the tenant registry consulted by overload shedding (the
    /// fleet router shares one registry across its partitions). The
    /// trivial registry — the default — reproduces the legacy
    /// quality-only shedding order exactly.
    pub fn set_tenant_registry(&mut self, registry: TenantRegistry) {
        self.registry = registry;
    }

    /// Every task ever admitted, at nominal WCET, keyed by id (the
    /// mode-change re-admission pool) — snapshot support.
    pub(crate) fn pool(&self) -> &BTreeMap<TaskId, IoTask> {
        &self.pool
    }

    /// Current WCET scale in percent of nominal — snapshot support.
    pub(crate) fn spike_percent(&self) -> u32 {
        self.spike_percent
    }

    /// The device partition this service owns.
    #[must_use]
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// The active task set (at effective, spike-scaled WCETs).
    #[must_use]
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// The live schedule.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The live job set the schedule covers.
    #[must_use]
    pub fn jobs(&self) -> &JobSet {
        &self.jobs
    }

    /// Decision counters.
    #[must_use]
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// The analysis cache (hit/miss counters for observability).
    #[must_use]
    pub fn cache(&self) -> &AnalysisCache {
        &self.cache
    }

    /// The repair ladder's allocator work counters over this partition's
    /// life. They are observability only: no decision reads them, and
    /// [`OnlineStats`], its digest, snapshots and the WAL leave them out,
    /// so a partition recovered from a snapshot counts from zero.
    #[must_use]
    pub fn ladder_work(&self) -> LadderWork {
        self.scratch.work()
    }

    /// Ψ of the live schedule, cached at every commit point. It is
    /// bit-identical to a full scan; `tagio-audit`'s `online_quality`
    /// suite recomputes it independently after every event.
    #[must_use]
    pub fn psi(&self) -> f64 {
        self.quality.0
    }

    /// Υ of the live schedule, cached like [`Self::psi`].
    #[must_use]
    pub fn upsilon(&self) -> f64 {
        self.quality.1
    }

    /// Applies one event, returning the decision. The schedule changes
    /// only on `Admitted`, `Departed`, `ModeChanged` and `SpikeApplied`.
    pub fn apply(&mut self, event: &SystemEvent) -> EventOutcome {
        match event {
            SystemEvent::Arrival(task) => self.on_arrival(task),
            SystemEvent::Departure(id) => self.on_departure(*id),
            SystemEvent::ModeChange(mode) => self.on_mode_change(mode),
            SystemEvent::UtilisationSpike { device, percent } => {
                if *device == self.device {
                    self.on_spike(*percent)
                } else {
                    self.stats.ignored += 1;
                    EventOutcome::Ignored {
                        reason: "spike on another device",
                    }
                }
            }
            SystemEvent::PartitionDeath { device } => {
                if *device == self.device {
                    self.on_death()
                } else {
                    self.stats.ignored += 1;
                    EventOutcome::Ignored {
                        reason: "death on another device",
                    }
                }
            }
        }
    }

    /// Crash-and-restart: collect the nominal definitions of every
    /// active task (the mode-change pool's view, which survives spike
    /// rescaling), then reset all live state to a fresh empty service.
    /// Decision counters survive — they model the fleet supervisor's
    /// view of this lane, not the crashed process's memory.
    fn on_death(&mut self) -> EventOutcome {
        let orphans: Vec<IoTask> = self
            .tasks
            .iter()
            .map(|t| self.pool.get(&t.id()).cloned().unwrap_or_else(|| t.clone()))
            .collect();
        let empty = TaskSet::new();
        let jobs = JobSet::expand(&empty);
        self.install(empty, jobs, Schedule::new());
        self.pool.clear();
        self.spike_percent = 100;
        self.cache.clear();
        // The repair scratch stays: its buffers are cleared before every
        // use, and its work counters cover the partition's whole life.
        EventOutcome::PartitionDied {
            device: self.device,
            orphans,
            rehomed: Vec::new(),
            lost: Vec::new(),
        }
    }

    fn on_arrival(&mut self, nominal: &IoTask) -> EventOutcome {
        if nominal.device() != self.device {
            self.stats.ignored += 1;
            return EventOutcome::Ignored {
                reason: "arrival for another device",
            };
        }
        self.offer(nominal)
    }

    /// Offers an arrival to this partition regardless of the task's own
    /// device binding — the fleet router's admission entry point. The
    /// decision pipeline is identical to applying
    /// `SystemEvent::Arrival(task.retarget(self.device()))`: the gate
    /// sees the task scaled to the current spike level and bound to this
    /// partition.
    pub fn offer(&mut self, nominal: &IoTask) -> EventOutcome {
        self.stats.arrivals += 1;
        if let Some(c) = self.stats.tenant_entry(nominal.tenant()) {
            c.arrivals += 1;
        }
        let id = nominal.id();
        if self.tasks.get(id).is_some() {
            self.reject_for_tenant(nominal.tenant());
            return EventOutcome::Rejected {
                task: id,
                reason: RejectReason::DuplicateTask,
            };
        }
        // Under a spike the scaled task may be invalid outright, and that
        // verdict precedes the gate — the order is observable, so it is
        // preserved exactly. At 100% the scaling is the identity.
        let Some(effective) = scale_task(nominal, self.spike_percent, self.device) else {
            self.reject_for_tenant(nominal.tenant());
            return EventOutcome::Rejected {
                task: id,
                reason: RejectReason::InvalidUnderLoad,
            };
        };
        // 1. Utilisation gate: a necessary condition, checked without any
        //    schedule work. The diagnostic names the newcomer — it is the
        //    task that does not fit, whatever else is running.
        if self.tasks.utilisation() + effective.utilisation() > 1.0 + 1e-9 {
            self.reject_for_tenant(nominal.tenant());
            self.stats.fast_rejects += 1;
            self.stats
                .record_reject_cause(InfeasibleCause::UtilisationOverload);
            return EventOutcome::Rejected {
                task: id,
                reason: RejectReason::Infeasible(
                    Infeasible::new(InfeasibleCause::UtilisationOverload)
                        .with_tasks([id])
                        .with_partial(self.psi(), self.upsilon()),
                ),
            };
        }
        self.admit_effective(nominal, effective)
    }

    /// One rejection, counted fleet-wide and (for tagged traffic)
    /// against the tenant.
    fn reject_for_tenant(&mut self, tenant: TenantId) {
        self.stats.rejected += 1;
        if let Some(c) = self.stats.tenant_entry(tenant) {
            c.rejected += 1;
        }
    }

    /// The integration tail of the arrival pipeline. `effective` is the
    /// load-scaled task, already bound to this partition's device and
    /// past the gate; `nominal` is the unscaled original recorded in the
    /// mode-change pool.
    fn admit_effective(&mut self, nominal: &IoTask, effective: IoTask) -> EventOutcome {
        let id = effective.id();
        // 2. Cached pre-check: recomputes only the entries the newcomer
        //    can affect. A pass signals that the FPS simulation realises
        //    a schedule (ties resolved by the analysis's id tie-break).
        let mut candidate = self.tasks.clone();
        if candidate.push(effective.clone()).is_err() {
            // Unreachable given the duplicate check above, but the
            // admission hot path must never panic on a hostile trace —
            // degrade to the duplicate rejection instead.
            self.reject_for_tenant(effective.tenant());
            return EventOutcome::Rejected {
                task: id,
                reason: RejectReason::DuplicateTask,
            };
        }
        // Direction-aware: an arrival can only *raise* blocking bounds, so
        // entries whose bound the newcomer merely ties stay valid (their
        // tie count is bumped instead).
        self.cache.invalidate_for_arrival(&effective);
        let guaranteed = self.cache.schedulable(&candidate);
        // 3. Integration tiers, on the live jobs with the newcomer's
        //    merged in while the hyper-period stays (the live jobs are
        //    always the expansion of the active set).
        let jobs = self
            .jobs
            .with_task(&effective)
            .unwrap_or_else(|| JobSet::expand(&candidate));
        match self.integrate(&jobs, guaranteed) {
            Ok(outcome) => {
                let replaced = outcome.replaced;
                let resynthesized = outcome.tier != Tier::Neighbourhood;
                self.install(candidate, jobs, outcome.schedule);
                self.pool.insert(id, nominal.retarget(self.device));
                self.stats.admitted += 1;
                if let Some(c) = self.stats.tenant_entry(effective.tenant()) {
                    c.admitted += 1;
                }
                EventOutcome::Admitted {
                    task: id,
                    replaced,
                    resynthesized,
                }
            }
            Err(diagnostic) => {
                // Purge entries computed against the rejected candidate —
                // from the cache's viewpoint the newcomer departs again.
                self.cache.invalidate_for_departure(&effective);
                self.reject_for_tenant(effective.tenant());
                self.stats.record_reject_cause(diagnostic.cause);
                EventOutcome::Rejected {
                    task: id,
                    reason: RejectReason::Infeasible(diagnostic),
                }
            }
        }
    }

    fn on_departure(&mut self, id: TaskId) -> EventOutcome {
        let Some(leaving) = self.tasks.get(id).cloned() else {
            self.stats.ignored += 1;
            return EventOutcome::Ignored {
                reason: "departure of an inactive task",
            };
        };
        let remaining: TaskSet = self
            .tasks
            .iter()
            .filter(|t| t.id() != id)
            .cloned()
            .collect();
        self.shrink_to(remaining);
        self.cache.invalidate_for_departure(&leaving);
        self.stats.departures += 1;
        EventOutcome::Departed { task: id }
    }

    /// Commits a shrink of the active set to `remaining` (a subset) by
    /// filtering the live schedule down to the survivors' jobs; the
    /// full-re-synthesis baseline re-runs Algorithm 1 first (its defining
    /// cost) and filters only if that fails. Callers handle cache
    /// invalidation and stats.
    ///
    /// The filter is exact and cannot fail. The survivors' hyper-period
    /// `H′` divides the old `H`, and job `j` of a task has the same
    /// release, window and WCET under either expansion, so every
    /// surviving job already has a placement that satisfies Constraint 1.
    /// Dropping rows only frees device time, so Constraint 2 still holds.
    /// It is the schedule the neighbourhood tier's first round returns
    /// here, since that pins every placement that still fits and has
    /// nothing left to place.
    fn shrink_to(&mut self, remaining: TaskSet) {
        let jobs = JobSet::expand(&remaining);
        let (schedule, timed) = time(|| {
            self.construct(&jobs, Construction::Shrink)
                .map_or_else(|_| restrict(&self.schedule, &remaining), |o| o.schedule)
        });
        self.record_construction(timed);
        self.install(remaining, jobs, schedule);
    }

    fn on_mode_change(&mut self, mode: &Mode) -> EventOutcome {
        self.stats.mode_changes += 1;
        let mut departed = Vec::new();
        let mut admitted = Vec::new();
        let mut rejected = Vec::new();
        // Deactivate first (one batched rebuild, not one per task): frees
        // capacity for the mode's newcomers.
        let leaving: Vec<IoTask> = self
            .tasks
            .iter()
            .filter(|t| !mode.active.contains(&t.id()))
            .cloned()
            .collect();
        if !leaving.is_empty() {
            let remaining: TaskSet = self
                .tasks
                .iter()
                .filter(|t| mode.active.contains(&t.id()))
                .cloned()
                .collect();
            self.shrink_to(remaining);
            for t in &leaving {
                self.cache.invalidate_for_departure(t);
                departed.push(t.id());
            }
            self.stats.departures += leaving.len();
        }
        // Then (re-)admit pool tasks the mode activates.
        for id in &mode.active {
            if self.tasks.get(*id).is_some() {
                continue; // already active
            }
            let Some(nominal) = self.pool.get(id).cloned() else {
                rejected.push(*id); // unknown to the pool
                continue;
            };
            match self.on_arrival(&nominal) {
                EventOutcome::Admitted { task, .. } => admitted.push(task),
                _ => rejected.push(*id),
            }
        }
        EventOutcome::ModeChanged {
            mode: mode.id,
            admitted,
            rejected,
            departed,
        }
    }

    fn on_spike(&mut self, percent: u32) -> EventOutcome {
        self.stats.spikes += 1;
        let percent = percent.max(1);
        self.spike_percent = percent;
        // Rescale every active task from its nominal definition; tasks
        // whose parameters cannot hold the scaled WCET are shed outright.
        let mut survivors: Vec<IoTask> = Vec::with_capacity(self.tasks.len());
        let mut shed: Vec<TaskId> = Vec::new();
        for t in &self.tasks {
            let nominal = self.pool.get(&t.id()).unwrap_or(t);
            match scale_task(nominal, percent, self.device) {
                Some(scaled) => survivors.push(scaled),
                None => {
                    shed.push(t.id());
                    self.stats.shed_overload += 1;
                    if let Some(c) = self.stats.tenant_entry(t.tenant()) {
                        c.shed += 1;
                    }
                }
            }
        }
        // Shed by the utilisation gate first — no schedule construction
        // can succeed above capacity, so those victims are decided by
        // arithmetic alone.
        while survivors.iter().map(IoTask::utilisation).sum::<f64>() > 1.0 + 1e-9 {
            let Some(victim) = shed_victim(&self.registry, &survivors) else {
                break;
            };
            let victim = survivors.remove(victim);
            shed.push(victim.id());
            self.stats.shed_overload += 1;
            if let Some(c) = self.stats.tenant_entry(victim.tenant()) {
                c.shed += 1;
            }
        }
        // Then shed in quality order until a feasible schedule exists.
        let (candidate, jobs, schedule) = loop {
            let candidate: TaskSet = survivors.iter().cloned().collect();
            let jobs = JobSet::expand(&candidate);
            // Incrementally, the order-preserving O(n) re-timing absorbs
            // both relief (placements unchanged) and uniform growth
            // (minimal right-shifts) before any re-placement.
            let (result, timed) = time(|| self.construct(&jobs, Construction::Spike));
            self.record_construction(timed);
            if let Ok(outcome) = result {
                break (candidate, jobs, outcome.schedule);
            }
            // Drop the lowest shed rank (best-effort, then over-quota
            // guaranteed) and, within a rank, the smallest peak quality
            // (ties: larger id first, so older/higher-value streams
            // survive).
            let Some(victim) = shed_victim(&self.registry, &survivors) else {
                // Nothing left to shed: `survivors` is empty, so `jobs`
                // is too, and the empty schedule is trivially valid.
                break (candidate, jobs, Schedule::new());
            };
            let victim = survivors.remove(victim);
            shed.push(victim.id());
            self.stats.shed_infeasible += 1;
            if let Some(c) = self.stats.tenant_entry(victim.tenant()) {
                c.shed += 1;
            }
        };
        self.cache.clear(); // every WCET changed
        self.install(candidate, jobs, schedule);
        self.stats.shed += shed.len();
        EventOutcome::SpikeApplied { percent, shed }
    }

    /// Builds the schedule for `jobs` (arrival path), timed as one
    /// construction and counted by the tier that won. On failure, the
    /// most informative diagnostic: the re-synthesis tier's, since the
    /// FPS fallback is quality-blind and only consulted under a
    /// pre-check guarantee.
    fn integrate(&mut self, jobs: &JobSet, guaranteed: bool) -> Result<RepairOutcome, Infeasible> {
        let (result, latency) = time(|| self.construct(jobs, Construction::Arrival { guaranteed }));
        self.record_construction(latency);
        self.stats.admission_time += latency;
        self.stats.admission_events += 1;
        let outcome = result?;
        match outcome.tier {
            Tier::Neighbourhood => self.stats.repairs += 1,
            Tier::Retime | Tier::Resynthesis => self.stats.resyntheses += 1,
            Tier::Fps => {
                self.stats.resyntheses += 1;
                self.stats.fps_fallbacks += 1;
            }
        }
        Ok(outcome)
    }

    /// Runs the ladder on `construction`'s tiers for `jobs`, around the
    /// live schedule aligned to `jobs`' hyper-period so undisturbed
    /// placements stay pinnable (§III.C repetition). The schedule is
    /// repeated only for a tier list that reads it. The incremental
    /// strategy reuses the partition's scratch; the full-re-synthesis
    /// baseline runs on a fresh one, as the offline method does.
    fn construct(
        &mut self,
        jobs: &JobSet,
        construction: Construction,
    ) -> Result<RepairOutcome, Infeasible> {
        let tiers = self.strategy.tiers(construction);
        let (old_h, new_h) = (self.jobs.hyperperiod(), jobs.hyperperiod());
        let base = if new_h > old_h && !old_h.is_zero() && tiers.iter().any(|t| t.reads_base()) {
            Cow::Owned(self.schedule.repeat((new_h / old_h) as u32, old_h))
        } else {
            Cow::Borrowed(&self.schedule)
        };
        let mut fresh = RepairScratch::default();
        let scratch = match self.strategy {
            RepairStrategy::Incremental => &mut self.scratch,
            RepairStrategy::FullResynthesis => &mut fresh,
        };
        ladder_in(jobs, &base, tiers, scratch)
    }

    fn record_construction(&mut self, latency: std::time::Duration) {
        self.stats.repair_time += latency;
        self.stats.repair_events += 1;
    }

    /// Commits a new partition state: the active set, its jobs and their
    /// validated schedule. Every state change goes through here, so the
    /// cached Ψ/Υ always matches the live schedule.
    fn install(&mut self, tasks: TaskSet, jobs: JobSet, schedule: Schedule) {
        debug_assert!(schedule.validate(&jobs).is_ok());
        self.quality = metrics::quality(&schedule, &jobs);
        self.tasks = tasks;
        self.jobs = jobs;
        self.schedule = schedule;
    }
}

/// The rows of `schedule` that belong to `remaining`'s jobs over its own
/// hyper-period `H′`: job `j` of a task with period `T` stays when
/// `j < H′/T`. Start order is kept.
fn restrict(schedule: &Schedule, remaining: &TaskSet) -> Schedule {
    let hyperperiod = remaining.hyperperiod();
    let releases: BTreeMap<TaskId, u64> = remaining
        .iter()
        .map(|t| (t.id(), hyperperiod / t.period()))
        .collect();
    schedule
        .iter()
        .filter(|e| {
            releases
                .get(&e.job.task)
                .is_some_and(|&n| u64::from(e.job.index) < n)
        })
        .copied()
        .collect()
}

/// Index of the shedding victim: lowest [`crate::tenant::ShedRank`]
/// first (best-effort, then over-quota guaranteed, then under-quota
/// guaranteed), and within a rank the smallest peak quality `Vmax`,
/// ties broken towards the larger id (newer streams go first). With a
/// trivial registry (or all-anonymous traffic) every task shares one
/// rank, reproducing the pre-tenant quality-only order exactly. Uses
/// the IEEE total order so a `Vmax` smuggled past the builder's
/// finiteness check (e.g. [`IoTask::set_vmax`] with a NaN) picks a
/// deterministic victim instead of panicking mid-shed.
fn shed_victim(registry: &TenantRegistry, tasks: &[IoTask]) -> Option<usize> {
    let mut usage: BTreeMap<TenantId, u64> = BTreeMap::new();
    for t in tasks {
        *usage.entry(t.tenant()).or_insert(0) += crate::tenant::utilisation_ppm(t);
    }
    tasks
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            let ra = shed_rank(registry, a, usage[&a.tenant()]);
            let rb = shed_rank(registry, b, usage[&b.tenant()]);
            ra.cmp(&rb)
                .then(a.vmax().total_cmp(&b.vmax()))
                .then(b.id().cmp(&a.id()))
        })
        .map(|(i, _)| i)
}

/// Rebuilds `task` with its WCET scaled to `percent`% of nominal (at
/// least 1 µs), bound to `device` — the partition doing the scaling,
/// which for a fleet-routed offer may differ from the task's own.
/// Returns `None` when the scaled WCET violates the model invariants
/// (the task cannot run at this load level).
#[must_use]
fn scale_task(task: &IoTask, percent: u32, device: DeviceId) -> Option<IoTask> {
    let scaled = (u128::from(task.wcet().as_micros()) * u128::from(percent) / 100).max(1);
    let wcet = tagio_core::time::Duration::from_micros(u64::try_from(scaled).ok()?);
    builder_from(task, task.id(), device)
        .wcet(wcet)
        .build()
        .ok()
}

/// A builder pre-filled with every field of `task`, re-keyed to `id` on
/// `device`: the crate's one copy of an [`IoTask`], so each caller
/// overrides only the fields it changes.
pub(crate) fn builder_from(task: &IoTask, id: TaskId, device: DeviceId) -> IoTaskBuilder {
    IoTask::builder(id, device)
        .wcet(task.wcet())
        .period(task.period())
        .deadline(task.deadline())
        .ideal_offset(task.ideal_offset())
        .margin(task.margin())
        .priority(task.priority())
        .quality(task.vmax(), task.vmin())
        .release_offset(task.release_offset())
        .tenant(task.tenant())
}

fn time<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    let value = f();
    (value, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagio_core::time::Duration;

    fn mk(id: u32, period_ms: u64, wcet_us: u64, delta_ms: u64) -> IoTask {
        IoTask::builder(TaskId(id), DeviceId(0))
            .wcet(Duration::from_micros(wcet_us))
            .period(Duration::from_millis(period_ms))
            .ideal_offset(Duration::from_millis(delta_ms))
            .margin(Duration::from_millis(period_ms) / 4)
            .quality(f64::from(id) + 1.0, 0.0)
            .build()
            .unwrap()
    }

    fn service() -> OnlineScheduler {
        let base: TaskSet = vec![mk(0, 8, 500, 2), mk(1, 8, 500, 5)]
            .into_iter()
            .collect();
        OnlineScheduler::bootstrap(DeviceId(0), base).expect("bootstrap feasible")
    }

    /// A valid task demanding 99% of the device on its own.
    fn hog(id: u32) -> IoTask {
        IoTask::builder(TaskId(id), DeviceId(0))
            .wcet(Duration::from_micros(9_900))
            .period(Duration::from_millis(10))
            .ideal_offset(Duration::from_micros(100))
            .margin(Duration::from_micros(100))
            .build()
            .unwrap()
    }

    #[test]
    fn bootstrap_rejects_wrong_device_and_infeasible_sets() {
        let wrong: TaskSet = vec![IoTask::builder(TaskId(0), DeviceId(7))
            .wcet(Duration::from_micros(100))
            .period(Duration::from_millis(4))
            .ideal_offset(Duration::from_millis(2))
            .margin(Duration::from_millis(1))
            .build()
            .unwrap()]
        .into_iter()
        .collect();
        assert!(OnlineScheduler::bootstrap(DeviceId(0), wrong).is_err());
        assert!(OnlineScheduler::bootstrap(DeviceId(0), TaskSet::new()).is_ok());
    }

    #[test]
    fn arrival_is_admitted_by_repair_and_keeps_existing_placements() {
        let mut svc = service();
        let before = svc.schedule().clone();
        let outcome = svc.apply(&SystemEvent::Arrival(mk(2, 8, 500, 3)));
        match outcome {
            EventOutcome::Admitted {
                task,
                resynthesized,
                replaced,
                ..
            } => {
                assert_eq!(task, TaskId(2));
                assert!(!resynthesized, "a free ideal slot needs only repair");
                assert_eq!(replaced, 1);
            }
            other => panic!("expected admission: {other:?}"),
        }
        for e in &before {
            assert_eq!(svc.schedule().start_of(e.job), Some(e.start));
        }
        assert_eq!(svc.stats().repairs, 1);
        svc.schedule().validate(svc.jobs()).unwrap();
    }

    #[test]
    fn duplicate_arrival_is_rejected() {
        let mut svc = service();
        let outcome = svc.apply(&SystemEvent::Arrival(mk(0, 8, 500, 2)));
        assert_eq!(
            outcome,
            EventOutcome::Rejected {
                task: TaskId(0),
                reason: RejectReason::DuplicateTask
            }
        );
    }

    #[test]
    fn overutilised_arrival_fast_rejects_without_schedule_work() {
        let mut svc = service();
        let constructions = svc.stats().repair_events;
        // 2 * 500us / 8ms active; an arrival needing 99% of the device.
        let outcome = svc.apply(&SystemEvent::Arrival(hog(9)));
        match outcome {
            EventOutcome::Rejected {
                task,
                reason: RejectReason::Infeasible(diag),
            } => {
                assert_eq!(task, TaskId(9));
                assert_eq!(diag.cause, InfeasibleCause::UtilisationOverload);
                assert_eq!(diag.tasks, vec![TaskId(9)], "the newcomer is named");
                assert!(diag.best_psi.is_some(), "live schedule quality attached");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(svc.stats().fast_rejects, 1);
        assert_eq!(
            svc.stats()
                .rejects_with_cause(InfeasibleCause::UtilisationOverload),
            1
        );
        assert_eq!(svc.stats().repair_events, constructions);
    }

    #[test]
    fn arrival_for_another_device_is_ignored() {
        let mut svc = service();
        let alien = IoTask::builder(TaskId(5), DeviceId(3))
            .wcet(Duration::from_micros(100))
            .period(Duration::from_millis(4))
            .ideal_offset(Duration::from_millis(2))
            .margin(Duration::from_millis(1))
            .build()
            .unwrap();
        assert!(matches!(
            svc.apply(&SystemEvent::Arrival(alien)),
            EventOutcome::Ignored { .. }
        ));
        assert_eq!(svc.tasks().len(), 2);
    }

    #[test]
    fn departure_shrinks_schedule_without_moving_survivors() {
        let mut svc = service();
        let kept: Vec<_> = svc
            .schedule()
            .iter()
            .filter(|e| e.job.task == TaskId(1))
            .copied()
            .collect();
        assert!(matches!(
            svc.apply(&SystemEvent::Departure(TaskId(0))),
            EventOutcome::Departed { task } if task == TaskId(0)
        ));
        assert_eq!(svc.tasks().len(), 1);
        for e in kept {
            assert_eq!(svc.schedule().start_of(e.job), Some(e.start));
        }
        svc.schedule().validate(svc.jobs()).unwrap();
        // Unknown departures are ignored.
        assert!(matches!(
            svc.apply(&SystemEvent::Departure(TaskId(42))),
            EventOutcome::Ignored { .. }
        ));
    }

    #[test]
    fn hyperperiod_growth_repeats_the_live_schedule() {
        let mut svc = service(); // hyper-period 8ms
        let outcome = svc.apply(&SystemEvent::Arrival(mk(3, 16, 500, 6)));
        assert!(matches!(outcome, EventOutcome::Admitted { .. }));
        assert_eq!(svc.jobs().hyperperiod(), Duration::from_millis(16));
        // Task 0's second-hyper-period copy kept its shifted placement.
        let copy = tagio_core::job::JobId::new(TaskId(0), 1);
        let first = tagio_core::job::JobId::new(TaskId(0), 0);
        let delta = Duration::from_millis(8);
        assert_eq!(
            svc.schedule().start_of(copy),
            svc.schedule().start_of(first).map(|t| t + delta)
        );
        svc.schedule().validate(svc.jobs()).unwrap();
    }

    #[test]
    fn mode_change_departs_and_readmits_from_pool() {
        let mut svc = service();
        // Depart task 1, keep 0.
        let only_zero = Mode {
            id: ModeId(1),
            active: vec![TaskId(0)],
        };
        match svc.apply(&SystemEvent::ModeChange(only_zero)) {
            EventOutcome::ModeChanged {
                departed, admitted, ..
            } => {
                assert_eq!(departed, vec![TaskId(1)]);
                assert!(admitted.is_empty());
            }
            other => panic!("{other:?}"),
        }
        assert!(svc.tasks().get(TaskId(1)).is_none());
        // Switch back: task 1 is re-admitted from the pool.
        let both = Mode {
            id: ModeId(0),
            active: vec![TaskId(0), TaskId(1)],
        };
        match svc.apply(&SystemEvent::ModeChange(both)) {
            EventOutcome::ModeChanged {
                admitted, rejected, ..
            } => {
                assert_eq!(admitted, vec![TaskId(1)]);
                assert!(rejected.is_empty());
            }
            other => panic!("{other:?}"),
        }
        // A mode naming an unknown task reports it rejected.
        let ghost = Mode {
            id: ModeId(2),
            active: vec![TaskId(0), TaskId(1), TaskId(77)],
        };
        match svc.apply(&SystemEvent::ModeChange(ghost)) {
            EventOutcome::ModeChanged { rejected, .. } => assert_eq!(rejected, vec![TaskId(77)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spike_rescales_wcets_and_relief_restores_them() {
        let mut svc = service();
        let nominal = svc.tasks().get(TaskId(0)).unwrap().wcet();
        match svc.apply(&SystemEvent::UtilisationSpike {
            device: DeviceId(0),
            percent: 150,
        }) {
            EventOutcome::SpikeApplied { percent, shed } => {
                assert_eq!(percent, 150);
                assert!(shed.is_empty(), "light load survives a 1.5x spike");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            svc.tasks().get(TaskId(0)).unwrap().wcet(),
            Duration::from_micros(nominal.as_micros() * 3 / 2)
        );
        svc.schedule().validate(svc.jobs()).unwrap();
        // Relief back to nominal.
        svc.apply(&SystemEvent::UtilisationSpike {
            device: DeviceId(0),
            percent: 100,
        });
        assert_eq!(svc.tasks().get(TaskId(0)).unwrap().wcet(), nominal);
        // A spike on another device changes nothing.
        assert!(matches!(
            svc.apply(&SystemEvent::UtilisationSpike {
                device: DeviceId(5),
                percent: 400,
            }),
            EventOutcome::Ignored { .. }
        ));
    }

    #[test]
    fn overload_sheds_lowest_quality_first() {
        // Two heavy tasks whose margins allow a 4x WCET, so the builder
        // accepts the scaled tasks but the device cannot hold both.
        let heavy = |id: u32, delta_ms: u64, vmax: f64| {
            IoTask::builder(TaskId(id), DeviceId(0))
                .wcet(Duration::from_micros(1_500))
                .period(Duration::from_millis(10))
                .ideal_offset(Duration::from_millis(delta_ms))
                .margin(Duration::from_micros(2_500))
                .quality(vmax, 0.0)
                .build()
                .unwrap()
        };
        let base: TaskSet = vec![heavy(0, 3, 5.0), heavy(1, 4, 1.0)]
            .into_iter()
            .collect();
        let mut svc = OnlineScheduler::bootstrap(DeviceId(0), base).unwrap();
        match svc.apply(&SystemEvent::UtilisationSpike {
            device: DeviceId(0),
            percent: 400,
        }) {
            EventOutcome::SpikeApplied { shed, .. } => {
                // Both scaled tasks stay individually valid, but 2 x 6ms
                // cannot share a 10ms period: the Vmax=1 task goes first.
                assert_eq!(shed, vec![TaskId(1)]);
            }
            other => panic!("{other:?}"),
        }
        assert!(svc.tasks().get(TaskId(0)).is_some());
        assert_eq!(svc.stats().shed, 1);
        svc.schedule().validate(svc.jobs()).unwrap();
    }

    #[test]
    fn arrivals_during_spike_are_scaled_and_revert_on_relief() {
        let mut svc = service();
        svc.apply(&SystemEvent::UtilisationSpike {
            device: DeviceId(0),
            percent: 200,
        });
        let outcome = svc.apply(&SystemEvent::Arrival(mk(4, 8, 400, 3)));
        assert!(matches!(outcome, EventOutcome::Admitted { .. }));
        assert_eq!(
            svc.tasks().get(TaskId(4)).unwrap().wcet(),
            Duration::from_micros(800),
            "admitted at the spiked WCET"
        );
        svc.apply(&SystemEvent::UtilisationSpike {
            device: DeviceId(0),
            percent: 100,
        });
        assert_eq!(
            svc.tasks().get(TaskId(4)).unwrap().wcet(),
            Duration::from_micros(400),
            "relief restores the nominal WCET"
        );
    }

    #[test]
    fn full_resynthesis_strategy_never_repairs() {
        let base: TaskSet = vec![mk(0, 8, 500, 2)].into_iter().collect();
        let mut svc = OnlineScheduler::bootstrap(DeviceId(0), base)
            .unwrap()
            .with_strategy(RepairStrategy::FullResynthesis);
        let outcome = svc.apply(&SystemEvent::Arrival(mk(1, 8, 500, 5)));
        match outcome {
            EventOutcome::Admitted {
                resynthesized,
                replaced,
                ..
            } => {
                assert!(resynthesized);
                assert_eq!(replaced, svc.jobs().len());
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(svc.stats().repairs, 0);
        assert_eq!(svc.stats().resyntheses, 1);
    }

    #[test]
    fn nan_vmax_cannot_poison_the_shedding_order() {
        // `IoTask::set_vmax` used to bypass the builder's finiteness
        // check, letting a hostile producer hand the service a NaN
        // quality: the old shedding comparator (`partial_cmp().expect`)
        // then panicked on the first over-capacity spike. The override is
        // now sanitised (NaN ignored) *and* the comparator uses the IEEE
        // total order, so shedding stays deterministic either way.
        let heavy = |id: u32, delta_ms: u64, vmax: f64| {
            IoTask::builder(TaskId(id), DeviceId(0))
                .wcet(Duration::from_micros(1_500))
                .period(Duration::from_millis(10))
                .ideal_offset(Duration::from_millis(delta_ms))
                .margin(Duration::from_micros(2_500))
                .quality(vmax, 0.0)
                .build()
                .unwrap()
        };
        let mut poisoned = heavy(0, 3, 5.0);
        poisoned.set_vmax(f64::NAN);
        assert_eq!(poisoned.vmax(), 5.0, "non-finite override is ignored");
        let base: TaskSet = vec![poisoned, heavy(1, 4, 1.0)].into_iter().collect();
        let mut svc = OnlineScheduler::bootstrap(DeviceId(0), base).unwrap();
        match svc.apply(&SystemEvent::UtilisationSpike {
            device: DeviceId(0),
            percent: 400,
        }) {
            EventOutcome::SpikeApplied { shed, .. } => {
                assert_eq!(shed, vec![TaskId(1)], "lowest finite quality goes first");
            }
            other => panic!("{other:?}"),
        }
        svc.schedule().validate(svc.jobs()).unwrap();
    }

    #[test]
    fn hostile_trace_replays_without_panicking() {
        // The offending trace for the old admission-path panics: tied
        // priorities (the pre-check's weak spot), duplicate and
        // over-capacity arrivals, departures that shrink the hyper-period
        // after admissions grew it, re-admissions via mode change, spike
        // extremes (0 percent, u32::MAX percent) and unknown ids. Every
        // event must produce a decision, never a panic, and leave a
        // schedule that validates.
        let trace = "\
@0 arrive t0 d0 c=500 t=8000 dl=8000 o=0 delta=2000 theta=1000 p=3 vmax=2 vmin=0
@1 arrive t1 d0 c=500 t=8000 dl=8000 o=0 delta=5000 theta=1000 p=3 vmax=3 vmin=0
@2 arrive t2 d0 c=500 t=16000 dl=16000 o=0 delta=9000 theta=1500 p=3 vmax=1 vmin=0
@3 arrive t2 d0 c=500 t=16000 dl=16000 o=0 delta=9000 theta=1500 p=3 vmax=1 vmin=0
@4 arrive t3 d0 c=7000 t=8000 dl=8000 o=0 delta=1000 theta=0 p=3 vmax=9 vmin=0
@5 spike d0 0
@6 spike d0 4294967295
@7 depart t2
@8 spike d0 100
@9 mode m1 t0,t2,t9
@10 depart t0
@11 depart t0
@12 mode m0 t0,t1,t2
";
        let events = crate::codec::parse_trace(trace).expect("trace parses");
        let mut svc = OnlineScheduler::new(DeviceId(0));
        for ev in &events {
            let _ = svc.apply(&ev.event);
            svc.schedule().validate(svc.jobs()).unwrap();
        }
        // The same trace against the re-synthesis baseline.
        let mut full =
            OnlineScheduler::new(DeviceId(0)).with_strategy(RepairStrategy::FullResynthesis);
        for ev in &events {
            let _ = full.apply(&ev.event);
            full.schedule().validate(full.jobs()).unwrap();
        }
    }

    #[test]
    fn merged_stats_add_counters_and_causes() {
        let mut a = service();
        a.apply(&SystemEvent::Arrival(mk(2, 8, 500, 3)));
        a.apply(&SystemEvent::Arrival(hog(9))); // fast reject
        let mut b = service();
        b.apply(&SystemEvent::Arrival(hog(8))); // fast reject
        b.apply(&SystemEvent::Departure(TaskId(0)));
        let mut merged = a.stats().clone();
        merged.merge(b.stats());
        assert_eq!(merged.arrivals, a.stats().arrivals + b.stats().arrivals);
        assert_eq!(merged.admitted, 1);
        assert_eq!(merged.rejected, 2);
        assert_eq!(merged.departures, 1);
        assert_eq!(
            merged.rejects_with_cause(InfeasibleCause::UtilisationOverload),
            2
        );
        assert_eq!(
            merged.repair_events,
            a.stats().repair_events + b.stats().repair_events
        );
    }

    #[test]
    fn stats_ratios_and_cache_counters_accumulate() {
        let mut svc = service();
        assert_eq!(svc.stats().acceptance_ratio(), 1.0); // vacuous
        svc.apply(&SystemEvent::Arrival(mk(2, 8, 500, 3)));
        svc.apply(&SystemEvent::Arrival(hog(9))); // fast reject
        let s = svc.stats();
        assert_eq!((s.arrivals, s.admitted, s.rejected), (2, 1, 1));
        assert!((s.acceptance_ratio() - 0.5).abs() < 1e-12);
        assert!(svc.cache().misses() > 0);
        // A lighter admission hits cached entries of undisturbed tasks
        // (its 400us WCET stays below their 500us blocking bounds, so
        // the tie-aware invalidation keeps the higher-ranked entries).
        svc.apply(&SystemEvent::Arrival(mk(3, 8, 400, 6)));
        assert!(svc.cache().hits() > 0);
    }

    /// `offer` gates one way at every spike level: at 100% the rebuild
    /// equals a plain re-bind for any task the builder and the mutators
    /// can produce.
    #[test]
    fn full_load_scaling_is_a_rebind_for_every_constructible_task() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        use tagio_core::task::Priority;
        let mut rng = StdRng::seed_from_u64(5);
        let us = Duration::from_micros;
        for _ in 0..2_000 {
            let period = rng.random_range(1..=10_000_000u64);
            let deadline = rng.random_range(1..=period);
            let wcet = rng.random_range(1..=deadline);
            let delta = rng.random_range(0..=deadline - wcet);
            let vmin = rng.random_range(-1e3..=1e3);
            let mut task = IoTask::builder(TaskId(rng.random_range(0..64)), DeviceId(0))
                .wcet(us(wcet))
                .period(us(period))
                .deadline(us(deadline))
                .ideal_offset(us(delta))
                .margin(us(rng.random_range(0..=delta.min(deadline - delta))))
                .quality(vmin + rng.random_range(0.0..=1e3), vmin)
                .release_offset(us(rng.random_range(0..period)))
                .tenant(TenantId(rng.random_range(0..8)))
                .build()
                .unwrap();
            let odd = [f64::NAN, f64::INFINITY, rng.random_range(-1e3..=1e3)];
            task.set_priority(Priority(rng.random_range(0..100)));
            task.set_vmax(odd[rng.random_range(0..3)]);
            task.set_vmin(odd[rng.random_range(0..3)]);
            let device = DeviceId(rng.random_range(0..4));
            assert_eq!(scale_task(&task, 100, device), Some(task.retarget(device)));
        }
    }

    #[test]
    fn death_on_own_device_resets_everything_and_orphans_nominals() {
        let mut svc = service();
        // Scale WCETs up so orphans observably carry the *nominal*
        // definition, not the spiked one.
        let _ = svc.apply(&SystemEvent::UtilisationSpike {
            device: DeviceId(0),
            percent: 150,
        });
        let out = svc.apply(&SystemEvent::PartitionDeath {
            device: DeviceId(0),
        });
        let EventOutcome::PartitionDied {
            device,
            orphans,
            rehomed,
            lost,
        } = out
        else {
            panic!("expected PartitionDied, got {out:?}");
        };
        assert_eq!(device, DeviceId(0));
        assert_eq!(orphans.len(), 2);
        assert!(
            orphans
                .iter()
                .all(|t| t.wcet() == Duration::from_micros(500)),
            "orphans carry nominal WCETs"
        );
        assert!(rehomed.is_empty() && lost.is_empty());
        assert!(svc.tasks().is_empty());
        assert!(svc.schedule().is_empty());
        assert_eq!((svc.psi(), svc.upsilon()), (1.0, 1.0));
        // The restarted partition accepts fresh traffic immediately —
        // even re-using an id it owned before the crash.
        match svc.apply(&SystemEvent::Arrival(mk(0, 8, 500, 2))) {
            EventOutcome::Admitted { task, .. } => assert_eq!(task, TaskId(0)),
            other => panic!("restart refused an arrival: {other:?}"),
        }
    }

    #[test]
    fn death_on_another_device_is_ignored() {
        let mut svc = service();
        let out = svc.apply(&SystemEvent::PartitionDeath {
            device: DeviceId(1),
        });
        assert!(matches!(out, EventOutcome::Ignored { .. }));
        assert_eq!(svc.tasks().len(), 2);
        assert_eq!(svc.stats().ignored, 1);
    }
}
