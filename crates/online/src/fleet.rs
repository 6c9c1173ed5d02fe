//! The multi-partition scheduling fleet: N [`OnlineScheduler`]s behind a
//! batching event router.
//!
//! A single [`OnlineScheduler`] owns one device partition. Production
//! traffic spans *many* devices, so [`FleetScheduler`] scales the service
//! out the way parallel multi-channel readout systems do: one worker per
//! partition behind a router, with state changes batched per epoch and
//! committed between them.
//!
//! Each call to [`FleetScheduler::apply_batch`] is one **epoch**,
//! pipelined over the persistent [`WorkerPool`] (no per-epoch thread
//! spawns) with staging buffers reused across epochs (no per-epoch
//! router allocations in steady state):
//!
//! 1. **stage** — sequentially, with the fleet's seeded RNG: every event
//!    is resolved to a per-partition lane of *event indices* by the
//!    [`PlacementPolicy`] (arrivals, against a once-per-epoch headroom
//!    snapshot), by task ownership (departures), by device (spikes), or
//!    broadcast (mode changes). Fleet-level verdicts (duplicate ids,
//!    unroutable events) are decided here without touching any
//!    partition; nothing is cloned — arrivals are offered by reference
//!    ([`OnlineScheduler::offer`]) and re-bound only on admission.
//! 2. **evaluate in parallel** — partition lanes are disjoint, so the
//!    long-lived pool workers drain them concurrently. Results are
//!    independent of the worker count.
//! 3. **commit in partition-id order** — ownership updates and fleet
//!    counters fold deterministically.
//! 4. **retry in waves** — arrivals their routed partition rejected are
//!    re-offered along their preference ladder in *waves*: each wave
//!    claims, in event order, the next ladder rung of every pending
//!    arrival whose target partition no earlier arrival claimed this
//!    wave (a contested rung simply waits for the next wave — it is
//!    never skipped). A wave's offers target disjoint partitions, so
//!    they evaluate in parallel; *wave order*, not thread order, defines
//!    the semantics. Carried [`Infeasible`] diagnostics attribute the
//!    final cause. Departures of tasks that arrived earlier in the same
//!    batch are resolved after the waves, once ownership has settled.
//!
//! [`SystemEvent::PartitionDeath`] rides the same pipeline: the death
//! routes to its partition's lane (so within-lane event order defines
//! the mid-batch semantics), the partition resets itself and hands its
//! active set back as orphans, and the commit step queues each orphan
//! through the retry waves against every *surviving* partition. Orphans
//! that no survivor can hold are reported lost, with diagnostics naming
//! the dead partition ([`Infeasible::origin`]).
//!
//! The composition is therefore bit-deterministic for any worker count:
//! all randomness and all cross-partition coupling live in the
//! sequential staging, commit and wave-formation steps.

use crate::codec::{add_counters, counters, Counter};
use crate::service::{EventOutcome, OnlineScheduler, OnlineStats, RejectReason};
use crate::tenant::{utilisation_ppm, QosClass, TenantCounters, TenantLedger, TenantRegistry, PPM};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Mutex, PoisonError};
use tagio_core::event::SystemEvent;
use tagio_core::pool::WorkerPool;
use tagio_core::solve::{Infeasible, InfeasibleCause};
use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet, TenantId};
use tagio_core::{MetricSet, Metrics};
use tagio_sched::LadderWork;

/// How the router picks an arrival's partition (and the order in which
/// rejected arrivals are re-offered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// The arrival's own device first (its affinity), then partitions in
    /// ascending id order — partitions that pass the utilisation gate
    /// are preferred. The cheapest policy; hot origin devices overload.
    #[default]
    FirstFit,
    /// The fitting partition with the *least* residual headroom (classic
    /// best fit: pack tight, keep big holes for big arrivals); exact
    /// headroom ties are broken by the fleet's seeded RNG.
    BestFit,
    /// Rejection-aware rebalance: prefer the fitting partition with the
    /// fewest [`InfeasibleCause::UtilisationOverload`] rejections so
    /// far, then the *most* headroom — traffic drains away from
    /// partitions that have been refusing work.
    Rebalance,
}

impl PlacementPolicy {
    /// Every policy, in report order.
    pub const ALL: [PlacementPolicy; 3] = [
        PlacementPolicy::FirstFit,
        PlacementPolicy::BestFit,
        PlacementPolicy::Rebalance,
    ];

    /// Stable kebab-case name (used by experiment reports and flags).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PlacementPolicy::FirstFit => "first-fit",
            PlacementPolicy::BestFit => "best-fit",
            PlacementPolicy::Rebalance => "rebalance",
        }
    }
}

impl core::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl core::str::FromStr for PlacementPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PlacementPolicy::ALL
            .into_iter()
            .find(|p| p.as_str() == s.trim())
            .ok_or_else(|| format!("unknown placement policy `{s}` (first-fit|best-fit|rebalance)"))
    }
}

/// Fleet-wide configuration. Every partition integrates by incremental
/// repair ([`RepairStrategy::Incremental`](crate::service::RepairStrategy::Incremental)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// The arrival placement policy.
    pub policy: PlacementPolicy,
    /// How many *additional* partitions a rejected arrival is offered
    /// (`0` disables cross-partition retry).
    pub retries: usize,
    /// Worker threads for the parallel admission phase (`0` = all
    /// cores): how many pool workers pull partition lanes from one
    /// epoch's (or retry wave's) submission, each taking the next
    /// non-empty lane as soon as it finishes its last. Results are
    /// identical for every value.
    pub threads: usize,
    /// Seed of the routing RNG (tie-breaks only; all decisions are a
    /// pure function of config + event stream).
    pub seed: u64,
    /// Tenant contracts. A trivial (empty) registry — the default —
    /// disables the router quota/fair gate and tenant-aware shedding
    /// entirely, keeping untenanted fleets bit-identical to the
    /// pre-tenant system.
    pub tenants: TenantRegistry,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            policy: PlacementPolicy::default(),
            retries: 1,
            threads: 0,
            seed: 2020,
            tenants: TenantRegistry::new(),
        }
    }
}

/// Fleet-level counters: unique arrivals (each partition also counts the
/// offers *it* saw — see [`OnlineStats::merge`] for the aggregate view),
/// retries, migrations and final reject causes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Epochs committed ([`FleetScheduler::apply_batch`] calls).
    pub epochs: usize,
    /// Events received (before mode-change broadcast fan-out).
    pub events: usize,
    /// Unique arrival events routed (retries do not re-count).
    pub arrivals: usize,
    /// Arrivals admitted by some partition.
    pub admitted: usize,
    /// Arrivals every offered partition rejected.
    pub rejected: usize,
    /// Arrivals turned away at the router because their id was already
    /// active somewhere in the fleet. No partition was consulted, so
    /// these count in neither [`arrivals`](FleetStats::arrivals) nor
    /// [`rejected`](FleetStats::rejected) (and leave
    /// [`acceptance_ratio`](FleetStats::acceptance_ratio) untouched).
    pub duplicate_rejects: usize,
    /// Cross-partition re-offers attempted.
    pub retries: usize,
    /// Admissions that needed at least one retry.
    pub retry_admissions: usize,
    /// Admissions on a partition other than the arrival's own device.
    pub migrations: usize,
    /// Events no partition could be found for (unknown departure ids,
    /// spikes naming devices outside the fleet).
    pub unrouted: usize,
    /// Final causes of fleet-rejected arrivals: the first
    /// integration-tier diagnostic carried through the retry chain when
    /// one exists, otherwise the last gate verdict.
    pub reject_causes: BTreeMap<InfeasibleCause, usize>,
    /// Partition deaths processed ([`SystemEvent::PartitionDeath`]).
    pub deaths: usize,
    /// Tasks orphaned by partition deaths (their partition's whole
    /// active set at the moment it died).
    pub orphaned: usize,
    /// Orphans re-admitted on a surviving partition. Kept out of
    /// [`admitted`](FleetStats::admitted)/[`retries`](FleetStats::retries):
    /// a rehomed task is not a new arrival.
    pub rehomed: usize,
    /// Orphans no surviving partition could hold. Their final
    /// [`Infeasible`] diagnostics carry the dead partition as
    /// [`Infeasible::origin`].
    pub lost: usize,
    /// Per-tenant router counters (fleet-unique arrivals, final
    /// admitted/rejected verdicts — including router quota-gate
    /// rejections, which never reach a partition). Anonymous traffic is
    /// unaccounted, so untenanted runs keep this map empty and their
    /// metric sets, digests and snapshots unchanged.
    pub tenants: BTreeMap<TenantId, TenantCounters>,
}

impl FleetStats {
    /// Admitted fraction of unique routed arrivals (`1.0` when none).
    #[must_use]
    pub fn acceptance_ratio(&self) -> f64 {
        if self.arrivals == 0 {
            1.0
        } else {
            self.admitted as f64 / self.arrivals as f64
        }
    }

    /// Final rejections attributed to `cause`.
    #[must_use]
    pub fn rejects_with_cause(&self, cause: InfeasibleCause) -> usize {
        self.reject_causes.get(&cause).copied().unwrap_or(0)
    }

    /// Folds another fleet's counters into this one (cause counts merge
    /// per cause). Used when aggregating across independent fleet runs.
    pub fn merge(&mut self, other: &FleetStats) {
        add_counters(&Self::COUNTERS, self, other);
        for (&cause, &count) in &other.reject_causes {
            *self.reject_causes.entry(cause).or_insert(0) += count;
        }
        for (&tenant, counters) in &other.tenants {
            self.tenants.entry(tenant).or_default().merge(counters);
        }
    }

    /// The counters in `fstats` order, the one list `merge` and `fstats`
    /// iterate.
    pub(crate) const COUNTERS: [Counter<FleetStats>; 14] = counters![
        epochs,
        events,
        arrivals,
        admitted,
        rejected,
        duplicate_rejects,
        retries,
        retry_admissions,
        migrations,
        unrouted,
        deaths,
        orphaned,
        rehomed,
        lost,
    ];

    /// The mutable counter slot for `tenant` — `None` for the anonymous
    /// tenant, which stays unaccounted by design.
    fn tenant_entry(&mut self, tenant: TenantId) -> Option<&mut TenantCounters> {
        if tenant.is_anonymous() {
            None
        } else {
            Some(self.tenants.entry(tenant).or_default())
        }
    }
}

impl Metrics for FleetStats {
    fn merge(&mut self, other: &Self) {
        FleetStats::merge(self, other);
    }

    fn snapshot(&self) -> MetricSet {
        let mut set = MetricSet::new();
        set.push("epochs", self.epochs as f64);
        set.push("events", self.events as f64);
        set.push("arrivals", self.arrivals as f64);
        set.push("admitted", self.admitted as f64);
        set.push("rejected", self.rejected as f64);
        set.push("duplicate_rejects", self.duplicate_rejects as f64);
        set.push("retries", self.retries as f64);
        set.push("retry_admissions", self.retry_admissions as f64);
        set.push("migrations", self.migrations as f64);
        set.push("unrouted", self.unrouted as f64);
        set.push("acceptance", self.acceptance_ratio());
        set.push("deaths", self.deaths as f64);
        set.push("orphaned", self.orphaned as f64);
        set.push("rehomed", self.rehomed as f64);
        set.push("lost", self.lost as f64);
        for (tenant, c) in &self.tenants {
            set.push(format!("{tenant}_arrivals"), c.arrivals as f64);
            set.push(format!("{tenant}_admitted"), c.admitted as f64);
            set.push(format!("{tenant}_rejected"), c.rejected as f64);
        }
        set
    }
}

/// The fleet's verdict on one input event.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// The partition that made the final decision; `None` for verdicts
    /// decided at the router (duplicates, unroutable events) and for
    /// mode-change broadcasts (which every partition shares).
    pub partition: Option<DeviceId>,
    /// Partitions offered an arrival (`1` = first choice admitted or no
    /// retry budget; `0` for non-arrivals and router verdicts).
    pub attempts: u32,
    /// The decision, in the single-partition vocabulary. For broadcasts
    /// this is the fleet-merged [`EventOutcome::ModeChanged`].
    pub outcome: EventOutcome,
}

/// What an [`ArrivalPlan`] re-offers across the retry waves: an arrival
/// from the epoch's event slice, or an orphan of a partition death
/// (index into [`EpochStaging::orphans`]). Orphans never saw a
/// lane-phase offer, start at rung 0, and get the *whole* surviving
/// ladder instead of the configured retry budget — failover is a
/// recovery action, not an admission-control decision.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum PlanSource {
    /// An arrival event; resolution lands in the epoch's outcome slot.
    #[default]
    Event,
    /// An orphaned task; resolution lands in
    /// [`EpochStaging::orphan_results`] and is folded into the death
    /// event's [`EventOutcome::PartitionDied`] after the waves.
    Orphan(usize),
}

/// A routed arrival awaiting commit/retry resolution. Holds no task
/// clone — the task lives in the caller's event slice (or, for
/// orphans, in [`EpochStaging::orphans`]), addressed by index; the
/// preference ladder lives in the epoch's shared order buffer
/// ([`EpochStaging::order_buf`]), addressed by range.
#[derive(Debug, Default, Clone)]
struct ArrivalPlan {
    /// Index of the arrival in the epoch's event slice (for orphan
    /// plans: the index of the death event that orphaned the task).
    event_ix: usize,
    /// What this plan re-offers (and where its resolution lands).
    source: PlanSource,
    /// The arrival's own device (migration accounting); for orphan
    /// plans, the dead partition (failover diagnostics).
    origin: DeviceId,
    /// This plan's preference ladder: partition indices, best first, at
    /// `order_buf[order_start..order_start + order_len]`.
    order_start: usize,
    order_len: usize,
    /// The next ladder rung to offer (`1` = first retry; rung 0 was
    /// offered in the parallel lane phase).
    cursor: usize,
    /// Partitions offered so far.
    attempts: u32,
    /// Rejections collected so far, in offer order.
    carried: Vec<RejectReason>,
}

/// Per-epoch staging, reused across epochs (structure-of-arrays): every
/// buffer retains its capacity, so a steady-state epoch routes without
/// allocating. Lanes and plans address events by index into the caller's
/// slice instead of cloning them.
#[derive(Debug, Default)]
struct EpochStaging {
    /// Per-partition lanes of event indices (parallel-phase input).
    lanes: Vec<Vec<usize>>,
    /// Per-partition lane results, `(event index, outcome)`.
    results: Vec<Vec<(usize, EventOutcome)>>,
    /// Arrival plans in event order; `plans_used` of them are live this
    /// epoch (slots beyond that are recycled capacity).
    plans: Vec<ArrivalPlan>,
    plans_used: usize,
    /// Per-event plan index (`usize::MAX` = the event has no plan).
    plan_of: Vec<usize>,
    /// Every plan's preference ladder, back to back.
    order_buf: Vec<usize>,
    /// Arrival ids routed this epoch (same-batch duplicate detection).
    routed_ids: HashSet<TaskId>,
    /// Ownership as projected through this batch's departures: a
    /// Departure followed by a same-id Arrival in one batch (a task
    /// restart) must admit, not duplicate-reject.
    projected: HashSet<TaskId>,
    /// Departures of tasks whose arrival is earlier in this batch:
    /// resolved after ownership settles (post-retry), in event order.
    deferred: Vec<(usize, TaskId)>,
    /// Per-partition headroom, snapshotted once per epoch: staging runs
    /// strictly before any admission, so one snapshot is bit-identical
    /// to recomputing per arrival.
    head: Vec<f64>,
    /// Preference scratch: shuffled candidate order / non-fitting tail.
    scratch: Vec<usize>,
    rest: Vec<usize>,
    /// Partitions already claimed by the current retry wave.
    claimed: Vec<bool>,
    /// Tasks orphaned by this epoch's partition deaths, in commit
    /// order (each death's orphans are contiguous).
    orphans: Vec<IoTask>,
    /// Per-orphan resolution: rehomed to a device, or lost for a
    /// reason. `None` while the waves are still running.
    orphan_results: Vec<Option<Result<DeviceId, RejectReason>>>,
    /// Per-orphan plan index into `plans`.
    orphan_plan: Vec<usize>,
    /// Death records awaiting finalisation:
    /// `(event index, partition, orphan range start, orphan count)`.
    deaths: Vec<(usize, usize, usize, usize)>,
}

impl EpochStaging {
    /// Resets for a new epoch over `partitions` partitions and `events`
    /// events, keeping every buffer's capacity.
    fn begin(&mut self, partitions: usize, events: usize, owner: &BTreeMap<TaskId, usize>) {
        self.lanes.resize_with(partitions, Vec::new);
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.results.resize_with(partitions, Vec::new);
        for result in &mut self.results {
            result.clear();
        }
        self.plans_used = 0;
        self.plan_of.clear();
        self.plan_of.resize(events, usize::MAX);
        self.order_buf.clear();
        self.routed_ids.clear();
        self.projected.clear();
        self.projected.extend(owner.keys().copied());
        self.deferred.clear();
        self.head.clear();
        self.claimed.clear();
        self.claimed.resize(partitions, false);
        self.orphans.clear();
        self.orphan_results.clear();
        self.orphan_plan.clear();
        self.deaths.clear();
    }

    /// Claims a plan slot (recycling a previous epoch's allocation) and
    /// returns its index. Event plans start at rung 1 (rung 0 was
    /// offered in the parallel lane phase); orphan plans never saw a
    /// lane-phase offer and start at rung 0.
    fn alloc_plan(
        &mut self,
        event_ix: usize,
        source: PlanSource,
        origin: DeviceId,
        order_start: usize,
        order_len: usize,
    ) -> usize {
        let k = self.plans_used;
        let offered = matches!(source, PlanSource::Event);
        let plan = ArrivalPlan {
            event_ix,
            source,
            origin,
            order_start,
            order_len,
            cursor: usize::from(offered),
            attempts: u32::from(offered),
            carried: Vec::new(),
        };
        if let Some(slot) = self.plans.get_mut(k) {
            let carried = std::mem::take(&mut slot.carried);
            *slot = plan;
            slot.carried = carried;
            slot.carried.clear();
        } else {
            self.plans.push(plan);
        }
        self.plans_used = k + 1;
        match source {
            PlanSource::Event => self.plan_of[event_ix] = k,
            PlanSource::Orphan(ix) => {
                debug_assert_eq!(ix, self.orphan_plan.len());
                self.orphan_plan.push(k);
            }
        }
        k
    }
}

/// N partitions behind a batching, retrying, policy-driven event router.
/// See the [module docs](self) for the epoch pipeline.
#[derive(Debug)]
pub struct FleetScheduler {
    config: FleetConfig,
    /// Partitions sorted by device id (the commit order).
    partitions: Vec<OnlineScheduler>,
    /// Which partition (index) currently runs each active task.
    owner: BTreeMap<TaskId, usize>,
    /// Per-partition count of utilisation-overload rejections issued
    /// (drives [`PlacementPolicy::Rebalance`]).
    overload_rejects: Vec<usize>,
    rng: StdRng,
    stats: FleetStats,
    /// Banked deficit credit per best-effort tenant (router fair
    /// admission on saturated epochs). Only mutated in sequential
    /// staging, so it is deterministic for any pool width.
    ledger: TenantLedger,
    /// Reused per-epoch staging (see [`EpochStaging`]).
    staging: EpochStaging,
}

impl FleetScheduler {
    /// An empty fleet over `devices` (deduplicated, sorted).
    pub fn new(devices: impl IntoIterator<Item = DeviceId>, config: FleetConfig) -> Self {
        let mut devs: Vec<DeviceId> = devices.into_iter().collect();
        devs.sort_unstable();
        devs.dedup();
        let mut partitions: Vec<OnlineScheduler> =
            devs.into_iter().map(OnlineScheduler::new).collect();
        for p in &mut partitions {
            p.set_tenant_registry(config.tenants.clone());
        }
        let overload_rejects = vec![0; partitions.len()];
        let rng = StdRng::seed_from_u64(config.seed);
        FleetScheduler {
            config,
            partitions,
            owner: BTreeMap::new(),
            overload_rejects,
            rng,
            stats: FleetStats::default(),
            ledger: TenantLedger::new(),
            staging: EpochStaging::default(),
        }
    }

    /// A fleet bootstrapped from per-device base systems. Each base is
    /// synthesised wholesale when feasible, task-by-task otherwise (so
    /// every base comes up). Task ids must be fleet-unique; a base task
    /// whose id is already owned by an earlier partition is skipped.
    pub fn bootstrap(bases: &BTreeMap<DeviceId, TaskSet>, config: FleetConfig) -> Self {
        let mut fleet = FleetScheduler::new(bases.keys().copied(), config);
        for (device, base) in bases {
            let Some(idx) = fleet.index_of(*device) else {
                continue;
            };
            let fresh: TaskSet = base
                .iter()
                .filter(|t| !fleet.owner.contains_key(&t.id()))
                .cloned()
                .collect();
            match OnlineScheduler::bootstrap(*device, fresh) {
                Ok(svc) => {
                    fleet.partitions[idx] = svc;
                    fleet.partitions[idx].set_tenant_registry(fleet.config.tenants.clone());
                }
                Err(tasks) => {
                    for t in &tasks {
                        let _ = fleet.partitions[idx].apply(&SystemEvent::Arrival(t.clone()));
                    }
                }
            }
            let owned: Vec<TaskId> = fleet.partitions[idx]
                .tasks()
                .iter()
                .map(IoTask::id)
                .collect();
            for id in owned {
                fleet.owner.insert(id, idx);
            }
        }
        fleet
    }

    /// The partitions, in device-id (commit) order.
    #[must_use]
    pub fn partitions(&self) -> &[OnlineScheduler] {
        &self.partitions
    }

    /// The partition owning `device`.
    #[must_use]
    pub fn partition(&self, device: DeviceId) -> Option<&OnlineScheduler> {
        self.index_of(device).map(|i| &self.partitions[i])
    }

    /// The partition currently running `task`.
    #[must_use]
    pub fn owner_of(&self, task: TaskId) -> Option<DeviceId> {
        self.owner.get(&task).map(|&i| self.partitions[i].device())
    }

    /// Fleet-level counters.
    #[must_use]
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// Every partition's counters folded into one [`OnlineStats`]
    /// (per-offer view: retried arrivals count once per partition that
    /// saw them — the fleet-unique view is [`FleetScheduler::stats`]).
    #[must_use]
    pub fn aggregate_stats(&self) -> OnlineStats {
        let mut total = OnlineStats::default();
        for p in &self.partitions {
            total.merge(p.stats());
        }
        total
    }

    /// Every partition's [`OnlineScheduler::ladder_work`] summed in
    /// partition-id order. Like the per-partition counters, the sum is
    /// observability only and stays out of every stats digest.
    #[must_use]
    pub fn ladder_work(&self) -> LadderWork {
        let mut total = LadderWork::default();
        for p in &self.partitions {
            total.merge(&p.ladder_work());
        }
        total
    }

    /// Mean Ψ over partitions with live jobs (`1.0` for an idle fleet).
    #[must_use]
    pub fn mean_psi(&self) -> f64 {
        mean_over(&self.partitions, OnlineScheduler::psi)
    }

    /// Mean Υ over partitions with live jobs (`1.0` for an idle fleet).
    #[must_use]
    pub fn mean_upsilon(&self) -> f64 {
        mean_over(&self.partitions, OnlineScheduler::upsilon)
    }

    /// Active tasks across the fleet.
    #[must_use]
    pub fn active_tasks(&self) -> usize {
        self.owner.len()
    }

    /// Applies one event (an epoch of one).
    pub fn apply(&mut self, event: &SystemEvent) -> FleetOutcome {
        self.apply_batch(core::slice::from_ref(event))
            .pop()
            .unwrap_or(FleetOutcome {
                partition: None,
                attempts: 0,
                outcome: EventOutcome::Ignored {
                    reason: "empty batch",
                },
            })
    }

    /// Applies one epoch: stages `events` into per-partition lanes,
    /// evaluates the lanes in parallel on the persistent [`WorkerPool`],
    /// commits in partition-id order, then runs the cross-partition
    /// retry waves. Returns one outcome per input event, in order.
    /// Deterministic for any worker count.
    pub fn apply_batch(&mut self, events: &[SystemEvent]) -> Vec<FleetOutcome> {
        self.stats.epochs += 1;
        self.stats.events += events.len();
        let n = self.partitions.len();
        let mut outcomes: Vec<Option<FleetOutcome>> = events.iter().map(|_| None).collect();
        if n == 0 {
            return events
                .iter()
                .map(|_| FleetOutcome {
                    partition: None,
                    attempts: 0,
                    outcome: EventOutcome::Ignored {
                        reason: "fleet has no partitions",
                    },
                })
                .collect();
        }
        self.staging.begin(n, events.len(), &self.owner);
        // Phase 1 — sequential staging (the only phase that draws from
        // the RNG or reads cross-partition state).
        self.stage(events, &mut outcomes);
        // Phase 2 — parallel, independent lane evaluation on the pool.
        let width = self.lane_width();
        eval_lanes(
            &mut self.partitions,
            &self.staging.lanes,
            &mut self.staging.results,
            events,
            &self.staging.orphans,
            width,
        );
        // Phase 3 — commit in partition-id order.
        let mut mode_acc: BTreeMap<usize, (Vec<TaskId>, Vec<TaskId>)> = BTreeMap::new();
        let mut results = std::mem::take(&mut self.staging.results);
        for (p, lane_results) in results.iter_mut().enumerate() {
            for (i, outcome) in lane_results.drain(..) {
                self.commit(p, i, outcome, events, &mut outcomes, &mut mode_acc);
            }
        }
        self.staging.results = results;
        // Phase 4 — cross-partition retry waves (arrival retries and
        // orphan rehoming share the wave machinery).
        self.retry_waves(events, &mut outcomes);
        // Phase 4a — finalise partition-death outcomes now that every
        // orphan is rehomed or lost.
        let deaths = std::mem::take(&mut self.staging.deaths);
        for &(i, p, start, count) in &deaths {
            let device = self.partitions[p].device();
            let mut rehomed = Vec::new();
            let mut lost = Vec::new();
            for ix in start..start + count {
                let id = self.staging.orphans[ix].id();
                match self.staging.orphan_results[ix].take() {
                    Some(Ok(home)) => rehomed.push((id, home)),
                    Some(Err(reason)) => lost.push((id, reason)),
                    // Unreachable: every orphan plan resolves in the
                    // waves. The hot path must not panic regardless.
                    None => {}
                }
            }
            outcomes[i] = Some(FleetOutcome {
                partition: Some(device),
                attempts: 0,
                outcome: EventOutcome::PartitionDied {
                    device,
                    orphans: self.staging.orphans[start..start + count].to_vec(),
                    rehomed,
                    lost,
                },
            });
        }
        self.staging.deaths = deaths;
        // Phase 4b — deferred same-batch departures, now that ownership
        // has settled through commit and retry (sequential, event order).
        for k in 0..self.staging.deferred.len() {
            let (i, id) = self.staging.deferred[k];
            match self.owner.get(&id).copied() {
                Some(p) => {
                    let outcome = self.partitions[p].apply(&SystemEvent::Departure(id));
                    if matches!(outcome, EventOutcome::Departed { .. }) {
                        self.owner.remove(&id);
                    }
                    outcomes[i] = Some(FleetOutcome {
                        partition: Some(self.partitions[p].device()),
                        attempts: 0,
                        outcome,
                    });
                }
                None => {
                    // The same-batch arrival was rejected everywhere:
                    // there is nothing to depart.
                    self.stats.unrouted += 1;
                    outcomes[i] = Some(FleetOutcome {
                        partition: None,
                        attempts: 0,
                        outcome: EventOutcome::Ignored {
                            reason: "departure of a task no partition admitted",
                        },
                    });
                }
            }
        }
        // Phase 5 — merge broadcast (mode-change) outcomes.
        for (i, event) in events.iter().enumerate() {
            if outcomes[i].is_none() {
                if let SystemEvent::ModeChange(mode) = event {
                    let (admitted, departed) = mode_acc.remove(&i).unwrap_or_default();
                    outcomes[i] = Some(self.merged_mode_outcome(mode, admitted, departed));
                }
            }
        }
        outcomes
            .into_iter()
            .map(|o| {
                o.unwrap_or(FleetOutcome {
                    partition: None,
                    attempts: 0,
                    outcome: EventOutcome::Ignored {
                        reason: "event produced no partition outcome",
                    },
                })
            })
            .collect()
    }

    /// Phase 1: resolves every event to a lane of event indices (or to a
    /// router verdict), building the arrival plans. Sequential — all RNG
    /// draws and cross-partition reads happen here, against pre-epoch
    /// state. Clones nothing.
    fn stage(&mut self, events: &[SystemEvent], outcomes: &mut [Option<FleetOutcome>]) {
        // Tenant admission state for the epoch, built here in the
        // sequential phase (before any RNG draw): each tenant's active
        // utilisation across the fleet, and whether the batch's nominal
        // arrival demand exceeds the fleet's headroom (only then does
        // the deficit gate engage). A trivial registry skips all of it —
        // untenanted fleets stay bit-identical to the pre-tenant system.
        let gating = !self.config.tenants.is_trivial();
        let mut usage: BTreeMap<TenantId, u64> = BTreeMap::new();
        let mut saturated = false;
        if gating {
            let mut head_ppm: u64 = 0;
            for p in &self.partitions {
                let used = p.tasks().utilisation();
                head_ppm += ((1.0 - used).max(0.0) * PPM as f64) as u64;
                for t in p.tasks().iter() {
                    *usage.entry(t.tenant()).or_insert(0) += utilisation_ppm(t);
                }
            }
            let demand_ppm: u64 = events
                .iter()
                .filter_map(|e| match e {
                    SystemEvent::Arrival(t) => Some(utilisation_ppm(t)),
                    _ => None,
                })
                .sum();
            saturated = demand_ppm > head_ppm;
            if saturated {
                for (tenant, spec) in self.config.tenants.iter() {
                    if spec.qos == QosClass::BestEffort {
                        self.ledger.accrue(tenant, spec.weight);
                    }
                }
            }
        }
        for (i, event) in events.iter().enumerate() {
            match event {
                SystemEvent::Arrival(task) => {
                    let id = task.id();
                    if self.staging.projected.contains(&id) || !self.staging.routed_ids.insert(id) {
                        // Fleet-wide id uniqueness is the router's job:
                        // two partitions must never run the same task.
                        // Duplicates are counted apart — they are never
                        // routed, so they belong in neither `arrivals`
                        // nor `rejected` (and cannot deflate acceptance).
                        self.stats.duplicate_rejects += 1;
                        outcomes[i] = Some(FleetOutcome {
                            partition: None,
                            attempts: 0,
                            outcome: EventOutcome::Rejected {
                                task: id,
                                reason: RejectReason::DuplicateTask,
                            },
                        });
                        continue;
                    }
                    self.stats.arrivals += 1;
                    let tenant = task.tenant();
                    if let Some(c) = self.stats.tenant_entry(tenant) {
                        c.arrivals += 1;
                    }
                    if gating {
                        // Router gate: a best-effort arrival that would
                        // push its tenant past quota — or, on a saturated
                        // epoch, one whose tenant has no banked deficit —
                        // is rejected *here*, before the routing RNG or
                        // any partition is touched. A fully-gated tenant
                        // therefore leaves zero trace on the rest of the
                        // fleet: the isolation property depends on this.
                        let spec = self.config.tenants.spec(tenant);
                        let util = utilisation_ppm(task);
                        let best_effort = spec.qos == QosClass::BestEffort;
                        let over_quota = best_effort
                            && usage.get(&tenant).copied().unwrap_or(0) + util > spec.quota_ppm;
                        let starved = !over_quota
                            && best_effort
                            && saturated
                            && !self.ledger.try_spend(tenant, util);
                        if over_quota || starved {
                            self.stats.rejected += 1;
                            if let Some(c) = self.stats.tenant_entry(tenant) {
                                c.rejected += 1;
                            }
                            let cause = InfeasibleCause::UtilisationOverload;
                            *self.stats.reject_causes.entry(cause).or_insert(0) += 1;
                            outcomes[i] = Some(FleetOutcome {
                                partition: None,
                                attempts: 0,
                                outcome: EventOutcome::Rejected {
                                    task: id,
                                    reason: RejectReason::Infeasible(Infeasible::new(cause)),
                                },
                            });
                            continue;
                        }
                        // Optimistically charge the tenant for the rest
                        // of this epoch's quota checks; a later partition
                        // rejection leaves the charge in place (quota
                        // enforcement is conservative within an epoch).
                        *usage.entry(tenant).or_insert(0) += util;
                    }
                    let (start, len) = self.preference(task);
                    let first = self.staging.order_buf[start];
                    self.staging.lanes[first].push(i);
                    self.staging
                        .alloc_plan(i, PlanSource::Event, task.device(), start, len);
                }
                SystemEvent::Departure(id) => match self.owner.get(id) {
                    Some(&p) => {
                        self.staging.lanes[p].push(i);
                        self.staging.projected.remove(id);
                    }
                    // The task is not owned *yet*, but an arrival earlier
                    // in this very batch routed it: ownership resolves in
                    // the commit/retry phases, so the departure is
                    // deferred to the post-retry phase instead of being
                    // silently dropped (sequential-trace semantics).
                    None if self.staging.routed_ids.contains(id) => {
                        self.staging.deferred.push((i, *id));
                    }
                    None => {
                        self.stats.unrouted += 1;
                        outcomes[i] = Some(FleetOutcome {
                            partition: None,
                            attempts: 0,
                            outcome: EventOutcome::Ignored {
                                reason: "departure of a task no partition owns",
                            },
                        });
                    }
                },
                SystemEvent::ModeChange(_) => {
                    for lane in &mut self.staging.lanes {
                        lane.push(i);
                    }
                }
                SystemEvent::UtilisationSpike { device, .. } => match self.index_of(*device) {
                    Some(p) => self.staging.lanes[p].push(i),
                    None => {
                        self.stats.unrouted += 1;
                        outcomes[i] = Some(FleetOutcome {
                            partition: None,
                            attempts: 0,
                            outcome: EventOutcome::Ignored {
                                reason: "spike on a device outside the fleet",
                            },
                        });
                    }
                },
                // A death routes to its partition's own lane (like a
                // spike), so the lane's event order defines the
                // mid-batch semantics: same-lane events before the
                // death see the live partition, events after it see
                // the restarted empty one. Orphaned ids stay projected
                // for the epoch — a same-epoch re-arrival of an orphan
                // still duplicate-rejects at the router.
                SystemEvent::PartitionDeath { device } => match self.index_of(*device) {
                    Some(p) => self.staging.lanes[p].push(i),
                    None => {
                        self.stats.unrouted += 1;
                        outcomes[i] = Some(FleetOutcome {
                            partition: None,
                            attempts: 0,
                            outcome: EventOutcome::Ignored {
                                reason: "death of a partition outside the fleet",
                            },
                        });
                    }
                },
            }
        }
    }

    /// Phase 4: re-offers rejected arrivals (and the orphans of this
    /// epoch's partition deaths) along their preference ladders in
    /// waves. Wave formation is sequential, in plan order: each pending
    /// plan claims its next ladder rung unless an earlier plan claimed
    /// that partition this wave (a contested rung simply waits for the
    /// next wave — it is never skipped, so retry budgets are honoured
    /// exactly). A wave's offers therefore target disjoint partitions
    /// and evaluate in parallel; wave order, not thread order, defines
    /// the semantics. Arrival plans spend the configured retry budget;
    /// orphan plans walk their whole surviving ladder. The first
    /// pending plan always claims its rung, so every wave makes
    /// progress and the loop terminates.
    fn retry_waves(&mut self, events: &[SystemEvent], outcomes: &mut [Option<FleetOutcome>]) {
        let retries = self.config.retries;
        let width = self.lane_width();
        loop {
            // Form the wave, finalising plans whose budget is spent.
            for lane in &mut self.staging.lanes {
                lane.clear();
            }
            for claimed in &mut self.staging.claimed {
                *claimed = false;
            }
            let mut offers = 0usize;
            for k in 0..self.staging.plans_used {
                let plan = &self.staging.plans[k];
                let source = plan.source;
                let (i, cursor) = (plan.event_ix, plan.cursor);
                let (order_start, order_len) = (plan.order_start, plan.order_len);
                let resolved = match source {
                    PlanSource::Event => outcomes[i].is_some(),
                    PlanSource::Orphan(ix) => self.staging.orphan_results[ix].is_some(),
                };
                if resolved {
                    continue; // admitted in the lane phase, or finalised
                }
                let budget = match source {
                    PlanSource::Event => retries,
                    // Failover is a recovery action: an orphan may try
                    // every surviving partition, not just the
                    // admission-control retry budget.
                    PlanSource::Orphan(_) => usize::MAX,
                };
                if cursor > budget || cursor >= order_len {
                    match source {
                        PlanSource::Event => self.finalise_reject(k, events, outcomes),
                        PlanSource::Orphan(_) => self.finalise_lost(k),
                    }
                    continue;
                }
                let p = self.staging.order_buf[order_start + cursor];
                if self.staging.claimed[p] {
                    continue; // contested: wait for the next wave
                }
                self.staging.claimed[p] = true;
                let plan = &mut self.staging.plans[k];
                plan.cursor += 1;
                plan.attempts += 1;
                let lane_ix = match source {
                    PlanSource::Event => {
                        // Rehoming offers are deliberately kept out of
                        // the retry counter: a failover re-admission is
                        // not a router re-offer of a new arrival.
                        self.stats.retries += 1;
                        i
                    }
                    PlanSource::Orphan(ix) => events.len() + ix,
                };
                self.staging.lanes[p].push(lane_ix);
                offers += 1;
            }
            if offers == 0 {
                return; // every plan resolved
            }
            // Evaluate the wave: disjoint partitions, in parallel.
            for result in &mut self.staging.results {
                result.clear();
            }
            eval_lanes(
                &mut self.partitions,
                &self.staging.lanes,
                &mut self.staging.results,
                events,
                &self.staging.orphans,
                width,
            );
            // Commit the wave. Iteration is in partition-id order, but
            // the wave's offers touch disjoint partitions and distinct
            // task ids, so their commits commute — the outcome is fixed
            // by the wave's composition alone.
            let mut results = std::mem::take(&mut self.staging.results);
            for (p, lane_results) in results.iter_mut().enumerate() {
                for (i, outcome) in lane_results.drain(..) {
                    self.commit_offer(p, i, outcome, events, outcomes);
                }
            }
            self.staging.results = results;
        }
    }

    /// Commits one offer, from the lane phase or a retry wave:
    /// ownership, counters and the final outcome on admission; a carried
    /// diagnostic on rejection (the plan stays pending for the next wave
    /// or final attribution). A lane-phase admission is a plan with
    /// `attempts == 1`. Lane indices at or past `events.len()` are
    /// orphan rehoming offers — their resolutions land in the
    /// per-orphan results, not the epoch's outcome slots.
    fn commit_offer(
        &mut self,
        p: usize,
        i: usize,
        outcome: EventOutcome,
        events: &[SystemEvent],
        outcomes: &mut [Option<FleetOutcome>],
    ) {
        if let Some(ix) = i.checked_sub(events.len()) {
            let k = self.staging.orphan_plan[ix];
            match outcome {
                EventOutcome::Admitted { task, .. } => {
                    self.owner.insert(task, p);
                    self.stats.rehomed += 1;
                    self.staging.orphan_results[ix] = Some(Ok(self.partitions[p].device()));
                }
                EventOutcome::Rejected { reason, .. } => {
                    self.record_partition_reject(p, &reason);
                    self.staging.plans[k].carried.push(reason);
                }
                _ => {}
            }
            return;
        }
        let k = self.staging.plan_of[i];
        match outcome {
            EventOutcome::Admitted { task, .. } => {
                self.owner.insert(task, p);
                self.stats.admitted += 1;
                if let SystemEvent::Arrival(t) = &events[i] {
                    if let Some(c) = self.stats.tenant_entry(t.tenant()) {
                        c.admitted += 1;
                    }
                }
                let plan = &self.staging.plans[k];
                if plan.attempts > 1 {
                    self.stats.retry_admissions += 1;
                }
                let device = self.partitions[p].device();
                if device != plan.origin {
                    self.stats.migrations += 1;
                }
                outcomes[i] = Some(FleetOutcome {
                    partition: Some(device),
                    attempts: plan.attempts,
                    outcome,
                });
            }
            EventOutcome::Rejected { reason, .. } => {
                self.record_partition_reject(p, &reason);
                self.staging.plans[k].carried.push(reason);
            }
            _ => {}
        }
    }

    /// Finalises a plan whose retry budget (or ladder) is exhausted:
    /// attributes the most informative carried cause.
    fn finalise_reject(
        &mut self,
        k: usize,
        events: &[SystemEvent],
        outcomes: &mut [Option<FleetOutcome>],
    ) {
        let plan = &mut self.staging.plans[k];
        let (i, attempts) = (plan.event_ix, plan.attempts);
        let (order_start, order_len) = (plan.order_start, plan.order_len);
        let carried = std::mem::take(&mut plan.carried);
        // Plans are built from arrivals only; a non-arrival here would be
        // a staging bug, and the hot path must not panic on it — the
        // event then falls through to the no-outcome backstop.
        let SystemEvent::Arrival(task) = &events[i] else {
            return;
        };
        self.stats.rejected += 1;
        if let Some(c) = self.stats.tenant_entry(task.tenant()) {
            c.rejected += 1;
        }
        let reason = final_reject_reason(carried);
        if let Some(diag) = reason.diagnostic() {
            *self.stats.reject_causes.entry(diag.cause).or_insert(0) += 1;
        }
        let first = (order_len > 0).then(|| self.staging.order_buf[order_start]);
        outcomes[i] = Some(FleetOutcome {
            partition: first.map(|p| self.partitions[p].device()),
            attempts,
            outcome: EventOutcome::Rejected {
                task: task.id(),
                reason,
            },
        });
    }

    /// Finalises an orphan plan whose surviving ladder is exhausted:
    /// the task is lost, and its diagnostic names the dead partition
    /// ([`Infeasible::origin`]) so operators can attribute the failure
    /// to the failover rather than to ordinary admission control.
    fn finalise_lost(&mut self, k: usize) {
        let plan = &mut self.staging.plans[k];
        let PlanSource::Orphan(ix) = plan.source else {
            return; // event plans finalise through `finalise_reject`
        };
        let origin = plan.origin;
        let carried = std::mem::take(&mut plan.carried);
        let reason = match final_reject_reason(carried) {
            RejectReason::Infeasible(diag) => RejectReason::Infeasible(diag.with_origin(origin)),
            other => other,
        };
        self.stats.lost += 1;
        self.staging.orphan_results[ix] = Some(Err(reason));
    }

    /// Chunking width for the parallel phases (`0` = one per core,
    /// resolved by the shared [`tagio_core::pool`] rule).
    fn lane_width(&self) -> usize {
        tagio_core::pool::resolve_width(self.config.threads).clamp(1, self.partitions.len().max(1))
    }

    /// Commits one parallel-phase outcome: ownership and fleet counters.
    /// Arrival offers go through [`Self::commit_offer`].
    fn commit(
        &mut self,
        p: usize,
        i: usize,
        outcome: EventOutcome,
        events: &[SystemEvent],
        outcomes: &mut [Option<FleetOutcome>],
        mode_acc: &mut BTreeMap<usize, (Vec<TaskId>, Vec<TaskId>)>,
    ) {
        let device = self.partitions[p].device();
        match outcome {
            // Only a staged arrival's offer admits or rejects; it commits
            // exactly like a retry-wave offer.
            EventOutcome::Admitted { .. } | EventOutcome::Rejected { .. } => {
                self.commit_offer(p, i, outcome, events, outcomes);
            }
            EventOutcome::Departed { task } => {
                // Only the recorded owner may release the id: a same-batch
                // restart that migrated to a lower partition has already
                // committed its admission, and this departure (from the
                // *old* partition) must not erase the new ownership.
                if self.owner.get(&task) == Some(&p) {
                    self.owner.remove(&task);
                }
                outcomes[i] = Some(FleetOutcome {
                    partition: Some(device),
                    attempts: 0,
                    outcome,
                });
            }
            EventOutcome::ModeChanged {
                ref admitted,
                ref departed,
                ..
            } => {
                // Broadcast: fold ownership and accumulate; the merged
                // outcome is built in phase 5 once every partition
                // committed (in partition-id order, so the lists are
                // deterministic). Departures first — they free ownership
                // the same partition's re-admissions may reuse.
                for t in departed {
                    if self.owner.get(t) == Some(&p) {
                        self.owner.remove(t);
                    }
                    mode_acc.entry(i).or_default().1.push(*t);
                }
                for t in admitted {
                    match self.owner.get(t).copied() {
                        // Another partition already runs this task —
                        // partition pools keep departed tasks, so a
                        // broadcast mode change can re-admit an id that
                        // migrated elsewhere since. Fleet-wide uniqueness
                        // wins: roll this partition's re-admission back
                        // (lowest partition id keeps the task).
                        Some(q) if q != p => {
                            let _ = self.partitions[p].apply(&SystemEvent::Departure(*t));
                        }
                        _ => {
                            self.owner.insert(*t, p);
                            mode_acc.entry(i).or_default().0.push(*t);
                        }
                    }
                }
            }
            EventOutcome::SpikeApplied { ref shed, .. } => {
                for t in shed {
                    self.owner.remove(t);
                }
                outcomes[i] = Some(FleetOutcome {
                    partition: Some(device),
                    attempts: 0,
                    outcome,
                });
            }
            EventOutcome::PartitionDied { orphans, .. } => {
                // The partition reset itself and handed back its whole
                // active set. Release ownership, then queue every
                // orphan for rehoming through the retry waves — the
                // death event's outcome is finalised after the waves,
                // once each orphan is rehomed or lost.
                self.stats.deaths += 1;
                self.stats.orphaned += orphans.len();
                let start = self.staging.orphans.len();
                for task in orphans {
                    if self.owner.get(&task.id()) == Some(&p) {
                        self.owner.remove(&task.id());
                    }
                    let ix = self.staging.orphans.len();
                    let (order_start, order_len) = self.surviving_ladder(&task, p);
                    self.staging.alloc_plan(
                        i,
                        PlanSource::Orphan(ix),
                        device,
                        order_start,
                        order_len,
                    );
                    self.staging.orphans.push(task);
                    self.staging.orphan_results.push(None);
                }
                let count = self.staging.orphans.len() - start;
                self.staging.deaths.push((i, p, start, count));
            }
            EventOutcome::Ignored { .. } => {
                // A departure the dead partition could no longer see:
                // its task was orphaned by a death earlier in this
                // lane. Defer it to the post-wave phase so it lands on
                // whichever partition rehomes the task (sequential-
                // trace semantics), instead of vanishing.
                if let SystemEvent::Departure(id) = &events[i] {
                    if self.staging.orphans.iter().any(|t| t.id() == *id) {
                        self.staging.deferred.push((i, *id));
                        return;
                    }
                }
                outcomes[i] = Some(FleetOutcome {
                    partition: Some(device),
                    attempts: 0,
                    outcome,
                });
            }
        }
    }

    /// Builds an orphan's rehoming ladder: the policy's full preference
    /// order with the dead partition compacted out. Reuses the epoch's
    /// headroom snapshot when one exists (staged before any admission —
    /// deliberately stale, but deterministic for every worker count);
    /// an epoch with no arrivals snapshots here instead, which is
    /// equally deterministic because the commit phase is sequential.
    fn surviving_ladder(&mut self, task: &IoTask, dead: usize) -> (usize, usize) {
        let (start, len) = self.preference(task);
        let buf = &mut self.staging.order_buf;
        let mut w = start;
        for r in start..start + len {
            let q = buf[r];
            if q != dead {
                buf[w] = q;
                w += 1;
            }
        }
        // The ladder was just appended, so dropping the dead rung from
        // its tail cannot disturb any earlier plan's range.
        buf.truncate(w);
        (start, w - start)
    }

    /// Appends the policy's partition preference ladder for `task` to
    /// the epoch's shared order buffer, returning `(start, length)`.
    /// Every partition index appears, best first; gate-fitting
    /// partitions always precede non-fitting ones (the latter are still
    /// listed — a retry against a nearly-full partition can succeed
    /// after a same-epoch departure). Headroom comes from the epoch
    /// snapshot: staging runs strictly before any admission, so one
    /// snapshot is bit-identical to recomputing per arrival.
    fn preference(&mut self, task: &IoTask) -> (usize, usize) {
        let n = self.partitions.len();
        if self.staging.head.is_empty() {
            let partitions = &self.partitions;
            self.staging
                .head
                .extend(partitions.iter().map(|p| 1.0 - p.tasks().utilisation()));
        }
        let u = task.utilisation();
        // Affinity: the scan starts at the arrival's own device when it
        // is one of ours (FirstFit only).
        let affinity = self.index_of(task.device()).unwrap_or(0);
        let policy = self.config.policy;
        let EpochStaging {
            order_buf,
            head,
            scratch,
            rest,
            ..
        } = &mut self.staging;
        let start = order_buf.len();
        let fits = |p: usize| head[p] + 1e-9 >= u;
        rest.clear();
        match policy {
            PlacementPolicy::FirstFit => {
                for k in 0..n {
                    let p = (k + affinity) % n;
                    if fits(p) {
                        order_buf.push(p);
                    } else {
                        rest.push(p);
                    }
                }
            }
            PlacementPolicy::BestFit => {
                scratch.clear();
                scratch.extend(0..n);
                shuffle(&mut self.rng, scratch); // seeded tie-break for equal headroom
                for &p in scratch.iter() {
                    if fits(p) {
                        order_buf.push(p);
                    } else {
                        rest.push(p);
                    }
                }
                order_buf[start..].sort_by(|&a, &b| head[a].total_cmp(&head[b])); // tightest first
                rest.sort_by(|&a, &b| head[b].total_cmp(&head[a])); // roomiest first
            }
            PlacementPolicy::Rebalance => {
                scratch.clear();
                scratch.extend(0..n);
                shuffle(&mut self.rng, scratch);
                let overload = &self.overload_rejects;
                let key = |a: usize, b: usize| {
                    overload[a]
                        .cmp(&overload[b])
                        .then(head[b].total_cmp(&head[a])) // roomiest first
                };
                for &p in scratch.iter() {
                    if fits(p) {
                        order_buf.push(p);
                    } else {
                        rest.push(p);
                    }
                }
                order_buf[start..].sort_by(|&a, &b| key(a, b));
                rest.sort_by(|&a, &b| key(a, b));
            }
        }
        order_buf.extend_from_slice(rest);
        (start, order_buf.len() - start)
    }

    fn record_partition_reject(&mut self, p: usize, reason: &RejectReason) {
        if reason
            .diagnostic()
            .is_some_and(|d| d.cause == InfeasibleCause::UtilisationOverload)
        {
            self.overload_rejects[p] += 1;
        }
    }

    /// The fleet-merged view of a broadcast mode change: admissions and
    /// departures concatenated in partition-id order; `rejected` lists
    /// the mode's tasks that ended up active nowhere in the fleet.
    fn merged_mode_outcome(
        &self,
        mode: &tagio_core::event::Mode,
        admitted: Vec<TaskId>,
        departed: Vec<TaskId>,
    ) -> FleetOutcome {
        let mut rejected = Vec::new();
        for id in &mode.active {
            if !self.owner.contains_key(id) && !rejected.contains(id) {
                rejected.push(*id);
            }
        }
        FleetOutcome {
            partition: None,
            attempts: 0,
            outcome: EventOutcome::ModeChanged {
                mode: mode.id,
                admitted,
                rejected,
                departed,
            },
        }
    }

    fn index_of(&self, device: DeviceId) -> Option<usize> {
        self.partitions
            .binary_search_by(|p| p.device().cmp(&device))
            .ok()
    }

    /// The fleet configuration (checkpointing).
    pub(crate) fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The ownership map, by partition index (checkpointing).
    pub(crate) fn owner_map(&self) -> &BTreeMap<TaskId, usize> {
        &self.owner
    }

    /// Per-partition overload-rejection counts (checkpointing — they
    /// drive [`PlacementPolicy::Rebalance`], so recovery must restore
    /// them exactly).
    pub(crate) fn overload_counts(&self) -> &[usize] {
        &self.overload_rejects
    }

    /// The routing RNG's raw state (checkpointing).
    pub(crate) fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// The router's banked deficit credit per best-effort tenant
    /// (checkpointed in snapshot v2 — future admissions depend on it).
    #[must_use]
    pub fn ledger(&self) -> &TenantLedger {
        &self.ledger
    }

    /// Reassembles a fleet from checkpointed parts. The caller (the
    /// snapshot loader) guarantees `partitions` is sorted by device id
    /// with no duplicates, `owner`'s indices are in range, and
    /// `overload_rejects.len() == partitions.len()`; staging is rebuilt
    /// fresh (it never outlives an epoch).
    pub(crate) fn from_parts(
        config: FleetConfig,
        partitions: Vec<OnlineScheduler>,
        owner: BTreeMap<TaskId, usize>,
        overload_rejects: Vec<usize>,
        rng_state: [u64; 4],
        stats: FleetStats,
        ledger: TenantLedger,
    ) -> Self {
        debug_assert!(partitions.windows(2).all(|w| w[0].device() < w[1].device()));
        debug_assert_eq!(overload_rejects.len(), partitions.len());
        let mut partitions = partitions;
        for p in &mut partitions {
            p.set_tenant_registry(config.tenants.clone());
        }
        FleetScheduler {
            config,
            partitions,
            owner,
            overload_rejects,
            rng: StdRng::from_state(rng_state),
            stats,
            ledger,
            staging: EpochStaging::default(),
        }
    }
}

/// Chooses the most informative final rejection: the first diagnostic
/// from a failed integration tier when one exists (it names jobs and
/// partial quality), otherwise the last verdict seen (typically the
/// utilisation gate's overload).
fn final_reject_reason(carried: Vec<RejectReason>) -> RejectReason {
    let richest = carried.iter().position(|r| {
        r.diagnostic()
            .is_some_and(|d| d.cause != InfeasibleCause::UtilisationOverload)
    });
    let mut carried = carried;
    match richest {
        Some(i) => carried.swap_remove(i),
        None => carried
            .pop()
            .unwrap_or(RejectReason::Infeasible(Infeasible::new(
                InfeasibleCause::NoFeasibleSlot,
            ))),
    }
}

/// Deterministic Fisher–Yates over partition indices (the seeded routing
/// RNG; stable sorts after this make exact key ties random but
/// reproducible).
fn shuffle(rng: &mut StdRng, order: &mut [usize]) {
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..i + 1);
        order.swap(i, j);
    }
}

/// Drains each partition's lane of event indices into its result buffer,
/// in parallel on the persistent [`WorkerPool`] when `width > 1` and more
/// than one lane has work. Arrivals are *offered*
/// ([`OnlineScheduler::offer`] — the admission pipeline, task re-bound
/// only on admit); every other event is applied as-is. Lane indices at
/// or past `events.len()` address `orphans` (rehoming offers from the
/// retry waves).
///
/// Lanes are pulled, not pre-split: `width` closures each take the next
/// non-empty `(partition, lane, results)` triple from one shared,
/// lock-guarded iterator until it runs dry, so a worker that finishes a
/// short lane moves straight on to the next one instead of idling
/// behind a fixed chunk. Lanes touch disjoint partitions and write their
/// own result buffers, so results are identical for any width and any
/// pull order.
fn eval_lanes(
    partitions: &mut [OnlineScheduler],
    lanes: &[Vec<usize>],
    results: &mut [Vec<(usize, EventOutcome)>],
    events: &[SystemEvent],
    orphans: &[IoTask],
    width: usize,
) {
    let eval = |svc: &mut OnlineScheduler, lane: &[usize], out: &mut Vec<(usize, EventOutcome)>| {
        for &i in lane {
            let outcome = match i.checked_sub(events.len()) {
                Some(ix) => svc.offer(&orphans[ix]),
                None => match &events[i] {
                    SystemEvent::Arrival(task) => svc.offer(task),
                    event => svc.apply(event),
                },
            };
            out.push((i, outcome));
        }
    };
    let busy = lanes.iter().filter(|lane| !lane.is_empty()).count();
    let width = width.min(busy);
    if width <= 1 {
        for ((svc, lane), out) in partitions.iter_mut().zip(lanes).zip(results.iter_mut()) {
            eval(svc, lane, out);
        }
        return;
    }
    let next = Mutex::new(
        partitions
            .iter_mut()
            .zip(lanes)
            .zip(results.iter_mut())
            .filter(|((_, lane), _)| !lane.is_empty()),
    );
    let (next, eval) = (&next, &eval);
    WorkerPool::global().map_chunks((0..width).map(|_| {
        move || loop {
            // The guard drops at the end of this statement, so lanes
            // evaluate outside the lock.
            let lane = next.lock().unwrap_or_else(PoisonError::into_inner).next();
            match lane {
                Some(((svc, lane), out)) => eval(svc, lane, out),
                None => return,
            }
        }
    }));
}

fn mean_over(partitions: &[OnlineScheduler], f: impl Fn(&OnlineScheduler) -> f64) -> f64 {
    let busy: Vec<f64> = partitions
        .iter()
        .filter(|p| !p.jobs().is_empty())
        .map(f)
        .collect();
    if busy.is_empty() {
        1.0
    } else {
        busy.iter().sum::<f64>() / busy.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantSpec;
    use tagio_core::time::Duration;

    fn mk(id: u32, device: u32, period_ms: u64, wcet_us: u64, delta_ms: u64) -> IoTask {
        IoTask::builder(TaskId(id), DeviceId(device))
            .wcet(Duration::from_micros(wcet_us))
            .period(Duration::from_millis(period_ms))
            .ideal_offset(Duration::from_millis(delta_ms))
            .margin(Duration::from_millis(period_ms) / 8)
            .quality(f64::from(id) + 1.0, 0.0)
            .build()
            .unwrap()
    }

    fn two_partition_fleet(policy: PlacementPolicy) -> FleetScheduler {
        let mut bases = BTreeMap::new();
        bases.insert(
            DeviceId(0),
            vec![mk(0, 0, 8, 500, 2)].into_iter().collect::<TaskSet>(),
        );
        bases.insert(
            DeviceId(1),
            vec![mk(1, 1, 8, 500, 3)].into_iter().collect::<TaskSet>(),
        );
        FleetScheduler::bootstrap(
            &bases,
            FleetConfig {
                policy,
                threads: 1,
                ..FleetConfig::default()
            },
        )
    }

    #[test]
    fn bootstrap_owns_base_tasks_per_partition() {
        let fleet = two_partition_fleet(PlacementPolicy::FirstFit);
        assert_eq!(fleet.partitions().len(), 2);
        assert_eq!(fleet.owner_of(TaskId(0)), Some(DeviceId(0)));
        assert_eq!(fleet.owner_of(TaskId(1)), Some(DeviceId(1)));
        assert_eq!(fleet.active_tasks(), 2);
        let devices: Vec<DeviceId> = fleet
            .partitions()
            .iter()
            .map(OnlineScheduler::device)
            .collect();
        assert_eq!(devices, [DeviceId(0), DeviceId(1)]);
    }

    #[test]
    fn first_fit_honours_arrival_affinity() {
        let mut fleet = two_partition_fleet(PlacementPolicy::FirstFit);
        let out = fleet.apply(&SystemEvent::Arrival(mk(5, 1, 8, 500, 5)));
        assert_eq!(out.partition, Some(DeviceId(1)), "affinity respected");
        assert_eq!(out.attempts, 1);
        assert!(matches!(out.outcome, EventOutcome::Admitted { .. }));
        assert_eq!(fleet.owner_of(TaskId(5)), Some(DeviceId(1)));
        assert_eq!(fleet.stats().migrations, 0);
    }

    #[test]
    fn duplicate_ids_are_rejected_at_the_router() {
        let mut fleet = two_partition_fleet(PlacementPolicy::FirstFit);
        // Task 0 is active on partition 0; an arrival with the same id
        // aimed at partition 1 must not create a second copy.
        let out = fleet.apply(&SystemEvent::Arrival(mk(0, 1, 8, 500, 5)));
        assert_eq!(out.partition, None, "decided at the router");
        assert!(matches!(
            out.outcome,
            EventOutcome::Rejected {
                reason: RejectReason::DuplicateTask,
                ..
            }
        ));
        assert_eq!(fleet.stats().duplicate_rejects, 1);
        // Router duplicates are excluded from the routed-arrival
        // accounting, so acceptance is unaffected.
        assert_eq!(fleet.stats().arrivals, 0);
        assert_eq!(fleet.stats().rejected, 0);
        assert_eq!(fleet.stats().acceptance_ratio(), 1.0);
        // Same-batch duplicates collapse too.
        let t = mk(9, 0, 8, 400, 2);
        let outs = fleet.apply_batch(&[
            SystemEvent::Arrival(t.clone()),
            SystemEvent::Arrival(t.clone()),
        ]);
        assert!(matches!(outs[0].outcome, EventOutcome::Admitted { .. }));
        assert!(matches!(
            outs[1].outcome,
            EventOutcome::Rejected {
                reason: RejectReason::DuplicateTask,
                ..
            }
        ));
    }

    #[test]
    fn same_epoch_departure_of_a_new_arrival_is_not_lost() {
        // Routing snapshots ownership at epoch start, but a departure of
        // a task whose arrival sits earlier in the same batch must still
        // land (deferred until ownership settles), not be dropped.
        let mut fleet = two_partition_fleet(PlacementPolicy::FirstFit);
        let outs = fleet.apply_batch(&[
            SystemEvent::Arrival(mk(9, 0, 8, 400, 2)),
            SystemEvent::Departure(TaskId(9)),
        ]);
        assert!(matches!(outs[0].outcome, EventOutcome::Admitted { .. }));
        assert!(matches!(outs[1].outcome, EventOutcome::Departed { .. }));
        assert_eq!(fleet.owner_of(TaskId(9)), None, "no leaked ghost task");
        assert_eq!(fleet.stats().unrouted, 0);
        // If the arrival is rejected everywhere, the deferred departure
        // resolves to an ignore, not a panic or a partition call.
        let hog = IoTask::builder(TaskId(10), DeviceId(0))
            .wcet(Duration::from_micros(9_900))
            .period(Duration::from_millis(10))
            .ideal_offset(Duration::from_micros(100))
            .margin(Duration::from_micros(100))
            .build()
            .unwrap();
        let outs = fleet.apply_batch(&[
            SystemEvent::Arrival(hog),
            SystemEvent::Departure(TaskId(10)),
        ]);
        assert!(matches!(outs[0].outcome, EventOutcome::Rejected { .. }));
        assert!(matches!(outs[1].outcome, EventOutcome::Ignored { .. }));
    }

    #[test]
    fn same_epoch_restart_departs_then_readmits() {
        // The mirrored ordering: Departure then a same-id Arrival in one
        // batch is a task restart, not a duplicate — routing works on
        // the ownership the batch's departures project, so the arrival
        // must admit (as it would with batch size 1).
        let mut fleet = two_partition_fleet(PlacementPolicy::FirstFit);
        let outs = fleet.apply_batch(&[
            SystemEvent::Departure(TaskId(0)),
            SystemEvent::Arrival(mk(0, 0, 8, 400, 2)),
        ]);
        assert!(matches!(outs[0].outcome, EventOutcome::Departed { .. }));
        assert!(matches!(outs[1].outcome, EventOutcome::Admitted { .. }));
        assert_eq!(fleet.owner_of(TaskId(0)), Some(DeviceId(0)));
        assert_eq!(fleet.stats().duplicate_rejects, 0);
        let restarted = fleet
            .partition(DeviceId(0))
            .unwrap()
            .tasks()
            .get(TaskId(0))
            .unwrap();
        assert_eq!(
            restarted.wcet(),
            Duration::from_micros(400),
            "the restart's new parameters are in force"
        );
    }

    #[test]
    fn mode_change_cannot_duplicate_a_migrated_task() {
        // Partition pools remember departed tasks, so a broadcast mode
        // change can try to re-admit an id that has since migrated to
        // another partition. Fleet-wide uniqueness must win.
        let mut fleet = two_partition_fleet(PlacementPolicy::FirstFit);
        fleet.apply(&SystemEvent::Arrival(mk(5, 0, 8, 400, 5)));
        assert_eq!(fleet.owner_of(TaskId(5)), Some(DeviceId(0)));
        fleet.apply(&SystemEvent::Departure(TaskId(5)));
        // Re-arrival with affinity for partition 1: migrates there.
        fleet.apply(&SystemEvent::Arrival(mk(5, 1, 8, 400, 5)));
        assert_eq!(fleet.owner_of(TaskId(5)), Some(DeviceId(1)));
        // Partition 0's stale pool would re-admit task 5 on broadcast;
        // the commit rolls it back so only partition 1 runs it.
        let mode = tagio_core::event::Mode {
            id: tagio_core::ModeId(1),
            active: vec![TaskId(0), TaskId(1), TaskId(5)],
        };
        let _ = fleet.apply(&SystemEvent::ModeChange(mode));
        assert_eq!(fleet.owner_of(TaskId(5)), Some(DeviceId(1)));
        let p0 = fleet.partition(DeviceId(0)).unwrap();
        assert!(
            p0.tasks().get(TaskId(5)).is_none(),
            "no ghost copy of task 5 on partition 0"
        );
        p0.schedule().validate(p0.jobs()).unwrap();
        let p1 = fleet.partition(DeviceId(1)).unwrap();
        assert!(p1.tasks().get(TaskId(5)).is_some());
        p1.schedule().validate(p1.jobs()).unwrap();
    }

    #[test]
    fn departures_route_to_the_owning_partition() {
        let mut fleet = two_partition_fleet(PlacementPolicy::FirstFit);
        let out = fleet.apply(&SystemEvent::Departure(TaskId(1)));
        assert_eq!(out.partition, Some(DeviceId(1)));
        assert!(matches!(out.outcome, EventOutcome::Departed { .. }));
        assert_eq!(fleet.owner_of(TaskId(1)), None);
        // Unknown ids never touch a partition.
        let out = fleet.apply(&SystemEvent::Departure(TaskId(77)));
        assert_eq!(out.partition, None);
        assert_eq!(fleet.stats().unrouted, 1);
    }

    #[test]
    fn rejected_arrival_retries_on_the_next_partition_with_cause_carried() {
        let mut fleet = two_partition_fleet(PlacementPolicy::FirstFit);
        // Overload partition 0 so its effective WCETs triple; an arrival
        // whose scaled parameters no longer validate there is turned
        // away locally but fits partition 1 at nominal load.
        fleet.apply(&SystemEvent::UtilisationSpike {
            device: DeviceId(0),
            percent: 300,
        });
        let fussy = IoTask::builder(TaskId(6), DeviceId(0))
            .wcet(Duration::from_micros(1_000))
            .period(Duration::from_millis(10))
            .ideal_offset(Duration::from_millis(8))
            .margin(Duration::from_millis(1))
            .build()
            .unwrap();
        let out = fleet.apply(&SystemEvent::Arrival(fussy));
        assert_eq!(out.attempts, 2, "first choice rejected, one retry");
        assert_eq!(out.partition, Some(DeviceId(1)));
        assert!(matches!(out.outcome, EventOutcome::Admitted { .. }));
        assert_eq!(fleet.stats().retry_admissions, 1);
        assert_eq!(fleet.stats().migrations, 1);
        assert_eq!(fleet.stats().retries, 1);
    }

    #[test]
    fn exhausted_retries_attribute_the_final_cause() {
        let mut fleet = two_partition_fleet(PlacementPolicy::FirstFit);
        // A hog no partition can hold: every offer fast-rejects on the
        // utilisation gate; the final diagnostic must carry that cause.
        let hog = IoTask::builder(TaskId(8), DeviceId(0))
            .wcet(Duration::from_micros(9_900))
            .period(Duration::from_millis(10))
            .ideal_offset(Duration::from_micros(100))
            .margin(Duration::from_micros(100))
            .build()
            .unwrap();
        let out = fleet.apply(&SystemEvent::Arrival(hog));
        assert_eq!(out.attempts, 2, "first choice plus the default retry");
        match out.outcome {
            EventOutcome::Rejected {
                reason: RejectReason::Infeasible(diag),
                ..
            } => assert_eq!(diag.cause, InfeasibleCause::UtilisationOverload),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            fleet
                .stats()
                .rejects_with_cause(InfeasibleCause::UtilisationOverload),
            1
        );
        assert_eq!(fleet.stats().rejected, 1);
    }

    #[test]
    fn mode_changes_broadcast_and_merge() {
        let mut fleet = two_partition_fleet(PlacementPolicy::FirstFit);
        let mode = tagio_core::event::Mode {
            id: tagio_core::ModeId(1),
            active: vec![TaskId(0), TaskId(42)],
        };
        let out = fleet.apply(&SystemEvent::ModeChange(mode));
        match out.outcome {
            EventOutcome::ModeChanged {
                departed, rejected, ..
            } => {
                assert_eq!(departed, vec![TaskId(1)], "partition 1 drops its task");
                assert_eq!(rejected, vec![TaskId(42)], "unknown id active nowhere");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(fleet.owner_of(TaskId(0)), Some(DeviceId(0)));
        assert_eq!(fleet.owner_of(TaskId(1)), None);
    }

    #[test]
    fn policy_parsing_round_trips() {
        for policy in PlacementPolicy::ALL {
            assert_eq!(policy.as_str().parse::<PlacementPolicy>(), Ok(policy));
        }
        assert!("nope".parse::<PlacementPolicy>().is_err());
    }

    #[test]
    fn empty_fleet_ignores_everything() {
        let mut fleet = FleetScheduler::new([], FleetConfig::default());
        let out = fleet.apply(&SystemEvent::Departure(TaskId(0)));
        assert!(matches!(out.outcome, EventOutcome::Ignored { .. }));
    }

    #[test]
    fn best_fit_packs_the_tighter_partition() {
        // Partition 0 carries more load than partition 1; best fit sends
        // a small arrival to the *fuller* (still fitting) partition.
        let mut bases = BTreeMap::new();
        bases.insert(
            DeviceId(0),
            vec![mk(0, 0, 8, 2_000, 2)].into_iter().collect::<TaskSet>(),
        );
        bases.insert(
            DeviceId(1),
            vec![mk(1, 1, 8, 500, 3)].into_iter().collect::<TaskSet>(),
        );
        let mut fleet = FleetScheduler::bootstrap(
            &bases,
            FleetConfig {
                policy: PlacementPolicy::BestFit,
                threads: 1,
                ..FleetConfig::default()
            },
        );
        let out = fleet.apply(&SystemEvent::Arrival(mk(7, 1, 8, 400, 5)));
        assert_eq!(out.partition, Some(DeviceId(0)), "tightest fit wins");
        assert_eq!(fleet.stats().migrations, 1, "moved off its origin");
    }

    #[test]
    fn partition_death_rehomes_orphans_to_survivors() {
        let mut fleet = two_partition_fleet(PlacementPolicy::FirstFit);
        let out = fleet.apply(&SystemEvent::PartitionDeath {
            device: DeviceId(0),
        });
        assert_eq!(out.partition, Some(DeviceId(0)));
        match out.outcome {
            EventOutcome::PartitionDied {
                device,
                orphans,
                rehomed,
                lost,
            } => {
                assert_eq!(device, DeviceId(0));
                assert_eq!(orphans.len(), 1);
                assert_eq!(orphans[0].id(), TaskId(0));
                assert_eq!(rehomed, vec![(TaskId(0), DeviceId(1))]);
                assert!(lost.is_empty());
            }
            other => panic!("{other:?}"),
        }
        // The orphan now lives on the survivor — and only there.
        assert_eq!(fleet.owner_of(TaskId(0)), Some(DeviceId(1)));
        let p0 = fleet.partition(DeviceId(0)).unwrap();
        assert!(p0.tasks().is_empty(), "dead partition restarted empty");
        let p1 = fleet.partition(DeviceId(1)).unwrap();
        assert!(p1.tasks().get(TaskId(0)).is_some());
        assert!(p1.tasks().get(TaskId(1)).is_some());
        p1.schedule().validate(p1.jobs()).unwrap();
        let stats = fleet.stats();
        assert_eq!(
            (stats.deaths, stats.orphaned, stats.rehomed, stats.lost),
            (1, 1, 1, 0)
        );
        // Failover stays out of the admission-control accounting.
        assert_eq!(stats.arrivals, 0);
        assert_eq!(stats.admitted, 0);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.migrations, 0);
    }

    #[test]
    fn death_in_a_single_partition_fleet_loses_tasks_with_origin() {
        let mut bases = BTreeMap::new();
        bases.insert(
            DeviceId(0),
            vec![mk(0, 0, 8, 500, 2)].into_iter().collect::<TaskSet>(),
        );
        let mut fleet = FleetScheduler::bootstrap(
            &bases,
            FleetConfig {
                threads: 1,
                ..FleetConfig::default()
            },
        );
        let out = fleet.apply(&SystemEvent::PartitionDeath {
            device: DeviceId(0),
        });
        match out.outcome {
            EventOutcome::PartitionDied { rehomed, lost, .. } => {
                assert!(rehomed.is_empty(), "no survivor to rehome onto");
                assert_eq!(lost.len(), 1);
                let (id, reason) = &lost[0];
                assert_eq!(*id, TaskId(0));
                match reason {
                    RejectReason::Infeasible(diag) => {
                        assert_eq!(diag.origin, Some(DeviceId(0)), "diagnostic names the death");
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(fleet.owner_of(TaskId(0)), None);
        assert_eq!(fleet.stats().lost, 1);
        assert_eq!(
            fleet.stats().rejected,
            0,
            "a lost orphan is not a rejected arrival"
        );
    }

    #[test]
    fn death_outside_the_fleet_is_unrouted() {
        let mut fleet = two_partition_fleet(PlacementPolicy::FirstFit);
        let out = fleet.apply(&SystemEvent::PartitionDeath {
            device: DeviceId(9),
        });
        assert_eq!(out.partition, None);
        assert!(matches!(out.outcome, EventOutcome::Ignored { .. }));
        assert_eq!(fleet.stats().unrouted, 1);
        assert_eq!(fleet.stats().deaths, 0);
    }

    #[test]
    fn same_epoch_departure_of_an_orphan_lands_after_rehoming() {
        // Death then departure of an orphaned task, in one batch: the
        // dead partition can no longer see the task, so the departure
        // must follow the orphan to wherever failover rehomes it.
        let mut fleet = two_partition_fleet(PlacementPolicy::FirstFit);
        let outs = fleet.apply_batch(&[
            SystemEvent::PartitionDeath {
                device: DeviceId(0),
            },
            SystemEvent::Departure(TaskId(0)),
        ]);
        assert!(matches!(
            outs[0].outcome,
            EventOutcome::PartitionDied { .. }
        ));
        assert_eq!(
            outs[1].partition,
            Some(DeviceId(1)),
            "landed on the new home"
        );
        assert!(matches!(outs[1].outcome, EventOutcome::Departed { .. }));
        assert_eq!(fleet.owner_of(TaskId(0)), None, "no ghost task anywhere");
        // The mirrored order: a departure *before* the death leaves
        // nothing to orphan.
        let outs = fleet.apply_batch(&[
            SystemEvent::Departure(TaskId(1)),
            SystemEvent::PartitionDeath {
                device: DeviceId(1),
            },
        ]);
        assert!(matches!(outs[0].outcome, EventOutcome::Departed { .. }));
        match &outs[1].outcome {
            EventOutcome::PartitionDied { orphans, .. } => {
                assert!(orphans.is_empty(), "the departed task was not orphaned");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            fleet.stats().orphaned,
            1,
            "only the first death orphaned a task"
        );
    }

    #[test]
    fn rebalance_avoids_partitions_that_reject() {
        let mut fleet = two_partition_fleet(PlacementPolicy::Rebalance);
        // Fill partition 0 to the brim so it fast-rejects a mid-size
        // arrival, teaching the router to avoid it.
        let filler = IoTask::builder(TaskId(20), DeviceId(0))
            .wcet(Duration::from_micros(3_500))
            .period(Duration::from_millis(8))
            .ideal_offset(Duration::from_millis(4))
            .margin(Duration::from_millis(1))
            .build()
            .unwrap();
        assert!(matches!(
            fleet.apply(&SystemEvent::Arrival(filler)).outcome,
            EventOutcome::Admitted { .. }
        ));
        let probe = |id: u32| mk(id, 0, 8, 4_000, 2);
        // First probe: may hit the full partition and migrate via retry.
        let _ = fleet.apply(&SystemEvent::Arrival(probe(21)));
        assert_eq!(fleet.owner_of(TaskId(21)), Some(DeviceId(1)));
    }

    fn mkt(id: u32, device: u32, tenant: u32) -> IoTask {
        IoTask::builder(TaskId(id), DeviceId(device))
            .wcet(Duration::from_micros(500))
            .period(Duration::from_millis(8))
            .ideal_offset(Duration::from_millis(2))
            .margin(Duration::from_millis(1))
            .tenant(TenantId(tenant))
            .build()
            .unwrap()
    }

    fn tenanted_fleet(registry: TenantRegistry) -> FleetScheduler {
        let mut bases = BTreeMap::new();
        bases.insert(DeviceId(0), TaskSet::default());
        bases.insert(DeviceId(1), TaskSet::default());
        FleetScheduler::bootstrap(
            &bases,
            FleetConfig {
                threads: 1,
                tenants: registry,
                ..FleetConfig::default()
            },
        )
    }

    #[test]
    fn best_effort_over_quota_is_gated_at_the_router() {
        // mkt's 500us/8ms arrival costs 62_500 ppm; a 50_000 ppm quota
        // caps tenant 1 at zero such tasks.
        let mut registry = TenantRegistry::new();
        registry.register(TenantId(1), TenantSpec::best_effort(50_000));
        registry.register(TenantId(2), TenantSpec::guaranteed(PPM));
        let mut fleet = tenanted_fleet(registry);

        let out = fleet.apply(&SystemEvent::Arrival(mkt(10, 0, 1)));
        assert_eq!(out.partition, None, "gated before any partition");
        assert_eq!(out.attempts, 0);
        assert!(matches!(
            out.outcome,
            EventOutcome::Rejected {
                reason: RejectReason::Infeasible(_),
                ..
            }
        ));
        assert_eq!(fleet.owner_of(TaskId(10)), None);
        let c = &fleet.stats().tenants[&TenantId(1)];
        assert_eq!((c.arrivals, c.admitted, c.rejected), (1, 0, 1));

        // A guaranteed tenant sails through the same router.
        let out = fleet.apply(&SystemEvent::Arrival(mkt(11, 0, 2)));
        assert!(matches!(out.outcome, EventOutcome::Admitted { .. }));
        let c = &fleet.stats().tenants[&TenantId(2)];
        assert_eq!((c.arrivals, c.admitted, c.rejected), (1, 1, 0));
        assert_eq!(fleet.stats().arrivals, 2);
        assert_eq!(fleet.stats().rejected, 1);
    }

    #[test]
    fn guaranteed_tenants_are_never_router_gated() {
        // Even a zero quota does not gate a guaranteed tenant at the
        // router: quotas demote its shed rank under overload instead
        // (partition-side), so admission stays partition-decided.
        let mut registry = TenantRegistry::new();
        registry.register(TenantId(1), TenantSpec::guaranteed(0));
        let mut fleet = tenanted_fleet(registry);
        let out = fleet.apply(&SystemEvent::Arrival(mkt(10, 1, 1)));
        assert_eq!(out.partition, Some(DeviceId(1)), "a partition decided");
        assert!(matches!(out.outcome, EventOutcome::Admitted { .. }));
    }

    #[test]
    fn anonymous_traffic_stays_unaccounted() {
        let mut fleet = two_partition_fleet(PlacementPolicy::FirstFit);
        let out = fleet.apply(&SystemEvent::Arrival(mk(5, 0, 8, 500, 5)));
        assert!(matches!(out.outcome, EventOutcome::Admitted { .. }));
        assert!(
            fleet.stats().tenants.is_empty(),
            "anonymous arrivals leave the per-tenant map untouched"
        );
        assert!(fleet.ledger().is_empty(), "no deficit state accrues");
    }

    #[test]
    fn tenant_counters_merge_across_stats() {
        let mut a = FleetStats::default();
        a.tenants.insert(
            TenantId(1),
            TenantCounters {
                arrivals: 3,
                admitted: 2,
                rejected: 1,
                shed: 0,
            },
        );
        let mut b = FleetStats::default();
        b.tenants.insert(
            TenantId(1),
            TenantCounters {
                arrivals: 1,
                admitted: 0,
                rejected: 1,
                shed: 2,
            },
        );
        b.tenants.insert(TenantId(2), TenantCounters::default());
        a.merge(&b);
        let one = &a.tenants[&TenantId(1)];
        assert_eq!(
            (one.arrivals, one.admitted, one.rejected, one.shed),
            (4, 2, 2, 2)
        );
        assert!(a.tenants.contains_key(&TenantId(2)));
    }
}
