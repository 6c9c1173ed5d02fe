//! # tagio-online
//!
//! The **online scheduling service**: everything else in the workspace is
//! offline and one-shot (synthesise a schedule, replay it forever), while
//! this crate keeps a schedule *alive* against a stream of
//! [`SystemEvent`](tagio_core::event::SystemEvent)s — task arrivals and
//! departures, operating-mode changes and utilisation spikes.
//!
//! Three mechanisms, layered per event:
//!
//! 1. **Admission control** ([`service::OnlineScheduler`]) — a fast
//!    schedulability pre-check built on cached per-task response-time
//!    analysis ([`tagio_sched::AnalysisCache`], invalidated
//!    incrementally), plus a trivial utilisation gate, so hopeless
//!    arrivals are rejected without touching the schedule.
//! 2. **Incremental schedule repair**, one run of the construction
//!    ladder ([`tagio_sched::heuristic::repair::ladder_in`]) per event —
//!    undisturbed jobs keep their validated placements; only the
//!    disturbed neighbourhood goes back through LCC-D slot allocation,
//!    falling back to a full Algorithm 1 re-synthesis (and, when the
//!    cached analysis signals feasibility, to a non-preemptive FPS
//!    schedule) when repair fails.
//! 3. **Overload shedding** — when a utilisation spike makes the set
//!    infeasible, active tasks are dropped in *quality order* (smallest
//!    peak quality `Vmax` first) until a feasible schedule exists again.
//!
//! [`fleet`] scales the single-partition service to a **multi-partition
//! fleet**: a [`FleetScheduler`] routes
//! [`SystemEvent`](tagio_core::event::SystemEvent)s to N per-device
//! partitions via a pluggable placement policy (first-fit affinity,
//! best-fit-by-headroom, rejection-aware rebalance), batches events per
//! epoch, evaluates the disjoint partition lanes in parallel, and
//! re-offers rejected arrivals to the next-best partitions with the
//! [`Infeasible`](tagio_core::solve::Infeasible) diagnostics carried
//! forward — bit-deterministic for any thread count.
//!
//! [`scenario`] generates seeded, reproducible event traces so the
//! service can be regression tested and benchmarked — the
//! `online_scenarios` experiment binary in `tagio-bench` sweeps arrival
//! rates and compares incremental repair against always-resynthesising
//! from scratch, and `fleet_scenarios` sweeps partition count × arrival
//! rate × placement policy against a single partition at equal
//! aggregate load.
//!
//! [`codec`] is the line dialect those traces, the WAL and the snapshot
//! share: event bodies, one line reader, one [`LineError`], and the
//! counter tables of [`OnlineStats`], [`FleetStats`] and
//! [`TenantCounters`].
//!
//! [`persist`] and [`wal`] make the fleet **crash-consistent**: a
//! versioned [`FleetSnapshot`] checkpoints every partition at an epoch
//! boundary, a write-ahead log ([`wal::WalSink`] / [`wal::WalSource`])
//! journals each routed batch with per-partition commit digests, and
//! [`FleetScheduler::recover`] replays the suffix deterministically —
//! reconstructing bit-identical schedules and stats, with divergence
//! pinned to the epoch that caused it. [`SystemEvent::PartitionDeath`]
//! (`@N death d<id>` in traces) kills a partition mid-stream; the fleet
//! re-admits its tasks on the surviving partitions and diagnoses the
//! rest, and the `failover_scenarios` experiment binary sweeps death
//! rate × partition count.
//!
//! [`tenant`] adds the **multi-tenant service tier** on top: arrivals
//! carry a [`TenantId`] (`tn=` in traces; anonymous traffic stays
//! untagged and unaccounted), a [`TenantRegistry`] maps tenants to
//! utilisation quotas and QoS classes
//! ([`Guaranteed`](tenant::QosClass::Guaranteed) /
//! [`BestEffort`](tenant::QosClass::BestEffort)), saturated partitions
//! shed best-effort and over-quota work before under-quota guaranteed
//! work, and the fleet router applies a hard best-effort quota gate plus
//! deficit-weighted fair admission when aggregate demand exceeds
//! capacity — so one tenant's overload cannot reduce another tenant's
//! under-quota guaranteed acceptance (pinned bit-exactly by the
//! `tenant_isolation` suite, and swept by the `tenant_scenarios`
//! experiment binary).
//!
//! [`SystemEvent::PartitionDeath`]: tagio_core::event::SystemEvent::PartitionDeath
//!
//! ```
//! use tagio_core::event::SystemEvent;
//! use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
//! use tagio_core::time::Duration;
//! use tagio_online::service::{EventOutcome, OnlineScheduler};
//!
//! let mk = |id: u32, delta_ms: u64| {
//!     IoTask::builder(TaskId(id), DeviceId(0))
//!         .wcet(Duration::from_micros(500))
//!         .period(Duration::from_millis(10))
//!         .ideal_offset(Duration::from_millis(delta_ms))
//!         .margin(Duration::from_millis(2))
//!         .build()
//!         .unwrap()
//! };
//! let base: TaskSet = vec![mk(0, 3)].into_iter().collect();
//! let mut svc = OnlineScheduler::bootstrap(DeviceId(0), base).unwrap();
//! assert_eq!(svc.psi(), 1.0);
//!
//! match svc.apply(&SystemEvent::Arrival(mk(1, 6))) {
//!     EventOutcome::Admitted { resynthesized, .. } => assert!(!resynthesized),
//!     other => panic!("expected admission, got {other:?}"),
//! }
//! assert_eq!(svc.tasks().len(), 2);
//! assert_eq!(svc.psi(), 1.0); // repair placed the newcomer at its ideal
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
#[cfg(feature = "debug-audit")]
pub mod commit_audit;
pub mod fleet;
pub mod persist;
pub mod scenario;
pub mod service;
pub mod tenant;
pub mod wal;

pub use codec::LineError;
pub use fleet::{FleetConfig, FleetOutcome, FleetScheduler, FleetStats, PlacementPolicy};
pub use persist::{FleetSnapshot, PartitionSnapshot, RecoveryReport};
pub use scenario::{
    ConfigError, FleetReplayOutcome, FleetScenario, FleetScenarioConfig,
    FleetScenarioConfigBuilder, ReplayOutcome, Scenario, ScenarioConfig, TenantReplay,
};
pub use service::{EventOutcome, OnlineScheduler, OnlineStats, RejectReason, RepairStrategy};
pub use tenant::{QosClass, TenantCounters, TenantId, TenantLedger, TenantRegistry, TenantSpec};
pub use wal::{EpochRecord, FileWal, MemoryWal, WalContents, WalSink, WalSource};
