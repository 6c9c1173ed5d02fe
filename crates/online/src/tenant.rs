//! The multi-tenant service tier: per-tenant quotas, QoS classes, and
//! deficit-weighted fair admission state.
//!
//! Today's clients of the online service are anonymous event streams;
//! nothing stops one hot client from starving everyone else. This module
//! adds the tenant model on top: every [`IoTask`] carries a
//! [`TenantId`] (`tn=` in traces; tenant `0` is the anonymous legacy
//! tenant and stays unaccounted), a [`TenantRegistry`] maps tenants onto
//! utilisation quotas and [`QosClass`]es, and a [`TenantLedger`] holds
//! the router's deficit-round-robin state when aggregate demand exceeds
//! capacity.
//!
//! Three enforcement points consume this state:
//!
//! 1. **Router admission** (`fleet::FleetScheduler::apply_batch`
//!    staging): a best-effort arrival whose tenant is at quota is
//!    rejected before it is routed (it never touches partition state or
//!    the routing RNG — the isolation property depends on this), and
//!    when an epoch's aggregate demand exceeds the fleet's headroom the
//!    remaining best-effort arrivals are admitted in deficit-weighted
//!    order.
//! 2. **Partition shedding** (`service::OnlineScheduler` spikes): a
//!    saturated partition sheds best-effort work first, then over-quota
//!    guaranteed work, and touches under-quota guaranteed work only when
//!    nothing else is left (a guaranteed-quota overcommit, which the
//!    fleet-level quota maths never produces).
//! 3. **Accounting**: per-tenant admitted/rejected/shed counters ride in
//!    `OnlineStats`/`FleetStats` ([`TenantCounters`]) and surface
//!    through the `Metrics` emission API and the `tenant_scenarios`
//!    experiment binary.
//!
//! Quotas and utilisations are held in integer **parts-per-million** so
//! every comparison (and therefore every admission decision) is exact
//! and bit-reproducible; `1_000_000` is one partition's worth of
//! utilisation.

use crate::codec::{add_counters, counters, Counter};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tagio_core::task::IoTask;
pub use tagio_core::task::TenantId;

/// One part-per-million resolution for quotas and utilisation shares;
/// [`PPM`] is a full partition's utilisation.
pub const PPM: u64 = 1_000_000;

/// Deficit granted to a best-effort tenant per saturated epoch, per unit
/// of weight (in utilisation ppm). One quantum admits roughly one
/// typical scenario arrival (mean utilisation ≈ 5–7%).
pub const DEFICIT_QUANTUM_PPM: u64 = 60_000;

/// A tenant's deficit is capped at this many quanta (times its weight),
/// so an idle tenant cannot bank unbounded credit and then monopolise a
/// saturated epoch.
pub const DEFICIT_CAP_QUANTA: u64 = 4;

/// A task's utilisation in integer parts-per-million (floor division:
/// exact, deterministic, and platform-independent).
#[must_use]
pub fn utilisation_ppm(task: &IoTask) -> u64 {
    task.wcet().as_micros() * PPM / task.period().as_micros().max(1)
}

/// The service class a tenant's work is admitted and shed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum QosClass {
    /// Work inside the tenant's quota is protected: it is never shed
    /// while any best-effort or over-quota work remains, and the router
    /// never deficit-gates it.
    Guaranteed,
    /// Opportunistic work: admitted through the deficit-weighted fair
    /// share when the fleet saturates, and the first to be shed.
    BestEffort,
}

impl QosClass {
    /// The kebab-case name used by traces, snapshots and reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            QosClass::Guaranteed => "guaranteed",
            QosClass::BestEffort => "best-effort",
        }
    }
}

impl core::fmt::Display for QosClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl core::str::FromStr for QosClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "guaranteed" => Ok(QosClass::Guaranteed),
            "best-effort" => Ok(QosClass::BestEffort),
            other => Err(format!("unknown QoS class `{other}`")),
        }
    }
}

/// A tenant's service contract: QoS class, utilisation quota, and fair
/// admission weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// The tenant's service class.
    pub qos: QosClass,
    /// Utilisation quota in parts-per-million ([`PPM`] = one full
    /// partition). For a guaranteed tenant this is the protected share;
    /// for a best-effort tenant it is a hard fleet-wide admission cap.
    pub quota_ppm: u64,
    /// Relative weight in deficit-weighted fair admission (must be at
    /// least 1 to ever accrue deficit).
    pub weight: u32,
}

impl Default for TenantSpec {
    /// The contract unknown (and anonymous) tenants run under: a full
    /// partition of guaranteed quota at unit weight — exactly the
    /// pre-tenant system's behaviour.
    fn default() -> Self {
        TenantSpec {
            qos: QosClass::Guaranteed,
            quota_ppm: PPM,
            weight: 1,
        }
    }
}

impl TenantSpec {
    /// A guaranteed-class spec with `quota_ppm` protected utilisation.
    #[must_use]
    pub fn guaranteed(quota_ppm: u64) -> TenantSpec {
        TenantSpec {
            qos: QosClass::Guaranteed,
            quota_ppm,
            weight: 1,
        }
    }

    /// A best-effort spec capped at `quota_ppm` fleet-wide utilisation.
    #[must_use]
    pub fn best_effort(quota_ppm: u64) -> TenantSpec {
        TenantSpec {
            qos: QosClass::BestEffort,
            quota_ppm,
            weight: 1,
        }
    }

    /// The same spec with a different fair-admission weight.
    #[must_use]
    pub fn with_weight(mut self, weight: u32) -> TenantSpec {
        self.weight = weight;
        self
    }
}

/// The fleet's tenant contracts, by id.
///
/// An **empty registry is trivial**: every tenant (including the
/// anonymous one) resolves to [`TenantSpec::default`], no router gate or
/// shed re-ranking engages, and the system is bit-identical to the
/// pre-tenant one — which is how untenanted traces, goldens and v1
/// snapshots keep replaying unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantRegistry {
    specs: BTreeMap<TenantId, TenantSpec>,
}

impl TenantRegistry {
    /// An empty (trivial) registry.
    #[must_use]
    pub fn new() -> TenantRegistry {
        TenantRegistry::default()
    }

    /// Registers (or replaces) `tenant`'s contract.
    pub fn register(&mut self, tenant: TenantId, spec: TenantSpec) {
        self.specs.insert(tenant, spec);
    }

    /// The contract `tenant` runs under ([`TenantSpec::default`] when
    /// unregistered).
    #[must_use]
    pub fn spec(&self, tenant: TenantId) -> TenantSpec {
        self.specs.get(&tenant).copied().unwrap_or_default()
    }

    /// Whether the registry holds no contracts at all — the fast path
    /// that keeps untenanted fleets byte-identical to the pre-tenant
    /// system.
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.specs.is_empty()
    }

    /// Registered contracts in tenant order.
    pub fn iter(&self) -> impl Iterator<Item = (TenantId, TenantSpec)> + '_ {
        self.specs.iter().map(|(&id, &spec)| (id, spec))
    }

    /// Number of registered contracts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the registry is empty (same as [`Self::is_trivial`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// The victim class shedding drains first. Smaller sheds earlier; ties
/// within a rank fall back to the existing quality order (smallest
/// `Vmax` first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShedRank {
    /// Best-effort work: always the first to go.
    BestEffort = 0,
    /// Guaranteed work beyond its tenant's quota.
    GuaranteedOverQuota = 1,
    /// Guaranteed work within quota — shed only when nothing else is
    /// left (guaranteed overcommit).
    GuaranteedUnderQuota = 2,
}

/// Ranks one task for shedding, given its tenant's current active
/// utilisation share (`usage_ppm`, *including* the task itself).
#[must_use]
pub fn shed_rank(registry: &TenantRegistry, task: &IoTask, usage_ppm: u64) -> ShedRank {
    let spec = registry.spec(task.tenant());
    match spec.qos {
        QosClass::BestEffort => ShedRank::BestEffort,
        QosClass::Guaranteed if usage_ppm > spec.quota_ppm => ShedRank::GuaranteedOverQuota,
        QosClass::Guaranteed => ShedRank::GuaranteedUnderQuota,
    }
}

/// Per-tenant decision counters. Only non-anonymous tenants are
/// accounted, so untenanted runs keep these maps empty (and their stats
/// digests, snapshots and metric sets unchanged).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantCounters {
    /// Arrivals offered for this tenant (router-level: fleet-unique).
    pub arrivals: usize,
    /// Arrivals admitted (finally, after any retries).
    pub admitted: usize,
    /// Arrivals rejected (router quota/fair gate or final partition
    /// verdict).
    pub rejected: usize,
    /// Active tasks shed from a partition to survive overload.
    pub shed: usize,
}

impl TenantCounters {
    /// Folds `other` into `self` (plain sums).
    pub fn merge(&mut self, other: &TenantCounters) {
        add_counters(&Self::COUNTERS, self, other);
    }

    /// The counters in `ftenant`/`ptenant` and stats-digest order, the
    /// one list `merge`, those lines and the digest iterate.
    pub(crate) const COUNTERS: [Counter<TenantCounters>; 4] =
        counters![arrivals, admitted, rejected, shed];
}

/// The router's deficit-round-robin state: banked admission credit per
/// best-effort tenant, in utilisation ppm.
///
/// The ledger only changes during sequential epoch staging, so it is
/// deterministic for any pool width; it is persisted in snapshot format
/// v2 (`deficit` lines) because future admission decisions depend on it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantLedger {
    deficits: BTreeMap<TenantId, u64>,
}

impl TenantLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> TenantLedger {
        TenantLedger::default()
    }

    /// Accrues one saturated-epoch quantum for `tenant` at `weight`,
    /// capped at [`DEFICIT_CAP_QUANTA`] quanta of banked credit.
    pub fn accrue(&mut self, tenant: TenantId, weight: u32) {
        let grant = u64::from(weight) * DEFICIT_QUANTUM_PPM;
        let cap = grant * DEFICIT_CAP_QUANTA;
        self.set_deficit(tenant, (self.deficit(tenant) + grant).min(cap));
    }

    /// Spends `cost_ppm` of `tenant`'s credit if enough is banked;
    /// returns whether the spend (and thus the admission) went through.
    pub fn try_spend(&mut self, tenant: TenantId, cost_ppm: u64) -> bool {
        let banked = self.deficit(tenant);
        if banked < cost_ppm {
            return false;
        }
        self.set_deficit(tenant, banked - cost_ppm);
        true
    }

    /// The banked credit for `tenant` (0 when never accrued).
    #[must_use]
    pub fn deficit(&self, tenant: TenantId) -> u64 {
        self.deficits.get(&tenant).copied().unwrap_or(0)
    }

    /// Sets `tenant`'s banked credit verbatim (snapshot restore). Every
    /// write goes through here, so a zero balance is never stored.
    pub fn set_deficit(&mut self, tenant: TenantId, deficit_ppm: u64) {
        if deficit_ppm == 0 {
            self.deficits.remove(&tenant);
        } else {
            self.deficits.insert(tenant, deficit_ppm);
        }
    }

    /// Banked credits in tenant order (zero entries are not stored).
    pub fn iter(&self) -> impl Iterator<Item = (TenantId, u64)> + '_ {
        self.deficits.iter().map(|(&id, &d)| (id, d))
    }

    /// Whether no tenant has banked credit.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.deficits.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagio_core::task::{DeviceId, TaskId};
    use tagio_core::time::Duration;

    fn task(id: u32, tenant: u32, wcet_us: u64, period_ms: u64) -> IoTask {
        IoTask::builder(TaskId(id), DeviceId(0))
            .wcet(Duration::from_micros(wcet_us))
            .period(Duration::from_millis(period_ms))
            .ideal_offset(Duration::from_millis(period_ms / 2))
            .margin(Duration::from_millis(period_ms / 4))
            .tenant(TenantId(tenant))
            .build()
            .unwrap()
    }

    #[test]
    fn utilisation_ppm_is_exact_integer_arithmetic() {
        // 500 µs / 8000 µs = 62_500 ppm, exactly.
        assert_eq!(utilisation_ppm(&task(0, 0, 500, 8)), 62_500);
        // 1/3 utilisation floors: 1000/3000 -> 333_333 ppm.
        assert_eq!(utilisation_ppm(&task(1, 0, 1000, 3)), 333_333);
    }

    #[test]
    fn trivial_registry_hands_out_the_legacy_contract() {
        let reg = TenantRegistry::new();
        assert!(reg.is_trivial());
        let spec = reg.spec(TenantId(42));
        assert_eq!(spec.qos, QosClass::Guaranteed);
        assert_eq!(spec.quota_ppm, PPM);
        assert_eq!(spec.weight, 1);
    }

    #[test]
    fn qos_names_round_trip() {
        for qos in [QosClass::Guaranteed, QosClass::BestEffort] {
            assert_eq!(qos.as_str().parse::<QosClass>().unwrap(), qos);
        }
        assert!("premium".parse::<QosClass>().is_err());
    }

    #[test]
    fn shed_ranks_order_best_effort_then_over_quota_then_protected() {
        let mut reg = TenantRegistry::new();
        reg.register(TenantId(1), TenantSpec::guaranteed(200_000));
        reg.register(TenantId(2), TenantSpec::best_effort(500_000));
        let g = task(0, 1, 500, 8); // 62_500 ppm
        let be = task(1, 2, 500, 8);
        assert_eq!(shed_rank(&reg, &be, 62_500), ShedRank::BestEffort);
        assert_eq!(shed_rank(&reg, &g, 62_500), ShedRank::GuaranteedUnderQuota);
        assert_eq!(shed_rank(&reg, &g, 250_000), ShedRank::GuaranteedOverQuota);
        assert!(ShedRank::BestEffort < ShedRank::GuaranteedOverQuota);
        assert!(ShedRank::GuaranteedOverQuota < ShedRank::GuaranteedUnderQuota);
    }

    #[test]
    fn ledger_accrues_spends_and_caps() {
        let mut ledger = TenantLedger::new();
        let t = TenantId(3);
        ledger.accrue(t, 1);
        assert_eq!(ledger.deficit(t), DEFICIT_QUANTUM_PPM);
        assert!(ledger.try_spend(t, DEFICIT_QUANTUM_PPM / 2));
        assert!(!ledger.try_spend(t, DEFICIT_QUANTUM_PPM));
        // The cap: endless idle accrual cannot bank unbounded credit.
        for _ in 0..100 {
            ledger.accrue(t, 2);
        }
        assert_eq!(
            ledger.deficit(t),
            2 * DEFICIT_QUANTUM_PPM * DEFICIT_CAP_QUANTA
        );
        // Weight scales the grant.
        ledger.accrue(TenantId(4), 3);
        assert_eq!(ledger.deficit(TenantId(4)), 3 * DEFICIT_QUANTUM_PPM);
    }

    #[test]
    fn ledger_never_stores_a_zero_balance() {
        let mut ledger = TenantLedger::new();
        ledger.accrue(TenantId(1), 1);
        // Spent to zero, accrued at weight 0, a failed spend from nothing.
        assert!(ledger.try_spend(TenantId(1), DEFICIT_QUANTUM_PPM));
        ledger.accrue(TenantId(2), 0);
        assert!(!ledger.try_spend(TenantId(3), 1));
        assert!(ledger.is_empty(), "{:?}", ledger.iter().collect::<Vec<_>>());
    }

    #[test]
    fn ledger_round_trips_through_set_deficit() {
        let mut ledger = TenantLedger::new();
        ledger.set_deficit(TenantId(1), 123);
        ledger.set_deficit(TenantId(2), 0); // zero entries are not stored
        assert_eq!(ledger.iter().collect::<Vec<_>>(), vec![(TenantId(1), 123)]);
        let mut rebuilt = TenantLedger::new();
        for (t, d) in ledger.iter() {
            rebuilt.set_deficit(t, d);
        }
        assert_eq!(rebuilt, ledger);
    }
}
