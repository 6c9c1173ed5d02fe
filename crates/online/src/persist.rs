//! Crash-consistent fleet state: versioned snapshots, WAL replay and
//! digest-checked recovery.
//!
//! A [`FleetSnapshot`] captures everything a
//! [`FleetScheduler`] needs to resume bit-identically: the config, the
//! routing RNG's raw state, the fleet counters, the ownership map, the
//! rebalance counters, and — per partition — the active set at
//! effective WCETs, the nominal re-admission pool, the spike level, the
//! exact live schedule and the decision counters. Derived state
//! (expanded jobs, cached Ψ/Υ, the analysis cache, repair scratch) is
//! deliberately *not* stored: it is rebuilt on load, and cold-vs-warm
//! cache equivalence means decisions are unchanged.
//!
//! [`FleetScheduler::recover`] composes a snapshot with the suffix of a
//! [`WalContents`] log: epochs recorded after the snapshot are replayed
//! through the ordinary [`FleetScheduler::apply_batch`] pipeline, and
//! after each one the per-partition schedule/stats digests are compared
//! against the record's commit line — divergence is reported at the
//! epoch that caused it. The digests cover only deterministic state:
//! [`OnlineStats`] wall-clock durations vary run to run and are
//! excluded by construction.
//!
//! The snapshot text format is versioned (`tagio-fleet-snapshot v1`
//! header line) and line-based, sharing its task encoding with the
//! scenario trace dialect; `EXPERIMENTS.md` documents both formats.
//!
//! **Format v2** extends v1 with the tenant tier: `tenant` lines carry
//! the registry's contracts, `deficit` lines the router's banked fair-
//! admission credit, and `ftenant`/`ptenant` lines the per-tenant
//! counters at fleet and partition level. A fleet with *no* tenant state
//! still writes byte-exact v1 — pre-tenant snapshots, digests and
//! recovery flows are untouched — and the parser speaks both versions.
//!
//! Two `config` line tokens are **retired**: they select nothing, and
//! writers emit them fixed, so snapshots and their digests stay
//! byte-identical.
//!
//! * `lean=<bool>` is written as `lean=true`. The parser accepts either
//!   value and ignores it, so snapshots that recorded `lean=false` still
//!   load.
//! * `strategy=<name>` is written as `strategy=incremental`, the only
//!   repair strategy a fleet partition runs. The parser rejects any other
//!   value with an `unsupported repair strategy` error: restoring such a
//!   snapshot as incremental would replay different decisions.

use crate::fleet::{FleetConfig, FleetScheduler, FleetStats, PlacementPolicy};
use crate::scenario::{format_event_body, kv, parse_event_body, tagged};
use crate::service::{OnlineScheduler, OnlineStats};
use crate::tenant::{QosClass, TenantCounters, TenantId, TenantLedger, TenantRegistry, TenantSpec};
use crate::wal::{EpochRecord, WalContents};
use std::collections::BTreeMap;
use tagio_core::event::SystemEvent;
use tagio_core::job::JobId;
use tagio_core::schedule::{Schedule, ScheduleEntry};
use tagio_core::solve::InfeasibleCause;
use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
use tagio_core::time::{Duration, Time};

/// The snapshot format's magic + version header line. Bump the version
/// when the line grammar changes; [`FleetSnapshot::parse`] rejects
/// anything it does not speak.
pub const SNAPSHOT_HEADER: &str = "tagio-fleet-snapshot v1";

/// The v2 header: v1 plus the tenant-tier verbs (`tenant`, `deficit`,
/// `ftenant`, `ptenant`). Only written when the fleet actually holds
/// tenant state, so untenanted snapshots stay byte-exact v1.
pub const SNAPSHOT_HEADER_V2: &str = "tagio-fleet-snapshot v2";

// ---------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------

/// 64-bit FNV-1a, hand-rolled so digests are stable across platforms
/// and independent of `std`'s unspecified hasher.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }
}

/// Digest of a live schedule: every entry's job id, start and duration,
/// in the schedule's canonical `(start, job)` order. Two schedules
/// digest equal iff they are bit-identical placements.
#[must_use]
pub fn schedule_digest(schedule: &Schedule) -> u64 {
    let mut h = Fnv::new();
    for e in schedule.iter() {
        h.write_u64(u64::from(e.job.task.0));
        h.write_u64(u64::from(e.job.index));
        h.write_u64(e.start.as_micros());
        h.write_u64(e.duration.as_micros());
    }
    h.0
}

/// Digest of a partition's *deterministic* decision counters. The
/// wall-clock fields ([`OnlineStats::repair_time`] /
/// [`OnlineStats::admission_time`]) vary run to run and are excluded;
/// their event counts (which are decisions, not clocks) are covered.
#[must_use]
pub fn stats_digest(stats: &OnlineStats) -> u64 {
    let mut h = Fnv::new();
    for v in [
        stats.arrivals,
        stats.admitted,
        stats.rejected,
        stats.fast_rejects,
        stats.shed_overload,
        stats.shed_infeasible,
        stats.departures,
        stats.repairs,
        stats.resyntheses,
        stats.fps_fallbacks,
        stats.shed,
        stats.spikes,
        stats.mode_changes,
        stats.ignored,
        stats.repair_events,
        stats.admission_events,
    ] {
        h.write_u64(v as u64);
    }
    for (&cause, &count) in &stats.reject_causes {
        h.write_bytes(cause.as_str().as_bytes());
        h.write_u64(count as u64);
    }
    // Tenant counters fold in only when present, so untenanted runs
    // keep their pre-tenant digests (and old WALs keep verifying).
    for (&tenant, c) in &stats.tenants {
        h.write_u64(u64::from(tenant.0));
        for v in [c.arrivals, c.admitted, c.rejected, c.shed] {
            h.write_u64(v as u64);
        }
    }
    h.0
}

// ---------------------------------------------------------------------
// Snapshot model
// ---------------------------------------------------------------------

/// One partition's persisted state.
#[derive(Debug, Clone)]
pub struct PartitionSnapshot {
    /// The partition's device.
    pub device: DeviceId,
    /// Current WCET scale (percent of nominal).
    pub spike_percent: u32,
    /// The active set at effective (spike-scaled) WCETs.
    pub active: Vec<IoTask>,
    /// The nominal re-admission pool (every task ever admitted).
    pub pool: Vec<IoTask>,
    /// The live schedule's entries.
    pub entries: Vec<ScheduleEntry>,
    /// Decision counters (durations persisted as microseconds).
    pub stats: OnlineStats,
}

/// A versioned, self-contained checkpoint of a whole fleet at an epoch
/// boundary.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    /// The epoch this snapshot closes
    /// (= [`FleetStats::epochs`] at capture).
    pub epoch: usize,
    /// The fleet configuration.
    pub config: FleetConfig,
    /// The routing RNG's raw xoshiro256++ state.
    pub rng_state: [u64; 4],
    /// Fleet-level counters.
    pub stats: FleetStats,
    /// Task ownership, by device (the snapshot does not assume
    /// partition indices).
    pub owner: BTreeMap<TaskId, DeviceId>,
    /// Per-partition overload-rejection counts (they drive
    /// [`PlacementPolicy::Rebalance`], so they must survive).
    pub overload: BTreeMap<DeviceId, usize>,
    /// The router's banked deficit credit per best-effort tenant
    /// (format v2; empty for v1 snapshots). Future admission decisions
    /// depend on it, so it must survive a crash.
    pub ledger: TenantLedger,
    /// The partitions, in device-id order.
    pub partitions: Vec<PartitionSnapshot>,
}

/// A malformed snapshot text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// 1-based line of the defect (`0` = structural, e.g. truncation).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.line == 0 {
            write!(f, "snapshot error: {}", self.message)
        } else {
            write!(f, "snapshot line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for SnapshotError {}

impl FleetSnapshot {
    /// Rebuilds a live fleet. Derived state (jobs, Ψ/Υ, caches) is
    /// recomputed; every partition's schedule is re-validated against
    /// its re-expanded jobs, so a corrupt snapshot fails here instead
    /// of corrupting later decisions.
    ///
    /// # Errors
    /// Returns a message naming the defect (invalid schedule, unknown
    /// owner device, unsorted partitions).
    pub fn restore(&self) -> Result<FleetScheduler, String> {
        let sorted = self
            .partitions
            .windows(2)
            .all(|w| w[0].device < w[1].device);
        if !sorted {
            return Err("snapshot partitions not in strict device order".into());
        }
        let devices: Vec<DeviceId> = self.partitions.iter().map(|p| p.device).collect();
        let index_of = |device: DeviceId| devices.binary_search(&device);
        let mut partitions = Vec::with_capacity(self.partitions.len());
        for p in &self.partitions {
            let svc = OnlineScheduler::restore(
                p.device,
                p.active.iter().cloned().collect::<TaskSet>(),
                p.pool.iter().map(|t| (t.id(), t.clone())).collect(),
                p.spike_percent,
                p.entries.iter().cloned().collect::<Schedule>(),
                p.stats.clone(),
            )?;
            partitions.push(svc);
        }
        let mut owner = BTreeMap::new();
        for (&id, &device) in &self.owner {
            let ix = index_of(device)
                .map_err(|_| format!("owner {id} names unknown partition {device}"))?;
            owner.insert(id, ix);
        }
        let overload: Vec<usize> = devices
            .iter()
            .map(|d| self.overload.get(d).copied().unwrap_or(0))
            .collect();
        Ok(FleetScheduler::from_parts(
            self.config.clone(),
            partitions,
            owner,
            overload,
            self.rng_state,
            self.stats.clone(),
            self.ledger.clone(),
        ))
    }

    /// Whether this snapshot holds any tenant-tier state — the
    /// condition under which [`FleetSnapshot::write`] emits format v2
    /// instead of byte-exact v1.
    #[must_use]
    pub fn has_tenant_state(&self) -> bool {
        !self.config.tenants.is_trivial()
            || !self.ledger.is_empty()
            || !self.stats.tenants.is_empty()
            || self.partitions.iter().any(|p| !p.stats.tenants.is_empty())
    }

    /// Renders the snapshot in the versioned text format.
    #[must_use]
    pub fn write(&self) -> String {
        let v2 = self.has_tenant_state();
        let mut out = String::new();
        out.push_str(if v2 {
            SNAPSHOT_HEADER_V2
        } else {
            SNAPSHOT_HEADER
        });
        out.push('\n');
        out.push_str(&format!("epoch {}\n", self.epoch));
        out.push_str(&format!(
            "config policy={} retries={} threads={} seed={} strategy=incremental lean=true\n",
            self.config.policy.as_str(),
            self.config.retries,
            self.config.threads,
            self.config.seed,
        ));
        for (tenant, spec) in self.config.tenants.iter() {
            out.push_str(&format!(
                "tenant {tenant} qos={} quota={} weight={}\n",
                spec.qos.as_str(),
                spec.quota_ppm,
                spec.weight,
            ));
        }
        for (tenant, deficit) in self.ledger.iter() {
            out.push_str(&format!("deficit {tenant} {deficit}\n"));
        }
        let [a, b, c, d] = self.rng_state;
        out.push_str(&format!("rng {a} {b} {c} {d}\n"));
        let s = &self.stats;
        out.push_str(&format!(
            "fstats epochs={} events={} arrivals={} admitted={} rejected={} \
             duplicate_rejects={} retries={} retry_admissions={} migrations={} \
             unrouted={} deaths={} orphaned={} rehomed={} lost={}\n",
            s.epochs,
            s.events,
            s.arrivals,
            s.admitted,
            s.rejected,
            s.duplicate_rejects,
            s.retries,
            s.retry_admissions,
            s.migrations,
            s.unrouted,
            s.deaths,
            s.orphaned,
            s.rehomed,
            s.lost,
        ));
        for (&cause, &count) in &s.reject_causes {
            out.push_str(&format!("fcause {} {count}\n", cause.as_str()));
        }
        for (&tenant, c) in &s.tenants {
            out.push_str(&tenant_counter_line("ftenant", tenant, c));
        }
        for (&id, &device) in &self.owner {
            out.push_str(&format!("owner t{} d{}\n", id.0, device.0));
        }
        for (&device, &count) in &self.overload {
            out.push_str(&format!("overload d{} {count}\n", device.0));
        }
        for p in &self.partitions {
            out.push_str(&format!(
                "partition d{} spike={}\n",
                p.device.0, p.spike_percent
            ));
            for t in &p.active {
                out.push_str("active ");
                out.push_str(&format_event_body(&SystemEvent::Arrival(t.clone())));
                out.push('\n');
            }
            for t in &p.pool {
                out.push_str("pool ");
                out.push_str(&format_event_body(&SystemEvent::Arrival(t.clone())));
                out.push('\n');
            }
            for e in &p.entries {
                out.push_str(&format!(
                    "entry t{} j{} at={} c={}\n",
                    e.job.task.0,
                    e.job.index,
                    e.start.as_micros(),
                    e.duration.as_micros(),
                ));
            }
            let ps = &p.stats;
            out.push_str(&format!(
                "pstats arrivals={} admitted={} rejected={} fast_rejects={} \
                 shed_overload={} shed_infeasible={} departures={} repairs={} \
                 resyntheses={} fps_fallbacks={} shed={} spikes={} mode_changes={} \
                 ignored={} repair_time_us={} repair_events={} admission_time_us={} \
                 admission_events={}\n",
                ps.arrivals,
                ps.admitted,
                ps.rejected,
                ps.fast_rejects,
                ps.shed_overload,
                ps.shed_infeasible,
                ps.departures,
                ps.repairs,
                ps.resyntheses,
                ps.fps_fallbacks,
                ps.shed,
                ps.spikes,
                ps.mode_changes,
                ps.ignored,
                ps.repair_time.as_micros(),
                ps.repair_events,
                ps.admission_time.as_micros(),
                ps.admission_events,
            ));
            for (&cause, &count) in &ps.reject_causes {
                out.push_str(&format!("pcause {} {count}\n", cause.as_str()));
            }
            for (&tenant, c) in &ps.tenants {
                out.push_str(&tenant_counter_line("ptenant", tenant, c));
            }
            out.push_str("end\n");
        }
        out
    }

    /// Parses the text format [`FleetSnapshot::write`] emits. Blank
    /// lines and `#` comments are skipped.
    ///
    /// # Errors
    /// Returns a [`SnapshotError`] naming the first malformed line.
    pub fn parse(s: &str) -> Result<FleetSnapshot, SnapshotError> {
        let mut lines = s.lines().enumerate();
        let header = loop {
            match lines.next() {
                Some((i, raw)) => {
                    let text = raw.trim();
                    if text.is_empty() || text.starts_with('#') {
                        continue;
                    }
                    break (i + 1, text);
                }
                None => {
                    return Err(SnapshotError {
                        line: 0,
                        message: "empty snapshot".into(),
                    })
                }
            }
        };
        if header.1 != SNAPSHOT_HEADER && header.1 != SNAPSHOT_HEADER_V2 {
            return Err(SnapshotError {
                line: header.0,
                message: format!(
                    "unsupported header `{}` (want `{SNAPSHOT_HEADER}` or `{SNAPSHOT_HEADER_V2}`)",
                    header.1
                ),
            });
        }
        let mut epoch = None;
        let mut config: Option<FleetConfig> = None;
        let mut rng_state = None;
        let mut stats: Option<FleetStats> = None;
        let mut owner = BTreeMap::new();
        let mut overload = BTreeMap::new();
        let mut registry = TenantRegistry::new();
        let mut ledger = TenantLedger::new();
        let mut partitions: Vec<PartitionSnapshot> = Vec::new();
        let mut open: Option<PartitionSnapshot> = None;
        for (i, raw) in lines {
            let line = i + 1;
            let err = |message: String| SnapshotError { line, message };
            let text = raw.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            let mut words = text.split_whitespace();
            let Some(verb) = words.next() else {
                continue; // trimmed text is non-empty, so a first token exists
            };
            // Fleet-wide verbs appear once: a second line would silently
            // replace the first (and a second `fstats` would drop every
            // per-cause and per-tenant line parsed before it).
            let once = |set: bool| {
                if set {
                    Err(err(format!("repeated `{verb}` line")))
                } else {
                    Ok(())
                }
            };
            match verb {
                "epoch" => {
                    once(epoch.is_some())?;
                    epoch = Some(
                        words
                            .next()
                            .and_then(|w| w.parse::<usize>().ok())
                            .ok_or_else(|| err("expected `epoch <n>`".into()))?,
                    );
                }
                "config" => {
                    once(config.is_some())?;
                    let policy: PlacementPolicy = kv(words.next(), "policy")
                        .map_err(err)?
                        .parse()
                        .map_err(err)?;
                    let retries = num(kv(words.next(), "retries").map_err(err)?).map_err(err)?;
                    let threads = num(kv(words.next(), "threads").map_err(err)?).map_err(err)?;
                    let seed: u64 = kv(words.next(), "seed")
                        .map_err(err)?
                        .parse()
                        .map_err(|_| err("bad seed".into()))?;
                    // Retired tokens (see the module docs): the strategy
                    // must be the one partitions run; either lean value
                    // loads, only a non-bool is malformed.
                    let strategy = kv(words.next(), "strategy").map_err(err)?;
                    if strategy != "incremental" {
                        return Err(err(format!("unsupported repair strategy `{strategy}`")));
                    }
                    kv(words.next(), "lean")
                        .map_err(err)?
                        .parse::<bool>()
                        .map_err(|_| err("bad lean flag".into()))?;
                    config = Some(FleetConfig {
                        policy,
                        retries,
                        threads,
                        seed,
                        tenants: TenantRegistry::new(),
                    });
                }
                "tenant" => {
                    let tenant = tenant_tagged(words.next()).map_err(err)?;
                    let qos: QosClass =
                        kv(words.next(), "qos").map_err(err)?.parse().map_err(err)?;
                    let quota_ppm: u64 = kv(words.next(), "quota")
                        .map_err(err)?
                        .parse()
                        .map_err(|_| err("bad quota".into()))?;
                    let weight: u32 = kv(words.next(), "weight")
                        .map_err(err)?
                        .parse()
                        .map_err(|_| err("bad weight".into()))?;
                    registry.register(
                        tenant,
                        TenantSpec {
                            qos,
                            quota_ppm,
                            weight,
                        },
                    );
                }
                "deficit" => {
                    let tenant = tenant_tagged(words.next()).map_err(err)?;
                    let deficit: u64 = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err("expected deficit ppm".into()))?;
                    ledger.set_deficit(tenant, deficit);
                }
                "ftenant" => {
                    let stats = stats
                        .as_mut()
                        .ok_or_else(|| err("`ftenant` before `fstats`".into()))?;
                    let (tenant, counters) = tenant_counter_body(&mut words).map_err(err)?;
                    stats.tenants.insert(tenant, counters);
                }
                "rng" => {
                    once(rng_state.is_some())?;
                    let mut word = |name: &str| {
                        words
                            .next()
                            .and_then(|w| w.parse::<u64>().ok())
                            .ok_or_else(|| format!("bad rng word `{name}`"))
                    };
                    rng_state = Some([
                        word("s0").map_err(err)?,
                        word("s1").map_err(err)?,
                        word("s2").map_err(err)?,
                        word("s3").map_err(err)?,
                    ]);
                }
                "fstats" => {
                    once(stats.is_some())?;
                    let mut f = FleetStats::default();
                    let mut take =
                        |key: &str| -> Result<usize, String> { num(kv(words.next(), key)?) };
                    f.epochs = take("epochs").map_err(err)?;
                    f.events = take("events").map_err(err)?;
                    f.arrivals = take("arrivals").map_err(err)?;
                    f.admitted = take("admitted").map_err(err)?;
                    f.rejected = take("rejected").map_err(err)?;
                    f.duplicate_rejects = take("duplicate_rejects").map_err(err)?;
                    f.retries = take("retries").map_err(err)?;
                    f.retry_admissions = take("retry_admissions").map_err(err)?;
                    f.migrations = take("migrations").map_err(err)?;
                    f.unrouted = take("unrouted").map_err(err)?;
                    f.deaths = take("deaths").map_err(err)?;
                    f.orphaned = take("orphaned").map_err(err)?;
                    f.rehomed = take("rehomed").map_err(err)?;
                    f.lost = take("lost").map_err(err)?;
                    stats = Some(f);
                }
                "fcause" => {
                    let stats = stats
                        .as_mut()
                        .ok_or_else(|| err("`fcause` before `fstats`".into()))?;
                    let (cause, count) = cause_line(&mut words).map_err(err)?;
                    stats.reject_causes.insert(cause, count);
                }
                "owner" => {
                    let id = tagged(words.next(), 't').map_err(err)?;
                    let device = tagged(words.next(), 'd').map_err(err)?;
                    owner.insert(TaskId(id), DeviceId(device));
                }
                "overload" => {
                    let device = tagged(words.next(), 'd').map_err(err)?;
                    let count = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err("expected overload count".into()))?;
                    overload.insert(DeviceId(device), count);
                }
                "partition" => {
                    if open.is_some() {
                        return Err(err("`partition` before previous `end`".into()));
                    }
                    let device = tagged(words.next(), 'd').map_err(err)?;
                    let spike_percent: u32 = kv(words.next(), "spike")
                        .map_err(err)?
                        .parse()
                        .map_err(|_| err("bad spike".into()))?;
                    open = Some(PartitionSnapshot {
                        device: DeviceId(device),
                        spike_percent,
                        active: Vec::new(),
                        pool: Vec::new(),
                        entries: Vec::new(),
                        stats: OnlineStats::default(),
                    });
                }
                "active" | "pool" => {
                    let p = open
                        .as_mut()
                        .ok_or_else(|| err(format!("`{verb}` outside a partition section")))?;
                    let inner = words
                        .next()
                        .ok_or_else(|| err("missing task body".into()))?;
                    if inner != "arrive" {
                        return Err(err(format!("expected `arrive` task body, got `{inner}`")));
                    }
                    let SystemEvent::Arrival(task) =
                        parse_event_body(inner, &mut words).map_err(err)?
                    else {
                        // `arrive` bodies parse to arrivals; anything else is
                        // a malformed line, not a crash.
                        return Err(err("`arrive` body did not parse to an arrival".into()));
                    };
                    if verb == "active" {
                        p.active.push(task);
                    } else {
                        p.pool.push(task);
                    }
                }
                "entry" => {
                    let p = open
                        .as_mut()
                        .ok_or_else(|| err("`entry` outside a partition section".into()))?;
                    let task = tagged(words.next(), 't').map_err(err)?;
                    let index = tagged(words.next(), 'j').map_err(err)?;
                    let at = num(kv(words.next(), "at").map_err(err)?).map_err(err)?;
                    let c = num(kv(words.next(), "c").map_err(err)?).map_err(err)?;
                    p.entries.push(ScheduleEntry {
                        job: JobId::new(TaskId(task), index),
                        start: Time::from_micros(at as u64),
                        duration: Duration::from_micros(c as u64),
                    });
                }
                "pstats" => {
                    let p = open
                        .as_mut()
                        .ok_or_else(|| err("`pstats` outside a partition section".into()))?;
                    let mut take =
                        |key: &str| -> Result<usize, String> { num(kv(words.next(), key)?) };
                    let ps = &mut p.stats;
                    ps.arrivals = take("arrivals").map_err(err)?;
                    ps.admitted = take("admitted").map_err(err)?;
                    ps.rejected = take("rejected").map_err(err)?;
                    ps.fast_rejects = take("fast_rejects").map_err(err)?;
                    ps.shed_overload = take("shed_overload").map_err(err)?;
                    ps.shed_infeasible = take("shed_infeasible").map_err(err)?;
                    ps.departures = take("departures").map_err(err)?;
                    ps.repairs = take("repairs").map_err(err)?;
                    ps.resyntheses = take("resyntheses").map_err(err)?;
                    ps.fps_fallbacks = take("fps_fallbacks").map_err(err)?;
                    ps.shed = take("shed").map_err(err)?;
                    ps.spikes = take("spikes").map_err(err)?;
                    ps.mode_changes = take("mode_changes").map_err(err)?;
                    ps.ignored = take("ignored").map_err(err)?;
                    ps.repair_time = std::time::Duration::from_micros(
                        take("repair_time_us").map_err(err)? as u64,
                    );
                    ps.repair_events = take("repair_events").map_err(err)?;
                    ps.admission_time = std::time::Duration::from_micros(
                        take("admission_time_us").map_err(err)? as u64,
                    );
                    ps.admission_events = take("admission_events").map_err(err)?;
                }
                "pcause" => {
                    let p = open
                        .as_mut()
                        .ok_or_else(|| err("`pcause` outside a partition section".into()))?;
                    let (cause, count) = cause_line(&mut words).map_err(err)?;
                    p.stats.reject_causes.insert(cause, count);
                }
                "ptenant" => {
                    let p = open
                        .as_mut()
                        .ok_or_else(|| err("`ptenant` outside a partition section".into()))?;
                    let (tenant, counters) = tenant_counter_body(&mut words).map_err(err)?;
                    p.stats.tenants.insert(tenant, counters);
                }
                "end" => {
                    let p = open
                        .take()
                        .ok_or_else(|| err("`end` without a partition section".into()))?;
                    partitions.push(p);
                }
                other => return Err(err(format!("unknown snapshot verb `{other}`"))),
            }
        }
        if open.is_some() {
            return Err(SnapshotError {
                line: 0,
                message: "truncated snapshot: partition section without `end`".into(),
            });
        }
        let missing = |name: &str| SnapshotError {
            line: 0,
            message: format!("snapshot missing `{name}`"),
        };
        let mut config = config.ok_or_else(|| missing("config"))?;
        config.tenants = registry;
        Ok(FleetSnapshot {
            epoch: epoch.ok_or_else(|| missing("epoch"))?,
            config,
            rng_state: rng_state.ok_or_else(|| missing("rng"))?,
            stats: stats.ok_or_else(|| missing("fstats"))?,
            owner,
            overload,
            ledger,
            partitions,
        })
    }
}

/// One `ftenant`/`ptenant` line: every [`TenantCounters`] field, keyed.
fn tenant_counter_line(verb: &str, tenant: TenantId, c: &TenantCounters) -> String {
    format!(
        "{verb} {tenant} arrivals={} admitted={} rejected={} shed={}\n",
        c.arrivals, c.admitted, c.rejected, c.shed,
    )
}

/// Parses a `tn<k>` tenant tag.
fn tenant_tagged(word: Option<&str>) -> Result<TenantId, String> {
    word.and_then(|w| w.strip_prefix("tn"))
        .and_then(|w| w.parse().ok())
        .map(TenantId)
        .ok_or_else(|| "expected tn<number>".to_owned())
}

/// Parses the counter body of an `ftenant`/`ptenant` line.
fn tenant_counter_body<'a>(
    words: &mut impl Iterator<Item = &'a str>,
) -> Result<(TenantId, TenantCounters), String> {
    let tenant = tenant_tagged(words.next())?;
    let arrivals = num(kv(words.next(), "arrivals")?)?;
    let admitted = num(kv(words.next(), "admitted")?)?;
    let rejected = num(kv(words.next(), "rejected")?)?;
    let shed = num(kv(words.next(), "shed")?)?;
    Ok((
        tenant,
        TenantCounters {
            arrivals,
            admitted,
            rejected,
            shed,
        },
    ))
}

fn num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("bad number `{s}`"))
}

fn cause_line<'a>(
    words: &mut impl Iterator<Item = &'a str>,
) -> Result<(InfeasibleCause, usize), String> {
    let cause: InfeasibleCause = words
        .next()
        .ok_or_else(|| "missing cause".to_owned())?
        .parse()?;
    let count = num(words.next().ok_or_else(|| "missing count".to_owned())?)?;
    Ok((cause, count))
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

/// What [`FleetScheduler::recover`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The epoch the snapshot closed.
    pub snapshot_epoch: usize,
    /// WAL epochs replayed on top of it.
    pub replayed: usize,
    /// Whether the log ended in an uncommitted (discarded) record.
    pub torn_tail: bool,
}

impl FleetScheduler {
    /// A journal record of the epoch just applied: the batch, plus
    /// per-partition digests of the post-commit state. Append it to a
    /// [`WalSink`](crate::wal::WalSink) right after
    /// [`FleetScheduler::apply_batch`] returns.
    #[must_use]
    pub fn epoch_record(&self, events: &[SystemEvent]) -> EpochRecord {
        EpochRecord {
            epoch: self.stats().epochs,
            seed: self.config().seed,
            events: events.to_vec(),
            digests: self
                .partitions()
                .iter()
                .map(|p| {
                    (
                        p.device(),
                        (schedule_digest(p.schedule()), stats_digest(p.stats())),
                    )
                })
                .collect(),
        }
    }

    /// Captures a [`FleetSnapshot`] at the current epoch boundary.
    #[must_use]
    pub fn snapshot(&self) -> FleetSnapshot {
        let devices: Vec<DeviceId> = self
            .partitions()
            .iter()
            .map(OnlineScheduler::device)
            .collect();
        FleetSnapshot {
            epoch: self.stats().epochs,
            config: self.config().clone(),
            rng_state: self.rng_state(),
            stats: self.stats().clone(),
            owner: self
                .owner_map()
                .iter()
                .map(|(&id, &ix)| (id, devices[ix]))
                .collect(),
            overload: devices
                .iter()
                .copied()
                .zip(self.overload_counts().iter().copied())
                .collect(),
            ledger: self.ledger().clone(),
            partitions: self
                .partitions()
                .iter()
                .map(|p| PartitionSnapshot {
                    device: p.device(),
                    spike_percent: p.spike_percent(),
                    active: p.tasks().iter().cloned().collect(),
                    pool: p.pool().values().cloned().collect(),
                    entries: p.schedule().iter().cloned().collect(),
                    stats: p.stats().clone(),
                })
                .collect(),
        }
    }

    /// Rebuilds a fleet from `snapshot` and replays every WAL epoch
    /// recorded after it, in order, through the ordinary
    /// [`FleetScheduler::apply_batch`] pipeline. After each replayed
    /// epoch the per-partition schedule/stats digests are compared
    /// against the record's commit line, so divergence (a corrupt
    /// snapshot, a log from a different run, a non-deterministic bug)
    /// is reported at the epoch that caused it. The log's torn tail,
    /// if any, was already discarded by the WAL reader.
    ///
    /// # Errors
    /// Returns a message naming the defect: a snapshot that fails to
    /// restore, a seed mismatch, a gap in the epoch sequence, or a
    /// digest divergence.
    pub fn recover(
        snapshot: &FleetSnapshot,
        wal: &WalContents,
    ) -> Result<(FleetScheduler, RecoveryReport), String> {
        let mut fleet = snapshot.restore()?;
        let mut replayed = 0usize;
        for record in &wal.epochs {
            if record.epoch <= snapshot.epoch {
                continue; // already folded into the snapshot
            }
            if record.seed != fleet.config().seed {
                return Err(format!(
                    "WAL epoch {} was sealed under seed {}, fleet runs seed {}",
                    record.epoch,
                    record.seed,
                    fleet.config().seed
                ));
            }
            let expected = fleet.stats().epochs + 1;
            if record.epoch != expected {
                return Err(format!(
                    "WAL gap: expected epoch {expected}, found {}",
                    record.epoch
                ));
            }
            let _ = fleet.apply_batch(&record.events);
            for (&device, &(schedule, stats)) in &record.digests {
                let p = fleet.partition(device).ok_or_else(|| {
                    format!(
                        "WAL epoch {} names unknown partition {device}",
                        record.epoch
                    )
                })?;
                if schedule_digest(p.schedule()) != schedule {
                    return Err(format!(
                        "schedule divergence on {device} replaying epoch {}",
                        record.epoch
                    ));
                }
                if stats_digest(p.stats()) != stats {
                    return Err(format!(
                        "stats divergence on {device} replaying epoch {}",
                        record.epoch
                    ));
                }
            }
            replayed += 1;
        }
        Ok((
            fleet,
            RecoveryReport {
                snapshot_epoch: snapshot.epoch,
                replayed,
                torn_tail: wal.torn_tail,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{MemoryWal, WalSink, WalSource};
    use tagio_core::task::IoTask;

    fn mk(id: u32, device: u32, delta_ms: u64) -> IoTask {
        IoTask::builder(TaskId(id), DeviceId(device))
            .wcet(Duration::from_micros(500))
            .period(Duration::from_millis(8))
            .ideal_offset(Duration::from_millis(delta_ms))
            .margin(Duration::from_millis(1))
            .quality(f64::from(id) + 1.0, 0.0)
            .build()
            .unwrap()
    }

    fn fleet() -> FleetScheduler {
        let mut bases = BTreeMap::new();
        bases.insert(
            DeviceId(0),
            vec![mk(0, 0, 2)].into_iter().collect::<TaskSet>(),
        );
        bases.insert(
            DeviceId(1),
            vec![mk(1, 1, 3)].into_iter().collect::<TaskSet>(),
        );
        FleetScheduler::bootstrap(
            &bases,
            FleetConfig {
                threads: 1,
                ..FleetConfig::default()
            },
        )
    }

    /// Four epochs exercising every event kind, death included.
    fn batches() -> Vec<Vec<SystemEvent>> {
        vec![
            vec![
                SystemEvent::Arrival(mk(10, 0, 4)),
                SystemEvent::Arrival(mk(11, 1, 5)),
            ],
            vec![
                SystemEvent::UtilisationSpike {
                    device: DeviceId(0),
                    percent: 130,
                },
                SystemEvent::Departure(TaskId(10)),
            ],
            vec![SystemEvent::PartitionDeath {
                device: DeviceId(0),
            }],
            vec![SystemEvent::Arrival(mk(12, 0, 6))],
        ]
    }

    fn fingerprint(fleet: &FleetScheduler) -> Vec<(DeviceId, u64, u64)> {
        fleet
            .partitions()
            .iter()
            .map(|p| {
                (
                    p.device(),
                    schedule_digest(p.schedule()),
                    stats_digest(p.stats()),
                )
            })
            .collect()
    }

    #[test]
    fn stats_digest_ignores_wall_clock_but_not_decisions() {
        let a = OnlineStats {
            admitted: 3,
            repair_events: 2,
            ..Default::default()
        };
        let mut b = a.clone();
        b.repair_time = std::time::Duration::from_micros(987);
        b.admission_time = std::time::Duration::from_micros(123);
        assert_eq!(stats_digest(&a), stats_digest(&b), "clocks must not count");
        b.repair_events = 3;
        assert_ne!(stats_digest(&a), stats_digest(&b), "decisions must count");
    }

    #[test]
    fn snapshot_text_round_trips() {
        let mut fleet = fleet();
        for batch in batches() {
            let _ = fleet.apply_batch(&batch);
        }
        let snap = fleet.snapshot();
        let text = snap.write();
        let parsed = FleetSnapshot::parse(&text).unwrap();
        assert_eq!(parsed.epoch, snap.epoch);
        assert_eq!(parsed.config, snap.config);
        assert_eq!(parsed.rng_state, snap.rng_state);
        assert_eq!(parsed.stats, snap.stats);
        assert_eq!(parsed.owner, snap.owner);
        assert_eq!(parsed.overload, snap.overload);
        assert_eq!(parsed.write(), text, "format is a fixed point");
        // A snapshot from a writer that recorded `lean=false` still loads,
        // restores to the same partition state, and re-writes `lean=true`.
        let legacy = text.replacen(" lean=true\n", " lean=false\n", 1);
        assert_ne!(legacy, text);
        let restored = FleetSnapshot::parse(&legacy).unwrap().restore().unwrap();
        assert_eq!(fingerprint(&restored), fingerprint(&fleet));
        assert_eq!(restored.snapshot().write(), text);
        let bad = text.replacen(" lean=true\n", " lean=maybe\n", 1);
        assert!(FleetSnapshot::parse(&bad)
            .unwrap_err()
            .message
            .contains("bad lean flag"));
        // The retired strategy token: only `incremental` is written and
        // loaded; any other strategy names its line.
        assert!(text.contains(" strategy=incremental lean=true\n"));
        let config_line = 1 + text.lines().position(|l| l.starts_with("config ")).unwrap();
        let full = text.replacen(" strategy=incremental ", " strategy=full-resynthesis ", 1);
        let err = FleetSnapshot::parse(&full).unwrap_err();
        assert_eq!(err.line, config_line, "{err}");
        assert!(err.message.contains("unsupported repair strategy"), "{err}");
    }

    #[test]
    fn restored_fleet_continues_bit_identically() {
        let mut live = fleet();
        let plan = batches();
        let _ = live.apply_batch(&plan[0]);
        let _ = live.apply_batch(&plan[1]);
        let snap = FleetSnapshot::parse(&live.snapshot().write()).unwrap();
        let mut restored = snap.restore().unwrap();
        assert_eq!(fingerprint(&restored), fingerprint(&live));
        // The epochs after the checkpoint (death included) must play out
        // identically — cold caches, same decisions, same RNG stream.
        let _ = live.apply_batch(&plan[2]);
        let _ = restored.apply_batch(&plan[2]);
        let _ = live.apply_batch(&plan[3]);
        let _ = restored.apply_batch(&plan[3]);
        assert_eq!(fingerprint(&restored), fingerprint(&live));
        assert_eq!(restored.stats(), live.stats());
        for (a, b) in restored.partitions().iter().zip(live.partitions()) {
            assert_eq!(a.schedule().as_slice(), b.schedule().as_slice());
            assert!((a.psi() - b.psi()).abs() < f64::EPSILON);
            assert!((a.upsilon() - b.upsilon()).abs() < f64::EPSILON);
        }
    }

    #[test]
    fn recover_replays_the_wal_suffix_and_checks_digests() {
        let mut live = fleet();
        let mut wal = MemoryWal::new();
        let mut snap = None;
        for (i, batch) in batches().iter().enumerate() {
            let _ = live.apply_batch(batch);
            wal.append(&live.epoch_record(batch)).unwrap();
            if i == 1 {
                snap = Some(live.snapshot());
            }
        }
        let snap = snap.unwrap();
        let (recovered, report) = FleetScheduler::recover(&snap, &wal.load().unwrap()).unwrap();
        assert_eq!(report.snapshot_epoch, 2);
        assert_eq!(report.replayed, 2);
        assert!(!report.torn_tail);
        assert_eq!(fingerprint(&recovered), fingerprint(&live));
        assert_eq!(recovered.stats(), live.stats());
    }

    #[test]
    fn recover_rejects_gaps_seed_mismatch_and_divergence() {
        let mut live = fleet();
        let mut wal = MemoryWal::new();
        for batch in batches() {
            let _ = live.apply_batch(&batch);
            wal.append(&live.epoch_record(&batch)).unwrap();
        }
        let genesis = fleet().snapshot(); // epoch 0: replay everything
        let full = wal.load().unwrap();

        let mut gap = full.clone();
        gap.epochs.remove(1);
        let err = FleetScheduler::recover(&genesis, &gap).unwrap_err();
        assert!(err.contains("gap"), "{err}");

        let mut alien = full.clone();
        alien.epochs[0].seed = 1;
        let err = FleetScheduler::recover(&genesis, &alien).unwrap_err();
        assert!(err.contains("seed"), "{err}");

        let mut tampered = full.clone();
        let (_, digest) = tampered.epochs[2]
            .digests
            .iter_mut()
            .next()
            .expect("record has digests");
        digest.0 ^= 1;
        let err = FleetScheduler::recover(&genesis, &tampered).unwrap_err();
        assert!(err.contains("divergence on d0 replaying epoch 3"), "{err}");

        // The untampered log recovers from genesis, too.
        let (recovered, report) = FleetScheduler::recover(&genesis, &full).unwrap();
        assert_eq!(report.replayed, 4);
        assert_eq!(fingerprint(&recovered), fingerprint(&live));
    }

    #[test]
    fn malformed_snapshots_name_the_line() {
        let err = FleetSnapshot::parse("").unwrap_err();
        assert!(err.message.contains("empty"), "{err}");

        let err = FleetSnapshot::parse("tagio-fleet-snapshot v9\n").unwrap_err();
        assert!(err.message.contains("unsupported header"), "{err}");

        let good = fleet().snapshot().write();
        let truncated = good.trim_end_matches("end\n");
        let err = FleetSnapshot::parse(truncated).unwrap_err();
        assert!(err.message.contains("without `end`"), "{err}");

        let bad = good.replace("rng ", "rngx ");
        let err = FleetSnapshot::parse(&bad).unwrap_err();
        assert!(err.message.contains("unknown snapshot verb"), "{err}");
        assert!(err.line > 0);

        // A spike beyond `u32` is an error, not a silent wrap to 100%.
        let line = good
            .lines()
            .position(|l| l.starts_with("partition "))
            .unwrap()
            + 1;
        let bad = good.replacen("spike=100", "spike=4294967396", 1);
        let err = FleetSnapshot::parse(&bad).unwrap_err();
        assert!(err.message.contains("bad spike"), "{err}");
        assert_eq!(err.line, line);

        // A fleet-wide line given twice is an error on the second copy,
        // not a silent overwrite of the first.
        for verb in ["epoch", "config", "rng", "fstats"] {
            let lines: Vec<&str> = good.lines().collect();
            let at = lines
                .iter()
                .position(|l| l.starts_with(&format!("{verb} ")))
                .unwrap();
            let mut twice = lines.clone();
            twice.insert(at + 1, lines[at]);
            let err = FleetSnapshot::parse(&twice.join("\n")).unwrap_err();
            assert!(err.message.contains(&format!("repeated `{verb}`")), "{err}");
            assert_eq!(err.line, at + 2, "{verb}");
        }
    }

    fn mkt(id: u32, device: u32, delta_ms: u64, tenant: u32) -> IoTask {
        IoTask::builder(TaskId(id), DeviceId(device))
            .wcet(Duration::from_micros(500))
            .period(Duration::from_millis(8))
            .ideal_offset(Duration::from_millis(delta_ms))
            .margin(Duration::from_millis(1))
            .quality(f64::from(id) + 1.0, 0.0)
            .tenant(crate::tenant::TenantId(tenant))
            .build()
            .unwrap()
    }

    fn tenanted_fleet() -> FleetScheduler {
        let mut registry = TenantRegistry::new();
        registry.register(TenantId(1), TenantSpec::guaranteed(500_000));
        registry.register(TenantId(2), TenantSpec::best_effort(100_000).with_weight(2));
        let mut bases = BTreeMap::new();
        bases.insert(
            DeviceId(0),
            vec![mk(0, 0, 2)].into_iter().collect::<TaskSet>(),
        );
        bases.insert(
            DeviceId(1),
            vec![mk(1, 1, 3)].into_iter().collect::<TaskSet>(),
        );
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
    fn untenanted_snapshots_keep_the_v1_format() {
        let mut live = fleet();
        for batch in batches() {
            let _ = live.apply_batch(&batch);
        }
        let snap = live.snapshot();
        assert!(!snap.has_tenant_state());
        let text = snap.write();
        assert!(text.starts_with(SNAPSHOT_HEADER), "header stays v1");
        for verb in ["tenant ", "deficit ", "ftenant ", "ptenant "] {
            assert!(!text.contains(verb), "v1 text must not carry `{verb}`");
        }
    }

    #[test]
    fn tenanted_snapshot_writes_v2_and_round_trips() {
        let mut live = tenanted_fleet();
        let _ = live.apply_batch(&[
            SystemEvent::Arrival(mkt(10, 0, 4, 1)),
            SystemEvent::Arrival(mkt(11, 1, 5, 2)),
            SystemEvent::Arrival(mkt(12, 1, 6, 2)),
        ]);
        let snap = live.snapshot();
        assert!(snap.has_tenant_state());
        let text = snap.write();
        assert!(text.starts_with(SNAPSHOT_HEADER_V2), "tenant state is v2");
        assert!(text.contains("tenant tn1 qos=guaranteed"));
        assert!(text.contains("tenant tn2 qos=best-effort"));
        assert!(text.contains("ftenant tn1 "));

        let parsed = FleetSnapshot::parse(&text).unwrap();
        assert_eq!(parsed.config, snap.config, "registry survives the trip");
        assert_eq!(parsed.ledger, snap.ledger);
        assert_eq!(parsed.stats, snap.stats);
        assert_eq!(parsed.partitions.len(), snap.partitions.len());
        for (a, b) in parsed.partitions.iter().zip(&snap.partitions) {
            assert_eq!(a.stats.tenants, b.stats.tenants);
        }
        assert_eq!(parsed.write(), text, "v2 format is a fixed point");
    }

    #[test]
    fn snapshot_with_a_ledger_spent_to_zero_is_a_fixed_point() {
        let mut live = tenanted_fleet();
        let _ = live.apply_batch(&[SystemEvent::Arrival(mkt(10, 0, 4, 1))]);
        let mut snap = live.snapshot();
        snap.ledger.accrue(TenantId(2), 2);
        let banked = snap.ledger.deficit(TenantId(2));
        assert!(snap.ledger.try_spend(TenantId(2), banked));
        let text = snap.write();
        assert!(!text.contains("deficit "), "{text}");
        assert_eq!(FleetSnapshot::parse(&text).unwrap().write(), text);
    }

    #[test]
    fn restored_tenanted_fleet_continues_bit_identically() {
        let mut live = tenanted_fleet();
        let _ = live.apply_batch(&[
            SystemEvent::Arrival(mkt(10, 0, 4, 1)),
            SystemEvent::Arrival(mkt(11, 1, 5, 2)),
        ]);
        let snap = FleetSnapshot::parse(&live.snapshot().write()).unwrap();
        let mut restored = snap.restore().unwrap();
        assert_eq!(fingerprint(&restored), fingerprint(&live));
        // Post-checkpoint epochs gate identically: the registry, the
        // deficit ledger and the per-tenant counters all carried over.
        let tail = vec![
            SystemEvent::Arrival(mkt(12, 0, 6, 2)),
            SystemEvent::Arrival(mkt(13, 1, 2, 1)),
        ];
        let _ = live.apply_batch(&tail);
        let _ = restored.apply_batch(&tail);
        assert_eq!(fingerprint(&restored), fingerprint(&live));
        assert_eq!(restored.stats(), live.stats());
        assert_eq!(restored.ledger(), live.ledger());
    }

    #[test]
    fn stats_digest_extends_only_for_tenanted_stats() {
        let plain = OnlineStats::default();
        let mut tenanted = OnlineStats::default();
        tenanted
            .tenants
            .insert(TenantId(1), crate::tenant::TenantCounters::default());
        assert_ne!(
            stats_digest(&plain),
            stats_digest(&tenanted),
            "tenant slices are commit-digest material"
        );
    }

    #[test]
    fn malformed_tenant_verbs_name_the_line() {
        let good = tenanted_snapshot_text();
        for (needle, replacement, what) in [
            ("tenant tn1", "tenant x1", "bad tenant tag"),
            ("qos=guaranteed", "qos=imaginary", "unknown qos class"),
            (
                "ftenant tn1 arrivals=",
                "ftenant tn1 arr=",
                "bad counter key",
            ),
        ] {
            let bad = good.replace(needle, replacement);
            assert_ne!(bad, good, "replacement `{needle}` must apply");
            let err = FleetSnapshot::parse(&bad).unwrap_err();
            assert!(err.line > 0, "{what}: {err}");
        }
    }

    fn tenanted_snapshot_text() -> String {
        let mut live = tenanted_fleet();
        let _ = live.apply_batch(&[SystemEvent::Arrival(mkt(10, 0, 4, 1))]);
        live.snapshot().write()
    }
}
