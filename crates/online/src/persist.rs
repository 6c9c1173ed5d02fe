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
//! header line) and line-based, read and written through
//! [`crate::codec`], whose counter tables of [`FleetStats`],
//! [`OnlineStats`] and [`TenantCounters`] are the one list of persisted
//! counters (the digests below iterate them too). `EXPERIMENTS.md`
//! documents the format and its reader rules: a repeated once-per-scope
//! line, a repeated key and a trailing token are line-numbered errors.
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

use crate::codec::{
    finish, kv, num, parse_arrival, read_counters, records, tagged, write_arrival, write_counters,
    Dialect, LineError,
};
use crate::fleet::{FleetConfig, FleetScheduler, FleetStats, PlacementPolicy};
use crate::service::{OnlineScheduler, OnlineStats};
use crate::tenant::{QosClass, TenantCounters, TenantId, TenantLedger, TenantRegistry, TenantSpec};
use crate::wal::{EpochRecord, WalContents};
use core::fmt::Write as _;
use std::collections::btree_map::Entry;
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

/// Digest of a partition's *deterministic* decision counters: its
/// counter table, reject causes and tenant counter tables. The wall
/// clocks ([`OnlineStats::repair_time`] / [`OnlineStats::admission_time`])
/// vary run to run and are excluded; their event counts are covered.
#[must_use]
pub fn stats_digest(stats: &OnlineStats) -> u64 {
    let mut h = Fnv::new();
    for c in &OnlineStats::COUNTERS {
        h.write_u64((c.get)(stats) as u64);
    }
    for (&cause, &count) in &stats.reject_causes {
        h.write_bytes(cause.as_str().as_bytes());
        h.write_u64(count as u64);
    }
    // Tenant counters fold in only when present, so untenanted runs
    // keep their pre-tenant digests (and old WALs keep verifying).
    for (&tenant, c) in &stats.tenants {
        h.write_u64(u64::from(tenant.0));
        for row in &TenantCounters::COUNTERS {
            h.write_u64((row.get)(c) as u64);
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
        // Writing into a `String` cannot fail.
        let mut out = String::new();
        out.push_str(if self.has_tenant_state() {
            SNAPSHOT_HEADER_V2
        } else {
            SNAPSHOT_HEADER
        });
        let _ = writeln!(out, "\nepoch {}", self.epoch);
        let _ = writeln!(
            out,
            "config policy={} retries={} threads={} seed={} strategy=incremental lean=true",
            self.config.policy.as_str(),
            self.config.retries,
            self.config.threads,
            self.config.seed,
        );
        for (tenant, spec) in self.config.tenants.iter() {
            let _ = writeln!(
                out,
                "tenant {tenant} qos={} quota={} weight={}",
                spec.qos.as_str(),
                spec.quota_ppm,
                spec.weight,
            );
        }
        for (tenant, deficit) in self.ledger.iter() {
            let _ = writeln!(out, "deficit {tenant} {deficit}");
        }
        let [a, b, c, d] = self.rng_state;
        let _ = writeln!(out, "rng {a} {b} {c} {d}");
        let s = &self.stats;
        out.push_str("fstats");
        write_counters(&mut out, &FleetStats::COUNTERS, s);
        out.push('\n');
        for (&cause, &count) in &s.reject_causes {
            let _ = writeln!(out, "fcause {} {count}", cause.as_str());
        }
        for (&tenant, c) in &s.tenants {
            write_tenant_line(&mut out, "ftenant", tenant, c);
        }
        for (&id, &device) in &self.owner {
            let _ = writeln!(out, "owner t{} d{}", id.0, device.0);
        }
        for (&device, &count) in &self.overload {
            let _ = writeln!(out, "overload d{} {count}", device.0);
        }
        for p in &self.partitions {
            let _ = writeln!(out, "partition d{} spike={}", p.device.0, p.spike_percent);
            for (verb, tasks) in [("active ", &p.active), ("pool ", &p.pool)] {
                for t in tasks {
                    out.push_str(verb);
                    write_arrival(&mut out, t);
                    out.push('\n');
                }
            }
            for e in &p.entries {
                let _ = writeln!(
                    out,
                    "entry t{} j{} at={} c={}",
                    e.job.task.0,
                    e.job.index,
                    e.start.as_micros(),
                    e.duration.as_micros(),
                );
            }
            write_pstats(&mut out, &p.stats);
            for (&cause, &count) in &p.stats.reject_causes {
                let _ = writeln!(out, "pcause {} {count}", cause.as_str());
            }
            for (&tenant, c) in &p.stats.tenants {
                write_tenant_line(&mut out, "ptenant", tenant, c);
            }
            out.push_str("end\n");
        }
        out
    }

    /// Parses the text format [`FleetSnapshot::write`] emits. Blank
    /// lines and `#` comments are skipped. Fleet-wide lines (`epoch`,
    /// `config`, `rng`, `fstats`) and each section's `pstats` appear at
    /// most once, a keyed line's key at most once in its scope, and no
    /// line carries words after its last field.
    ///
    /// # Errors
    /// Returns a [`LineError`] naming the first malformed line.
    pub fn parse(s: &str) -> Result<FleetSnapshot, LineError> {
        let mut lines = records(s);
        let (line, header) = lines
            .next()
            .ok_or_else(|| Dialect::Snapshot.error(0, "empty snapshot"))?;
        if header != SNAPSHOT_HEADER && header != SNAPSHOT_HEADER_V2 {
            return Err(Dialect::Snapshot.error(
                line,
                format!(
                    "unsupported header `{header}` (want `{SNAPSHOT_HEADER}` or `{SNAPSHOT_HEADER_V2}`)"
                ),
            ));
        }
        let mut reader = SnapshotReader::default();
        for (line, text) in lines {
            reader
                .line(text)
                .map_err(|m| Dialect::Snapshot.error(line, m))?;
        }
        reader.finish().map_err(|m| Dialect::Snapshot.error(0, m))
    }
}

/// One `ftenant`/`ptenant` line: the tenant, then its counter table.
fn write_tenant_line(out: &mut String, verb: &str, tenant: TenantId, c: &TenantCounters) {
    let _ = write!(out, "{verb} {tenant}");
    write_counters(out, &TenantCounters::COUNTERS, c);
    out.push('\n');
}

/// The `pstats` line: the counter table, with each wall clock written
/// just before the count of the constructions it timed.
fn write_pstats(out: &mut String, s: &OnlineStats) {
    let [decisions @ .., repair_events, admission_events] = &OnlineStats::COUNTERS;
    out.push_str("pstats");
    write_counters(out, decisions, s);
    let _ = write!(out, " repair_time_us={}", s.repair_time.as_micros());
    write_counters(out, std::slice::from_ref(repair_events), s);
    let _ = write!(out, " admission_time_us={}", s.admission_time.as_micros());
    write_counters(out, std::slice::from_ref(admission_events), s);
    out.push('\n');
}

/// The inverse of [`write_pstats`].
fn read_pstats<'a>(
    words: &mut impl Iterator<Item = &'a str>,
    s: &mut OnlineStats,
) -> Result<(), String> {
    let [decisions @ .., repair_events, admission_events] = &OnlineStats::COUNTERS;
    let micros = |word, key| -> Result<std::time::Duration, String> {
        Ok(std::time::Duration::from_micros(num(kv(word, key)?)? as u64))
    };
    read_counters(words, decisions, s)?;
    s.repair_time = micros(words.next(), "repair_time_us")?;
    read_counters(words, std::slice::from_ref(repair_events), s)?;
    s.admission_time = micros(words.next(), "admission_time_us")?;
    read_counters(words, std::slice::from_ref(admission_events), s)
}

/// What [`FleetSnapshot::parse`] has read so far (the header aside).
#[derive(Default)]
struct SnapshotReader {
    epoch: Option<usize>,
    config: Option<FleetConfig>,
    rng_state: Option<[u64; 4]>,
    stats: Option<FleetStats>,
    owner: BTreeMap<TaskId, DeviceId>,
    overload: BTreeMap<DeviceId, usize>,
    specs: BTreeMap<TenantId, TenantSpec>,
    deficits: BTreeMap<TenantId, u64>,
    partitions: Vec<PartitionSnapshot>,
    /// The open `partition` section, and whether it had its `pstats`.
    open: Option<(PartitionSnapshot, bool)>,
}

impl SnapshotReader {
    /// Folds one line into the snapshot.
    fn line(&mut self, text: &str) -> Result<(), String> {
        let mut words = text.split_whitespace();
        let verb = words.next().unwrap_or_default();
        // Fleet-wide verbs appear once: a second line would silently
        // replace the first (and a second `fstats` would drop every
        // per-cause and per-tenant line parsed before it).
        let once = |set: bool| match set {
            true => Err(format!("repeated `{verb}` line")),
            false => Ok(()),
        };
        match verb {
            "epoch" => {
                once(self.epoch.is_some())?;
                self.epoch = Some(
                    words
                        .next()
                        .and_then(|w| w.parse::<usize>().ok())
                        .ok_or_else(|| "expected `epoch <n>`".to_owned())?,
                );
            }
            "config" => {
                once(self.config.is_some())?;
                self.config = Some(config_body(&mut words)?);
            }
            "tenant" => {
                let tenant = TenantId(tagged(words.next(), "tn")?);
                let qos: QosClass = kv(words.next(), "qos")?.parse()?;
                let quota_ppm: u64 = kv(words.next(), "quota")?
                    .parse()
                    .map_err(|_| "bad quota".to_owned())?;
                let weight: u32 = kv(words.next(), "weight")?
                    .parse()
                    .map_err(|_| "bad weight".to_owned())?;
                let spec = TenantSpec {
                    qos,
                    quota_ppm,
                    weight,
                };
                insert_once(&mut self.specs, verb, tenant, spec)?;
            }
            "deficit" => {
                let tenant = TenantId(tagged(words.next(), "tn")?);
                let deficit: u64 = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| "expected deficit ppm".to_owned())?;
                insert_once(&mut self.deficits, verb, tenant, deficit)?;
            }
            "rng" => {
                once(self.rng_state.is_some())?;
                let mut word = |name: &str| {
                    words
                        .next()
                        .and_then(|w| w.parse::<u64>().ok())
                        .ok_or_else(|| format!("bad rng word `{name}`"))
                };
                self.rng_state = Some([word("s0")?, word("s1")?, word("s2")?, word("s3")?]);
            }
            "fstats" => {
                once(self.stats.is_some())?;
                let mut f = FleetStats::default();
                read_counters(&mut words, &FleetStats::COUNTERS, &mut f)?;
                self.stats = Some(f);
            }
            "fcause" | "ftenant" => {
                let stats = self
                    .stats
                    .as_mut()
                    .ok_or_else(|| format!("`{verb}` before `fstats`"))?;
                keyed_line(
                    verb,
                    &mut words,
                    &mut stats.reject_causes,
                    &mut stats.tenants,
                )?;
            }
            "owner" => {
                let id = tagged(words.next(), "t")?;
                let device = tagged(words.next(), "d")?;
                insert_once(&mut self.owner, verb, TaskId(id), DeviceId(device))?;
            }
            "overload" => {
                let device = tagged(words.next(), "d")?;
                let count = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| "expected overload count".to_owned())?;
                insert_once(&mut self.overload, verb, DeviceId(device), count)?;
            }
            "partition" => {
                if self.open.is_some() {
                    return Err("`partition` before previous `end`".into());
                }
                let device = tagged(words.next(), "d")?;
                let spike_percent: u32 = kv(words.next(), "spike")?
                    .parse()
                    .map_err(|_| "bad spike".to_owned())?;
                let section = PartitionSnapshot {
                    device: DeviceId(device),
                    spike_percent,
                    active: Vec::new(),
                    pool: Vec::new(),
                    entries: Vec::new(),
                    stats: OnlineStats::default(),
                };
                self.open = Some((section, false));
            }
            "end" => {
                let (p, _) = self
                    .open
                    .take()
                    .ok_or_else(|| "`end` without a partition section".to_owned())?;
                self.partitions.push(p);
            }
            "active" | "pool" | "entry" | "pstats" | "pcause" | "ptenant" => {
                let (p, has_pstats) = self
                    .open
                    .as_mut()
                    .ok_or_else(|| format!("`{verb}` outside a partition section"))?;
                match verb {
                    "active" | "pool" => {
                        let inner = words.next().ok_or_else(|| "missing task body".to_owned())?;
                        if inner != "arrive" {
                            return Err(format!("expected `arrive` task body, got `{inner}`"));
                        }
                        let task = parse_arrival(&mut words)?;
                        let tasks = if verb == "active" {
                            &mut p.active
                        } else {
                            &mut p.pool
                        };
                        tasks.push(task);
                    }
                    "entry" => {
                        let task = tagged(words.next(), "t")?;
                        let index = tagged(words.next(), "j")?;
                        let at = num(kv(words.next(), "at")?)?;
                        let c = num(kv(words.next(), "c")?)?;
                        p.entries.push(ScheduleEntry {
                            job: JobId::new(TaskId(task), index),
                            start: Time::from_micros(at as u64),
                            duration: Duration::from_micros(c as u64),
                        });
                    }
                    "pstats" if std::mem::replace(has_pstats, true) => {
                        return Err("repeated `pstats` line".into());
                    }
                    "pstats" => read_pstats(&mut words, &mut p.stats)?,
                    _ => {
                        let s = &mut p.stats;
                        keyed_line(verb, &mut words, &mut s.reject_causes, &mut s.tenants)?;
                    }
                }
            }
            other => return Err(format!("unknown snapshot verb `{other}`")),
        }
        finish(&mut words)
    }

    /// The snapshot, once every line is read.
    fn finish(self) -> Result<FleetSnapshot, String> {
        if self.open.is_some() {
            return Err("truncated snapshot: partition section without `end`".into());
        }
        let missing = |name: &str| format!("snapshot missing `{name}`");
        let mut config = self.config.ok_or_else(|| missing("config"))?;
        for (tenant, spec) in self.specs {
            config.tenants.register(tenant, spec);
        }
        let mut ledger = TenantLedger::new();
        for (tenant, deficit) in self.deficits {
            ledger.set_deficit(tenant, deficit);
        }
        Ok(FleetSnapshot {
            epoch: self.epoch.ok_or_else(|| missing("epoch"))?,
            config,
            rng_state: self.rng_state.ok_or_else(|| missing("rng"))?,
            stats: self.stats.ok_or_else(|| missing("fstats"))?,
            owner: self.owner,
            overload: self.overload,
            ledger,
            partitions: self.partitions,
        })
    }
}

/// The `config` line after its verb.
fn config_body<'a>(words: &mut impl Iterator<Item = &'a str>) -> Result<FleetConfig, String> {
    let policy: PlacementPolicy = kv(words.next(), "policy")?.parse()?;
    let retries = num(kv(words.next(), "retries")?)?;
    let threads = num(kv(words.next(), "threads")?)?;
    let seed: u64 = kv(words.next(), "seed")?
        .parse()
        .map_err(|_| "bad seed".to_owned())?;
    // Retired tokens (see the module docs): the strategy must be the one
    // partitions run; either lean value loads, only a non-bool is
    // malformed.
    let strategy = kv(words.next(), "strategy")?;
    if strategy != "incremental" {
        return Err(format!("unsupported repair strategy `{strategy}`"));
    }
    kv(words.next(), "lean")?
        .parse::<bool>()
        .map_err(|_| "bad lean flag".to_owned())?;
    Ok(FleetConfig {
        policy,
        retries,
        threads,
        seed,
        tenants: TenantRegistry::new(),
    })
}

/// Inserts a keyed line's value; a key already seen in its scope (the
/// fleet, or one partition section) is an error, not a silent overwrite.
fn insert_once<K: Ord + core::fmt::Display, V>(
    map: &mut BTreeMap<K, V>,
    verb: &str,
    key: K,
    value: V,
) -> Result<(), String> {
    match map.entry(key) {
        Entry::Occupied(seen) => Err(format!("repeated `{verb}` key `{}`", seen.key())),
        Entry::Vacant(slot) => {
            slot.insert(value);
            Ok(())
        }
    }
}

/// An `fcause`/`pcause` or `ftenant`/`ptenant` line, into the reject
/// causes or tenant counters of its scope.
fn keyed_line<'a>(
    verb: &str,
    words: &mut impl Iterator<Item = &'a str>,
    causes: &mut BTreeMap<InfeasibleCause, usize>,
    tenants: &mut BTreeMap<TenantId, TenantCounters>,
) -> Result<(), String> {
    if verb.ends_with("cause") {
        let cause: InfeasibleCause = words
            .next()
            .ok_or_else(|| "missing cause".to_owned())?
            .parse()?;
        let count = num(words.next().ok_or_else(|| "missing count".to_owned())?)?;
        insert_once(causes, verb, cause, count)
    } else {
        let tenant = TenantId(tagged(words.next(), "tn")?);
        let mut counters = TenantCounters::default();
        read_counters(words, &TenantCounters::COUNTERS, &mut counters)?;
        insert_once(tenants, verb, tenant, counters)
    }
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

        // A tenanted snapshot with every keyed verb present at least once.
        let full = with_every_keyed_verb();
        let lines: Vec<&str> = full.lines().collect();
        let first = |verb: &str| {
            lines
                .iter()
                .position(|l| *l == verb || l.starts_with(&format!("{verb} ")))
                .unwrap_or_else(|| panic!("no `{verb}` line in {full}"))
        };

        // A keyed line repeating its key in its scope (the fleet, or one
        // partition section), or a second `pstats` in one section, is an
        // error on the second copy.
        for verb in [
            "tenant", "deficit", "fcause", "ftenant", "owner", "overload", "pstats", "pcause",
            "ptenant",
        ] {
            let at = first(verb);
            let mut twice = lines.clone();
            twice.insert(at + 1, lines[at]);
            let err = FleetSnapshot::parse(&twice.join("\n")).unwrap_err();
            assert!(err.message.contains(&format!("repeated `{verb}`")), "{err}");
            assert_eq!(err.line, at + 2, "{verb}");
        }
        // The same partition-level key in another section is no repeat.
        for verb in ["pcause", "ptenant"] {
            let at = first(verb);
            let next_end = at + lines[at..].iter().position(|l| *l == "end").unwrap();
            let mut moved = lines.clone();
            moved.insert(next_end + 1 + 2, lines[at]);
            let text = moved.join("\n");
            assert!(FleetSnapshot::parse(&text).is_ok(), "{verb}: {text}");
        }

        // A word after a line's last field is an error on that line.
        for verb in [
            "epoch",
            "config",
            "tenant",
            "deficit",
            "rng",
            "fstats",
            "fcause",
            "ftenant",
            "owner",
            "overload",
            "partition",
            "entry",
            "pstats",
            "pcause",
            "ptenant",
            "end",
        ] {
            let at = first(verb);
            let mut extra = lines.clone();
            let long = format!("{} 7", lines[at]);
            extra[at] = &long;
            let err = FleetSnapshot::parse(&extra.join("\n")).unwrap_err();
            assert!(err.message.contains("trailing tokens"), "{verb}: {err}");
            assert_eq!(err.line, at + 1, "{verb}");
        }
    }

    /// A parseable v2 snapshot holding every keyed verb: a tenanted
    /// fleet's text plus a `deficit`, an `fcause` and a `pcause` line.
    fn with_every_keyed_verb() -> String {
        let text = tenanted_snapshot_text();
        let mut lines: Vec<&str> = text.lines().collect();
        for (anchor, line) in [
            ("fstats ", "fcause no-feasible-slot 2"),
            ("pstats ", "pcause blocking-bound 1"),
            ("rng ", "deficit tn2 5"),
        ] {
            let at = lines.iter().position(|l| l.starts_with(anchor)).unwrap();
            lines.insert(at + 1, line);
        }
        let full = lines.join("\n");
        assert!(FleetSnapshot::parse(&full).is_ok(), "{full}");
        full
    }

    /// Every [`OnlineStats`] field at its own value: the `k`-th field in
    /// declaration order holds `base + k * step`.
    fn online_stats(base: usize, step: usize) -> OnlineStats {
        let v = |k: usize| base + k * step;
        OnlineStats {
            arrivals: v(1),
            admitted: v(2),
            rejected: v(3),
            fast_rejects: v(4),
            reject_causes: BTreeMap::from([(InfeasibleCause::BlockingBound, v(5))]),
            shed_overload: v(6),
            shed_infeasible: v(7),
            departures: v(8),
            repairs: v(9),
            resyntheses: v(10),
            fps_fallbacks: v(11),
            shed: v(12),
            spikes: v(13),
            mode_changes: v(14),
            ignored: v(15),
            repair_time: std::time::Duration::from_micros(v(16) as u64),
            repair_events: v(17),
            admission_time: std::time::Duration::from_micros(v(18) as u64),
            admission_events: v(19),
            tenants: BTreeMap::from([(TenantId(3), tenant_counters(v(20), step))]),
        }
    }

    /// Every [`FleetStats`] field at its own value, as [`online_stats`].
    fn fleet_stats(base: usize, step: usize) -> FleetStats {
        let v = |k: usize| base + k * step;
        FleetStats {
            epochs: v(1),
            events: v(2),
            arrivals: v(3),
            admitted: v(4),
            rejected: v(5),
            duplicate_rejects: v(6),
            retries: v(7),
            retry_admissions: v(8),
            migrations: v(9),
            unrouted: v(10),
            reject_causes: BTreeMap::from([(InfeasibleCause::NoFeasibleSlot, v(11))]),
            deaths: v(12),
            orphaned: v(13),
            rehomed: v(14),
            lost: v(15),
            tenants: BTreeMap::from([(TenantId(3), tenant_counters(v(16), step))]),
        }
    }

    /// Every [`TenantCounters`] field at its own value, as
    /// [`online_stats`].
    fn tenant_counters(base: usize, step: usize) -> TenantCounters {
        TenantCounters {
            arrivals: base + step,
            admitted: base + 2 * step,
            rejected: base + 3 * step,
            shed: base + 4 * step,
        }
    }

    #[test]
    fn every_counter_is_written_read_and_merged() {
        let mut snap = fleet().snapshot();
        snap.stats = fleet_stats(0, 1);
        snap.partitions[0].stats = online_stats(0, 1);
        let text = snap.write();
        // Each counter under its own key, in the pinned line order.
        for line in [
            "fstats epochs=1 events=2 arrivals=3 admitted=4 rejected=5 duplicate_rejects=6 \
             retries=7 retry_admissions=8 migrations=9 unrouted=10 deaths=12 orphaned=13 \
             rehomed=14 lost=15",
            "fcause no-feasible-slot 11",
            "ftenant tn3 arrivals=17 admitted=18 rejected=19 shed=20",
            "pstats arrivals=1 admitted=2 rejected=3 fast_rejects=4 shed_overload=6 \
             shed_infeasible=7 departures=8 repairs=9 resyntheses=10 fps_fallbacks=11 shed=12 \
             spikes=13 mode_changes=14 ignored=15 repair_time_us=16 repair_events=17 \
             admission_time_us=18 admission_events=19",
            "pcause blocking-bound 5",
            "ptenant tn3 arrivals=21 admitted=22 rejected=23 shed=24",
        ] {
            assert!(
                text.lines().any(|l| l == line),
                "missing `{line}` in {text}"
            );
        }
        // Each field comes back.
        let parsed = FleetSnapshot::parse(&text).unwrap();
        assert_eq!(parsed.stats, snap.stats);
        assert_eq!(
            format!("{:?}", parsed.partitions[0].stats),
            format!("{:?}", snap.partitions[0].stats)
        );
        // `merge` sums every counter (and both clocks).
        let mut f = fleet_stats(0, 1);
        f.merge(&fleet_stats(100, 1));
        assert_eq!(f, fleet_stats(100, 2));
        let mut o = online_stats(0, 1);
        o.merge(&online_stats(100, 1));
        assert_eq!(format!("{o:?}"), format!("{:?}", online_stats(100, 2)));
        let mut t = tenant_counters(0, 1);
        t.merge(&tenant_counters(100, 1));
        assert_eq!(t, tenant_counters(100, 2));
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
