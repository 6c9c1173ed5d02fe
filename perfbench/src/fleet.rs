//! The two fleet workloads: `fleet-u90-reject` (the rejection storm)
//! and `fleet-churn-durable` (the success path plus WAL and snapshots).
//!
//! One client drives a [`FleetScheduler`] in a closed loop: each
//! `apply_batch` call carries an epoch of [`EPOCH`] events, and the next
//! epoch is submitted only after the verdicts return. Verification,
//! digesting and the traced mode's shadow probe all run outside the
//! timed region.

use crate::calib;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{
    another_pass_fits, beyond, mean, median, percentile, pooled_rate, ratio, Digest, Timed,
};
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use tagio_audit::ScheduleCertificate;
use tagio_core::event::SystemEvent;
use tagio_core::job::JobSet;
use tagio_core::schedule::Schedule;
use tagio_core::task::{DeviceId, IoTask, TaskSet};
use tagio_online::fleet::{FleetConfig, FleetOutcome, FleetScheduler, FleetStats};
use tagio_online::persist::{schedule_digest, stats_digest, FleetSnapshot};
use tagio_online::scenario::{FleetScenario, FleetScenarioConfig};
use tagio_online::service::{EventOutcome, OnlineStats, RejectReason};
use tagio_online::wal::{MemoryWal, WalSink, WalSource};
use tagio_sched::heuristic::repair::repair_neighbourhood_in;
use tagio_sched::heuristic::{SlotPolicy, StaticScheduler};
use tagio_sched::{taskset_schedulable_np_fps, FpsOffline, RepairScratch, Scheduler};

/// Events per `apply_batch` call.
const EPOCH: usize = 16;

/// A snapshot is written after every this many epochs (durable runs).
const SNAPSHOT_EVERY: usize = 8;

/// The inputs of one fleet workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Workload name.
    pub name: &'static str,
    /// Device partitions.
    pub partitions: u32,
    /// Base utilisation of every partition.
    pub utilisation: f64,
    /// Arrivals per scenario.
    pub arrivals: usize,
    /// Departures, spikes and the mode change on (generator defaults).
    pub churn: bool,
    /// A partition death after every this many arrivals (`0` = none).
    pub death_every: usize,
    /// Tenants (`0` = untenanted).
    pub tenants: u32,
    /// Of those, best-effort.
    pub best_effort: u32,
    /// A burst storm every this many arrivals (`0` = none).
    pub burst_every: usize,
    /// Fleet worker-pool width.
    pub width: usize,
    /// WAL append after every epoch, snapshots, recovery timing.
    pub durable: bool,
    /// Distinct scenarios of one pass (the deterministic input set).
    pub scenarios: usize,
}

/// The rejection storm.
pub const REJECT: FleetSpec = FleetSpec {
    name: "fleet-u90-reject",
    partitions: 4,
    utilisation: 0.90,
    arrivals: 64,
    churn: false,
    death_every: 0,
    tenants: 0,
    best_effort: 0,
    burst_every: 0,
    width: 2,
    durable: false,
    scenarios: 136,
};

/// The success path plus durable writes.
pub const CHURN: FleetSpec = FleetSpec {
    name: "fleet-churn-durable",
    partitions: 2,
    utilisation: 0.55,
    arrivals: 128,
    churn: true,
    death_every: 96,
    tenants: 4,
    best_effort: 1,
    burst_every: 32,
    width: 1,
    durable: true,
    scenarios: 200,
};

/// Generator configuration of scenario `index` under `seed`.
fn scenario_config(spec: &FleetSpec, seed: u64, index: usize) -> FleetScenarioConfig {
    let mut b = FleetScenarioConfig::builder()
        .partitions(spec.partitions)
        .base_utilisation(spec.utilisation)
        .arrivals(spec.arrivals)
        .death_every(spec.death_every)
        .tenants(spec.tenants)
        .best_effort_tenants(spec.best_effort)
        .burst_every(spec.burst_every)
        .seed(crate::mix(seed, index as u64));
    if !spec.churn {
        b = b.departure_permille(0).spike_every(0).mode_change(false);
    }
    b.build().expect("workload parameters are valid")
}

fn fleet_config(spec: &FleetSpec, cfg: &FleetScenarioConfig) -> FleetConfig {
    FleetConfig {
        threads: spec.width,
        tenants: cfg.tenant_registry(),
        ..FleetConfig::default()
    }
}

/// Call count and time of one probed function, split by verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Tally {
    /// Calls that succeeded.
    pass: u64,
    /// Calls that failed.
    fail: u64,
    /// Time in successful calls.
    pass_time: Duration,
    /// Time in failed calls.
    fail_time: Duration,
}

impl Tally {
    fn add(&mut self, ok: bool, took: Duration) {
        if ok {
            self.pass += 1;
            self.pass_time += took;
        } else {
            self.fail += 1;
            self.fail_time += took;
        }
    }

    /// All calls.
    fn calls(&self) -> u64 {
        self.pass + self.fail
    }

    /// Mean µs per successful call.
    fn pass_us(&self) -> f64 {
        ratio(self.pass_time.as_secs_f64() * 1e6, self.pass as f64)
    }

    /// Mean µs per failed call.
    fn fail_us(&self) -> f64 {
        ratio(self.fail_time.as_secs_f64() * 1e6, self.fail as f64)
    }

    /// Mean µs per call.
    fn us(&self) -> f64 {
        ratio(
            (self.pass_time + self.fail_time).as_secs_f64() * 1e6,
            self.calls() as f64,
        )
    }
}

/// The shadow probe. Before each epoch it replays the admission of
/// every arrival of the epoch through the layers' public functions and
/// times each call. It mirrors the router: a lane phase that offers each
/// arrival to its first-fit choice, then one retry wave that offers the
/// rejected ones to their next choice. It works on its own copy of each
/// partition's pre-epoch task set and schedule, updated with its own
/// admissions, so later arrivals of the epoch see earlier ones. The
/// fleet itself is only read. Departures, spikes, mode changes and
/// deaths are not mirrored, so on churning workloads its counts drift
/// from the program's; the `probe vs program` note shows by how much.
#[derive(Debug, Default)]
struct Probe {
    scratch: RepairScratch,
    /// `JobSet::expand` of the candidate set.
    expand: Tally,
    /// Jobs produced by those expansions.
    jobs_expanded: u64,
    /// Cold `taskset_schedulable_np_fps` (pass = guaranteed).
    precheck: Tally,
    /// `repair_neighbourhood_in`.
    repair: Tally,
    /// `StaticScheduler::schedule` after a repair failure.
    lccd: Tally,
    /// `FpsOffline::schedule` after an LCC-D failure the pre-check
    /// guarantees.
    fps: Tally,
    /// Ladders that failed at every tier.
    ladder_fail: u64,
}

/// The probe's copy of one partition: its device, task set and schedule.
type Shadow = (DeviceId, TaskSet, Schedule);

impl Probe {
    /// Probes every arrival of `epoch` against `fleet`'s current state.
    fn before_epoch(
        &mut self,
        fleet: &FleetScheduler,
        epoch: &[SystemEvent],
        tracer: &mut Tracer,
        request: u64,
    ) {
        let parts = fleet.partitions();
        let n = parts.len();
        let mut shadows: Vec<Shadow> = parts
            .iter()
            .map(|p| (p.device(), p.tasks().clone(), p.schedule().clone()))
            .collect();
        // The router's once-per-epoch headroom snapshot and first-fit
        // preference: the scan starts at the arrival's own device, and
        // partitions that pass the utilisation gate come first.
        let head: Vec<f64> = shadows.iter().map(|s| 1.0 - s.1.utilisation()).collect();
        let preference = |task: &IoTask| -> Vec<usize> {
            let affinity = parts
                .iter()
                .position(|p| p.device() == task.device())
                .unwrap_or(0);
            let fits = |p: usize| head[p] + 1e-9 >= task.utilisation();
            let wrap = (0..n).map(|k| (k + affinity) % n);
            wrap.clone()
                .filter(|&p| fits(p))
                .chain(wrap.filter(|&p| !fits(p)))
                .collect()
        };
        let arrivals = epoch.iter().filter_map(|e| match e {
            SystemEvent::Arrival(task) => Some(task),
            _ => None,
        });
        let mut rejected = Vec::new();
        for task in arrivals {
            let order = preference(task);
            if let Some(&first) = order.first() {
                if !self.offer(&mut shadows[first], task, tracer, request) {
                    rejected.push((task, order));
                }
            }
        }
        for (task, order) in rejected {
            for &p in order.iter().skip(1).take(FleetConfig::default().retries) {
                if self.offer(&mut shadows[p], task, tracer, request) {
                    break;
                }
            }
        }
    }

    /// Offers `task` to a partition: the service's utilisation gate,
    /// then the ladder. On admission the shadow takes the new task set
    /// and schedule.
    fn offer(
        &mut self,
        shadow: &mut Shadow,
        task: &IoTask,
        tracer: &mut Tracer,
        request: u64,
    ) -> bool {
        let (device, tasks, schedule) = &*shadow;
        if tasks.get(task.id()).is_some() || tasks.utilisation() + task.utilisation() > 1.0 + 1e-9 {
            return false;
        }
        let mut candidate = tasks.clone();
        if candidate.push(task.retarget(*device)).is_err() {
            return false;
        }
        let (jobs, took) = tracer.time("job.expand", request, None, || JobSet::expand(&candidate));
        self.expand.add(true, took);
        self.jobs_expanded += jobs.len() as u64;
        let (guaranteed, took) = tracer.time("analysis.precheck", request, None, || {
            taskset_schedulable_np_fps(&candidate)
        });
        self.precheck.add(guaranteed, took);
        // Align the live schedule to the candidate's hyper-period, as the
        // service does before repairing.
        let (old_h, new_h) = (tasks.hyperperiod(), candidate.hyperperiod());
        let base = if schedule.is_empty() || old_h.is_zero() {
            Schedule::new()
        } else if new_h > old_h {
            schedule.repeat((new_h / old_h) as u32, old_h)
        } else {
            schedule.clone()
        };
        let admitted = self.ladder(&jobs, &base, guaranteed, tracer, request);
        match admitted {
            Some(new_schedule) => {
                *shadow = (*device, candidate, new_schedule);
                true
            }
            None => {
                self.ladder_fail += 1;
                false
            }
        }
    }

    /// The integration tiers: neighbourhood repair of `base`, LCC-D
    /// re-synthesis, then the FPS fallback when `guaranteed`.
    fn ladder(
        &mut self,
        jobs: &JobSet,
        base: &Schedule,
        guaranteed: bool,
        tracer: &mut Tracer,
        request: u64,
    ) -> Option<Schedule> {
        let scratch = &mut self.scratch;
        let (repaired, took) = tracer.time("repair.neighbourhood", request, None, || {
            repair_neighbourhood_in(jobs, base, SlotPolicy::default(), scratch).ok()
        });
        self.repair.add(repaired.is_some(), took);
        if let Some((schedule, _)) = repaired {
            return Some(schedule);
        }
        let (synthesised, took) = tracer.time("lccd.schedule", request, None, || {
            StaticScheduler::new().schedule(jobs).ok()
        });
        self.lccd.add(synthesised.is_some(), took);
        if synthesised.is_some() || !guaranteed {
            return synthesised;
        }
        let (fallback, took) = tracer.time("fps.schedule", request, None, || {
            FpsOffline::new().schedule(jobs).ok()
        });
        self.fps.add(fallback.is_some(), took);
        fallback
    }
}

/// Folds one verdict into the decision digest (wall-clock fields such
/// as the admission latency are left out).
fn digest_outcome(d: &mut Digest, out: &FleetOutcome) {
    d.word(out.partition.map_or(u64::MAX, |p| u64::from(p.0)));
    d.word(u64::from(out.attempts));
    match &out.outcome {
        EventOutcome::Admitted {
            task,
            replaced,
            resynthesized,
            ..
        } => {
            d.word(1);
            d.word(u64::from(task.0));
            d.word(*replaced as u64);
            d.word(u64::from(*resynthesized));
        }
        EventOutcome::Rejected { task, reason } => {
            d.word(2);
            d.word(u64::from(task.0));
            d.word(match reason {
                RejectReason::Infeasible(diag) => 10 + diag.cause as u64,
                RejectReason::DuplicateTask => 1,
                RejectReason::InvalidUnderLoad => 2,
            });
        }
        EventOutcome::Departed { task } => {
            d.word(3);
            d.word(u64::from(task.0));
        }
        EventOutcome::ModeChanged {
            admitted,
            rejected,
            departed,
            ..
        } => {
            d.word(4);
            for id in admitted.iter().chain(rejected).chain(departed) {
                d.word(u64::from(id.0));
            }
        }
        EventOutcome::SpikeApplied { percent, shed } => {
            d.word(5);
            d.word(u64::from(*percent));
            for id in shed {
                d.word(u64::from(id.0));
            }
        }
        EventOutcome::PartitionDied {
            device,
            rehomed,
            lost,
            ..
        } => {
            d.word(6);
            d.word(u64::from(device.0));
            for (id, to) in rehomed {
                d.word(u64::from(id.0));
                d.word(u64::from(to.0));
            }
            d.word(lost.len() as u64);
        }
        EventOutcome::Ignored { .. } => d.word(7),
    }
}

/// Deterministic totals of the first pass, plus durability timings.
#[derive(Debug, Default)]
struct Totals {
    fleet: FleetStats,
    service: OnlineStats,
    cache_hits: u64,
    cache_misses: u64,
    psi: Vec<f64>,
    upsilon: Vec<f64>,
    apply_time: Duration,
    wal_appends: u64,
    wal_append_time: Duration,
    wal_bytes: u64,
    snapshots: u64,
    snapshot_time: Duration,
    snapshot_bytes: u64,
    parse: Vec<f64>,
    load: Vec<f64>,
    recover: Vec<f64>,
    replayed: u64,
}

/// One scenario's timed replay, and what verification found.
struct Replay {
    timed: Timed,
    epoch_us: Vec<f64>,
    setup: Duration,
    recovery_ms: Option<f64>,
    digest: u64,
    failure: Option<String>,
}

fn replay(
    spec: &FleetSpec,
    cfg: &FleetScenarioConfig,
    first_pass: bool,
    probe: &mut Option<Probe>,
    tracer: &mut Tracer,
    totals: &mut Totals,
    request: &mut u64,
) -> Replay {
    let started = Instant::now();
    let scenario = FleetScenario::generate(cfg);
    let mut fleet = FleetScheduler::bootstrap(&scenario.bases, fleet_config(spec, cfg));
    let setup = started.elapsed();
    let stream: Vec<SystemEvent> = scenario.events.iter().map(|e| e.event.clone()).collect();
    let mut wal = MemoryWal::new();
    let mut snapshot = if spec.durable {
        fleet.snapshot().write()
    } else {
        String::new()
    };
    let mut digest = Digest::default();
    let mut wall = Duration::ZERO;
    let mut epoch_us = Vec::with_capacity(stream.len() / EPOCH + 1);
    let mut failure = None;
    for epoch in stream.chunks(EPOCH) {
        *request += 1;
        if first_pass {
            if let Some(p) = probe.as_mut() {
                p.before_epoch(&fleet, epoch, tracer, *request);
            }
        }
        let t0 = Instant::now();
        let outcomes = fleet.apply_batch(epoch);
        let t1 = Instant::now();
        let mut t_end = t1;
        if spec.durable {
            let record = fleet.epoch_record(epoch);
            if let Err(e) = wal.append(&record) {
                failure.get_or_insert(format!("WAL append failed: {e}"));
            }
            let t2 = Instant::now();
            tracer.record("wal.append", *request, None, t1, t2);
            t_end = t2;
            if first_pass {
                totals.wal_appends += 1;
                totals.wal_append_time += t2 - t1;
            }
            if fleet.stats().epochs.is_multiple_of(SNAPSHOT_EVERY) {
                snapshot = fleet.snapshot().write();
                t_end = Instant::now();
                tracer.record("persist.snapshot", *request, None, t2, t_end);
                if first_pass {
                    totals.snapshots += 1;
                    totals.snapshot_time += t_end - t2;
                    totals.snapshot_bytes += snapshot.len() as u64;
                }
            }
        }
        tracer.record("fleet.apply_batch", *request, None, t0, t1);
        wall += t_end - t0;
        epoch_us.push((t1 - t0).as_secs_f64() * 1e6);
        if first_pass {
            totals.apply_time += t1 - t0;
        }
        for out in &outcomes {
            digest_outcome(&mut digest, out);
        }
    }
    // --- verification, outside the timed region ---
    let certificate = ScheduleCertificate::certify(&fleet);
    if !certificate.is_clean() {
        failure.get_or_insert(format!("certificate: {:?}", certificate.report));
    }
    for p in fleet.partitions() {
        digest.word(u64::from(p.device().0));
        digest.word(schedule_digest(p.schedule()));
        digest.word(stats_digest(p.stats()));
    }
    let recovery_ms = if spec.durable {
        match recover(
            &fleet, &snapshot, &wal, tracer, *request, first_pass, totals,
        ) {
            Ok(ms) => Some(ms),
            Err(e) => {
                failure.get_or_insert(e);
                None
            }
        }
    } else {
        None
    };
    if first_pass {
        totals.wal_bytes += wal.text().len() as u64;
        totals.fleet.merge(fleet.stats());
        totals.service.merge(&fleet.aggregate_stats());
        for p in fleet.partitions() {
            totals.cache_hits += p.cache().hits() as u64;
            totals.cache_misses += p.cache().misses() as u64;
            if !p.jobs().is_empty() {
                totals.psi.push(p.psi());
                totals.upsilon.push(p.upsilon());
            }
        }
    }
    Replay {
        timed: Timed {
            ops: stream.len() as u64,
            wall,
        },
        epoch_us,
        setup,
        recovery_ms,
        digest: digest.value(),
        failure,
    }
}

/// Times a crash recovery from the latest snapshot plus the WAL, and
/// checks that the recovered fleet matches the live one digest for
/// digest. Returns the recovery wall time in milliseconds.
fn recover(
    live: &FleetScheduler,
    snapshot: &str,
    wal: &MemoryWal,
    tracer: &mut Tracer,
    request: u64,
    first_pass: bool,
    totals: &mut Totals,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let parsed = FleetSnapshot::parse(snapshot).map_err(|e| format!("snapshot parse: {e}"))?;
    let t1 = Instant::now();
    let contents = wal.load().map_err(|e| format!("WAL load: {e}"))?;
    let t2 = Instant::now();
    let (recovered, report) =
        FleetScheduler::recover(&parsed, &contents).map_err(|e| format!("recover: {e}"))?;
    let t3 = Instant::now();
    let recovery = tracer.record("recovery", request, None, t0, t3);
    tracer.record("persist.parse", request, recovery, t0, t1);
    tracer.record("wal.load", request, recovery, t1, t2);
    tracer.record("persist.recover", request, recovery, t2, t3);
    if first_pass {
        totals.parse.push((t1 - t0).as_secs_f64() * 1e3);
        totals.load.push((t2 - t1).as_secs_f64() * 1e3);
        totals.recover.push((t3 - t2).as_secs_f64() * 1e3);
        totals.replayed += report.replayed as u64;
    }
    let same = recovered.partitions().len() == live.partitions().len()
        && recovered
            .partitions()
            .iter()
            .zip(live.partitions())
            .all(|(r, l)| {
                schedule_digest(r.schedule()) == schedule_digest(l.schedule())
                    && stats_digest(r.stats()) == stats_digest(l.stats())
            });
    if !same {
        return Err("recovered fleet differs from the live fleet".into());
    }
    Ok((t3 - t0).as_secs_f64() * 1e3)
}

/// Runs a fleet workload: one pass over `spec.scenarios` scenarios,
/// then more passes while another one fits in `seconds`. Every count,
/// ratio and digest comes from the first pass; every later pass must
/// reproduce its decisions. End-to-end timings are calibrated
/// ([`crate::calib`]).
#[must_use]
pub fn run(spec: &FleetSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut tracer = Tracer::new(trace);
    let mut probe = trace.then(Probe::default);
    let mut totals = Totals::default();
    let mut out = Outcome::default();
    let configs: Vec<FleetScenarioConfig> = (0..spec.scenarios)
        .map(|i| scenario_config(spec, seed, i))
        .collect();
    let mut digests = Vec::with_capacity(configs.len());
    let (mut regions, mut raw) = (Vec::new(), Vec::new());
    let (mut epoch_us, mut setups, mut recoveries, mut slowdowns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut request = 0u64;
    let started = Instant::now();
    let mut passes = 0usize;
    while another_pass_fits(passes, started.elapsed(), seconds) {
        let first = passes == 0;
        for (i, cfg) in configs.iter().enumerate() {
            let scale = calib::scale();
            let r = replay(
                spec,
                cfg,
                first,
                &mut probe,
                &mut tracer,
                &mut totals,
                &mut request,
            );
            slowdowns.push(1.0 / scale);
            raw.push(r.timed);
            regions.push(Timed {
                ops: r.timed.ops,
                wall: r.timed.wall.mul_f64(scale),
            });
            epoch_us.extend(r.epoch_us.iter().map(|t| t * scale));
            setups.push(r.setup.as_secs_f64() * scale);
            recoveries.extend(r.recovery_ms);
            if let Some(why) = &r.failure {
                out.failed += 1;
                out.notes.push(format!("scenario {i} pass {passes}: {why}"));
            }
            if first {
                out.attempted += 1;
                digests.push(r.digest);
            } else if r.digest != digests[i] {
                out.failed += 1;
                out.notes.push(format!(
                    "scenario {i} pass {passes}: decisions differ from pass 0"
                ));
            }
        }
        passes += 1;
    }
    let mut digest = Digest::default();
    for d in &digests {
        digest.word(*d);
    }
    out.digest = digest.value();
    let rates: Vec<f64> = regions.iter().map(Timed::rate).collect();
    let ops_per_sec = pooled_rate(&regions);
    out.set("ops_per_sec", ops_per_sec);
    out.set("scenario_ops_per_sec_p50", median(&rates));
    out.set("epoch_p50_us", percentile(&epoch_us, 50.0));
    out.set("epoch_p90_us", percentile(&epoch_us, 90.0));
    let f = &totals.fleet;
    out.set("acceptance", f.acceptance_ratio());
    out.set("psi", mean(&totals.psi));
    out.set("upsilon", mean(&totals.upsilon));
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "{}: {} scenarios x {} passes, {} epoch samples ({} beyond p90), pool width {}; \
         uncalibrated ops_per_sec {}, median machine slow-down {:.4}",
        spec.name,
        spec.scenarios,
        passes,
        epoch_us.len(),
        beyond(epoch_us.len(), 90.0),
        spec.width,
        pooled_rate(&raw),
        median(&slowdowns),
    ));
    if spec.durable {
        out.notes.push(format!(
            "recovery_ms_p50 {:.3} ms over {} recoveries",
            median(&recoveries),
            recoveries.len()
        ));
    }

    // --- per-layer metrics (deterministic counts come from pass 0) ---
    let s = &totals.service;
    let apply_ms = totals.apply_time.as_secs_f64() * 1e3;
    let construction_ms = s.repair_time.as_secs_f64() * 1e3;
    let integrations = s.admission_events as f64;
    // Every successful integration is counted as a repair or a
    // re-synthesis (FPS fallbacks included).
    let integration_fails = s.admission_events.saturating_sub(s.repairs + s.resyntheses) as f64;
    out.set("fleet.self_ms", apply_ms - construction_ms);
    out.set(
        "fleet.retries_per_arrival",
        ratio(f.retries as f64, f.arrivals as f64),
    );
    out.set(
        "fleet.retry_yield",
        ratio(f.retry_admissions as f64, f.retries as f64),
    );
    out.set("fleet.epochs", f.epochs as f64);
    out.set("service.offers", s.arrivals as f64);
    out.set(
        "service.gate_reject_ratio",
        ratio(s.fast_rejects as f64, s.arrivals as f64),
    );
    out.set("service.integrations", integrations);
    out.set(
        "service.integration_fail_ratio",
        ratio(integration_fails, integrations),
    );
    out.set("service.construction_ms", construction_ms);
    out.set("service.admission_ms", s.admission_time.as_secs_f64() * 1e3);
    out.set("service.repairs", s.repairs as f64);
    out.set("service.resyntheses", s.resyntheses as f64);
    out.set("service.fps_fallbacks", s.fps_fallbacks as f64);
    let lookups = (totals.cache_hits + totals.cache_misses) as f64;
    out.set("cache.lookups", lookups);
    out.set("cache.hit_ratio", ratio(totals.cache_hits as f64, lookups));
    out.set("pool.lane_overlap", ratio(construction_ms, apply_ms));
    out.set("calib.slowdown", median(&slowdowns));
    if let Some(p) = &probe {
        out.set("analysis.precheck_us", p.precheck.us());
        out.set("job.expand_us", p.expand.us());
        out.set(
            "job.jobs_per_expand",
            ratio(p.jobs_expanded as f64, p.expand.calls() as f64),
        );
        out.set("repair.calls", p.repair.calls() as f64);
        out.set("repair.pass", p.repair.pass as f64);
        out.set("repair.fail", p.repair.fail as f64);
        out.set("repair.pass_us", p.repair.pass_us());
        out.set("repair.fail_us", p.repair.fail_us());
        out.set("lccd.calls", p.lccd.calls() as f64);
        out.set("lccd.pass", p.lccd.pass as f64);
        out.set("lccd.pass_us", p.lccd.pass_us());
        out.set("lccd.fail_us", p.lccd.fail_us());
        out.set("fps.calls", p.fps.calls() as f64);
        out.set("fps.pass", p.fps.pass as f64);
        out.set("fps.us", p.fps.us());
        out.set("probe.ladder_fail", p.ladder_fail as f64);
        out.notes.push(format!(
            "probe vs program: repair pass {} / service.repairs {}; lccd+fps pass {} / service.resyntheses {}; \
             fps pass {} / service.fps_fallbacks {}; ladder fail {} / integrations-successes {}",
            p.repair.pass,
            s.repairs,
            p.lccd.pass + p.fps.pass,
            s.resyntheses,
            p.fps.pass,
            s.fps_fallbacks,
            p.ladder_fail,
            integration_fails,
        ));
    }
    if spec.durable {
        out.set(
            "wal.append_us",
            ratio(
                totals.wal_append_time.as_secs_f64() * 1e6,
                totals.wal_appends as f64,
            ),
        );
        out.set(
            "wal.bytes_per_epoch",
            ratio(totals.wal_bytes as f64, totals.wal_appends as f64),
        );
        out.set("wal.load_ms", mean(&totals.load));
        out.set(
            "persist.snapshot_us",
            ratio(
                totals.snapshot_time.as_secs_f64() * 1e6,
                totals.snapshots as f64,
            ),
        );
        out.set(
            "persist.snapshot_bytes",
            ratio(totals.snapshot_bytes as f64, totals.snapshots as f64),
        );
        out.set("persist.parse_ms", mean(&totals.parse));
        out.set("persist.recover_ms", mean(&totals.recover));
        out.set("persist.replayed_epochs", totals.replayed as f64);
        out.set("recovery_ms_p50", median(&recoveries));
    }
    if trace {
        out.set("trace.ops_per_sec", ops_per_sec);
        out.set("trace.spans", tracer.spans().len() as f64);
        let ladder = ratio(s.admission_time.as_secs_f64() * 1e3, apply_ms);
        let fail = ratio(integration_fails, integrations);
        out.notes.push(format!(
            "roadmap re-anchor check (its figures describe the rejection storm): ladder share \
             of apply_batch {:.3} (expect >= 0.90: {}), integrations failing {:.3} (expect >= 0.95: {})",
            ladder,
            agree(ladder >= 0.90),
            fail,
            agree(fail >= 0.95),
        ));
    }
    out.spans = tracer;
    out
}

fn agree(ok: bool) -> &'static str {
    if ok {
        "agrees"
    } else {
        "disagrees"
    }
}
