//! Independent digest re-derivation.
//!
//! The WAL's commit lines carry per-partition `(schedule, stats)`
//! digests computed by `tagio_online::persist`. This module re-derives
//! them from the *documented* format (EXPERIMENTS.md, "WAL and
//! snapshot formats": 64-bit FNV-1a over the canonical entry fields
//! and decision counters) without calling the producing functions — a
//! shared bug in the producer cannot cancel out here.

use tagio_core::schedule::ScheduleEntry;
use tagio_online::OnlineStats;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A from-scratch 64-bit FNV-1a fold.
#[derive(Debug, Clone, Copy)]
pub struct AuditFnv(u64);

impl AuditFnv {
    /// The empty hash.
    #[must_use]
    pub fn new() -> AuditFnv {
        AuditFnv(FNV_OFFSET)
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` as its 8 little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for AuditFnv {
    fn default() -> AuditFnv {
        AuditFnv::new()
    }
}

/// Re-derives a partition's schedule digest: per entry in schedule
/// order, the task id, job index, start and duration in microseconds.
#[must_use]
pub fn rederive_schedule_digest(entries: &[ScheduleEntry]) -> u64 {
    let mut h = AuditFnv::new();
    for e in entries {
        h.u64(u64::from(e.job.task.0));
        h.u64(u64::from(e.job.index));
        h.u64(e.start.as_micros());
        h.u64(e.duration.as_micros());
    }
    h.finish()
}

/// Re-derives a partition's stats digest: the 16 decision counters in
/// declaration order, then reject causes (kebab-case name + count, in
/// cause order), then per-tenant counters when present. The wall-clock
/// fields (`repair_time`, `admission_time`) are deliberately excluded
/// — they are observability, not decisions.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn rederive_stats_digest(stats: &OnlineStats) -> u64 {
    let mut h = AuditFnv::new();
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
        h.u64(v as u64);
    }
    for (&cause, &count) in &stats.reject_causes {
        h.bytes(cause.as_str().as_bytes());
        h.u64(count as u64);
    }
    for (&tenant, c) in &stats.tenants {
        h.u64(u64::from(tenant.0));
        for v in [c.arrivals, c.admitted, c.rejected, c.shed] {
            h.u64(v as u64);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagio_core::job::JobId;
    use tagio_core::task::TaskId;
    use tagio_core::time::{Duration, Time};
    use tagio_online::persist::{schedule_digest, stats_digest};
    use tagio_online::tenant::TenantCounters;
    use tagio_online::TenantId;

    #[test]
    fn schedule_digest_agrees_with_the_producer() {
        let entries = vec![
            ScheduleEntry {
                job: JobId {
                    task: TaskId(3),
                    index: 1,
                },
                start: Time::from_micros(250),
                duration: Duration::from_micros(500),
            },
            ScheduleEntry {
                job: JobId {
                    task: TaskId(7),
                    index: 0,
                },
                start: Time::from_micros(900),
                duration: Duration::from_micros(125),
            },
        ];
        let mut schedule = tagio_core::schedule::Schedule::new();
        for e in &entries {
            schedule.insert(*e);
        }
        assert_eq!(
            rederive_schedule_digest(schedule.as_slice()),
            schedule_digest(&schedule)
        );
        assert_ne!(
            rederive_schedule_digest(&entries[..1]),
            rederive_schedule_digest(&entries)
        );
    }

    #[test]
    fn stats_digest_agrees_with_the_producer() {
        let mut stats = OnlineStats {
            arrivals: 9,
            admitted: 6,
            rejected: 3,
            shed: 2,
            shed_overload: 2,
            ..OnlineStats::default()
        };
        stats.tenants.insert(
            TenantId(2),
            TenantCounters {
                arrivals: 4,
                admitted: 3,
                rejected: 1,
                shed: 0,
            },
        );
        // Wall clocks must not count.
        stats.repair_time = std::time::Duration::from_micros(1234);
        assert_eq!(rederive_stats_digest(&stats), stats_digest(&stats));
    }

    #[test]
    fn stats_digest_covers_each_decision_counter_and_no_clock() {
        let mut base = OnlineStats::default();
        base.tenants.insert(TenantId(2), TenantCounters::default());
        type Bump = fn(&mut OnlineStats);
        let bumps: [(&str, Bump); 20] = [
            ("arrivals", |s| s.arrivals += 1),
            ("admitted", |s| s.admitted += 1),
            ("rejected", |s| s.rejected += 1),
            ("fast_rejects", |s| s.fast_rejects += 1),
            ("shed_overload", |s| s.shed_overload += 1),
            ("shed_infeasible", |s| s.shed_infeasible += 1),
            ("departures", |s| s.departures += 1),
            ("repairs", |s| s.repairs += 1),
            ("resyntheses", |s| s.resyntheses += 1),
            ("fps_fallbacks", |s| s.fps_fallbacks += 1),
            ("shed", |s| s.shed += 1),
            ("spikes", |s| s.spikes += 1),
            ("mode_changes", |s| s.mode_changes += 1),
            ("ignored", |s| s.ignored += 1),
            ("repair_events", |s| s.repair_events += 1),
            ("admission_events", |s| s.admission_events += 1),
            ("tenant arrivals", |s| {
                s.tenants.entry(TenantId(2)).or_default().arrivals += 1;
            }),
            ("tenant admitted", |s| {
                s.tenants.entry(TenantId(2)).or_default().admitted += 1;
            }),
            ("tenant rejected", |s| {
                s.tenants.entry(TenantId(2)).or_default().rejected += 1;
            }),
            ("tenant shed", |s| {
                s.tenants.entry(TenantId(2)).or_default().shed += 1;
            }),
        ];
        let before = stats_digest(&base);
        for (name, bump) in bumps {
            let mut stats = base.clone();
            bump(&mut stats);
            let after = stats_digest(&stats);
            assert_ne!(after, before, "{name} must count");
            assert_eq!(after, rederive_stats_digest(&stats), "{name}");
        }
        // Wall clocks must not count.
        let mut clocked = base.clone();
        clocked.repair_time += std::time::Duration::from_micros(5);
        clocked.admission_time += std::time::Duration::from_micros(7);
        assert_eq!(stats_digest(&clocked), before);
    }
}
