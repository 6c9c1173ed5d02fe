//! Property-based equivalence of cached and uncached admission analysis.
//!
//! The online service trusts [`AnalysisCache::invalidate_for_arrival`]
//! and [`AnalysisCache::invalidate_for_departure`] to discard every entry
//! a task-set mutation can reach. This suite drives random event traces —
//! arrivals, departures, re-admissions of the same id with a *changed
//! WCET* (the mode-change pattern), and rejected candidates purged again
//! — through a persistent cache and asserts, after every event, that the
//! cached verdicts are identical to a cold re-analysis. Duplicate
//! priorities are drawn deliberately often so the tie-break invalidation
//! direction is exercised.

use proptest::collection::vec;
use proptest::prelude::*;
use tagio_core::task::{DeviceId, IoTask, Priority, TaskId, TaskSet};
use tagio_core::time::Duration;
use tagio_sched::analysis::{response_time_np_fps, taskset_schedulable_np_fps};
use tagio_sched::AnalysisCache;

/// Builds a pool task from drawn parameters. Periods come from a small
/// divisor-friendly list; priorities from a 3-value band so ties are
/// frequent; WCET is scaled off the period.
fn pool_task(id: u32, period_ix: usize, wcet_permille: u64, prio: u32) -> IoTask {
    let periods_ms = [4u64, 8, 8, 16];
    let period = Duration::from_millis(periods_ms[period_ix % periods_ms.len()]);
    let wcet =
        Duration::from_micros((period.as_micros() * wcet_permille.clamp(1, 240) / 1000).max(1));
    IoTask::builder(TaskId(id), DeviceId(0))
        .wcet(wcet)
        .period(period)
        .ideal_offset(period / 2)
        .margin(period / 4)
        .priority(Priority(prio % 3))
        .build()
        .expect("pool parameters are valid")
}

/// One trace step: which pool slot to touch, and a WCET variant so a
/// re-admission of a departed id can come back with a different WCET.
#[derive(Debug, Clone)]
struct Step {
    slot: usize,
    wcet_permille: u64,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    vec((0usize..6, 1u64..240), 1..24).prop_map(|raw| {
        raw.into_iter()
            .map(|(slot, wcet_permille)| Step {
                slot,
                wcet_permille,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every arrival, departure, or changed-WCET re-admission, every
    /// entry the direction-aware invalidations (`invalidate_for_arrival` /
    /// `invalidate_for_departure`) kept must still agree with a cold
    /// analysis — both on the whole-set verdict and on each per-task
    /// response time. WCETs are drawn from a tiny band so exact blocking
    /// ties (the rules' keep-cases) occur constantly.
    #[test]
    fn direction_aware_invalidation_matches_cold_analysis(
        trace in steps(),
        period_seed in 0usize..4,
        prio_seed in 0u32..3,
        tie_band in 1u64..8,
    ) {
        let mut active = TaskSet::new();
        let mut cache = AnalysisCache::new();
        for (i, step) in trace.iter().enumerate() {
            let id = step.slot as u32;
            // Quantise WCETs into `tie_band` buckets so equal-WCET
            // blockers (bound witnesses) are the norm, not the exception.
            let permille = (step.wcet_permille / 30).clamp(1, tie_band) * 30;
            if let Some(current) = active.get(TaskId(id)).cloned() {
                active = active
                    .iter()
                    .filter(|t| t.id() != current.id())
                    .cloned()
                    .collect();
                cache.invalidate_for_departure(&current);
            } else {
                let task = pool_task(
                    id,
                    period_seed + step.slot + i,
                    permille,
                    prio_seed + id,
                );
                cache.invalidate_for_arrival(&task);
                active.push(task).expect("slot was inactive");
            }
            prop_assert_eq!(
                cache.schedulable(&active),
                taskset_schedulable_np_fps(&active),
                "set verdict diverged at step {}", i
            );
            for t in &active {
                prop_assert_eq!(
                    cache.response_time(t, &active),
                    response_time_np_fps(t, &active),
                    "stale entry for {:?} at step {}", t.id(), i
                );
            }
        }
    }

    /// The admission pre-check's reject path: invalidate for a candidate
    /// arrival, probe the grown set (which caches entries that *saw* the
    /// candidate), then purge with the departure invalidation even though
    /// the candidate was never admitted. The sharpened above-bound keep
    /// (`invalidate_for_departure` retains outranking entries the leaver
    /// provably never blocked) must still leave zero stale entries: after
    /// every probe/purge cycle the cache agrees with a cold analysis of
    /// the unchanged active set.
    #[test]
    fn reject_purge_leaves_no_stale_entries(
        trace in steps(),
        period_seed in 0usize..4,
        prio_seed in 0u32..3,
    ) {
        let mut active = TaskSet::new();
        let mut cache = AnalysisCache::new();
        for (i, step) in trace.iter().enumerate() {
            let id = step.slot as u32;
            if active.get(TaskId(id)).is_none() {
                let task = pool_task(id, period_seed + step.slot, 60, prio_seed + id);
                cache.invalidate_for_arrival(&task);
                active.push(task).expect("slot was inactive");
            }
            // Probe a never-admitted candidate, then purge it. WCETs span
            // the full band, so the purge hits below-bound keeps, exact
            // ties, and the above-bound keep alike.
            let candidate = pool_task(
                100 + i as u32,
                period_seed + i,
                step.wcet_permille,
                prio_seed + i as u32,
            );
            cache.invalidate_for_arrival(&candidate);
            let mut grown = active.clone();
            grown.push(candidate.clone()).expect("candidate id is fresh");
            let _ = cache.schedulable(&grown);
            cache.invalidate_for_departure(&candidate);
            prop_assert_eq!(
                cache.schedulable(&active),
                taskset_schedulable_np_fps(&active),
                "set verdict diverged after purge {}", i
            );
            for t in &active {
                prop_assert_eq!(
                    cache.response_time(t, &active),
                    response_time_np_fps(t, &active),
                    "stale entry for {:?} after purge {}", t.id(), i
                );
            }
        }
    }
}
