//! Cached schedulability analysis for online admission control.
//!
//! The online scheduling service (`tagio-online`) answers "can this task
//! set still be guaranteed?" on *every* event — far too often to rerun the
//! full fixed-point response-time analysis ([`response_time_np_fps`]) for
//! every task each time. [`AnalysisCache`] memoises the per-task results
//! and invalidates them **incrementally**: a change to one task only
//! discards the entries its interference or blocking can actually reach.
//!
//! Invalidation rules for a task `τc` that arrives or departs, derived
//! from the analysis structure and its total rank order ([`outranks`]:
//! priority first, then smaller id on ties):
//!
//! * `τc`'s own entry is always discarded;
//! * every task `τc` **outranks** (lower priority, or equal priority with
//!   a larger id) is discarded — `τc` contributes to (or withdraws from)
//!   their interference term;
//! * a task that **outranks `τc`** keeps its interference term; only its
//!   blocking bound `Bi = max{Cj | τj outranked by τi}` can move. Each
//!   entry records how many outranked tasks *realise* that bound (the
//!   `max` witnesses), and the rule depends on the direction:
//!   * [`AnalysisCache::invalidate_for_arrival`] drops the entry only on
//!     `Ci(τc) > Bi`. On an exact tie the max cannot move; the newcomer
//!     just becomes one more witness.
//!   * [`AnalysisCache::invalidate_for_departure`] drops the entry only
//!     when the leaver was the last witness of the bound. A WCET below
//!     the bound cannot lower a max, and a WCET strictly *above* it
//!     proves the leaver was not in the analysed set at all (its
//!     membership would have raised the `max` to its WCET), so the entry
//!     is kept exactly — this makes the arrival-then-reject purge the
//!     admission pre-check performs a near-no-op instead of a flush.
//!
//! Because the entry's id is the map key, the tie direction is resolved
//! per entry — equal-priority entries are *not* blanket-invalidated, only
//! the side of the tie the analysis says `τc` can actually reach.
//!
//! The cache is trust-based: callers must route every task-set mutation
//! through the matching `invalidate_for_*` entry point (or drop
//! everything with [`AnalysisCache::clear`], as a WCET rescale must).
//! Hit/miss counters expose how much work the incremental rules save —
//! the online service's tests pin that saving.

use crate::analysis::{outranks, response_time_np_fps, ResponseTime};
use std::collections::HashMap;
use tagio_core::task::{IoTask, Priority, TaskId, TaskSet};
use tagio_core::time::Duration;

/// One memoised per-task analysis result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CachedAnalysis {
    /// The priority the task had when analysed (priority changes must
    /// invalidate; see [`AnalysisCache::response_time`]).
    priority: Priority,
    result: ResponseTime,
    /// How many outranked tasks realised the blocking bound when the
    /// entry was computed (`|{τj | Cj = Bi}|`; `0` when `Bi = 0`). The
    /// direction-aware invalidations maintain this count so an exact-tie
    /// churn does not discard the entry.
    blocking_ties: usize,
}

/// A memoising wrapper around the non-preemptive FPS response-time
/// analysis, with incremental invalidation.
///
/// ```
/// use tagio_sched::cache::AnalysisCache;
/// use tagio_core::task::{DeviceId, IoTask, Priority, TaskId, TaskSet};
/// use tagio_core::time::Duration;
///
/// let mk = |id: u32, prio: u32| {
///     IoTask::builder(TaskId(id), DeviceId(0))
///         .wcet(Duration::from_micros(100))
///         .period(Duration::from_millis(10))
///         .ideal_offset(Duration::from_millis(5))
///         .margin(Duration::from_micros(2_500))
///         .priority(Priority(prio))
///         .build()
///         .unwrap()
/// };
/// let tasks: TaskSet = vec![mk(0, 1), mk(1, 0)].into_iter().collect();
/// let mut cache = AnalysisCache::new();
/// assert!(cache.schedulable(&tasks));
/// assert_eq!(cache.misses(), 2);
/// assert!(cache.schedulable(&tasks)); // second pass is all hits
/// assert_eq!(cache.misses(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AnalysisCache {
    entries: HashMap<TaskId, CachedAnalysis>,
    hits: usize,
    misses: usize,
}

impl AnalysisCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        AnalysisCache::default()
    }

    /// The cached (or freshly computed) worst-case response time of `task`
    /// within `tasks`.
    ///
    /// A cached entry is reused only if the task's priority is unchanged;
    /// a priority change re-analyses (and re-caches) silently.
    pub fn response_time(&mut self, task: &IoTask, tasks: &TaskSet) -> ResponseTime {
        if let Some(cached) = self.entries.get(&task.id()) {
            if cached.priority == task.priority() {
                self.hits += 1;
                return cached.result;
            }
        }
        self.misses += 1;
        let result = response_time_np_fps(task, tasks);
        let blocking_ties = if result.blocking == Duration::ZERO {
            0
        } else {
            tasks
                .iter()
                .filter(|t| t.id() != task.id() && outranks(task, t) && t.wcet() == result.blocking)
                .count()
        };
        self.entries.insert(
            task.id(),
            CachedAnalysis {
                priority: task.priority(),
                result,
                blocking_ties,
            },
        );
        result
    }

    /// `true` when every task of `tasks` passes the response-time test,
    /// recomputing only entries the cache does not hold.
    ///
    /// This is the online admission pre-check: a sufficient condition for
    /// non-preemptive FPS feasibility (pessimistic versus the offline
    /// methods — see [`crate::analysis`]). Priority ties are covered by
    /// the documented total tie-break (equal priority, smaller id
    /// outranks — the same final tie-break the
    /// [`FpsOffline`](crate::fps::FpsOffline) dispatcher applies), so
    /// duplicate priorities no longer silently weaken the test. The
    /// online service still confirms a tie-breaking admission against the
    /// actual simulated FPS schedule as defence in depth.
    pub fn schedulable(&mut self, tasks: &TaskSet) -> bool {
        tasks
            .iter()
            .all(|t| self.response_time(t, tasks).response.is_some())
    }

    /// Discards the entries an **arrival** of `changed` can affect,
    /// including `changed`'s own (see the module docs for the rules).
    ///
    /// An outranking entry is dropped only when the new WCET *strictly
    /// exceeds* its cached bound. An exact tie leaves the bound
    /// (a `max`) where it is — the entry stays, with the newcomer
    /// recorded as one more witness of the bound.
    pub fn invalidate_for_arrival(&mut self, changed: &IoTask) {
        let (id, prio, wcet) = (changed.id(), changed.priority(), changed.wcet());
        self.entries.retain(|&tid, entry| {
            if tid == id {
                return false;
            }
            // The arrival outranks this entry: interference changed.
            if entry.priority < prio || (entry.priority == prio && tid > id) {
                return false;
            }
            // The entry outranks the arrival: its blocking bound moves
            // only when the new WCET climbs past it.
            if wcet > entry.result.blocking {
                return false;
            }
            if wcet == entry.result.blocking && entry.result.blocking > Duration::ZERO {
                entry.blocking_ties += 1;
            }
            true
        });
    }

    /// Discards the entries a **departure** of `changed` can affect,
    /// including `changed`'s own (see the module docs for the rules).
    ///
    /// An outranking entry whose bound the leaver realised is kept
    /// when another equal-WCET witness is still present (the `max` cannot
    /// drop), and only the departure of the last witness discards it. A
    /// leaver's WCET strictly above the cached bound proves the leaver
    /// was absent from the analysed set (membership would have lifted the
    /// `max` to its WCET) — the entry is exact as it stands and kept.
    pub fn invalidate_for_departure(&mut self, changed: &IoTask) {
        let (id, prio, wcet) = (changed.id(), changed.priority(), changed.wcet());
        self.entries.retain(|&tid, entry| {
            if tid == id {
                return false;
            }
            // The leaver outranked this entry: interference changed.
            if entry.priority < prio || (entry.priority == prio && tid > id) {
                return false;
            }
            // The entry outranks the leaver: the bound (a max over the
            // outranked WCETs) can only drop, and only when the last
            // witness of the current max departs. A WCET above the bound
            // means the leaver never contributed to it.
            if wcet == entry.result.blocking && entry.result.blocking > Duration::ZERO {
                if entry.blocking_ties <= 1 {
                    return false;
                }
                entry.blocking_ties -= 1;
            }
            true
        });
    }

    /// Discards everything (e.g. after a utilisation spike rescaled every
    /// WCET).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Lookups answered from the cache.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Lookups that had to run the fixed-point analysis.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagio_core::task::DeviceId;
    use tagio_core::time::Duration;

    fn mk(id: u32, period_ms: u64, wcet_us: u64, prio: u32) -> IoTask {
        IoTask::builder(TaskId(id), DeviceId(0))
            .wcet(Duration::from_micros(wcet_us))
            .period(Duration::from_millis(period_ms))
            .ideal_offset(Duration::from_millis(period_ms) / 2)
            .margin(Duration::from_millis(period_ms) / 4)
            .priority(Priority(prio))
            .build()
            .unwrap()
    }

    fn set() -> TaskSet {
        vec![mk(0, 10, 100, 2), mk(1, 20, 200, 1), mk(2, 40, 400, 0)]
            .into_iter()
            .collect()
    }

    #[test]
    fn cache_agrees_with_direct_analysis() {
        let tasks = set();
        let mut cache = AnalysisCache::new();
        for t in &tasks {
            assert_eq!(
                cache.response_time(t, &tasks),
                response_time_np_fps(t, &tasks)
            );
        }
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
        // Second pass hits every entry.
        for t in &tasks {
            let _ = cache.response_time(t, &tasks);
        }
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn schedulable_matches_uncached_test() {
        use crate::analysis::taskset_schedulable_np_fps;
        let tasks = set();
        let mut cache = AnalysisCache::new();
        assert_eq!(
            cache.schedulable(&tasks),
            taskset_schedulable_np_fps(&tasks)
        );
    }

    #[test]
    fn arrival_invalidates_lower_priorities_only_when_blocking_safe() {
        let tasks = set();
        let mut cache = AnalysisCache::new();
        assert!(cache.schedulable(&tasks));
        assert_eq!(cache.entries.len(), 3);
        // A mid-priority arrival with a tiny WCET: only the entries it
        // outranks are dropped; higher-ranked entries stay because 50us
        // is below their cached blocking bound.
        let newcomer = mk(9, 20, 50, 1);
        cache.invalidate_for_arrival(&newcomer);
        // prio 0 entry (lower) dropped; prio 2 entry kept (its blocking
        // is 400us > 50us); the equal-priority entry kept — its id 1 wins
        // the tie against 9, and its blocking (400us) exceeds 50us.
        assert!(cache.entries.contains_key(&TaskId(0)));
        assert!(cache.entries.contains_key(&TaskId(1)));
        assert!(!cache.entries.contains_key(&TaskId(2)));
    }

    #[test]
    fn equal_priority_ties_invalidate_per_entry_direction() {
        // Three tasks; two share priority 1 around the changed id 3.
        let tasks: TaskSet = vec![mk(1, 10, 100, 1), mk(5, 10, 100, 1), mk(8, 40, 400, 0)]
            .into_iter()
            .collect();
        let mut cache = AnalysisCache::new();
        assert!(cache.schedulable(&tasks));
        // A light equal-priority arrival with id 3: it outranks entry 5
        // (tie, larger id -> interference changed, dropped) but not entry
        // 1 (tie won by the smaller id; 50us < its 400us blocking, kept).
        cache.invalidate_for_arrival(&mk(3, 10, 50, 1));
        assert!(cache.entries.contains_key(&TaskId(1)));
        assert!(!cache.entries.contains_key(&TaskId(5)));
        assert!(!cache.entries.contains_key(&TaskId(8)));
        // A heavy equal-priority arrival exceeds entry 1's blocking bound
        // (900us > 400us) and drops it too.
        assert!(cache.schedulable(&tasks));
        cache.invalidate_for_arrival(&mk(3, 10, 900, 1));
        assert!(!cache.entries.contains_key(&TaskId(1)));
    }

    #[test]
    fn arrival_with_large_wcet_invalidates_higher_priorities_too() {
        let tasks = set();
        let mut cache = AnalysisCache::new();
        assert!(cache.schedulable(&tasks));
        let blocker = mk(9, 40, 4_000, 0);
        cache.invalidate_for_arrival(&blocker);
        // Every higher-ranked entry had blocking <= 400us < 4000us: all
        // dropped — including the equal-priority entry 2, whose smaller
        // id outranks the newcomer and whose blocking bound (0) the new
        // 4000us WCET trivially reaches.
        assert!(!cache.entries.contains_key(&TaskId(0)));
        assert!(!cache.entries.contains_key(&TaskId(1)));
        assert!(!cache.entries.contains_key(&TaskId(2)));
    }

    #[test]
    fn arrival_tying_the_blocking_bound_keeps_the_entry() {
        // Entry 0 (prio 2) outranks tasks 1 and 2; its blocking bound is
        // task 2's 400us. An arrival that exactly ties the bound cannot
        // move a max, so the arrival rule keeps the entry, and the kept
        // result still agrees with a cold analysis of the grown set.
        let tasks = set();
        let mut cache = AnalysisCache::new();
        assert!(cache.schedulable(&tasks));
        let newcomer = mk(9, 20, 400, 1);
        cache.invalidate_for_arrival(&newcomer);
        assert!(cache.entries.contains_key(&TaskId(0)), "tie kept");
        let mut grown = tasks.clone();
        grown.push(newcomer).unwrap();
        let hits = cache.hits();
        let cached = cache.response_time(grown.get(TaskId(0)).unwrap(), &grown);
        assert_eq!(cache.hits(), hits + 1, "answered from the cache");
        assert_eq!(
            cached,
            response_time_np_fps(grown.get(TaskId(0)).unwrap(), &grown)
        );
        // A strictly larger WCET still invalidates.
        cache.invalidate_for_arrival(&mk(10, 20, 401, 1));
        assert!(!cache.entries.contains_key(&TaskId(0)));
    }

    #[test]
    fn departure_keeps_entry_while_another_blocking_witness_remains() {
        // Grow the set so entry 0's 400us bound has two witnesses (tasks
        // 2 and 9). Departing one witness keeps the entry; departing the
        // last one drops it.
        let mut grown = set();
        let twin = mk(9, 20, 400, 1);
        grown.push(twin.clone()).unwrap();
        let mut cache = AnalysisCache::new();
        assert!(cache.schedulable(&grown));
        cache.invalidate_for_departure(&twin);
        assert!(
            cache.entries.contains_key(&TaskId(0)),
            "bound still realised by task 2"
        );
        let shrunk = set();
        assert_eq!(
            cache.response_time(shrunk.get(TaskId(0)).unwrap(), &shrunk),
            response_time_np_fps(shrunk.get(TaskId(0)).unwrap(), &shrunk)
        );
        cache.invalidate_for_departure(&mk(2, 40, 400, 0));
        assert!(
            !cache.entries.contains_key(&TaskId(0)),
            "last witness departed"
        );
    }

    #[test]
    fn departure_above_the_cached_bound_keeps_the_entry_exactly() {
        // A leaver whose WCET exceeds the cached bound cannot have been
        // in the analysed set: had it been, the bound — a max over the
        // outranked WCETs — would sit at or above its WCET. Its
        // "departure" therefore leaves outranking entries exact. (Entry
        // 2 is still interference-invalidated: the leaver outranks it.)
        let tasks = set();
        let mut cache = AnalysisCache::new();
        assert!(cache.schedulable(&tasks));
        cache.invalidate_for_departure(&mk(9, 20, 900, 1));
        assert!(
            cache.entries.contains_key(&TaskId(0)),
            "900us > 400us bound"
        );
        assert!(cache.entries.contains_key(&TaskId(1)));
        assert!(!cache.entries.contains_key(&TaskId(2)));
        // The kept entries still agree with a cold analysis.
        let hits = cache.hits();
        for id in [TaskId(0), TaskId(1)] {
            assert_eq!(
                cache.response_time(tasks.get(id).unwrap(), &tasks),
                response_time_np_fps(tasks.get(id).unwrap(), &tasks)
            );
        }
        assert_eq!(cache.hits(), hits + 2, "both answered from the cache");
    }

    #[test]
    fn rejected_heavy_candidate_purges_back_to_a_consistent_cache() {
        // The admission pre-check's reject path: invalidate for the
        // arrival, probe the grown set, then purge with the departure
        // invalidation. For a heavy candidate the arrival pass flushes
        // everything; the probe recomputes entries *with* the candidate
        // in the set, and the departure pass must drop every entry that
        // saw it — leaving nothing stale.
        let tasks = set();
        let mut cache = AnalysisCache::new();
        assert!(cache.schedulable(&tasks));
        let heavy = mk(9, 20, 900, 1);
        cache.invalidate_for_arrival(&heavy);
        let mut grown = tasks.clone();
        grown.push(heavy.clone()).unwrap();
        let _ = cache.schedulable(&grown);
        cache.invalidate_for_departure(&heavy);
        for t in &tasks {
            assert_eq!(
                cache.response_time(t, &tasks),
                response_time_np_fps(t, &tasks),
                "entry {:?} stale after the purge",
                t.id()
            );
        }
    }

    #[test]
    fn arrival_then_departure_of_a_tying_task_round_trips() {
        // The admission pre-check pairs an arrival invalidation with a
        // departure purge when the candidate is rejected; a tying WCET
        // must leave the cache exactly as consistent as before.
        let tasks = set();
        let mut cache = AnalysisCache::new();
        assert!(cache.schedulable(&tasks));
        let newcomer = mk(9, 20, 400, 1);
        cache.invalidate_for_arrival(&newcomer);
        cache.invalidate_for_departure(&newcomer);
        assert!(cache.entries.contains_key(&TaskId(0)));
        let hits = cache.hits();
        assert_eq!(
            cache.response_time(tasks.get(TaskId(0)).unwrap(), &tasks),
            response_time_np_fps(tasks.get(TaskId(0)).unwrap(), &tasks)
        );
        assert_eq!(cache.hits(), hits + 1);
    }

    #[test]
    fn own_entry_is_always_dropped() {
        let tasks = set();
        let mut cache = AnalysisCache::new();
        assert!(cache.schedulable(&tasks));
        cache.invalidate_for_arrival(tasks.get(TaskId(1)).unwrap());
        assert!(!cache.entries.contains_key(&TaskId(1)));
    }

    #[test]
    fn priority_change_bypasses_stale_entry() {
        let tasks = set();
        let mut cache = AnalysisCache::new();
        assert!(cache.schedulable(&tasks));
        let misses = cache.misses();
        // Same id, different priority: must re-analyse, not hit.
        let reprioritised = mk(0, 10, 100, 5);
        let one: TaskSet = vec![reprioritised.clone()].into_iter().collect();
        let _ = cache.response_time(&reprioritised, &one);
        assert_eq!(cache.misses(), misses + 1);
    }

    #[test]
    fn clear_empties_the_cache() {
        let tasks = set();
        let mut cache = AnalysisCache::new();
        assert!(cache.entries.is_empty());
        assert!(cache.schedulable(&tasks));
        assert_eq!(cache.entries.len(), 3);
        cache.clear();
        assert!(cache.entries.is_empty());
    }

    #[test]
    fn incremental_invalidation_saves_recomputation() {
        // The headline property: after a light arrival, re-checking the
        // set recomputes strictly fewer entries than a cold cache would.
        let tasks = set();
        let mut cache = AnalysisCache::new();
        assert!(cache.schedulable(&tasks));
        let newcomer = mk(9, 40, 50, 1);
        cache.invalidate_for_arrival(&newcomer);
        let mut grown = tasks.clone();
        grown.push(newcomer).unwrap();
        let misses_before = cache.misses();
        assert!(cache.schedulable(&grown));
        let recomputed = cache.misses() - misses_before;
        assert!(
            recomputed < grown.len(),
            "recomputed {recomputed} of {} entries",
            grown.len()
        );
    }
}
