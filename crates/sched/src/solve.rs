//! What every solver shares: the capacity pre-check each method runs
//! first, the non-preemptive dispatcher behind the baselines and spike
//! re-timing, and the [`SchedulerBug`] error that replaced the old
//! `SchedulingReport::evaluate` panic.

use core::cmp::Reverse;
use core::fmt;
use std::collections::BinaryHeap;
use tagio_core::error::ValidateScheduleError;
use tagio_core::job::{Job, JobSet};
use tagio_core::metrics;
use tagio_core::schedule::{entry_for, Schedule};
use tagio_core::solve::{Infeasible, InfeasibleCause};
use tagio_core::task::{Priority, TaskId};
use tagio_core::time::Time;

/// The necessary-condition capacity check every method runs first: total
/// execution demand beyond the scheduling horizon can never be feasible
/// on one device, whatever the method.
///
/// # Errors
/// An [`InfeasibleCause::UtilisationOverload`] diagnostic listing every
/// contributing task, heaviest demand first.
pub fn check_capacity(jobs: &JobSet) -> Result<(), Infeasible> {
    let demand = jobs.total_demand();
    if Time::ZERO + demand <= jobs.horizon() {
        return Ok(());
    }
    // Aggregate per-task demand so the diagnostic names the heaviest
    // contributors first.
    let mut per_task: Vec<(TaskId, u64)> = Vec::new();
    for job in jobs {
        let id = job.id().task;
        match per_task.iter_mut().find(|(t, _)| *t == id) {
            Some((_, d)) => *d += job.wcet().as_micros(),
            None => per_task.push((id, job.wcet().as_micros())),
        }
    }
    per_task.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Err(Infeasible::new(InfeasibleCause::UtilisationOverload)
        .with_tasks(per_task.into_iter().map(|(t, _)| t))
        .with_partial(0.0, 0.0))
}

/// Algorithm 1 line 11's order: priority high to low, then release, then
/// task id. LCC-D allocates sacrificed jobs in it, the repair ladder
/// re-places disturbed jobs in it, and FPS-offline dispatches by it.
pub(crate) fn priority_rank(job: &Job) -> (Reverse<Priority>, Time, TaskId) {
    (Reverse(job.priority()), job.release(), job.id().task)
}

/// Non-preemptive dispatch: job `i` becomes eligible at `fire(i)`, and
/// whenever the device is free the eligible job with the smallest
/// `key(i)` (ties: lower position) starts at `max(now, release)`. The
/// first job that would start after its latest start fails the run with
/// `cause`, naming that job and carrying the Ψ/Υ of the jobs already
/// placed. A key led by the fire time makes this a FIFO queue (GPIOCP,
/// re-timing); release-fired, it is a work-conserving dispatcher.
pub(crate) fn dispatch<K: Ord>(
    jobs: &JobSet,
    fire: impl Fn(usize) -> Time,
    key: impl Fn(usize) -> K,
    cause: InfeasibleCause,
) -> Result<Schedule, Infeasible> {
    let all = jobs.as_slice();
    let mut by_fire: Vec<(Time, usize)> = (0..all.len()).map(|i| (fire(i), i)).collect();
    by_fire.sort_unstable();
    let mut next = 0;
    let mut eligible = BinaryHeap::new();
    let mut now = Time::ZERO;
    let mut out = Schedule::new();
    loop {
        while let Some(&(_, i)) = by_fire.get(next).filter(|&&(at, _)| at <= now) {
            eligible.push(Reverse((key(i), i)));
            next += 1;
        }
        let Some(Reverse((_, i))) = eligible.pop() else {
            // Idle: wait for the next firing, or stop when none is left.
            let Some(&(at, _)) = by_fire.get(next) else {
                return Ok(out);
            };
            now = at;
            continue;
        };
        let job = &all[i];
        let start = now.max(job.release());
        if start > job.latest_start() {
            let (psi, upsilon) = metrics::quality(&out, jobs);
            return Err(Infeasible::new(cause)
                .with_jobs([job.id()])
                .with_partial(psi, upsilon));
        }
        out.insert(entry_for(job, start));
        now = start + job.wcet();
    }
}

/// A scheduler produced an invalid schedule — a bug in the method, not
/// an input error. Replaces the old `SchedulingReport::evaluate` panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerBug {
    /// The offending method's display name.
    pub method: String,
    /// The validation failure its schedule triggered.
    pub error: ValidateScheduleError,
}

impl SchedulerBug {
    /// Wraps a validation failure with the offending method's name.
    #[must_use]
    pub fn new(method: impl Into<String>, error: ValidateScheduleError) -> Self {
        SchedulerBug {
            method: method.into(),
            error,
        }
    }
}

impl fmt::Display for SchedulerBug {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} produced an invalid schedule: {}",
            self.method, self.error
        )
    }
}

impl std::error::Error for SchedulerBug {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagio_core::task::{DeviceId, IoTask, TaskSet};
    use tagio_core::time::Duration;

    fn overloaded_jobs() -> JobSet {
        // Two tasks each demanding 60% of the same 1ms period.
        let tight = |id| {
            IoTask::builder(TaskId(id), DeviceId(0))
                .wcet(Duration::from_micros(600))
                .period(Duration::from_millis(1))
                .ideal_offset(Duration::from_micros(400))
                .margin(Duration::from_micros(300))
                .build()
                .unwrap()
        };
        let set: TaskSet = vec![tight(0), tight(1)].into_iter().collect();
        JobSet::expand(&set)
    }

    #[test]
    fn capacity_check_flags_overload_with_contributors() {
        let err = check_capacity(&overloaded_jobs()).unwrap_err();
        assert_eq!(err.cause, InfeasibleCause::UtilisationOverload);
        assert_eq!(err.tasks, vec![TaskId(0), TaskId(1)]);
        assert_eq!(err.best_psi, Some(0.0));
        assert_ne!(err, Infeasible::new(err.cause));
    }

    #[test]
    fn capacity_check_passes_feasible_and_empty_sets() {
        let set: TaskSet = vec![IoTask::builder(TaskId(0), DeviceId(0))
            .wcet(Duration::from_micros(100))
            .period(Duration::from_millis(4))
            .ideal_offset(Duration::from_millis(2))
            .margin(Duration::from_millis(1))
            .build()
            .unwrap()]
        .into_iter()
        .collect();
        assert!(check_capacity(&JobSet::expand(&set)).is_ok());
        assert!(check_capacity(&JobSet::from_jobs(vec![], Duration::from_millis(1))).is_ok());
    }

    #[test]
    fn scheduler_bug_displays_method_and_source() {
        let bug = SchedulerBug::new(
            "static",
            ValidateScheduleError::MissingJob {
                job: tagio_core::job::JobId::new(TaskId(0), 0),
            },
        );
        let s = bug.to_string();
        assert!(
            s.contains("static") && s.contains("invalid schedule"),
            "{s}"
        );
        assert!(std::error::Error::source(&bug).is_some());
    }

    /// The four non-preemptive loops `dispatch` replaced, verbatim (their
    /// capacity pre-checks and `retime_in`'s coverage check included),
    /// kept as the oracle's references.
    mod reference {
        use super::super::check_capacity;
        use tagio_core::job::{Job, JobId, JobSet};
        use tagio_core::metrics;
        use tagio_core::schedule::{entry_for, Schedule};
        use tagio_core::solve::{Infeasible, InfeasibleCause};
        use tagio_core::time::Time;

        pub fn fps(jobs: &JobSet) -> Result<Schedule, Infeasible> {
            check_capacity(jobs)?;
            let mut pending: Vec<usize> = Vec::new();
            let mut next_release = 0usize;
            let all = jobs.as_slice();
            let mut now = Time::ZERO;
            let mut out = Schedule::new();
            while next_release < all.len() || !pending.is_empty() {
                while next_release < all.len() && all[next_release].release() <= now {
                    pending.push(next_release);
                    next_release += 1;
                }
                if pending.is_empty() {
                    now = all[next_release].release();
                    continue;
                }
                let mut slot = 0;
                for s in 1..pending.len() {
                    let (a, b) = (pending[s], pending[slot]);
                    let ord = all[a]
                        .priority()
                        .cmp(&all[b].priority())
                        .then(all[b].release().cmp(&all[a].release()))
                        .then(all[b].id().task.cmp(&all[a].id().task));
                    if ord != std::cmp::Ordering::Less {
                        slot = s;
                    }
                }
                let idx = pending[slot];
                pending.swap_remove(slot);
                let job = &all[idx];
                let start = now.max(job.release());
                if start > job.latest_start() {
                    let (psi, upsilon) = metrics::quality(&out, jobs);
                    return Err(Infeasible::new(InfeasibleCause::BlockingBound)
                        .with_jobs([job.id()])
                        .with_partial(psi, upsilon));
                }
                out.insert(entry_for(job, start));
                now = start + job.wcet();
            }
            Ok(out)
        }

        pub fn edf(jobs: &JobSet) -> Result<Schedule, Infeasible> {
            check_capacity(jobs)?;
            let all = jobs.as_slice();
            let mut pending: Vec<usize> = Vec::new();
            let mut next_release = 0usize;
            let mut now = Time::ZERO;
            let mut out = Schedule::new();
            while next_release < all.len() || !pending.is_empty() {
                while next_release < all.len() && all[next_release].release() <= now {
                    pending.push(next_release);
                    next_release += 1;
                }
                if pending.is_empty() {
                    now = all[next_release].release();
                    continue;
                }
                let (slot, &idx) = pending
                    .iter()
                    .enumerate()
                    .min_by(|(_, &a), (_, &b)| {
                        all[a]
                            .abs_deadline()
                            .cmp(&all[b].abs_deadline())
                            .then(all[a].release().cmp(&all[b].release()))
                            .then(all[a].id().task.cmp(&all[b].id().task))
                    })
                    .expect("pending is non-empty");
                pending.swap_remove(slot);
                let job = &all[idx];
                let start = now.max(job.release());
                if start > job.latest_start() {
                    let (psi, upsilon) = metrics::quality(&out, jobs);
                    return Err(Infeasible::new(InfeasibleCause::BlockingBound)
                        .with_jobs([job.id()])
                        .with_partial(psi, upsilon));
                }
                out.insert(entry_for(job, start));
                now = start + job.wcet();
            }
            Ok(out)
        }

        pub fn gpiocp(jobs: &JobSet) -> Result<Schedule, Infeasible> {
            check_capacity(jobs)?;
            let mut order: Vec<usize> = (0..jobs.len()).collect();
            let all = jobs.as_slice();
            order.sort_by(|&a, &b| {
                all[a]
                    .ideal_start()
                    .cmp(&all[b].ideal_start())
                    .then(all[a].id().task.cmp(&all[b].id().task))
                    .then(all[a].id().index.cmp(&all[b].id().index))
            });
            let mut device_free = Time::ZERO;
            let mut out = Schedule::new();
            for idx in order {
                let job = &all[idx];
                let start = job.ideal_start().max(device_free);
                if start + job.wcet() > job.abs_deadline() {
                    let (psi, upsilon) = metrics::quality(&out, jobs);
                    return Err(Infeasible::new(InfeasibleCause::BlockingBound)
                        .with_jobs([job.id()])
                        .with_partial(psi, upsilon));
                }
                out.insert(entry_for(job, start));
                device_free = start + job.wcet();
            }
            Ok(out)
        }

        fn lookup_start(starts: &[(JobId, Time)], job: JobId) -> Option<Time> {
            starts
                .binary_search_by_key(&job, |&(j, _)| j)
                .ok()
                .map(|i| starts[i].1)
        }

        pub fn retime(jobs: &JobSet, base: &Schedule) -> Result<Schedule, Infeasible> {
            let mut starts: Vec<(JobId, Time)> = base.iter().map(|e| (e.job, e.start)).collect();
            starts.sort_unstable_by_key(|&(job, _)| job);
            let uncovered: Vec<JobId> = jobs
                .iter()
                .filter(|j| lookup_start(&starts, j.id()).is_none())
                .map(Job::id)
                .collect();
            if !uncovered.is_empty() {
                return Err(Infeasible::new(InfeasibleCause::NoFeasibleSlot).with_jobs(uncovered));
            }
            let mut order: Vec<(Time, usize)> = jobs
                .iter()
                .enumerate()
                .filter_map(|(idx, job)| lookup_start(&starts, job.id()).map(|start| (start, idx)))
                .collect();
            order.sort_unstable();
            let all = jobs.as_slice();
            let mut cursor = Time::ZERO;
            let mut out = Schedule::new();
            for &(base_start, idx) in &order {
                let job = &all[idx];
                let start = base_start.max(cursor).max(job.release());
                if start > job.latest_start() {
                    let (psi, upsilon) = metrics::quality(&out, jobs);
                    return Err(Infeasible::new(InfeasibleCause::NoFeasibleSlot)
                        .with_jobs([job.id()])
                        .with_partial(psi, upsilon));
                }
                out.insert(entry_for(job, start));
                cursor = start + job.wcet();
            }
            Ok(out)
        }
    }

    /// Asserts `new` equals `old`: the same schedule, or the same cause,
    /// jobs, tasks and partial Ψ/Υ bits. Returns `Some(true)` for a
    /// schedule, `Some(false)` for a dispatch failure (a named job with
    /// partial quality), `None` for a capacity or coverage rejection.
    fn assert_same(
        new: &Result<Schedule, Infeasible>,
        old: &Result<Schedule, Infeasible>,
        what: &str,
    ) -> Option<bool> {
        match (new, old) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "{what}: schedules differ");
                Some(true)
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.cause, b.cause, "{what}: cause");
                assert_eq!(a.jobs, b.jobs, "{what}: jobs");
                assert_eq!(a.tasks, b.tasks, "{what}: tasks");
                assert_eq!(
                    a.best_psi.map(f64::to_bits),
                    b.best_psi.map(f64::to_bits),
                    "{what}: best_psi"
                );
                assert_eq!(
                    a.best_upsilon.map(f64::to_bits),
                    b.best_upsilon.map(f64::to_bits),
                    "{what}: best_upsilon"
                );
                (a.cause != InfeasibleCause::UtilisationOverload && a.best_psi.is_some())
                    .then_some(false)
            }
            _ => panic!("{what}: {new:?} against {old:?}"),
        }
    }

    /// Jobs from `Job::new` with distinct per-task releases (some of zero
    /// WCET), random priorities with ties across tasks and mixed quality
    /// curves, over a horizon tight enough that dispatch failures occur.
    fn random_jobs(rng: &mut rand::rngs::StdRng) -> JobSet {
        use rand::RngExt;
        use tagio_core::job::JobId;
        use tagio_core::quality::QualityCurve;
        use tagio_core::task::Priority;
        let span = rng.random_range(20..120u64);
        let mut jobs = Vec::new();
        for t in 0..rng.random_range(1..=6u32) {
            let mut releases: Vec<u64> = (0..rng.random_range(1..=4))
                .map(|_| rng.random_range(0..span))
                .collect();
            releases.sort_unstable();
            releases.dedup();
            for (index, &release) in releases.iter().enumerate() {
                let deadline = release + rng.random_range(1..=span / 2);
                let wcet = if rng.random_range(0..6u32) == 0 {
                    0
                } else {
                    rng.random_range(1..=(deadline - release).min(12))
                };
                let ideal = rng.random_range(release..=deadline - wcet);
                let margin = rng.random_range(0..=(ideal - release).min(deadline - ideal));
                let vmin = f64::from(rng.random_range(0..3u32));
                let quality = if rng.random_range(0..2u32) == 0 {
                    QualityCurve::linear(vmin + 1.5, vmin)
                } else {
                    QualityCurve::step(vmin + 2.0, vmin)
                };
                jobs.push(Job::new(
                    JobId::new(TaskId(t), index as u32),
                    Time::from_micros(release),
                    Time::from_micros(ideal),
                    Time::from_micros(deadline),
                    Duration::from_micros(wcet),
                    Duration::from_micros(margin),
                    Priority(rng.random_range(0..3u32)),
                    quality,
                ));
            }
        }
        JobSet::from_jobs(jobs, Duration::from_micros(span))
    }

    /// A retiming base for `jobs`: sometimes `valid`, a feasible schedule
    /// of them, otherwise every job at a random instant from before its
    /// release to past its latest start, sometimes with jobs dropped.
    fn random_base(
        rng: &mut rand::rngs::StdRng,
        jobs: &JobSet,
        valid: Option<Schedule>,
    ) -> Schedule {
        use rand::RngExt;
        use tagio_core::schedule::ScheduleEntry;
        if let Some(base) = valid.filter(|_| rng.random_range(0..3u32) == 0) {
            return base;
        }
        let drop = rng.random_range(0..4u32) == 0;
        let mut base = Schedule::new();
        for job in jobs {
            if drop && rng.random_range(0..8u32) == 0 {
                continue;
            }
            let jitter = (job.latest_start() - job.release()).as_micros() / 4 + 2;
            let lo = job.release().as_micros().saturating_sub(jitter);
            let hi = job.latest_start().as_micros() + jitter;
            base.insert(ScheduleEntry {
                job: job.id(),
                start: Time::from_micros(rng.random_range(lo..=hi)),
                duration: job.wcet(),
            });
        }
        base
    }

    /// Runs the three baselines and re-timing on `jobs` against their
    /// references; `tally[m]` counts (schedules, dispatch failures) per
    /// method.
    fn check_all(
        rng: &mut rand::rngs::StdRng,
        jobs: &JobSet,
        tally: &mut [(usize, usize); 4],
        what: &str,
    ) {
        use crate::heuristic::repair::{retime_in, RepairScratch};
        use crate::scheduler::Scheduler;
        use crate::{EdfOffline, FpsOffline, Gpiocp};
        let fps = FpsOffline::new().schedule(jobs);
        let runs = [
            (fps.clone(), reference::fps(jobs)),
            (EdfOffline::new().schedule(jobs), reference::edf(jobs)),
            (Gpiocp::new().schedule(jobs), reference::gpiocp(jobs)),
        ];
        for (m, (new, old)) in runs.iter().enumerate() {
            match assert_same(new, old, &format!("{what}, method {m}")) {
                Some(true) => tally[m].0 += 1,
                Some(false) => tally[m].1 += 1,
                None => {}
            }
        }
        let mut scratch = RepairScratch::default();
        for _ in 0..3 {
            let base = random_base(rng, jobs, fps.clone().ok());
            let new = retime_in(jobs, &base, &mut scratch);
            match assert_same(
                &new,
                &reference::retime(jobs, &base),
                &format!("{what}, retime"),
            ) {
                Some(true) => tally[3].0 += 1,
                Some(false) => tally[3].1 += 1,
                None => {}
            }
        }
    }

    #[test]
    fn dispatch_matches_the_four_loops_it_replaced() {
        use rand::SeedableRng;
        use tagio_workload::SystemConfig;
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        let mut tally = [(0, 0); 4];
        for step in 4..=19u32 {
            let u = f64::from(step) * 0.05;
            for k in 0..4 {
                let jobs = JobSet::expand(&SystemConfig::paper(u).generate(&mut rng));
                check_all(&mut rng, &jobs, &mut tally, &format!("paper U={u:.2} #{k}"));
            }
        }
        for k in 0..4_000 {
            let jobs = random_jobs(&mut rng);
            check_all(&mut rng, &jobs, &mut tally, &format!("random #{k}"));
        }
        for (m, &(ok, failed)) in tally.iter().enumerate() {
            assert!(
                ok > 0 && failed > 0,
                "method {m}: {ok} schedules, {failed} failures"
            );
        }
    }
}
