//! Incremental schedule repair, and the construction ladder.
//!
//! Algorithm 1 synthesises from scratch — conflict graph, decomposition,
//! LCC-D allocation over *every* job. When a running system gains or loses
//! one task, almost all of that work is re-derivable from the live
//! schedule: the undisturbed jobs keep their validated placements, and
//! only the disturbed jobs (a new task's releases, or jobs whose base
//! placement a WCET change made infeasible) go back through slot
//! allocation.
//!
//! [`repair_neighbourhood_in`] is that fast path: it pins every base
//! placement that still fits, re-places the rest, and rather than
//! degrading into a recursive displacement search widens the re-placed
//! set to the congested pockets a failed round names. Its final round
//! stops at its first failed allocation: on the rejection storm most
//! ladders fail every tier, and the rest of that round is work whose
//! only product the ladder would throw away.
//!
//! [`ladder_in`] is the one loop behind every schedule the online service
//! (`tagio-online`) builds. It runs a list of [`Tier`]s — [`retime_in`]
//! (the base order replayed through the baselines' shared dispatcher),
//! the neighbourhood repair, a full Algorithm 1 run (the paper's offline
//! method) and the FPS-offline baseline — and the first tier that yields
//! a schedule wins. The service picks the list per construction and
//! strategy, and layers admission control and shedding on top.
//!
//! Every failure of [`repair_neighbourhood_in`] carries the partial Ψ/Υ
//! of the placements it kept, as does a [`retime_in`] failure that names
//! a job missing its window. A failed round reads them off its
//! placements by job position ([`tagio_core::metrics::quality_by`])
//! instead of building and sorting a partial [`Schedule`], so a failure
//! costs one `O(n)` pass.
//!
//! No demand-bound certificate runs ahead of the ladder: on implicit-
//! deadline (`D = T`), zero-offset sets that passed the online service's
//! utilisation gate it can never reject. Task `i`'s job windows are
//! `[k·Ti, (k+1)·Ti]`, so at most `⌊(b − a)/Ti⌋` of them lie inside any
//! interval `[a, b]`, and their demand is at most
//! `Σ ⌊(b − a)/Ti⌋·Ci ≤ U·(b − a) ≤ b − a` once the gate has ensured
//! `U ≤ 1`.

use super::lccd::{placement_quality, LadderWork, SlotPolicy, Timeline, TimelineScratch};
use super::synthesize_in;
use crate::fps::FpsOffline;
use crate::scheduler::Scheduler;
use crate::solve::{dispatch, priority_rank};
use std::collections::{HashMap, HashSet};
use tagio_core::job::{Job, JobId, JobSet};
use tagio_core::schedule::Schedule;
use tagio_core::solve::{Infeasible, InfeasibleCause};
use tagio_core::task::TaskId;
use tagio_core::time::{Duration, Time};

/// Reusable working memory for the construction ladder.
///
/// A single incremental repair allocates a dozen transient collections —
/// lookup tables, the pinned set, the timeline's slot buffers.
/// The online service runs the ladder on every arrival and spike, so
/// [`ladder_in`] and its tier functions [`retime_in`] and
/// [`repair_neighbourhood_in`] accept a long-lived scratch and recycle
/// those collections' capacity across calls. Every buffer is cleared
/// before use: a reused scratch produces bit-identical results to a
/// fresh (`Default`) one, so one-off callers pass
/// `&mut RepairScratch::default()`. The scratch also accumulates the
/// allocator's [`LadderWork`] counters over every tier it ran, the
/// re-synthesis tier included.
#[derive(Debug, Default)]
pub struct RepairScratch {
    /// Per job position, its base start when that placement is still
    /// feasible. Built once per neighbourhood repair; every round reads
    /// it.
    base_at: Vec<Option<Time>>,
    /// The feasible base placements as `(start, finish, position)`,
    /// sorted. Built once per neighbourhood repair.
    base_order: Vec<(Time, Time, usize)>,
    /// Per job position, `true` when the job is re-placed rather than
    /// pinned. Escalation rounds grow it in place.
    disturbed: Vec<bool>,
    positions: JobPositions,
    pinned: Vec<(usize, Time)>,
    to_place: Vec<usize>,
    /// Positions of the jobs the last failed round's diagnostic names.
    failed: Vec<usize>,
    offsets: HashMap<TaskId, Duration>,
    failed_tasks: HashSet<TaskId>,
    windows: Vec<(Time, Time)>,
    by_job: Vec<Option<Time>>,
    timeline: TimelineScratch,
}

impl RepairScratch {
    /// The allocator work counted over every call that used this scratch.
    #[must_use]
    pub fn work(&self) -> LadderWork {
        self.timeline.work()
    }
}

/// One tier of the construction ladder, [`ladder_in`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// [`retime_in`]: the base schedule's execution order, each start
    /// pushed right only as far as the current WCETs force.
    Retime,
    /// [`repair_neighbourhood_in`] under LCC-D: the base placements that
    /// still fit stay pinned, and the disturbed neighbourhood is placed
    /// anew.
    Neighbourhood,
    /// A full Algorithm 1 run under LCC-D on the scratch's warm buffers,
    /// counted in [`LadderWork::resyntheses`].
    Resynthesis,
    /// The FPS-offline baseline ([`FpsOffline`]): a quality-blind
    /// schedule that ignores ideal instants.
    Fps,
}

impl Tier {
    /// Whether the tier reads the ladder's base schedule:
    /// [`Tier::Retime`] and [`Tier::Neighbourhood`] do, the tiers that
    /// build from scratch do not.
    #[must_use]
    pub fn reads_base(self) -> bool {
        matches!(self, Tier::Retime | Tier::Neighbourhood)
    }
}

/// A schedule the ladder built, and the tier that built it.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The feasible schedule for the whole job set.
    pub schedule: Schedule,
    /// Jobs that were (re-)placed, as opposed to pinned from the base:
    /// the disturbed neighbourhood for [`Tier::Neighbourhood`], every job
    /// for the other tiers.
    pub replaced: usize,
    /// The tier whose schedule won.
    pub tier: Tier,
}

/// The construction ladder: runs `tiers` in order on `jobs` around the
/// live schedule `base`, and the first tier that yields a schedule wins.
///
/// The tiers share `scratch`, which also counts their [`LadderWork`].
/// Only the tiers that [`Tier::reads_base`] read `base`; the other tiers
/// ignore it.
///
/// # Errors
/// When every tier failed, the diagnostic of the last tier that failed
/// other than [`Tier::Fps`]: the FPS baseline is quality-blind, so the
/// tiers before it say more about why and where. A list whose only tier
/// is [`Tier::Fps`] fails with its diagnostic, and an empty list with a
/// bare [`InfeasibleCause::NoFeasibleSlot`].
pub fn ladder_in(
    jobs: &JobSet,
    base: &Schedule,
    tiers: &[Tier],
    scratch: &mut RepairScratch,
) -> Result<RepairOutcome, Infeasible> {
    let policy = SlotPolicy::default();
    let every_job = |schedule| (schedule, jobs.len());
    let mut diagnostic = None;
    for &tier in tiers {
        let built = match tier {
            Tier::Retime => retime_in(jobs, base, scratch).map(every_job),
            Tier::Neighbourhood => repair_neighbourhood_in(jobs, base, policy, scratch),
            Tier::Resynthesis => {
                scratch.timeline.work.resyntheses += 1;
                synthesize_in(jobs, policy, &mut scratch.timeline).map(every_job)
            }
            Tier::Fps => FpsOffline.schedule(jobs).map(every_job),
        };
        match built {
            Ok((schedule, replaced)) => {
                return Ok(RepairOutcome {
                    schedule,
                    replaced,
                    tier,
                })
            }
            Err(failure) if tier != Tier::Fps || diagnostic.is_none() => {
                diagnostic = Some(failure);
            }
            Err(_) => {}
        }
    }
    Err(diagnostic.unwrap_or_else(|| Infeasible::new(InfeasibleCause::NoFeasibleSlot)))
}

/// Each job's position in a job set by its `(task, index)` id, built
/// without sorting: a pass over the jobs counts each task's jobs, and a
/// second lays them out task by task, job `index` of a task at its
/// block's offset plus `index`. A job set holds each id once, and
/// [`JobSet::expand`] numbers a task's jobs `0..count`, so every job of
/// an expanded set lands in its slot. Ids that do not (hand-built sets)
/// go to a sorted overflow list instead.
#[derive(Debug, Default)]
struct JobPositions {
    /// Per task, sorted by id: the task, its block's offset in `rows`,
    /// and its job count.
    tasks: Vec<(TaskId, usize, usize)>,
    /// Job positions by block offset plus index; `usize::MAX` where no
    /// job landed.
    rows: Vec<usize>,
    /// The jobs whose index did not land in their block, sorted by id.
    overflow: Vec<(JobId, usize)>,
}

impl JobPositions {
    fn build(&mut self, all: &[Job]) {
        self.tasks.clear();
        for job in all {
            let task = job.id().task;
            match self.tasks.binary_search_by_key(&task, |&(t, ..)| t) {
                Ok(k) => self.tasks[k].2 += 1,
                Err(k) => self.tasks.insert(k, (task, 0, 1)),
            }
        }
        let mut offset = 0;
        for (_, start, count) in &mut self.tasks {
            *start = offset;
            offset += *count;
        }
        self.rows.clear();
        self.rows.resize(all.len(), usize::MAX);
        self.overflow.clear();
        for (pos, job) in all.iter().enumerate() {
            let JobId { task, index } = job.id();
            let (_, offset, count) = self.tasks[self.tasks.partition_point(|&(t, ..)| t < task)];
            let index = index as usize;
            if index < count && self.rows[offset + index] == usize::MAX {
                self.rows[offset + index] = pos;
            } else {
                self.overflow.push((job.id(), pos));
            }
        }
        self.overflow.sort_unstable();
    }

    /// The position of the job `id`, if the set holds it.
    fn position(&self, id: JobId) -> Option<usize> {
        let k = self
            .tasks
            .binary_search_by_key(&id.task, |&(t, ..)| t)
            .ok()?;
        let (_, offset, count) = self.tasks[k];
        let index = id.index as usize;
        match (index < count).then(|| self.rows[offset + index]) {
            Some(pos) if pos != usize::MAX => Some(pos),
            _ => self
                .overflow
                .binary_search_by_key(&id, |&(j, _)| j)
                .ok()
                .map(|i| self.overflow[i].1),
        }
    }
}

/// Each job's start in `base` by job position, into `scratch.base_at`
/// (`None` for a job `base` does not place). Rows of `base` for jobs
/// outside `jobs` are skipped.
fn base_starts(jobs: &JobSet, base: &Schedule, scratch: &mut RepairScratch) {
    scratch.positions.build(jobs.as_slice());
    scratch.base_at.clear();
    scratch.base_at.resize(jobs.len(), None);
    for entry in base {
        if let Some(pos) = scratch.positions.position(entry.job) {
            scratch.base_at[pos] = Some(entry.start);
        }
    }
}

/// The round-invariant half of a repair against `base`: which job
/// positions keep a feasible base placement, and those placements in
/// start order. Clears the disturbed bitmap.
fn prepare(jobs: &JobSet, base: &Schedule, scratch: &mut RepairScratch) {
    base_starts(jobs, base, scratch);
    let all = jobs.as_slice();
    for (start, job) in scratch.base_at.iter_mut().zip(all) {
        if start.is_some_and(|start| !job.start_feasible(start)) {
            *start = None;
        }
    }
    scratch.base_order.clear();
    scratch.base_order.extend(
        scratch
            .base_at
            .iter()
            .enumerate()
            .filter_map(|(i, start)| start.map(|start| (start, start + all[i].wcet(), i))),
    );
    scratch.base_order.sort_unstable();
    scratch.disturbed.clear();
    scratch.disturbed.resize(all.len(), false);
}

/// A no-feasible-slot diagnostic naming the jobs at `positions`.
fn no_slot(all: &[Job], positions: &[usize]) -> Infeasible {
    Infeasible::new(InfeasibleCause::NoFeasibleSlot)
        .with_jobs(positions.iter().map(|&i| all[i].id()))
}

/// One repair round on what [`prepare`] built: every job with a feasible
/// base placement that is not disturbed keeps its start, and the rest
/// are placed anew. On failure `scratch.failed` holds the positions the
/// diagnostic names. With `first_failure`, the round stops at its first
/// failed allocation and names only that job: the verdict is already
/// settled, and only a round whose diagnostic seeds a widening needs
/// every failure.
fn try_repair(
    jobs: &JobSet,
    policy: SlotPolicy,
    scratch: &mut RepairScratch,
    first_failure: bool,
) -> Result<(Schedule, usize), Infeasible> {
    let all = jobs.as_slice();
    let disturbed = &scratch.disturbed;
    scratch.pinned.clear();
    scratch.pinned.extend(
        scratch
            .base_order
            .iter()
            .filter(|&&(_, _, i)| !disturbed[i])
            .map(|&(start, _, i)| (i, start)),
    );
    scratch.to_place.clear();
    scratch
        .to_place
        .extend((0..all.len()).filter(|&i| disturbed[i] || scratch.base_at[i].is_none()));

    // Pinned placements must still be mutually disjoint under the jobs'
    // *current* WCETs; if not, the disturbance reaches beyond the
    // neighbourhood and this round cannot help. The diagnostic names the
    // overlapping placements so escalation frees exactly those pockets.
    // `pinned` is in (start, finish) order, so neighbours suffice.
    scratch.failed.clear();
    for pair in scratch.pinned.windows(2) {
        let ((a, a_start), (b, b_start)) = (pair[0], pair[1]);
        if a_start + all[a].wcet() > b_start {
            scratch.failed.extend([a, b]);
        }
    }
    if !scratch.failed.is_empty() {
        let (psi, upsilon) =
            placement_quality(jobs, scratch.pinned.iter().copied(), &mut scratch.by_job);
        return Err(no_slot(all, &scratch.failed).with_partial(psi, upsilon));
    }

    let mut timeline = Timeline::with_placements_in(jobs, &scratch.pinned, &mut scratch.timeline);
    let replaced = scratch.to_place.len();

    // Highest priority first, like the static scheduler's phase three.
    scratch.to_place.sort_by_key(|&i| priority_rank(&all[i]));
    timeline.plan(&scratch.to_place);
    // Periodicity fast path: once one job of a task is placed, its later
    // jobs usually fit at the same relative offset (the schedule repeats,
    // §III.C) — an O(log n) probe instead of a full slot allocation.
    // `to_place` does not keep a task's jobs consecutive (jobs of
    // equal-priority tasks interleave by release), so the offset is kept
    // per task and looked up by the job's task.
    scratch.offsets.clear();
    scratch.failed_tasks.clear();
    for pos in 0..scratch.to_place.len() {
        let idx = scratch.to_place[pos];
        let job = &all[idx];
        if timeline.try_place_ideal(idx) {
            scratch
                .offsets
                .insert(job.id().task, job.ideal_start() - job.release());
            continue;
        }
        if let Some(&offset) = scratch.offsets.get(&job.id().task) {
            if timeline.try_place_at(idx, job.release() + offset) {
                continue;
            }
        }
        // A failed allocation is the expensive path (it exhausts slots
        // and shifting candidates), so a task that already failed once
        // gets only the cheap probes above for its remaining jobs — those
        // skips fail the attempt but do NOT become escalation seeds (they
        // would smear the neighbourhood across the whole hyper-period).
        if scratch.failed_tasks.contains(&job.id().task) {
            continue;
        }
        match timeline.allocate_in(&scratch.to_place, pos, policy) {
            Some(start) => {
                scratch.offsets.insert(job.id().task, start - job.release());
            }
            None => {
                scratch.failed.push(idx);
                if first_failure {
                    break;
                }
                scratch.failed_tasks.insert(job.id().task);
            }
        }
    }
    if !scratch.failed.is_empty() {
        let (psi, upsilon) = timeline.partial_quality(&mut scratch.by_job);
        timeline.recycle(&mut scratch.timeline);
        return Err(no_slot(all, &scratch.failed).with_partial(psi, upsilon));
    }
    Ok((timeline.into_schedule_in(&mut scratch.timeline), replaced))
}

/// Minimal-shift re-timing: keep the base schedule's *execution order*
/// and push starts right only as far as the jobs' current WCETs force.
///
/// This is the fast path for uniform WCET growth (a utilisation spike):
/// every placement's finish stretches, so neighbours overlap pairwise,
/// but the order is still right — each job keeps its start when possible
/// and otherwise starts the instant its predecessor releases the device.
/// Runs in `O(n log n)` on the shared dispatcher, keyed by base start.
///
/// # Errors
/// An [`InfeasibleCause::NoFeasibleSlot`] diagnostic naming the job that
/// would miss its window (the ladder escalates to the next [`Tier`]), or
/// the jobs `base` does not cover at all.
pub fn retime_in(
    jobs: &JobSet,
    base: &Schedule,
    scratch: &mut RepairScratch,
) -> Result<Schedule, Infeasible> {
    base_starts(jobs, base, scratch);
    let starts = &scratch.base_at;
    let uncovered: Vec<JobId> = jobs
        .iter()
        .zip(starts)
        .filter(|(_, start)| start.is_none())
        .map(|(job, _)| job.id())
        .collect();
    if !uncovered.is_empty() {
        return Err(Infeasible::new(InfeasibleCause::NoFeasibleSlot).with_jobs(uncovered));
    }
    // Coverage was checked above: the fallback only avoids an `expect`.
    let base_start = |i: usize| starts[i].unwrap_or(Time::ZERO);
    dispatch(
        jobs,
        base_start,
        |i| (base_start(i), i),
        InfeasibleCause::NoFeasibleSlot,
    )
}

/// Neighbourhood repair of `base` into a feasible schedule for `jobs`,
/// the ladder's [`Tier::Neighbourhood`].
///
/// The first round is the plain repair. Every job of `jobs` that appears
/// in `base` and whose base placement is still feasible (its window or
/// WCET may have changed since `base` was synthesised) keeps its start.
/// All other jobs are placed anew: first at their ideal instant when
/// free, otherwise through the LCC-D allocator under `policy`, highest
/// priority first (Algorithm 1 line 11). A failed round names exactly
/// *where* it fails — the jobs that found no slot, or pinned placements a
/// WCET change made overlap — and the next round widens the disturbed set
/// to those congested pockets (every job whose window overlaps a failed
/// job's window) and re-places just that neighbourhood. Bounded rounds
/// only; beyond them a full re-synthesis is cheaper than chasing
/// transitive closures. Returns `(schedule, replaced)`, where `replaced`
/// counts the jobs placed anew.
///
/// The final round seeds no widening, so it stops at its first failed
/// allocation: a failing round fails whether or not it runs to the end.
/// Earlier rounds run to the end, because every job they name widens
/// the next round.
///
/// # Errors
/// The diagnostic of the last round that ran, when every escalation
/// round failed or the widening stopped growing. When that is the final
/// round and an allocation failed, it names only the first job that
/// found no slot, with the partial Ψ/Υ placed up to that job.
pub fn repair_neighbourhood_in(
    jobs: &JobSet,
    base: &Schedule,
    policy: SlotPolicy,
    scratch: &mut RepairScratch,
) -> Result<(Schedule, usize), Infeasible> {
    prepare(jobs, base, scratch);
    // The first round is the plain repair; each later round frees the
    // pockets the previous round's failures pointed at. Three rounds bound the cost —
    // past that, a full re-synthesis is the better spend.
    const ROUNDS: usize = 3;
    let mut round = 0;
    loop {
        round += 1;
        scratch.timeline.work.neighbourhood_rounds += 1;
        let failure = match try_repair(jobs, policy, scratch, round == ROUNDS) {
            Ok(done) => return Ok(done),
            Err(failure) => failure,
        };
        // Past the last round, or stuck: the same failure would repeat
        // verbatim.
        if round == ROUNDS || !widen(jobs, scratch) {
            return Err(failure);
        }
    }
}

/// Adds the jobs the last failed round named, and every pinned job whose
/// window overlaps one of theirs, to the disturbed set. Returns whether
/// the set grew.
fn widen(jobs: &JobSet, scratch: &mut RepairScratch) -> bool {
    let all = jobs.as_slice();
    scratch.windows.clear();
    let mut grew = false;
    for &i in &scratch.failed {
        scratch
            .windows
            .push((all[i].release(), all[i].abs_deadline()));
        grew |= !std::mem::replace(&mut scratch.disturbed[i], true);
    }
    // Free every pinned job inside the congested windows. (Jobs with
    // no feasible base placement are re-placed regardless, so only
    // pinned jobs need explicit entries.)
    for (i, job) in all.iter().enumerate() {
        if scratch.disturbed[i] {
            continue;
        }
        let (lo, hi) = (job.release(), job.abs_deadline());
        if scratch
            .windows
            .iter()
            .any(|&(wlo, whi)| lo < whi && wlo < hi)
        {
            scratch.disturbed[i] = true;
            grew = true;
        }
    }
    grew
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::StaticScheduler;
    use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
    use tagio_core::time::Duration;

    fn task(id: u32, period_ms: u64, wcet_us: u64, delta_ms: u64) -> IoTask {
        IoTask::builder(TaskId(id), DeviceId(0))
            .wcet(Duration::from_micros(wcet_us))
            .period(Duration::from_millis(period_ms))
            .ideal_offset(Duration::from_millis(delta_ms))
            .margin(Duration::from_millis(period_ms) / 4)
            .build()
            .unwrap()
    }

    /// A one-off plain repair under the default policy: the
    /// neighbourhood tier's first round.
    fn repair(jobs: &JobSet, base: &Schedule) -> Result<(Schedule, usize), Infeasible> {
        let scratch = &mut RepairScratch::default();
        prepare(jobs, base, scratch);
        try_repair(jobs, SlotPolicy::default(), scratch, false)
    }

    /// The incremental arrival ladder, neighbourhood repair then
    /// Algorithm 1, on a fresh scratch.
    fn repair_or_resynthesize(jobs: &JobSet, base: &Schedule) -> RepairOutcome {
        let tiers = [Tier::Neighbourhood, Tier::Resynthesis];
        ladder_in(jobs, base, &tiers, &mut RepairScratch::default()).expect("feasible overall")
    }

    fn base_for(tasks: &TaskSet) -> (JobSet, Schedule) {
        let jobs = JobSet::expand(tasks);
        let s = StaticScheduler::new().schedule(&jobs).expect("feasible");
        (jobs, s)
    }

    #[test]
    fn repairing_nothing_returns_base_placements() {
        let tasks: TaskSet = vec![task(0, 8, 500, 2), task(1, 8, 500, 5)]
            .into_iter()
            .collect();
        let (jobs, base) = base_for(&tasks);
        let (repaired, replaced) = repair(&jobs, &base).expect("repairable");
        assert_eq!(replaced, 0);
        assert_eq!(repaired, base);
    }

    #[test]
    fn arrival_repair_pins_existing_jobs() {
        let old: TaskSet = vec![task(0, 8, 500, 2), task(1, 8, 500, 5)]
            .into_iter()
            .collect();
        let (_, base) = base_for(&old);
        let mut grown = old.clone();
        grown.push(task(2, 8, 500, 3)).unwrap();
        let jobs = JobSet::expand(&grown);
        let (repaired, replaced) = repair(&jobs, &base).expect("repairable");
        repaired.validate(&jobs).unwrap();
        // Only the newcomer's jobs, which have no base placement, moved.
        assert_eq!(replaced, jobs.len() - base.len());
        for e in &base {
            assert_eq!(repaired.start_of(e.job), Some(e.start));
        }
    }

    #[test]
    fn repair_prefers_ideal_instant_for_new_jobs() {
        let old: TaskSet = vec![task(0, 8, 500, 2)].into_iter().collect();
        let (_, base) = base_for(&old);
        let mut grown = old.clone();
        grown.push(task(1, 8, 500, 5)).unwrap(); // ideal slot is free
        let jobs = JobSet::expand(&grown);
        let (repaired, _) = repair(&jobs, &base).expect("repairable");
        let j = jobs.get(JobId::new(TaskId(1), 0)).unwrap();
        assert_eq!(repaired.start_of(j.id()), Some(j.ideal_start()));
    }

    #[test]
    fn repair_failure_names_the_unplaceable_jobs() {
        // One task owns almost the whole period; a second with the same
        // tight window cannot be packed without displacing pinned jobs.
        let old: TaskSet = vec![task(0, 4, 3_000, 1)].into_iter().collect();
        let (_, base) = base_for(&old);
        let mut grown = old.clone();
        grown.push(task(1, 4, 3_000, 1)).unwrap();
        let jobs = JobSet::expand(&grown);
        let err = repair(&jobs, &base).unwrap_err();
        assert_eq!(err.cause, InfeasibleCause::NoFeasibleSlot);
        assert_eq!(err.tasks, vec![TaskId(1)], "the newcomer found no slot");
        assert!(err.best_psi.is_some(), "partial progress reported");
    }

    #[test]
    fn retime_absorbs_uniform_wcet_growth() {
        let tasks: TaskSet = vec![task(0, 8, 500, 2), task(1, 8, 500, 3)]
            .into_iter()
            .collect();
        let (_, base) = base_for(&tasks);
        // 3x WCETs: placements 2..3.5 and 3..4.5 overlap, but order-
        // preserving shifts fit: 2..3.5 then 3.5..5.
        let fat: TaskSet = vec![task(0, 8, 1_500, 2), task(1, 8, 1_500, 3)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&fat);
        let retimed = retime_in(&jobs, &base, &mut RepairScratch::default())
            .expect("order-preserving shift fits");
        retimed.validate(&jobs).unwrap();
        use tagio_core::time::Time;
        assert_eq!(
            retimed.start_of(tagio_core::job::JobId::new(TaskId(0), 0)),
            Some(Time::from_millis(2)),
            "first job keeps its start"
        );
        assert_eq!(
            retimed.start_of(tagio_core::job::JobId::new(TaskId(1), 0)),
            Some(Time::from_micros(3_500)),
            "second job starts when the device frees"
        );
    }

    #[test]
    fn retime_fails_past_the_window() {
        let tasks: TaskSet = vec![task(0, 8, 500, 2), task(1, 4, 500, 1)]
            .into_iter()
            .collect();
        let (_, base) = base_for(&tasks);
        // Grown WCETs that individually fit their windows but, pushed
        // right in base order, shove the last job past its deadline.
        let fat: TaskSet = vec![task(0, 8, 4_000, 2), task(1, 4, 3_000, 1)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&fat);
        let err = retime_in(&jobs, &base, &mut RepairScratch::default()).unwrap_err();
        assert_eq!(err.cause, InfeasibleCause::NoFeasibleSlot);
        assert!(!err.jobs.is_empty(), "the shoved job is named");
        // And a base missing some job cannot be retimed either; the
        // diagnostic lists the uncovered jobs.
        let jobs_more: TaskSet = vec![task(0, 8, 500, 2), task(1, 4, 500, 1), task(2, 8, 500, 6)]
            .into_iter()
            .collect();
        let err = retime_in(
            &JobSet::expand(&jobs_more),
            &base,
            &mut RepairScratch::default(),
        )
        .unwrap_err();
        assert!(err.tasks.contains(&TaskId(2)));
    }

    #[test]
    fn neighbourhood_repair_unpins_conflicting_survivors() {
        // The newcomer's only window is fully covered by a pinned exact
        // job, so plain repair fails — but re-placing the neighbourhood
        // (both jobs) fits them side by side.
        let old: TaskSet = vec![task(0, 8, 2_000, 4)].into_iter().collect();
        let (_, base) = base_for(&old);
        let mut grown = old.clone();
        // Window [2, 8]: slots around the pinned 4..6 are [2,4) and [6,8),
        // each 2ms; a 3ms job fits neither directly nor by shifting the
        // pinned job (it cannot move before its own ideal... it can shift
        // left to 2). Use margin boundaries that force the failure:
        grown
            .push(
                IoTask::builder(TaskId(1), DeviceId(0))
                    .wcet(Duration::from_micros(3_000))
                    .period(Duration::from_millis(8))
                    .ideal_offset(Duration::from_millis(4))
                    .margin(Duration::from_millis(2))
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let jobs = JobSet::expand(&grown);
        let plain = repair(&jobs, &base);
        if let Ok((s, _)) = &plain {
            s.validate(&jobs).unwrap();
        }
        let escalated = repair_or_resynthesize(&jobs, &base);
        escalated.schedule.validate(&jobs).unwrap();
    }

    #[test]
    fn neighbourhood_repair_handles_overlapping_pins() {
        // A WCET spike overlaps two pinned placements; the neighbourhood
        // path re-places them without a full re-synthesis.
        let tasks: TaskSet = vec![task(0, 8, 500, 2), task(1, 8, 500, 3)]
            .into_iter()
            .collect();
        let (_, base) = base_for(&tasks);
        let fat: TaskSet = vec![task(0, 8, 1_500, 2), task(1, 8, 500, 3)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&fat);
        let (repaired, replaced) = repair_neighbourhood_in(
            &jobs,
            &base,
            SlotPolicy::default(),
            &mut RepairScratch::default(),
        )
        .expect("repairable");
        repaired.validate(&jobs).unwrap();
        assert!(replaced >= 2, "both overlapping jobs re-placed");
    }

    #[test]
    fn fallback_resynthesizes_when_repair_fails() {
        // Same shape, but a full re-synthesis CAN fit both by moving the
        // first task off its ideal instant.
        let old: TaskSet = vec![task(0, 8, 2_000, 4)].into_iter().collect();
        let (_, base) = base_for(&old);
        let mut grown = old.clone();
        grown.push(task(1, 8, 2_000, 4)).unwrap();
        let jobs = JobSet::expand(&grown);
        let outcome = repair_or_resynthesize(&jobs, &base);
        outcome.schedule.validate(&jobs).unwrap();
        // Repair alone may or may not manage this; the point is the
        // fallback produces a valid full schedule when it does not.
        if outcome.tier == Tier::Resynthesis {
            assert_eq!(outcome.replaced, jobs.len());
        }
    }

    #[test]
    fn departures_shrink_to_a_subset_without_moving_survivors() {
        let tasks: TaskSet = vec![task(0, 8, 500, 2), task(1, 8, 500, 5), task(2, 4, 300, 1)]
            .into_iter()
            .collect();
        let (_, base) = base_for(&tasks);
        let remaining: TaskSet = tasks
            .iter()
            .filter(|t| t.id() != TaskId(2))
            .cloned()
            .collect();
        let jobs = JobSet::expand(&remaining);
        let (repaired, replaced) = repair(&jobs, &base).expect("shrinking is trivial");
        repaired.validate(&jobs).unwrap();
        assert_eq!(replaced, 0);
    }

    #[test]
    fn overlapping_pinned_placements_fail_cleanly() {
        // A WCET spike makes two *pinned* placements overlap: repair must
        // report both placements (not panic). Re-placing them is the
        // neighbourhood tier's job (`neighbourhood_repair_handles_overlapping_pins`).
        let tasks: TaskSet = vec![task(0, 8, 500, 2), task(1, 8, 500, 3)]
            .into_iter()
            .collect();
        let (_, base) = base_for(&tasks);
        let fat: TaskSet = vec![task(0, 8, 1_500, 2), task(1, 8, 500, 3)]
            .into_iter()
            .collect();
        let jobs = JobSet::expand(&fat);
        let err = repair(&jobs, &base).unwrap_err();
        assert_eq!(err.cause, InfeasibleCause::NoFeasibleSlot);
        assert_eq!(err.tasks, vec![TaskId(0), TaskId(1)], "both pins named");
    }

    /// The neighbourhood tier with a final round that runs to the end,
    /// as every round did before the final one stopped early. Returns
    /// the tier's result and the rounds it ran.
    fn reference_neighbourhood(
        jobs: &JobSet,
        base: &Schedule,
        policy: SlotPolicy,
        scratch: &mut RepairScratch,
    ) -> (Result<(Schedule, usize), Infeasible>, usize) {
        prepare(jobs, base, scratch);
        let mut round = 0;
        loop {
            round += 1;
            let result = try_repair(jobs, policy, scratch, false);
            if result.is_ok() || round == 3 || !widen(jobs, scratch) {
                return (result, round);
            }
        }
    }

    /// A task from the pools of `crates/sched/tests/repair_props.rs`:
    /// ideal offset in `[T/4, T/2]`, margin `T/4`, WCET from 2% of `T`
    /// up to `max_permille` thousandths of it.
    fn random_task(rng: &mut rand::rngs::StdRng, id: u32, max_permille: u64) -> IoTask {
        use rand::RngExt;
        let period = Duration::from_millis([4u64, 8, 8, 16][rng.random_range(0..4usize)]);
        let wcet = period.as_micros() * rng.random_range(20..=max_permille) / 1000;
        let delta = period.as_micros() * rng.random_range(250..=500u64) / 1000;
        IoTask::builder(TaskId(id), DeviceId(0))
            .wcet(Duration::from_micros(wcet))
            .period(period)
            .ideal_offset(Duration::from_micros(delta))
            .margin(period / 4)
            .priority(tagio_core::task::Priority(rng.random_range(0..3u32)))
            .build()
            .expect("pool parameters are valid")
    }

    /// The early-stopping final round changes nothing but that round's
    /// diagnostic. Against a neighbourhood tier whose final round runs to
    /// the end, the tier gives the same Ok result under every slot
    /// policy, and the same diagnostic unless its final round failed;
    /// then it names one of the reference's jobs, with partial Ψ/Υ. The
    /// arrival ladder, `[Neighbourhood, Resynthesis]`, gives the same
    /// Ok/Err, schedule, `replaced` and tier as that reference tier
    /// followed by Algorithm 1. Bases are synthesised task sets; each
    /// step adds newcomers or grows tasks' WCETs, on scratches reused
    /// throughout.
    #[test]
    fn ladder_matches_a_run_to_the_end_final_round() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        const POLICIES: [SlotPolicy; 4] = [
            SlotPolicy::LeastContentionCapacityDecreasing,
            SlotPolicy::FirstFit,
            SlotPolicy::BestFit,
            SlotPolicy::WorstFit,
        ];
        let mut rng = StdRng::seed_from_u64(37);
        let (mut scratch, mut reference) = (RepairScratch::default(), RepairScratch::default());
        let (mut ladder, mut run_to_end) = (RepairScratch::default(), RepairScratch::default());
        let (mut repaired, mut resynthesized, mut rejected) = (0, 0, 0);
        let (mut stuck, mut final_failed) = (0, 0);
        for case in 0..800 {
            let policy = POLICIES[case % POLICIES.len()];
            let mut tasks: Vec<IoTask> = (0..rng.random_range(3..7u32))
                .map(|id| random_task(&mut rng, id, 200))
                .collect();
            let base = StaticScheduler::with_policy(policy)
                .schedule(&JobSet::expand(&tasks.iter().cloned().collect()))
                .unwrap_or_default();
            for step in 0..rng.random_range(1..4u32) {
                for change in 0..rng.random_range(1..=3u32) {
                    if rng.random_range(0..2u32) == 0 {
                        tasks.push(random_task(&mut rng, 10 + 3 * step + change, 120));
                    } else {
                        let k = rng.random_range(0..tasks.len());
                        let id = tasks[k].id().0;
                        tasks[k] = random_task(&mut rng, id, 240);
                    }
                }
                let jobs = JobSet::expand(&tasks.iter().cloned().collect());
                let label = format!("case {case}, step {step}, {policy:?}");

                let (want_tier, rounds) =
                    reference_neighbourhood(&jobs, &base, policy, &mut reference);
                let tier = repair_neighbourhood_in(&jobs, &base, policy, &mut scratch);
                match (&tier, &want_tier) {
                    (Err(got), Err(want)) if rounds == 3 => {
                        final_failed += 1;
                        assert_eq!(got.cause, want.cause, "{label}");
                        assert!(!got.jobs.is_empty(), "{label}");
                        assert!(
                            got.jobs.iter().all(|j| want.jobs.contains(j)),
                            "{label}: {got:?} vs {want:?}"
                        );
                        assert!(got.best_psi.is_some() && got.best_upsilon.is_some());
                    }
                    _ => {
                        stuck += usize::from(want_tier.is_err());
                        assert_eq!(tier, want_tier, "{label}");
                    }
                }

                let tiers = [Tier::Neighbourhood, Tier::Resynthesis];
                let got = ladder_in(&jobs, &base, &tiers, &mut ladder);
                let policy = SlotPolicy::default();
                let want = match reference_neighbourhood(&jobs, &base, policy, &mut run_to_end).0 {
                    Ok((schedule, replaced)) => Ok(RepairOutcome {
                        schedule,
                        replaced,
                        tier: Tier::Neighbourhood,
                    }),
                    Err(_) => {
                        synthesize_in(&jobs, policy, &mut run_to_end.timeline).map(|schedule| {
                            RepairOutcome {
                                schedule,
                                replaced: jobs.len(),
                                tier: Tier::Resynthesis,
                            }
                        })
                    }
                };
                assert_eq!(got, want, "{label}");
                match &want {
                    Ok(outcome) if outcome.tier == Tier::Neighbourhood => repaired += 1,
                    Ok(_) => resynthesized += 1,
                    Err(_) => rejected += 1,
                }
            }
        }
        assert!(
            repaired > 100 && resynthesized > 20 && rejected > 100,
            "{repaired} repaired, {resynthesized} re-synthesised, {rejected} rejected"
        );
        assert!(
            stuck > 100 && final_failed > 20,
            "{stuck} tiers stuck early, {final_failed} failed final rounds"
        );
        let (work, full) = (ladder.work(), run_to_end.work());
        assert!(
            work.allocate_calls < full.allocate_calls,
            "{work:?} vs {full:?}"
        );
        assert_eq!(work.resyntheses, (resynthesized + rejected) as u64);
    }

    /// The sorted lookup behind `prepare` and `retime_in` before the
    /// position table: the base's `(job, start)` pairs sorted by job id,
    /// and one binary search per job.
    fn reference_base_at(jobs: &JobSet, base: &Schedule) -> Vec<Option<Time>> {
        let mut starts: Vec<(JobId, Time)> = base.iter().map(|e| (e.job, e.start)).collect();
        starts.sort_unstable_by_key(|&(job, _)| job);
        jobs.iter()
            .map(|job| {
                starts
                    .binary_search_by_key(&job.id(), |&(j, _)| j)
                    .ok()
                    .map(|i| starts[i].1)
            })
            .collect()
    }

    /// `retime_in` on the sorted lookup.
    fn reference_retime(jobs: &JobSet, base: &Schedule) -> Result<Schedule, Infeasible> {
        let starts = reference_base_at(jobs, base);
        let uncovered: Vec<JobId> = jobs
            .iter()
            .zip(&starts)
            .filter(|(_, start)| start.is_none())
            .map(|(job, _)| job.id())
            .collect();
        if !uncovered.is_empty() {
            return Err(Infeasible::new(InfeasibleCause::NoFeasibleSlot).with_jobs(uncovered));
        }
        let base_start = |i: usize| starts[i].unwrap_or(Time::ZERO);
        dispatch(
            jobs,
            base_start,
            |i| (base_start(i), i),
            InfeasibleCause::NoFeasibleSlot,
        )
    }

    /// The position table finds every base start the sorted lookup
    /// finds: `prepare` builds the same feasible starts and start order,
    /// and `retime_in` the same schedule or diagnostic, on one reused
    /// scratch. Job sets are random paper systems, some with release
    /// offsets; bases are arrival-shaped (repeated to a grown
    /// hyper-period), spike-shaped (WCETs scaled, some starts now
    /// infeasible), departure-shaped (rows for jobs the set lacks), or
    /// miss a task. Hand-built sets whose ids are not numbered `0..count`
    /// per task go through the overflow list.
    #[test]
    fn prepare_matches_the_sorted_lookup() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use tagio_core::quality::QualityCurve;
        use tagio_core::task::Priority;
        use tagio_workload::SystemConfig;
        let mut rng = StdRng::seed_from_u64(41);
        let mut scratch = RepairScratch::default();
        let mut check = |jobs: &JobSet, base: &Schedule, label: &str| {
            let want = reference_base_at(jobs, base);
            let all = jobs.as_slice();
            let feasible: Vec<Option<Time>> = want
                .iter()
                .zip(all)
                .map(|(&start, job)| start.filter(|&s| job.start_feasible(s)))
                .collect();
            let mut order: Vec<(Time, Time, usize)> = feasible
                .iter()
                .enumerate()
                .filter_map(|(i, start)| start.map(|s| (s, s + all[i].wcet(), i)))
                .collect();
            order.sort_unstable();
            scratch.disturbed = vec![true; 3];
            prepare(jobs, base, &mut scratch);
            assert_eq!(scratch.base_at, feasible, "{label}");
            assert_eq!(scratch.base_order, order, "{label}");
            assert_eq!(scratch.disturbed, vec![false; jobs.len()], "{label}");
            let got = retime_in(jobs, base, &mut scratch);
            assert_eq!(got, reference_retime(jobs, base), "{label}");
            (want.iter().any(Option::is_none), feasible != want)
        };
        let (mut missing, mut infeasible) = (0, 0);
        for case in 0..150 {
            let u = 0.05 * f64::from(rng.random_range(6..=18u32));
            let mut tasks: Vec<IoTask> = SystemConfig::paper(u)
                .generate(&mut rng)
                .iter()
                .cloned()
                .collect();
            if case % 3 == 0 {
                for t in &mut tasks {
                    let offset = t.period().as_micros() * rng.random_range(0..4u64) / 4;
                    *t = builder_like(t)
                        .release_offset(Duration::from_micros(offset))
                        .build()
                        .expect("an offset below the period keeps the task valid");
                }
            }
            let set = |tasks: &[IoTask]| -> TaskSet { tasks.iter().cloned().collect() };
            let (old, new) = (set(&tasks[..tasks.len() - 1]), set(&tasks));
            let Ok(live) = StaticScheduler::new().schedule(&JobSet::expand(&new)) else {
                continue;
            };
            let label = format!("case {case}, u {u:.2}");
            let (a, b) = check(&JobSet::expand(&new), &live, &format!("{label}, live"));
            let (c, _) = check(&JobSet::expand(&old), &live, &format!("{label}, departure"));
            let percent = rng.random_range(80..=300u64);
            let spiked: Vec<IoTask> = tasks.iter().filter_map(|t| scaled(t, percent)).collect();
            let (_, d) = check(
                &JobSet::expand(&set(&spiked)),
                &live,
                &format!("{label}, spike"),
            );
            if let Ok(part) = StaticScheduler::new().schedule(&JobSet::expand(&old)) {
                let (old_h, new_h) = (old.hyperperiod(), new.hyperperiod());
                let base = part.repeat((new_h / old_h) as u32, old_h);
                let (e, _) = check(&JobSet::expand(&new), &base, &format!("{label}, arrival"));
                missing += usize::from(e);
            }
            missing += usize::from(a || c);
            infeasible += usize::from(b || d);
        }
        assert!(missing > 50 && infeasible > 20, "{missing}, {infeasible}");

        // Hand-built ids: gaps, one index past the task's count, and
        // tasks out of id order.
        let hand = |task: u32, index: u32, release_ms: u64| {
            Job::new(
                JobId::new(TaskId(task), index),
                Time::from_millis(release_ms),
                Time::from_millis(release_ms),
                Time::from_millis(release_ms + 4),
                Duration::from_millis(1),
                Duration::ZERO,
                Priority(0),
                QualityCurve::linear(1.0, 0.0),
            )
        };
        let jobs = JobSet::from_jobs(
            vec![hand(7, 5, 0), hand(7, 0, 4), hand(2, 1, 8), hand(9, 0, 12)],
            Duration::from_millis(16),
        );
        let base: Schedule = jobs
            .iter()
            .map(|j| tagio_core::schedule::ScheduleEntry {
                job: j.id(),
                start: j.release(),
                duration: j.wcet(),
            })
            .chain([tagio_core::schedule::ScheduleEntry {
                job: JobId::new(TaskId(2), 0),
                start: Time::ZERO,
                duration: Duration::from_millis(1),
            }])
            .collect();
        let (unplaced, _) = check(&jobs, &base, "hand-built ids");
        assert!(!unplaced);
    }

    /// A builder holding every parameter of `task`.
    fn builder_like(task: &IoTask) -> tagio_core::task::IoTaskBuilder {
        IoTask::builder(task.id(), task.device())
            .wcet(task.wcet())
            .period(task.period())
            .deadline(task.deadline())
            .ideal_offset(task.ideal_offset())
            .margin(task.margin())
            .priority(task.priority())
            .quality(task.vmax(), task.vmin())
            .release_offset(task.release_offset())
    }

    type Outcome = Result<RepairOutcome, Infeasible>;

    /// The neighbourhood tier escalating to Algorithm 1 on the same
    /// scratch: the ladder the service's incremental chains called.
    fn repair_or_resynthesize_in(
        jobs: &JobSet,
        base: &Schedule,
        policy: SlotPolicy,
        scratch: &mut RepairScratch,
    ) -> Outcome {
        if let Ok((schedule, replaced)) = repair_neighbourhood_in(jobs, base, policy, scratch) {
            return Ok(RepairOutcome {
                schedule,
                replaced,
                tier: Tier::Neighbourhood,
            });
        }
        scratch.timeline.work.resyntheses += 1;
        synthesize_in(jobs, policy, &mut scratch.timeline).map(|schedule| RepairOutcome {
            schedule,
            replaced: jobs.len(),
            tier: Tier::Resynthesis,
        })
    }

    /// A whole-set schedule some `tier` built outside the ladder.
    fn whole(jobs: &JobSet, tier: Tier, built: Result<Schedule, Infeasible>) -> Outcome {
        built.map(|schedule| RepairOutcome {
            schedule,
            replaced: jobs.len(),
            tier,
        })
    }

    /// The FPS fallback after a failed chain, keeping the chain's
    /// diagnostic when the FPS simulation fails too.
    fn or_fps(jobs: &JobSet, chain: Outcome) -> Outcome {
        chain.or_else(|diagnostic| {
            whole(jobs, Tier::Fps, FpsOffline::new().schedule(jobs)).map_err(|_| diagnostic)
        })
    }

    /// The service's incremental arrival chain: the ladder above, then
    /// the FPS schedule when the pre-check passed.
    fn arrival_chain(
        jobs: &JobSet,
        base: &Schedule,
        guaranteed: bool,
        scratch: &mut RepairScratch,
    ) -> Outcome {
        let outcome = repair_or_resynthesize_in(jobs, base, SlotPolicy::default(), scratch);
        if guaranteed {
            or_fps(jobs, outcome)
        } else {
            outcome
        }
    }

    /// The full-re-synthesis arrival chain: the static scheduler, then the
    /// FPS schedule when the pre-check passed. With the pre-check it is
    /// also the full-re-synthesis spike chain and bootstrap.
    fn resynthesis_chain(jobs: &JobSet, guaranteed: bool) -> Outcome {
        let outcome = whole(
            jobs,
            Tier::Resynthesis,
            StaticScheduler::new().schedule(jobs),
        );
        if guaranteed {
            or_fps(jobs, outcome)
        } else {
            outcome
        }
    }

    /// The incremental spike chain: re-timing, the ladder above, then the
    /// FPS schedule. The service discarded this chain's diagnostic; the
    /// reference keeps the re-synthesis tier's, as the arrival chain did.
    fn spike_chain(jobs: &JobSet, base: &Schedule, scratch: &mut RepairScratch) -> Outcome {
        let outcome = whole(jobs, Tier::Retime, retime_in(jobs, base, scratch))
            .or_else(|_| repair_or_resynthesize_in(jobs, base, SlotPolicy::default(), scratch));
        or_fps(jobs, outcome)
    }

    /// `task` with its WCET scaled to `percent`% (at least 1 µs), as the
    /// service rescales under a spike; `None` when that breaks the task.
    fn scaled(task: &IoTask, percent: u64) -> Option<IoTask> {
        let wcet = Duration::from_micros((task.wcet().as_micros() * percent / 100).max(1));
        builder_like(task).wcet(wcet).build().ok()
    }

    /// Same schedule, `replaced` and winning tier, or the same cause,
    /// jobs and bit-identical partial Ψ/Υ.
    fn assert_same(got: &Outcome, want: &Outcome, label: &str) {
        match (got, want) {
            (Ok(got), Ok(want)) => {
                assert!(got.schedule == want.schedule, "{label}: schedules differ");
                assert_eq!(got.replaced, want.replaced, "{label}");
                assert_eq!(got.tier, want.tier, "{label}");
            }
            (Err(got), Err(want)) => {
                assert_eq!(got.cause, want.cause, "{label}");
                assert_eq!(got.jobs, want.jobs, "{label}");
                let bits = |q: Option<f64>| q.map(f64::to_bits);
                assert_eq!(bits(got.best_psi), bits(want.best_psi), "{label}");
                assert_eq!(bits(got.best_upsilon), bits(want.best_upsilon), "{label}");
            }
            _ => panic!("{label}: {got:?} vs {want:?}"),
        }
    }

    /// The ladder reproduces every chain the online service composed by
    /// hand, for every tier list the service passes it, on every input.
    /// Inputs are random paper systems (§V.A): arrival-shaped (the live
    /// schedule of all but the last task, aligned to the grown
    /// hyper-period, plus that task) and spike-shaped (the live schedule
    /// of the whole set, every WCET scaled to 80–400%). Incremental lists
    /// share one long-lived scratch per side and end with equal
    /// [`LadderWork`]; the full-re-synthesis lists run on fresh scratches,
    /// as the service runs them.
    #[test]
    fn ladder_reproduces_the_service_chains() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use tagio_core::task::TaskSet;
        use tagio_workload::SystemConfig;
        use Tier::{Fps, Neighbourhood, Resynthesis, Retime};
        const TIERS: [Tier; 4] = [Retime, Neighbourhood, Resynthesis, Fps];
        let mut rng = StdRng::seed_from_u64(23);
        let set = |tasks: &[IoTask]| -> TaskSet { tasks.iter().cloned().collect() };
        let mut inputs = Vec::new();
        for case in 0..80 {
            let u = 0.05 * f64::from(rng.random_range(6..=18u32));
            let tasks: Vec<IoTask> = SystemConfig::paper(u)
                .generate(&mut rng)
                .iter()
                .cloned()
                .collect();
            // Arrival: the last task joins the schedule of the others.
            let (old, new) = (set(&tasks[..tasks.len() - 1]), set(&tasks));
            if let Ok(live) = StaticScheduler::new().schedule(&JobSet::expand(&old)) {
                let (old_h, new_h) = (old.hyperperiod(), new.hyperperiod());
                let base = if new_h > old_h {
                    live.repeat((new_h / old_h) as u32, old_h)
                } else {
                    live
                };
                inputs.push((
                    format!("case {case}, u {u:.2}, arrival"),
                    JobSet::expand(&new),
                    base,
                ));
            }
            // Spike: every WCET scales; tasks the scale breaks are shed.
            if let Ok(live) = StaticScheduler::new().schedule(&JobSet::expand(&new)) {
                let percent = rng.random_range(80..=400u64);
                let spiked: Vec<IoTask> = tasks.iter().filter_map(|t| scaled(t, percent)).collect();
                let label = format!("case {case}, u {u:.2}, spike {percent}%");
                inputs.push((label, JobSet::expand(&set(&spiked)), live));
            }
        }

        let (mut ladder, mut reference) = (RepairScratch::default(), RepairScratch::default());
        let (mut wins, mut failures) = ([0usize; 4], 0);
        let mut check = |label: String, got: Outcome, want: Outcome| {
            assert_same(&got, &want, &label);
            match got {
                Ok(outcome) => wins[TIERS.iter().position(|&t| t == outcome.tier).unwrap()] += 1,
                Err(_) => failures += 1,
            }
        };
        for (label, jobs, base) in &inputs {
            for guaranteed in [false, true] {
                let tiers = &[Neighbourhood, Resynthesis, Fps][..2 + usize::from(guaranteed)];
                let got = ladder_in(jobs, base, tiers, &mut ladder);
                let want = arrival_chain(jobs, base, guaranteed, &mut reference);
                check(format!("{label}, {tiers:?}"), got, want);
                let tiers = &[Resynthesis, Fps][..1 + usize::from(guaranteed)];
                let got = ladder_in(jobs, base, tiers, &mut RepairScratch::default());
                let want = resynthesis_chain(jobs, guaranteed);
                check(format!("{label}, {tiers:?}"), got, want);
            }
            let tiers = [Retime, Neighbourhood, Resynthesis, Fps];
            let got = ladder_in(jobs, base, &tiers, &mut ladder);
            let want = spike_chain(jobs, base, &mut reference);
            check(format!("{label}, {tiers:?}"), got, want);
            // An empty list (the incremental shrink's) runs nothing and
            // fails without a panic.
            let empty = ladder_in(jobs, base, &[], &mut ladder).unwrap_err();
            assert_eq!(
                empty,
                Infeasible::new(InfeasibleCause::NoFeasibleSlot),
                "{label}"
            );
        }
        assert!(
            wins.iter().all(|&n| n > 0) && failures > 0,
            "wins per tier {wins:?}, {failures} failures"
        );
        assert_eq!(ladder.work(), reference.work());
    }
}
