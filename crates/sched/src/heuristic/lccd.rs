//! The LCC-D (Least Contention and Capacity Decreasing) slot allocator
//! (Algorithm 1, phase three, lines 10–22).
//!
//! After graph decomposition, the exact jobs `λ*` sit at their ideal starts
//! and the sacrificed jobs `λ¬` must be packed into the remaining free
//! slots — a bin-packing-like problem with per-job release windows.
//!
//! For each sacrificed job (highest priority first):
//!
//! 1. **Direct fit** (line 12): if one or more slots inside the release
//!    window can hold the job, choose the slot usable by the *fewest* of the
//!    still-pending jobs (least contention); ties go to the slot with the
//!    *least* usable capacity (capacity-decreasing, Best-Fit-like).
//! 2. **Fit with shifting** (line 15): otherwise, if the total capacity of
//!    the window's slots suffices, choose the consecutive run of slots whose
//!    coalescing shifts the fewest timing-accurate jobs, compact those jobs
//!    leftwards (never before their releases), and place the job in the
//!    coalesced gap.
//! 3. Otherwise the allocation — and Algorithm 1 — fails (line 19).
//!
//! The contention count of step 1 only visits the pending jobs that
//! could fit somewhere in the *hull* of the fitting slots, the span from
//! the first slot's start to the last slot's end. This prefilter is
//! exact. Every fitting slot lies inside the hull. A job that fits
//! `[a, b]` therefore also fits the hull, because clipping a job's window
//! to a wider span never leaves less room. So a job that fails the hull
//! test fails every slot and adds nothing to any slot's count. The
//! survivors are counted in their original order, so the per-slot
//! early-exit cap stops at the same count and the same slot wins.
//! Zero-WCET jobs fit every span and survive the filter, exactly as the
//! full scan counts them for every slot.

use super::graph::Phases;
use tagio_core::job::{Job, JobSet};
use tagio_core::metrics;
use tagio_core::schedule::{Schedule, ScheduleEntry};
use tagio_core::time::{Duration, Time};
use tagio_core::{MetricSet, Metrics};

/// Slot-selection policy for the direct-fit case; LCC-D is the paper's
/// policy, the others exist for the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlotPolicy {
    /// Least contention, then capacity-decreasing (the paper's LCC-D).
    #[default]
    LeastContentionCapacityDecreasing,
    /// First (earliest) fitting slot.
    FirstFit,
    /// Smallest fitting slot (classical Best-Fit).
    BestFit,
    /// Largest fitting slot (classical Worst-Fit).
    WorstFit,
}

/// A placed execution on the partition timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placed {
    job: usize,
    start: Time,
    wcet: Duration,
    /// `true` while the placement equals the job's ideal start.
    exact: bool,
}

impl Placed {
    fn finish(&self) -> Time {
        self.start + self.wcet
    }
}

/// Deterministic work counters of the repair ladder: how often each tier
/// ran, and how much ranking and shifting the LCC-D inner loops did.
/// They count work, not time, so two runs over the same inputs report
/// the same numbers on any machine and at any pool width.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LadderWork {
    /// [`Timeline::allocate`] calls.
    pub allocate_calls: u64,
    /// LCC-D rankings over more than one fitting slot.
    pub lccd_rankings: u64,
    /// Pending jobs tested against a ranking's hull (the prefilter).
    pub prefilter_visits: u64,
    /// `(slot, pending job)` pairs the contention count examined.
    pub contention_pairs: u64,
    /// Shifted-fit searches (no slot fitted directly, but the window's
    /// total free capacity did).
    pub shift_calls: u64,
    /// Candidate slot runs whose compaction was dry-run.
    pub shift_candidates: u64,
    /// Dry runs that passed; each commits one shift.
    pub dry_run_passes: u64,
    /// Neighbourhood-repair rounds (plain repair and each escalation).
    pub neighbourhood_rounds: u64,
    /// Full Algorithm 1 re-syntheses after the neighbourhood tier failed.
    pub resyntheses: u64,
    /// Conflict edges the re-syntheses' phase one built.
    pub conflict_edges: u64,
}

impl Metrics for LadderWork {
    fn merge(&mut self, other: &Self) {
        self.allocate_calls += other.allocate_calls;
        self.lccd_rankings += other.lccd_rankings;
        self.prefilter_visits += other.prefilter_visits;
        self.contention_pairs += other.contention_pairs;
        self.shift_calls += other.shift_calls;
        self.shift_candidates += other.shift_candidates;
        self.dry_run_passes += other.dry_run_passes;
        self.neighbourhood_rounds += other.neighbourhood_rounds;
        self.resyntheses += other.resyntheses;
        self.conflict_edges += other.conflict_edges;
    }

    fn snapshot(&self) -> MetricSet {
        let mut m = MetricSet::new();
        m.push("ladder_allocate_calls", self.allocate_calls as f64);
        m.push("ladder_lccd_rankings", self.lccd_rankings as f64);
        m.push("ladder_prefilter_visits", self.prefilter_visits as f64);
        m.push("ladder_contention_pairs", self.contention_pairs as f64);
        m.push("ladder_shift_calls", self.shift_calls as f64);
        m.push("ladder_shift_candidates", self.shift_candidates as f64);
        m.push("ladder_dry_run_passes", self.dry_run_passes as f64);
        m.push(
            "ladder_neighbourhood_rounds",
            self.neighbourhood_rounds as f64,
        );
        m.push("ladder_resyntheses", self.resyntheses as f64);
        m.push("ladder_conflict_edges", self.conflict_edges as f64);
        m
    }
}

/// Reusable buffers for Algorithm 1 — phases one and two, [`Timeline`]
/// construction and allocation — plus the ladder's [`LadderWork`]
/// counters.
///
/// Every `allocate` call needs slot lists, fitting filters, the LCC-D
/// prefilter's survivors and (on the shifting path) candidate runs; a
/// repair-driven admission loop runs thousands of such calls per
/// second, so the online hot path keeps one scratch alive and threads
/// it through [`Timeline::with_placements_in`] /
/// [`Timeline::into_schedule_in`] instead of re-allocating the buffers
/// per admission. A fresh (`Default`) scratch reproduces the original
/// allocating behaviour exactly — the buffers are cleared before every
/// use, so reuse never changes results, only allocation traffic. The
/// counters accumulate across every timeline built from the scratch.
#[derive(Debug, Default)]
pub struct TimelineScratch {
    /// The conflict graph and decomposition buffers of re-synthesis.
    pub(super) phases: Phases,
    placed: Vec<Placed>,
    slots: Vec<(Time, Time)>,
    fitting: Vec<(Time, Time)>,
    rivals: Vec<usize>,
    candidates: Vec<(usize, usize, usize)>,
    pub(super) work: LadderWork,
}

impl TimelineScratch {
    /// The work counters of every timeline recycled into this scratch.
    pub(crate) fn work(&self) -> LadderWork {
        self.work
    }
}

/// The partition timeline during allocation: executions sorted by start.
#[derive(Debug, Clone)]
pub struct Timeline<'a> {
    jobs: &'a JobSet,
    placed: Vec<Placed>,
    horizon: Time,
    slots: Vec<(Time, Time)>,
    fitting: Vec<(Time, Time)>,
    /// The pending jobs that pass an LCC-D ranking's hull prefilter.
    rivals: Vec<usize>,
    candidates: Vec<(usize, usize, usize)>,
    work: LadderWork,
}

impl<'a> Timeline<'a> {
    /// Starts a timeline holding `exact` jobs at their ideal instants.
    ///
    /// # Panics
    /// Panics if the exact jobs mutually overlap (the decomposition phase
    /// guarantees they do not).
    #[must_use]
    pub fn with_exact_jobs(jobs: &'a JobSet, exact: &[usize]) -> Self {
        Self::with_exact_jobs_in(jobs, exact, &mut TimelineScratch::default())
    }

    /// [`Timeline::with_exact_jobs`] on the buffers of `scratch`.
    pub(crate) fn with_exact_jobs_in(
        jobs: &'a JobSet,
        exact: &[usize],
        scratch: &mut TimelineScratch,
    ) -> Self {
        let all = jobs.as_slice();
        let mut placed = std::mem::take(&mut scratch.placed);
        placed.clear();
        placed.extend(exact.iter().map(|&i| Placed {
            job: i,
            start: all[i].ideal_start(),
            wcet: all[i].wcet(),
            exact: true,
        }));
        Self::from_placed(
            jobs,
            placed,
            scratch,
            "exact jobs overlap: decomposition bug",
        )
    }

    /// Starts a timeline from arbitrary pre-existing placements
    /// `(job index, start)` — the *repair* path: unaffected jobs keep
    /// their (possibly shifted) offline starts while disturbed jobs are
    /// re-allocated around them. Exactness is derived per placement
    /// (`start == ideal_start`). The buffers of `scratch` are recycled
    /// instead of allocated fresh; pair with
    /// [`Timeline::into_schedule_in`] to hand them back once the timeline
    /// is finalised.
    ///
    /// # Panics
    /// Panics if the placements mutually overlap (they come from a
    /// validated schedule; see `heuristic::repair` which pre-checks this
    /// and falls back to full re-synthesis instead of panicking).
    #[must_use]
    pub fn with_placements_in(
        jobs: &'a JobSet,
        placements: &[(usize, Time)],
        scratch: &mut TimelineScratch,
    ) -> Self {
        let all = jobs.as_slice();
        let mut placed = std::mem::take(&mut scratch.placed);
        placed.clear();
        placed.extend(placements.iter().map(|&(i, start)| Placed {
            job: i,
            start,
            wcet: all[i].wcet(),
            exact: start == all[i].ideal_start(),
        }));
        Self::from_placed(
            jobs,
            placed,
            scratch,
            "pinned placements overlap: repair seed bug",
        )
    }

    /// Sorts `placed` by `(start, finish)`, checks it is disjoint
    /// (panicking with `overlap` otherwise), and takes the remaining
    /// buffers and the work counters from `scratch`.
    fn from_placed(
        jobs: &'a JobSet,
        mut placed: Vec<Placed>,
        scratch: &mut TimelineScratch,
        overlap: &str,
    ) -> Self {
        placed.sort_by_key(|p| (p.start, p.finish()));
        for w in placed.windows(2) {
            assert!(w[0].finish() <= w[1].start, "{overlap}");
        }
        Timeline {
            jobs,
            placed,
            horizon: jobs.horizon(),
            slots: std::mem::take(&mut scratch.slots),
            fitting: std::mem::take(&mut scratch.fitting),
            rivals: std::mem::take(&mut scratch.rivals),
            candidates: std::mem::take(&mut scratch.candidates),
            work: scratch.work,
        }
    }

    /// Places `job_idx` exactly at its ideal instant if that interval is
    /// free (and feasible), maximising Ψ before falling back to
    /// [`Timeline::allocate`]. Returns `false` without touching the
    /// timeline otherwise.
    pub fn try_place_ideal(&mut self, job_idx: usize) -> bool {
        let job = &self.jobs.as_slice()[job_idx];
        let start = job.ideal_start();
        if job.start_feasible(start) && self.is_free(start, start + job.wcet()) {
            self.place(job_idx, start, true);
            true
        } else {
            false
        }
    }

    /// Places `job_idx` at exactly `start` if that is feasible and free
    /// (the repair fast path: a periodic task's later jobs usually fit at
    /// the same relative offset as its first). Returns `false` without
    /// touching the timeline otherwise.
    pub fn try_place_at(&mut self, job_idx: usize, start: Time) -> bool {
        let job = &self.jobs.as_slice()[job_idx];
        if job.start_feasible(start) && self.is_free(start, start + job.wcet()) {
            self.place(job_idx, start, false);
            true
        } else {
            false
        }
    }

    /// Indices of the placements intersecting the window `[lo, hi)`.
    ///
    /// `placed` is sorted by start and mutually non-overlapping, so
    /// finishes are monotone too (the same invariant `is_free` leans on):
    /// both bounds are binary searches, and every allocation probe then
    /// touches only the window's placements instead of walking the whole
    /// hyper-period — the difference between an admission verdict that
    /// scans ~20 placements and one that scans ~900.
    fn window_range(&self, lo: Time, hi: Time) -> (usize, usize) {
        let first = self.placed.partition_point(|p| p.finish() <= lo);
        let past = self.placed.partition_point(|p| p.start < hi);
        (first, past.max(first))
    }

    /// Free slots clipped to `[lo, hi]`, in time order, into `out`.
    ///
    /// Identical output to walking every placement from `Time::ZERO`:
    /// gaps that end before `lo` or start after `hi` clip to nothing, so
    /// the scan starts at the first placement finishing past `lo` and
    /// stops as soon as the running cursor reaches `hi`.
    fn collect_slots(&self, lo: Time, hi: Time, out: &mut Vec<(Time, Time)>) {
        out.clear();
        let first = self.placed.partition_point(|p| p.finish() <= lo);
        let mut cursor = if first == 0 {
            Time::ZERO
        } else {
            self.placed[first - 1].finish()
        };
        for p in &self.placed[first..] {
            if p.start > cursor {
                push_clipped(out, cursor, p.start, lo, hi);
            }
            cursor = cursor.max(p.finish());
            if cursor >= hi {
                return;
            }
        }
        if self.horizon > cursor {
            push_clipped(out, cursor, self.horizon, lo, hi);
        }
    }

    #[cfg(test)]
    fn slots_within(&self, lo: Time, hi: Time) -> Vec<(Time, Time)> {
        let mut out = Vec::new();
        self.collect_slots(lo, hi, &mut out);
        out
    }

    /// Usable length of a clipped slot for a job with window `[lo, hi]`.
    fn usable(slot: (Time, Time)) -> Duration {
        slot.1.saturating_sub(slot.0)
    }

    /// Attempts to allocate `job_idx` (Algorithm 1 lines 12–20) and
    /// returns the start it chose, or `None` when neither a direct fit
    /// nor a shifted fit exists.
    pub fn allocate(
        &mut self,
        job_idx: usize,
        pending: &[usize],
        policy: SlotPolicy,
    ) -> Option<Time> {
        self.work.allocate_calls += 1;
        let job = &self.jobs.as_slice()[job_idx];
        let (lo, hi) = (job.release(), job.abs_deadline());
        // The slot buffers live on `self` so repeated allocations reuse
        // their capacity; take them out for the duration of the call to
        // keep the borrow checker happy about the `&mut self` calls below.
        let mut slots = std::mem::take(&mut self.slots);
        let mut fitting = std::mem::take(&mut self.fitting);
        self.collect_slots(lo, hi, &mut slots);
        fitting.clear();
        fitting.extend(
            slots
                .iter()
                .copied()
                .filter(|&s| Self::usable(s) >= job.wcet()),
        );

        let placed = if !fitting.is_empty() {
            let slot = self.pick_slot(&fitting, pending, policy);
            self.place(job_idx, slot.0, false);
            Some(slot.0)
        } else {
            // Case 2: coalesce consecutive slots by shifting jobs leftwards.
            let total: Duration = slots.iter().map(|&s| Self::usable(s)).sum();
            if total >= job.wcet() {
                self.allocate_with_shift(job_idx, &slots)
            } else {
                None
            }
        };
        self.slots = slots;
        self.fitting = fitting;
        placed
    }

    fn pick_slot(
        &mut self,
        fitting: &[(Time, Time)],
        pending: &[usize],
        policy: SlotPolicy,
    ) -> (Time, Time) {
        // Every policy reduces to the sole candidate when only one slot
        // fits — skip the ranking scans (the LCC-D contention count walks
        // the pending jobs per slot, a real cost on escalated repairs).
        if fitting.len() == 1 {
            return fitting[0];
        }
        match policy {
            SlotPolicy::FirstFit => fitting[0],
            // Both ranking scans fold from the first slot instead of
            // `min_by_key`/`max_by` + `expect`: the `fitting[0]` seed is the
            // same non-emptiness precondition FirstFit already relies on.
            SlotPolicy::BestFit => fitting.iter().skip(1).fold(fitting[0], |best, &s| {
                // First minimum wins, matching `min_by_key`.
                if (Self::usable(s), s.0) < (Self::usable(best), best.0) {
                    s
                } else {
                    best
                }
            }),
            SlotPolicy::WorstFit => fitting.iter().skip(1).fold(fitting[0], |best, &s| {
                // Ties update, matching `max_by`'s last-maximum semantics.
                let ord = Self::usable(s)
                    .cmp(&Self::usable(best))
                    .then(best.0.cmp(&s.0));
                if ord == std::cmp::Ordering::Less {
                    best
                } else {
                    s
                }
            }),
            SlotPolicy::LeastContentionCapacityDecreasing => self.least_contended(fitting, pending),
        }
    }

    /// The LCC-D choice among two or more fitting slots: the slot usable
    /// by the fewest pending jobs, ties to the least usable capacity.
    ///
    /// Selection key is (contention, usable, start), minimised. Slot
    /// starts are unique (slots are disjoint), so no two slots tie on the
    /// full key and a manual strict-minimum loop equals `min_by_key`.
    /// That lets the contention count stop early: once a slot exceeds the
    /// best count seen, it has already lost. Only the pending jobs that
    /// fit the slots' hull are counted at all (see the module docs for
    /// why that prefilter is exact).
    fn least_contended(&mut self, fitting: &[(Time, Time)], pending: &[usize]) -> (Time, Time) {
        let all = self.jobs.as_slice();
        let hull = (fitting[0].0, fitting[fitting.len() - 1].1);
        let mut rivals = std::mem::take(&mut self.rivals);
        rivals.clear();
        rivals.extend(
            pending
                .iter()
                .copied()
                .filter(|&p| fits_span(&all[p], hull)),
        );
        let mut pairs = 0usize;
        let mut best = fitting[0];
        let mut best_key = (usize::MAX, Duration::ZERO, Time::ZERO);
        for &slot in fitting {
            let cap = best_key.0;
            let mut contention = 0usize;
            let mut examined = rivals.len();
            for (k, &p) in rivals.iter().enumerate() {
                if fits_span(&all[p], slot) {
                    contention += 1;
                    if contention > cap {
                        examined = k + 1;
                        break;
                    }
                }
            }
            pairs += examined;
            let key = (contention, Self::usable(slot), slot.0);
            if key < best_key {
                best = slot;
                best_key = key;
            }
        }
        self.rivals = rivals;
        self.work.lccd_rankings += 1;
        self.work.prefilter_visits += pending.len() as u64;
        self.work.contention_pairs += pairs as u64;
        best
    }

    /// Case 2 (lines 15–17): find the run of consecutive slots whose total
    /// usable capacity fits the job while shifting the fewest
    /// timing-accurate jobs; compact those jobs leftwards and place the job
    /// in the coalesced gap. Returns the job's start.
    fn allocate_with_shift(&mut self, job_idx: usize, slots: &[(Time, Time)]) -> Option<Time> {
        self.work.shift_calls += 1;
        let job = &self.jobs.as_slice()[job_idx];
        let n = slots.len();
        // Candidate runs [a..=b], ranked by (exact jobs shifted, start).
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        for a in 0..n {
            let mut total = Duration::ZERO;
            for b in a..n {
                total += Self::usable(slots[b]);
                if total >= job.wcet() {
                    let cost = self.exact_between(slots[a].0, slots[b].1);
                    candidates.push((cost, a, b));
                    break; // longer runs only shift more jobs
                }
            }
        }
        candidates.sort_unstable();
        let mut placed = None;
        for &(_, a, b) in &candidates {
            self.work.shift_candidates += 1;
            placed = self.try_compact_and_place(job_idx, slots[a].0, slots[b].1);
            if placed.is_some() {
                break;
            }
        }
        self.candidates = candidates;
        placed
    }

    /// Number of currently-exact placements inside `[lo, hi)`.
    fn exact_between(&self, lo: Time, hi: Time) -> usize {
        let (first, past) = self.window_range(lo, hi);
        self.placed[first..past].iter().filter(|p| p.exact).count()
    }

    /// Shifts every placement inside `[lo, hi)` as early as allowed
    /// (never before its release or `lo`), then places `job_idx` in the
    /// coalesced tail gap and returns its start, or `None` (leaving the
    /// timeline untouched) when the gap cannot hold the job.
    ///
    /// Compaction is deterministic, so the coalesced cursor is first
    /// computed by a read-only dry run, and the timeline is only written
    /// once the gap provably fits. Candidate runs overwhelmingly *fail*
    /// — `allocate_with_shift` tries them in cost order — and the dry run
    /// turns each failure into a short window walk.
    ///
    /// Once the dry run passes, the commit cannot fail, so it keeps no
    /// rollback snapshot and never re-sorts:
    ///
    /// - `lo` and `hi` are bounds of free slots, so no placement
    ///   straddles either. Every placement `window_range` returns lies
    ///   inside `[lo, hi]`, every earlier one finishes by `lo`, and every
    ///   later one starts at or after `hi`.
    /// - Compacting that sorted, disjoint run leftwards from `lo` keeps
    ///   it sorted and disjoint: each new start is at least the previous
    ///   new finish and at most its old start, so the run stays inside
    ///   `[lo, hi]` and `placed` stays sorted as a whole.
    /// - The commit ends on the dry run's cursor, so the gap
    ///   `[gap_lo, gap_lo + wcet)` is the one the dry run checked. It
    ///   starts after every compacted finish and ends by `hi`, so it is
    ///   free.
    fn try_compact_and_place(&mut self, job_idx: usize, lo: Time, hi: Time) -> Option<Time> {
        let all = self.jobs.as_slice();
        let job = &all[job_idx];
        let (first, past) = self.window_range(lo, hi);

        // Dry run: replay the shifting loop below without writing.
        let mut cursor = lo;
        for p in &self.placed[first..past] {
            let new_start = cursor.max(all[p.job].release());
            let start = if new_start < p.start {
                new_start
            } else {
                p.start
            };
            cursor = cursor.max(start + p.wcet);
        }
        // The coalesced gap: from the last shifted finish to `hi`, clipped
        // to the job's own window.
        let gap_lo = cursor.max(job.release());
        let gap_hi = hi.min(job.abs_deadline());
        if gap_hi.saturating_sub(gap_lo) < job.wcet() {
            return None;
        }
        self.work.dry_run_passes += 1;

        let mut cursor = lo;
        for p in &mut self.placed[first..past] {
            let new_start = cursor.max(all[p.job].release());
            if new_start < p.start {
                p.start = new_start;
                p.exact = false;
            }
            cursor = cursor.max(p.finish());
        }
        // Checked in debug builds: compaction keeps `placed` in start
        // order and disjoint.
        debug_assert!(
            sorted_and_disjoint(&self.placed),
            "compaction broke the start order or made two executions overlap"
        );
        debug_assert!(cursor.max(job.release()) == gap_lo);
        self.place(job_idx, gap_lo, false);
        Some(gap_lo)
    }

    fn is_free(&self, lo: Time, hi: Time) -> bool {
        // `placed` is sorted by start and mutually non-overlapping, so
        // finishes are monotone too: the only placement that can reach
        // into `[lo, hi)` is the last one starting before `hi`.
        let idx = self.placed.partition_point(|p| p.start < hi);
        idx == 0 || self.placed[idx - 1].finish() <= lo
    }

    fn place(&mut self, job_idx: usize, start: Time, exact: bool) {
        let job = &self.jobs.as_slice()[job_idx];
        debug_assert!(self.is_free(start, start + job.wcet()));
        let placed = Placed {
            job: job_idx,
            start,
            wcet: job.wcet(),
            exact: exact || start == job.ideal_start(),
        };
        // (start, finish) order: a zero-length placement goes before a
        // longer one with the same start, so finishes stay monotone.
        let key = (start, placed.finish());
        let pos = self
            .placed
            .partition_point(|p| (p.start, p.finish()) <= key);
        self.placed.insert(pos, placed);
    }

    /// Ψ and Υ of the placements made so far, over the whole job set:
    /// the bits [`metrics::psi`] and [`metrics::upsilon`] give for
    /// [`Timeline::into_schedule`], without building that schedule.
    /// `by_job` is a reusable lookup buffer.
    pub(crate) fn partial_quality(&self, by_job: &mut Vec<Option<Time>>) -> (f64, f64) {
        placement_quality(
            self.jobs,
            self.placed.iter().map(|p| (p.job, p.start)),
            by_job,
        )
    }

    /// Finalises the timeline into a [`Schedule`].
    #[must_use]
    pub fn into_schedule(self) -> Schedule {
        self.into_schedule_in(&mut TimelineScratch::default())
    }

    /// [`Timeline::into_schedule`], returning the timeline's buffers to
    /// `scratch` so the next [`Timeline::with_placements_in`] reuses
    /// their capacity, and its work counters so they keep accumulating.
    #[must_use]
    pub fn into_schedule_in(self, scratch: &mut TimelineScratch) -> Schedule {
        let schedule = self
            .placed
            .iter()
            .map(|p| ScheduleEntry {
                job: self.jobs.as_slice()[p.job].id(),
                start: p.start,
                duration: p.wcet,
            })
            .collect();
        self.recycle(scratch);
        schedule
    }

    /// Drops the timeline without building a schedule, returning its
    /// buffers and counters to `scratch` like
    /// [`Timeline::into_schedule_in`] does.
    pub(crate) fn recycle(self, scratch: &mut TimelineScratch) {
        scratch.placed = self.placed;
        scratch.slots = self.slots;
        scratch.fitting = self.fitting;
        scratch.rivals = self.rivals;
        scratch.candidates = self.candidates;
        scratch.work = self.work;
    }

    /// Number of placements currently at their ideal instants.
    #[must_use]
    pub fn exact_count(&self) -> usize {
        self.placed.iter().filter(|p| p.exact).count()
    }
}

/// Ψ and Υ of `(job index, start)` placements over the whole of `jobs`,
/// through [`metrics::quality_by`]: an `O(n)` table by job position in
/// place of a [`Schedule`] and its sorted lookup. `by_job` is a reusable
/// buffer.
pub(crate) fn placement_quality(
    jobs: &JobSet,
    placements: impl IntoIterator<Item = (usize, Time)>,
    by_job: &mut Vec<Option<Time>>,
) -> (f64, f64) {
    by_job.clear();
    by_job.resize(jobs.len(), None);
    for (job, start) in placements {
        by_job[job] = Some(start);
    }
    metrics::quality_by(jobs, |i| by_job[i])
}

fn push_clipped(out: &mut Vec<(Time, Time)>, s: Time, e: Time, lo: Time, hi: Time) {
    let cs = s.max(lo);
    let ce = e.min(hi);
    if ce > cs {
        out.push((cs, ce));
    }
}

/// Whether every placement finishes by the next one's start: `placed`
/// is in start order and no two executions overlap. Finishes are then
/// monotone too, which `window_range`, `collect_slots` and `is_free`
/// rely on. `place` and `from_placed` keep it for zero-WCET jobs too by
/// ordering placements by `(start, finish)`: a zero-length placement
/// sits before, never after, a longer one with the same start.
fn sorted_and_disjoint(placed: &[Placed]) -> bool {
    placed.windows(2).all(|w| w[0].finish() <= w[1].start)
}

/// Whether `job` can run to completion inside `span` intersected with its
/// own window — the contention predicate of LCC-D.
fn fits_span(job: &Job, (lo, hi): (Time, Time)) -> bool {
    hi.min(job.abs_deadline())
        .saturating_sub(lo.max(job.release()))
        >= job.wcet()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagio_core::job::{Job, JobId};
    use tagio_core::quality::QualityCurve;
    use tagio_core::task::{Priority, TaskId};

    /// A job with explicit release/ideal/deadline in ms and wcet in ms.
    fn job(
        task: u32,
        release_ms: u64,
        ideal_ms: u64,
        deadline_ms: u64,
        wcet_ms: u64,
        prio: u32,
    ) -> Job {
        Job::new(
            JobId::new(TaskId(task), 0),
            Time::from_millis(release_ms),
            Time::from_millis(ideal_ms),
            Time::from_millis(deadline_ms),
            Duration::from_millis(wcet_ms),
            Duration::ZERO,
            Priority(prio),
            QualityCurve::linear(1.0, 0.0),
        )
    }

    fn jobset(jobs: Vec<Job>, hp_ms: u64) -> JobSet {
        JobSet::from_jobs(jobs, Duration::from_millis(hp_ms))
    }

    /// Index of `task`'s job in the (release-sorted) job set.
    fn idx(js: &JobSet, task: u32) -> usize {
        js.as_slice()
            .iter()
            .position(|j| j.id().task == TaskId(task))
            .expect("task present")
    }

    #[test]
    fn slots_cover_idle_time_between_exact_jobs() {
        let js = jobset(
            vec![job(0, 0, 10, 100, 5, 0), job(1, 0, 30, 100, 5, 1)],
            100,
        );
        let tl = Timeline::with_exact_jobs(&js, &[0, 1]);
        let slots = tl.slots_within(Time::ZERO, Time::from_millis(100));
        assert_eq!(
            slots,
            vec![
                (Time::ZERO, Time::from_millis(10)),
                (Time::from_millis(15), Time::from_millis(30)),
                (Time::from_millis(35), Time::from_millis(100)),
            ]
        );
    }

    #[test]
    fn direct_fit_places_in_window() {
        let js = jobset(
            vec![
                job(0, 0, 10, 100, 5, 0), // exact at 10..15
                job(1, 0, 12, 40, 5, 1),  // must be reallocated
            ],
            100,
        );
        let mut tl = Timeline::with_exact_jobs(&js, &[0]);
        assert!(tl.allocate(1, &[], SlotPolicy::default()).is_some());
        let s = tl.into_schedule();
        let start = s.start_of(JobId::new(TaskId(1), 0)).unwrap();
        // placed either before 10 or after 15, inside [0, 40-5]
        assert!(start + Duration::from_millis(5) <= Time::from_millis(40));
    }

    #[test]
    fn lccd_prefers_least_contended_slot() {
        // Two slots fit the job: [0,10) (also usable by pending job 2) and
        // [15,22) (usable by nobody else). LCC-D must pick the second.
        let js = jobset(
            vec![
                job(0, 0, 10, 100, 5, 0), // exact at 10..15
                job(1, 0, 16, 22, 5, 1),  // to allocate; fits [0,10) and [15,22)
                job(2, 0, 5, 10, 5, 2),   // pending: only fits [0,10)
            ],
            22,
        );
        let mut tl = Timeline::with_exact_jobs(&js, &[0]);
        assert!(tl
            .allocate(1, &[2], SlotPolicy::LeastContentionCapacityDecreasing)
            .is_some());
        let s = tl.clone().into_schedule();
        let start = s.start_of(JobId::new(TaskId(1), 0)).unwrap();
        assert_eq!(start, Time::from_millis(15), "picked the uncontended slot");
    }

    #[test]
    fn first_fit_takes_earliest_slot() {
        let js = jobset(
            vec![
                job(0, 0, 10, 100, 5, 0),
                job(1, 0, 16, 22, 5, 1),
                job(2, 0, 5, 10, 5, 2),
            ],
            22,
        );
        let mut tl = Timeline::with_exact_jobs(&js, &[0]);
        assert_eq!(tl.allocate(1, &[2], SlotPolicy::FirstFit), Some(Time::ZERO));
        let start = tl
            .into_schedule()
            .start_of(JobId::new(TaskId(1), 0))
            .unwrap();
        assert_eq!(start, Time::ZERO);
    }

    #[test]
    fn capacity_decreasing_breaks_ties() {
        // Both slots uncontended; slot sizes 10 and 7: pick the smaller (7).
        let js = jobset(vec![job(0, 0, 10, 100, 5, 0), job(1, 0, 16, 22, 5, 1)], 22);
        let mut tl = Timeline::with_exact_jobs(&js, &[0]);
        assert!(tl
            .allocate(1, &[], SlotPolicy::LeastContentionCapacityDecreasing)
            .is_some());
        let start = tl
            .into_schedule()
            .start_of(JobId::new(TaskId(1), 0))
            .unwrap();
        assert_eq!(start, Time::from_millis(15));
    }

    #[test]
    fn shifting_coalesces_fragmented_slots() {
        // Window [0, 20]: exact job occupies 8..12. Slots are [0,8) and
        // [12,20): job with wcet 10 fits neither alone but fits after
        // shifting the exact job left to its release.
        let js = jobset(
            vec![
                job(0, 0, 8, 100, 4, 0), // exact at 8..12, release 0
                job(1, 0, 5, 20, 10, 1), // needs 10 contiguous
            ],
            100,
        );
        let mut tl = Timeline::with_exact_jobs(&js, &[0]);
        assert!(tl.allocate(1, &[], SlotPolicy::default()).is_some());
        let s = tl.into_schedule();
        let j0 = s.start_of(JobId::new(TaskId(0), 0)).unwrap();
        let j1 = s.start_of(JobId::new(TaskId(1), 0)).unwrap();
        // exact job was compacted to its release (0), job 1 follows.
        assert_eq!(j0, Time::ZERO);
        assert_eq!(j1, Time::from_millis(4));
    }

    #[test]
    fn shifting_respects_releases() {
        // The blocking job cannot move before its release at 6, so the
        // 10ms job cannot fit in [0,20] and allocation fails.
        let js = jobset(
            vec![
                job(0, 6, 8, 100, 4, 0), // release 6: can shift to 6..10 only
                job(1, 0, 5, 20, 10, 1),
            ],
            100,
        );
        let pinned = idx(&js, 0);
        let movable = idx(&js, 1);
        let mut tl = Timeline::with_exact_jobs(&js, &[pinned]);
        // slots in [0,20]: [0,8) cap 8, [12,20) cap 8; total 16 >= 10 but
        // compaction only frees 10..20 (len 10) => fits!
        assert_eq!(
            tl.allocate(movable, &[], SlotPolicy::default()),
            Some(Time::from_millis(10))
        );
        let s = tl.into_schedule();
        assert_eq!(
            s.start_of(JobId::new(TaskId(0), 0)).unwrap(),
            Time::from_millis(6)
        );
        assert_eq!(
            s.start_of(JobId::new(TaskId(1), 0)).unwrap(),
            Time::from_millis(10)
        );
    }

    #[test]
    fn allocation_fails_when_window_too_full() {
        // Window [0,10], wcet 6, but an immovable exact job owns 2..8.
        let js = jobset(
            vec![
                job(0, 2, 2, 100, 6, 0), // exact at 2..8, release 2 (cannot move)
                job(1, 0, 4, 10, 6, 1),
            ],
            100,
        );
        let pinned = idx(&js, 0);
        let movable = idx(&js, 1);
        let mut tl = Timeline::with_exact_jobs(&js, &[pinned]);
        assert_eq!(tl.allocate(movable, &[], SlotPolicy::default()), None);
    }

    #[test]
    fn shifted_jobs_lose_exactness() {
        let js = jobset(vec![job(0, 0, 8, 100, 4, 0), job(1, 0, 5, 20, 10, 1)], 100);
        let mut tl = Timeline::with_exact_jobs(&js, &[0]);
        assert_eq!(tl.exact_count(), 1);
        assert!(tl.allocate(1, &[], SlotPolicy::default()).is_some());
        assert_eq!(tl.exact_count(), 0, "shifted job is no longer exact");
    }

    #[test]
    fn placement_at_ideal_counts_as_exact() {
        let js = jobset(vec![job(0, 0, 10, 100, 5, 0)], 100);
        let mut tl = Timeline::with_exact_jobs(&js, &[]);
        // Free timeline: the direct fit picks the earliest point of the
        // chosen slot, which here is the whole horizon starting at 0.
        assert_eq!(tl.allocate(0, &[], SlotPolicy::FirstFit), Some(Time::ZERO));
        assert_eq!(tl.exact_count(), 0); // placed at 0, not at ideal 10
    }

    #[test]
    #[should_panic(expected = "decomposition bug")]
    fn overlapping_exact_jobs_panic() {
        let js = jobset(
            vec![job(0, 0, 10, 100, 5, 0), job(1, 0, 12, 100, 5, 1)],
            100,
        );
        let _ = Timeline::with_exact_jobs(&js, &[0, 1]);
    }

    /// The position lookup behind `partial_quality` must give the bits
    /// `metrics::quality` gives for the finished schedule:
    /// on empty, fully exact, shifted and partly placed timelines.
    #[test]
    fn partial_quality_matches_schedule_metrics_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        fn check(tl: &Timeline<'_>, case: &str) {
            let (psi, upsilon) = tl.partial_quality(&mut Vec::new());
            let s = tl.clone().into_schedule();
            let (want_psi, want_upsilon) = metrics::quality(&s, tl.jobs);
            assert_eq!(psi.to_bits(), want_psi.to_bits(), "psi, {case}");
            assert_eq!(upsilon.to_bits(), want_upsilon.to_bits(), "upsilon, {case}");
        }
        let (ms, dur) = (Time::from_millis, Duration::from_millis);

        let empty = jobset(vec![], 10);
        check(&Timeline::with_exact_jobs(&empty, &[]), "empty job set");
        let spaced = jobset(
            (0..4u32)
                .map(|t| {
                    let r = 10 * u64::from(t);
                    job(t, r, r + 2, r + 9, 3, t)
                })
                .collect(),
            40,
        );
        check(&Timeline::with_exact_jobs(&spaced, &[]), "nothing placed");
        check(
            &Timeline::with_exact_jobs(&spaced, &[0, 1, 2, 3]),
            "fully exact",
        );

        let mut rng = StdRng::seed_from_u64(12);
        for round in 0..200 {
            let n = rng.random_range(1..12u32);
            let jobs: Vec<Job> = (0..n)
                .map(|t| {
                    let release = rng.random_range(0..40u64);
                    let lead = rng.random_range(0..10u64);
                    let wcet = rng.random_range(1..6u64);
                    let tail = wcet + rng.random_range(0..15u64);
                    let margin = rng.random_range(0..=lead.min(tail));
                    let vmin = rng.random_range(0.0..=0.5);
                    let vmax = vmin + rng.random_range(0.1..=2.0);
                    Job::new(
                        JobId::new(TaskId(t), 0),
                        ms(release),
                        ms(release + lead),
                        ms(release + lead + tail),
                        dur(wcet),
                        dur(margin),
                        Priority(t % 3),
                        QualityCurve::linear(vmax, vmin),
                    )
                })
                .collect();
            let js = jobset(jobs, 80);
            // Per job: left out, exact when free, at a shifted instant
            // when free, or through the allocator (which may compact).
            let mut tl = Timeline::with_exact_jobs(&js, &[]);
            for i in 0..js.len() {
                match rng.random_range(0..4u32) {
                    0 => {}
                    1 => {
                        tl.try_place_ideal(i);
                    }
                    2 => {
                        let at = js.as_slice()[i].release() + dur(rng.random_range(0..10u64));
                        tl.try_place_at(i, at);
                    }
                    _ => {
                        let _ = tl.allocate(i, &[], SlotPolicy::default());
                    }
                }
            }
            check(&tl, &format!("random timeline {round}"));
        }
    }

    /// A random job set on a `span` ms timeline with integer-ms windows.
    /// With `zero_wcet`, about one job in six has zero WCET. About one
    /// window in four runs to the horizon (`span`, which no deadline
    /// exceeds).
    fn random_jobs(rng: &mut rand::rngs::StdRng, n: u32, span: u64, zero_wcet: bool) -> JobSet {
        use rand::RngExt;
        let jobs = (0..n)
            .map(|t| {
                let release = rng.random_range(0..span - 1);
                let deadline = if rng.random_range(0..4u32) == 0 {
                    span
                } else {
                    rng.random_range(release + 1..=span)
                };
                let wcet = if zero_wcet && rng.random_range(0..6u32) == 0 {
                    0
                } else {
                    rng.random_range(1..=(deadline - release).min(8))
                };
                let ideal = rng.random_range(release..=deadline - wcet);
                job(t, release, ideal, deadline, wcet, rng.random_range(0..3u32))
            })
            .collect();
        jobset(jobs, span)
    }

    /// Places a random subset of `js` at its ideal or a random instant
    /// (when free) and returns the jobs left unplaced, shuffled.
    fn seed_timeline(
        rng: &mut rand::rngs::StdRng,
        tl: &mut Timeline<'_>,
        js: &JobSet,
    ) -> Vec<usize> {
        use rand::RngExt;
        let mut left = Vec::new();
        for i in 0..js.len() {
            let j = &js.as_slice()[i];
            let placed = match rng.random_range(0..3u32) {
                0 => tl.try_place_ideal(i),
                1 => {
                    let room = j.latest_start().saturating_sub(j.release());
                    let at = j.release()
                        + Duration::from_millis(rng.random_range(0..=room.as_micros() / 1000));
                    tl.try_place_at(i, at)
                }
                _ => false,
            };
            if !placed {
                left.push(i);
            }
        }
        for k in (1..left.len()).rev() {
            left.swap(k, rng.random_range(0..=k));
        }
        left
    }

    /// The full-pending LCC-D scan the prefilter replaced: every pending
    /// job is tested against every fitting slot.
    fn reference_lccd(
        tl: &Timeline<'_>,
        fitting: &[(Time, Time)],
        pending: &[usize],
    ) -> (Time, Time) {
        let all = tl.jobs.as_slice();
        let mut best = fitting[0];
        let mut best_key = (usize::MAX, Duration::ZERO, Time::ZERO);
        for &slot in fitting {
            let contention = pending
                .iter()
                .filter(|&&p| {
                    let other = &all[p];
                    let olo = slot.0.max(other.release());
                    let ohi = slot.1.min(other.abs_deadline());
                    ohi.saturating_sub(olo) >= other.wcet()
                })
                .count();
            let key = (contention, Timeline::usable(slot), slot.0);
            if key < best_key {
                best = slot;
                best_key = key;
            }
        }
        best
    }

    /// The allocator with a clone-and-rollback shift: every candidate run
    /// snapshots the timeline, compacts, re-sorts, and restores the
    /// snapshot when the coalesced gap does not take the job.
    fn reference_allocate(
        tl: &mut Timeline<'_>,
        job_idx: usize,
        pending: &[usize],
    ) -> Option<Time> {
        let all = tl.jobs.as_slice();
        let job = &all[job_idx];
        let slots = tl.slots_within(job.release(), job.abs_deadline());
        let fitting: Vec<_> = slots
            .iter()
            .copied()
            .filter(|&s| Timeline::usable(s) >= job.wcet())
            .collect();
        if !fitting.is_empty() {
            let slot = reference_lccd(tl, &fitting, pending);
            tl.place(job_idx, slot.0, false);
            return Some(slot.0);
        }
        if slots.iter().map(|&s| Timeline::usable(s)).sum::<Duration>() < job.wcet() {
            return None;
        }
        let mut candidates = Vec::new();
        for a in 0..slots.len() {
            let mut total = Duration::ZERO;
            for b in a..slots.len() {
                total += Timeline::usable(slots[b]);
                if total >= job.wcet() {
                    candidates.push((tl.exact_between(slots[a].0, slots[b].1), a, b));
                    break;
                }
            }
        }
        candidates.sort_unstable();
        for (_, a, b) in candidates {
            let (lo, hi) = (slots[a].0, slots[b].1);
            let snapshot = tl.placed.clone();
            let (first, past) = tl.window_range(lo, hi);
            let mut cursor = lo;
            for p in &mut tl.placed[first..past] {
                let new_start = cursor.max(all[p.job].release());
                if new_start < p.start {
                    p.start = new_start;
                    p.exact = false;
                }
                cursor = cursor.max(p.finish());
            }
            tl.placed.sort_by_key(|p| p.start);
            let gap_lo = cursor.max(job.release());
            let gap_hi = hi.min(job.abs_deadline());
            if gap_hi.saturating_sub(gap_lo) >= job.wcet()
                && tl.is_free(gap_lo, gap_lo + job.wcet())
            {
                tl.place(job_idx, gap_lo, false);
                return Some(gap_lo);
            }
            tl.placed = snapshot;
        }
        None
    }

    /// The hull prefilter never changes the LCC-D choice: on random
    /// timelines and random pending suffixes, `pick_slot` agrees with the
    /// full-pending scan, zero-WCET jobs and horizon-clipped windows
    /// included.
    #[test]
    fn pick_slot_matches_the_full_pending_scan() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let (mut single, mut ranked, mut zero_wcet_rivals, mut at_horizon) = (0, 0, 0, 0);
        for round in 0..3000 {
            let n = rng.random_range(2..24u32);
            let span = rng.random_range(12..80u64);
            let js = random_jobs(&mut rng, n, span, true);
            let mut tl = Timeline::with_exact_jobs(&js, &[]);
            let left = seed_timeline(&mut rng, &mut tl, &js);
            let Some((&target, rest)) = left.split_first() else {
                continue;
            };
            let job = &js.as_slice()[target];
            let fitting: Vec<_> = tl
                .slots_within(job.release(), job.abs_deadline())
                .into_iter()
                .filter(|&s| Timeline::usable(s) >= job.wcet())
                .collect();
            if fitting.is_empty() {
                continue;
            }
            let pending = &rest[rng.random_range(0..=rest.len())..];
            let want = reference_lccd(&tl, &fitting, pending);
            let got = tl.pick_slot(
                &fitting,
                pending,
                SlotPolicy::LeastContentionCapacityDecreasing,
            );
            assert_eq!(
                got, want,
                "round {round}: fitting {fitting:?}, pending {pending:?}"
            );
            if fitting.len() == 1 {
                single += 1;
            } else {
                ranked += 1;
                zero_wcet_rivals += usize::from(
                    pending
                        .iter()
                        .any(|&p| js.as_slice()[p].wcet() == Duration::ZERO),
                );
                at_horizon += usize::from(fitting[fitting.len() - 1].1 == js.horizon());
            }
        }
        assert!(
            single > 100 && ranked > 500,
            "{single} single, {ranked} ranked"
        );
        assert!(
            zero_wcet_rivals > 100 && at_horizon > 100,
            "{zero_wcet_rivals}, {at_horizon}"
        );
    }

    /// The rollback-free shift commits exactly what a clone-and-rollback
    /// shift commits: after every `allocate` of a random sequence the
    /// timeline equals the reference's, and is sorted and disjoint, on
    /// job sets with and without zero-WCET jobs.
    #[test]
    fn allocate_matches_a_clone_and_rollback_reference() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let mut scratch = TimelineScratch::default();
        let mut zero_wcet_rounds = 0;
        for round in 0..1500 {
            let n = rng.random_range(4..28u32);
            let span = rng.random_range(16..64u64);
            let js = random_jobs(&mut rng, n, span, round % 2 == 1);
            let mut tl = Timeline::with_placements_in(&js, &[], &mut scratch);
            let left = seed_timeline(&mut rng, &mut tl, &js);
            zero_wcet_rounds += usize::from(js.iter().any(|j| j.wcet() == Duration::ZERO));
            for (k, &idx) in left.iter().enumerate() {
                let pending = &left[k + 1..];
                let mut reference = tl.clone();
                let want = reference_allocate(&mut reference, idx, pending);
                let got = tl.allocate(idx, pending, SlotPolicy::default());
                let case = format!("round {round}, job {idx}");
                assert_eq!(got, want, "{case}");
                assert_eq!(tl.placed, reference.placed, "{case}");
                assert!(sorted_and_disjoint(&tl.placed), "{case}: {:?}", tl.placed);
            }
            tl.recycle(&mut scratch);
        }
        let work = scratch.work();
        assert!(zero_wcet_rounds >= 500, "{zero_wcet_rounds}");
        assert!(work.dry_run_passes > 200, "{work:?}");
        assert!(work.shift_candidates > work.dry_run_passes, "{work:?}");
        assert!(work.lccd_rankings > 1000, "{work:?}");
    }
}
