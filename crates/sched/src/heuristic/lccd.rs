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
//! # The contention prefilter
//!
//! The contention count of step 1 only counts the pending jobs that
//! could fit somewhere in the *hull* `[h0, h1)` of the fitting slots, the
//! span from the first slot's start to the last slot's end. This filter
//! is exact. Every fitting slot lies inside the hull. A job that fits
//! `[a, b]` therefore also fits the hull, because clipping a job's window
//! to a wider span never leaves less room. So a job that fails the hull
//! test fails every slot and adds nothing to any slot's count. The
//! survivors (the *rivals*) are counted in their original order, so the
//! per-slot early-exit cap stops at the same count and the same slot
//! wins. Zero-WCET jobs fit every span and survive the filter, exactly
//! as the full scan counts them for every slot.
//!
//! The filter need not read every pending job either. Once per
//! allocation order (each synthesis, each repair round) the timeline
//! splits the order into maximal *runs* of non-decreasing release; the
//! orders sorted by `solve::priority_rank` hold one run per priority
//! class.
//! Each run records its longest window `W = max(abs_deadline − release)`
//! and whether it holds a zero-WCET job. Inside a run without one, the
//! hull test fails:
//!
//! - for every job with `release + W ≤ h0`: its deadline is at most
//!   `release + W ≤ h0`, so its window meets the hull in no time at all,
//!   less than its positive WCET;
//! - for every job with `release ≥ h1`: its window starts at or after the
//!   hull ends.
//!
//! Releases do not decrease along a run, so both sets are a prefix and a
//! suffix of the run's pending jobs: a binary search on
//! `release + W > h0` finds the first job worth testing, and the scan
//! stops at the first job released at or after `h1`. A run with a
//! zero-WCET job is scanned whole. Runs are taken in order and each is
//! scanned in order, so the rivals are exactly the full scan's, in the
//! full scan's order. [`LadderWork::prefilter_visits`] counts the jobs the
//! scans tested against the hull, not every pending job.

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
    /// LCC-D allocation calls (one per job the allocator places or
    /// fails to place).
    pub allocate_calls: u64,
    /// LCC-D rankings over more than one fitting slot.
    pub lccd_rankings: u64,
    /// Pending jobs the prefilter tested against a ranking's hull: those
    /// its per-run binary search and early stop left to read (see the
    /// module docs).
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

/// A maximal run of non-decreasing release in an allocation order, the
/// unit the contention prefilter bounds (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    /// The run's positions in the order: `start..end`.
    start: usize,
    end: usize,
    /// The longest window `abs_deadline − release` of the run's jobs.
    longest: Duration,
    /// Whether a job of the run has zero WCET; such a job fits every
    /// span, so the run is scanned whole.
    zero_wcet: bool,
}

/// Reusable buffers for Algorithm 1 — phases one and two, [`Timeline`]
/// construction and allocation — plus the ladder's [`LadderWork`]
/// counters.
///
/// Every allocation call needs slot lists, fitting filters, the LCC-D
/// prefilter's runs and survivors and (on the shifting path) candidate
/// runs; a repair-driven admission loop runs thousands of such calls per
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
    runs: Vec<Run>,
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
    /// The runs [`Timeline::plan`] split the current allocation order
    /// into.
    runs: Vec<Run>,
    /// The pending jobs that pass an LCC-D ranking's hull prefilter.
    rivals: Vec<usize>,
    candidates: Vec<(usize, usize, usize)>,
    work: LadderWork,
}

impl<'a> Timeline<'a> {
    /// Starts a timeline holding `exact` jobs at their ideal instants, on
    /// the buffers of `scratch`.
    ///
    /// # Panics
    /// Panics if the exact jobs mutually overlap (the decomposition phase
    /// guarantees they do not).
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
            runs: std::mem::take(&mut scratch.runs),
            rivals: std::mem::take(&mut scratch.rivals),
            candidates: std::mem::take(&mut scratch.candidates),
            work: scratch.work,
        }
    }

    /// Places `job_idx` exactly at its ideal instant if that interval is
    /// free (and feasible), maximising Ψ before falling back to the
    /// LCC-D allocator. Returns `false` without touching the
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

    /// Splits the allocation order `order` into its maximal runs of
    /// non-decreasing release, for the contention prefilter of every
    /// [`Timeline::allocate_in`] call on this order. Call it once per
    /// order, after the order is final.
    pub(crate) fn plan(&mut self, order: &[usize]) {
        let all = self.jobs.as_slice();
        self.runs.clear();
        let mut last_release = Time::ZERO;
        for (pos, &i) in order.iter().enumerate() {
            let job = &all[i];
            let window = job.abs_deadline() - job.release();
            let zero_wcet = job.wcet().is_zero();
            match self.runs.last_mut() {
                Some(run) if last_release <= job.release() => {
                    run.end = pos + 1;
                    run.longest = run.longest.max(window);
                    run.zero_wcet |= zero_wcet;
                }
                _ => self.runs.push(Run {
                    start: pos,
                    end: pos + 1,
                    longest: window,
                    zero_wcet,
                }),
            }
            last_release = job.release();
        }
    }

    /// Attempts to allocate `order[pos]` (Algorithm 1 lines 12–20), with
    /// `order[pos + 1..]` pending, and returns the start it chose, or
    /// `None` when neither a direct fit nor a shifted fit exists. `order`
    /// is the order the last [`Timeline::plan`] call split.
    pub(crate) fn allocate_in(
        &mut self,
        order: &[usize],
        pos: usize,
        policy: SlotPolicy,
    ) -> Option<Time> {
        self.allocate_from(order[pos], order, pos + 1, policy)
    }

    /// The allocator, with `order[from..]` pending.
    fn allocate_from(
        &mut self,
        job_idx: usize,
        order: &[usize],
        from: usize,
        policy: SlotPolicy,
    ) -> Option<Time> {
        debug_assert_eq!(
            self.runs.last().map_or(0, |run| run.end),
            order.len(),
            "the runs belong to another order"
        );
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
            let slot = self.pick_slot(&fitting, order, from, policy);
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

    /// The slot `policy` picks among `fitting`, with `order[from..]`
    /// pending.
    fn pick_slot(
        &mut self,
        fitting: &[(Time, Time)],
        order: &[usize],
        from: usize,
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
            SlotPolicy::LeastContentionCapacityDecreasing => {
                self.least_contended(fitting, order, from)
            }
        }
    }

    /// The LCC-D choice among two or more fitting slots: the slot usable
    /// by the fewest pending jobs, ties to the least usable capacity.
    ///
    /// Selection key is (contention, usable, start), minimised. Slot
    /// starts are unique (slots are disjoint), so no two slots tie on the
    /// full key and a manual strict-minimum loop equals `min_by_key`.
    /// That lets the contention count stop early: once a slot exceeds the
    /// best count seen, it has already lost. Only the pending jobs
    /// `order[from..]` that fit the slots' hull are counted at all, and
    /// the prefilter reads only the part of each run that can (see the
    /// module docs for why both cuts are exact).
    fn least_contended(
        &mut self,
        fitting: &[(Time, Time)],
        order: &[usize],
        from: usize,
    ) -> (Time, Time) {
        let all = self.jobs.as_slice();
        let hull = (fitting[0].0, fitting[fitting.len() - 1].1);
        let mut rivals = std::mem::take(&mut self.rivals);
        rivals.clear();
        let mut visits = 0usize;
        let first_run = self.runs.partition_point(|run| run.end <= from);
        for run in &self.runs[first_run..] {
            let pending = &order[run.start.max(from)..run.end];
            let skip = if run.zero_wcet {
                0
            } else {
                pending.partition_point(|&p| all[p].release() + run.longest <= hull.0)
            };
            for &p in &pending[skip..] {
                if !run.zero_wcet && all[p].release() >= hull.1 {
                    break;
                }
                visits += 1;
                if fits_span(&all[p], hull) {
                    rivals.push(p);
                }
            }
        }
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
        self.work.prefilter_visits += visits as u64;
        self.work.contention_pairs += pairs as u64;
        best
    }

    /// Case 2 (lines 15–17): find the run of consecutive slots whose total
    /// usable capacity fits the job while shifting the fewest
    /// timing-accurate jobs; compact those jobs leftwards and place the job
    /// in the coalesced gap. Returns the job's start.
    fn allocate_with_shift(&mut self, job_idx: usize, slots: &[(Time, Time)]) -> Option<Time> {
        self.work.shift_calls += 1;
        let wcet = self.jobs.as_slice()[job_idx].wcet();
        // Candidate runs [a..=b], ranked by (exact jobs shifted, start).
        let mut candidates = std::mem::take(&mut self.candidates);
        self.shift_candidates(wcet, slots, &mut candidates);
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

    /// The candidate runs of a shifted fit, `(cost, a, b)` in order of
    /// `a`, into `out`: for each first slot `a`, the shortest run
    /// `slots[a..=b]` whose usable capacity holds `wcet` (longer runs only
    /// shift more jobs), and its cost, the number of exact placements
    /// inside `[slots[a].0, slots[b].1)`.
    ///
    /// One sweep builds them all. The end slot `b` never decreases as `a`
    /// grows: `slots[a..=b(a) − 1]` held less than `wcet`, and so does
    /// any part of it. Both window bounds therefore only move right, and
    /// so do the two placement indices `window_range` would return; the
    /// exact placements between them are counted as they enter and leave.
    /// Runs stop at the first `a` whose suffix cannot hold the job.
    fn shift_candidates(
        &self,
        wcet: Duration,
        slots: &[(Time, Time)],
        out: &mut Vec<(usize, usize, usize)>,
    ) {
        out.clear();
        let Some(&(lo, _)) = slots.first() else {
            return;
        };
        let placed = &self.placed;
        // `total` is the usable capacity of `slots[a..end]`.
        let (mut end, mut total) = (0, Duration::ZERO);
        // `exact` counts the exact placements in `placed[first..past]`
        // (none when `past <= first`).
        let mut first = placed.partition_point(|p| p.finish() <= lo);
        let (mut past, mut exact) = (first, 0);
        for a in 0..slots.len() {
            while end < slots.len() && (end == a || total < wcet) {
                total += Self::usable(slots[end]);
                end += 1;
            }
            if total < wcet {
                break;
            }
            let (lo, hi) = (slots[a].0, slots[end - 1].1);
            while first < placed.len() && placed[first].finish() <= lo {
                if first < past {
                    exact -= usize::from(placed[first].exact);
                }
                first += 1;
            }
            while past < placed.len() && placed[past].start < hi {
                if past >= first {
                    exact += usize::from(placed[past].exact);
                }
                past += 1;
            }
            out.push((exact, a, end - 1));
            total = total - Self::usable(slots[a]);
        }
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
    /// [`Timeline::into_schedule_in`]'s schedule, without building it.
    /// `by_job` is a reusable lookup buffer.
    pub(crate) fn partial_quality(&self, by_job: &mut Vec<Option<Time>>) -> (f64, f64) {
        placement_quality(
            self.jobs,
            self.placed.iter().map(|p| (p.job, p.start)),
            by_job,
        )
    }

    /// Finalises the timeline into a [`Schedule`], returning its buffers to
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
        scratch.runs = self.runs;
        scratch.rivals = self.rivals;
        scratch.candidates = self.candidates;
        scratch.work = self.work;
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

    /// One-shot forms of the scratch-threaded entry points, for the tests
    /// here and the reference oracle in `graph.rs`.
    impl<'a> Timeline<'a> {
        pub(crate) fn with_exact_jobs(jobs: &'a JobSet, exact: &[usize]) -> Self {
            Self::with_exact_jobs_in(jobs, exact, &mut TimelineScratch::default())
        }

        /// Allocates `job_idx` with `pending` still to be allocated after
        /// it, in allocation order.
        pub(crate) fn allocate(
            &mut self,
            job_idx: usize,
            pending: &[usize],
            policy: SlotPolicy,
        ) -> Option<Time> {
            self.plan(pending);
            self.allocate_from(job_idx, pending, 0, policy)
        }

        pub(crate) fn into_schedule(self) -> Schedule {
            self.into_schedule_in(&mut TimelineScratch::default())
        }

        /// Number of placements currently at their ideal instants.
        fn exact_count(&self) -> usize {
            self.placed.iter().filter(|p| p.exact).count()
        }
    }

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

    /// The shifted fit's candidate runs as they were built before the
    /// one-sweep build: per first slot `a`, a fresh capacity sum up to
    /// the first `b` that holds `wcet`, costed by two binary searches for
    /// the exact placements inside `[slots[a].0, slots[b].1)`.
    fn reference_candidates(
        tl: &Timeline<'_>,
        wcet: Duration,
        slots: &[(Time, Time)],
    ) -> Vec<(usize, usize, usize)> {
        let exact_between = |lo, hi| {
            let (first, past) = tl.window_range(lo, hi);
            tl.placed[first..past].iter().filter(|p| p.exact).count()
        };
        let mut candidates = Vec::new();
        for a in 0..slots.len() {
            let mut total = Duration::ZERO;
            for b in a..slots.len() {
                total += Timeline::usable(slots[b]);
                if total >= wcet {
                    candidates.push((exact_between(slots[a].0, slots[b].1), a, b));
                    break;
                }
            }
        }
        candidates
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
        let mut candidates = reference_candidates(tl, job.wcet(), &slots);
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

    /// The run-bounded prefilter reads a subset of the pending jobs but
    /// keeps exactly the full scan's rivals, in the full scan's order,
    /// so the LCC-D choice never changes. Orders are the unplaced jobs
    /// shuffled (short runs) or sorted by `priority_rank` (one run per
    /// priority class, as synthesis and repair allocate them); the
    /// pending jobs are a random suffix of the planned order, as in an
    /// allocation loop. Zero-WCET jobs and horizon-clipped windows
    /// included.
    #[test]
    fn pick_slot_matches_the_full_pending_scan() {
        use crate::solve::priority_rank;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let (mut single, mut ranked, mut zero_wcet_rivals, mut at_horizon) = (0, 0, 0, 0);
        let (mut visits, mut scanned, mut long_runs) = (0, 0, 0);
        for round in 0..3000 {
            let n = rng.random_range(2..24u32);
            let span = rng.random_range(12..80u64);
            let js = random_jobs(&mut rng, n, span, true);
            let mut tl = Timeline::with_exact_jobs(&js, &[]);
            let mut order = seed_timeline(&mut rng, &mut tl, &js);
            if round % 2 == 0 {
                order.sort_by_key(|&i| priority_rank(&js.as_slice()[i]));
            }
            let Some(pos) = (!order.is_empty()).then(|| rng.random_range(0..order.len())) else {
                continue;
            };
            let job = &js.as_slice()[order[pos]];
            let fitting: Vec<_> = tl
                .slots_within(job.release(), job.abs_deadline())
                .into_iter()
                .filter(|&s| Timeline::usable(s) >= job.wcet())
                .collect();
            if fitting.is_empty() {
                continue;
            }
            tl.plan(&order);
            long_runs += usize::from(tl.runs.iter().any(|run| run.end - run.start > 2));
            let pending = &order[pos + 1..];
            let want = reference_lccd(&tl, &fitting, pending);
            let got = tl.pick_slot(
                &fitting,
                &order,
                pos + 1,
                SlotPolicy::LeastContentionCapacityDecreasing,
            );
            let case = format!("round {round}: fitting {fitting:?}, pending {pending:?}");
            assert_eq!(got, want, "{case}");
            if fitting.len() == 1 {
                single += 1;
                continue;
            }
            ranked += 1;
            let hull = (fitting[0].0, fitting[fitting.len() - 1].1);
            let rivals: Vec<usize> = pending
                .iter()
                .copied()
                .filter(|&p| fits_span(&js.as_slice()[p], hull))
                .collect();
            assert_eq!(tl.rivals, rivals, "{case}");
            zero_wcet_rivals += usize::from(
                pending
                    .iter()
                    .any(|&p| js.as_slice()[p].wcet() == Duration::ZERO),
            );
            at_horizon += usize::from(hull.1 == js.horizon());
            visits += tl.work.prefilter_visits;
            scanned += pending.len() as u64;
        }
        assert!(
            single > 100 && ranked > 500,
            "{single} single, {ranked} ranked"
        );
        assert!(
            zero_wcet_rivals > 100 && at_horizon > 100 && long_runs > 500,
            "{zero_wcet_rivals}, {at_horizon}, {long_runs}"
        );
        // The cut reads fewer jobs than the full scan, never more.
        assert!(0 < visits && visits < scanned, "{visits} of {scanned}");
    }

    /// The one-sweep candidate build gives the per-start build's
    /// `(cost, a, b)` list, in the same order, for random windows over
    /// random timelines (exact, shifted and compacted placements) and
    /// random WCETs: zero, fitting a slot, needing several slots, and
    /// beyond the window's whole capacity.
    #[test]
    fn shift_candidates_match_the_per_start_build() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let (mut multi_slot, mut costed, mut cut_short) = (0, 0, 0);
        let mut out = Vec::new();
        for round in 0..3000 {
            let n = rng.random_range(2..28u32);
            let span = rng.random_range(16..80u64);
            let js = random_jobs(&mut rng, n, span, round % 2 == 1);
            let mut tl = Timeline::with_exact_jobs(&js, &[]);
            let left = seed_timeline(&mut rng, &mut tl, &js);
            for (k, &idx) in left.iter().enumerate() {
                if rng.random_range(0..2u32) == 0 {
                    let _ = tl.allocate(idx, &left[k + 1..], SlotPolicy::default());
                }
            }
            let lo = rng.random_range(0..span);
            let hi = rng.random_range(lo + 1..=span);
            let slots = tl.slots_within(Time::from_millis(lo), Time::from_millis(hi));
            let capacity: Duration = slots.iter().map(|&s| Timeline::usable(s)).sum();
            let wcet = Duration::from_millis(rng.random_range(0..=capacity.as_micros() / 1000 + 1));
            let want = reference_candidates(&tl, wcet, &slots);
            tl.shift_candidates(wcet, &slots, &mut out);
            assert_eq!(out, want, "round {round}: {slots:?}, wcet {wcet:?}");
            multi_slot += usize::from(want.iter().any(|&(_, a, b)| b > a));
            costed += usize::from(want.iter().any(|&(cost, ..)| cost > 0));
            cut_short += usize::from(!want.is_empty() && want.len() < slots.len());
        }
        assert!(
            multi_slot > 300 && costed > 300 && cut_short > 300,
            "{multi_slot} multi-slot, {costed} costed, {cut_short} cut short"
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
