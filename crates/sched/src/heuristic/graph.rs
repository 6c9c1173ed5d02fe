//! Dependency-graph formation and decomposition (Algorithm 1, phases one
//! and two).
//!
//! Jobs are examined at their *ideal* executions `[Ti·j + δi, Ti·j + δi + Ci)`.
//! Two jobs conflict when those intervals overlap; a **dependency graph** is
//! a connected component of the conflict graph (paper Fig. 2). The penalty
//! weight `ψi^j` of a job equals its degree — the number of jobs whose exact
//! timing accuracy it destroys if executed at its ideal instant.
//!
//! Decomposition repeatedly removes the job with the highest penalty weight
//! (ties broken by *lowest* priority — wider release periods offer more free
//! slots for reallocation), until no conflicts remain. The surviving jobs
//! (`λ*`) keep their ideal starts; the removed jobs (`λ¬`) go to the LCC-D
//! allocator.
//!
//! # One pass, one dependency graph at a time
//!
//! Formation sorts the ideal executions by `(start, finish, position)` and
//! sweeps them once to count degrees and once to fill a compressed sparse
//! row (CSR) adjacency: two flat arrays instead of one list per job. In
//! that order the dependency graphs are *runs*: a job starts a new graph
//! exactly when its ideal start is at or past every earlier ideal finish.
//!
//! - A job starting before the latest earlier finish conflicts with the
//!   job that owns that finish. That job starts no later, and strictly
//!   earlier when the new job has zero length, since a zero-length
//!   execution sorts before a longer one with the same start. So the new
//!   job joins the current graph.
//! - A job starting at or past every earlier finish conflicts with no
//!   earlier job, and neither does any later one. So no edge crosses the
//!   boundary.
//!
//! Decomposition then runs one small lazy heap per dependency graph. A
//! removal lowers degrees only inside its own graph, so each graph's
//! removal sequence equals the one a single heap over all jobs produces
//! restricted to that graph, and the exact set `λ*` is identical. Only
//! the interleaving of the graphs in the sacrificed list differs; LCC-D
//! re-sorts that list by a total key (`solve::priority_rank`) anyway.
//!
//! Synthesis runs both phases on buffers kept in the caller's
//! [`TimelineScratch`](super::TimelineScratch), so a repeated run
//! allocates nothing once its buffers have grown.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tagio_core::job::JobSet;
use tagio_core::task::{Priority, TaskId};
use tagio_core::time::Time;

/// The conflict adjacency of a job set examined at ideal executions.
///
/// Indices refer to positions in `jobs.as_slice()`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConflictGraph {
    /// Ideal executions `(start, finish, position)`, sorted.
    spans: Vec<(Time, Time, usize)>,
    /// Where each dependency graph's run begins in `spans`, then
    /// `spans.len()`.
    bounds: Vec<usize>,
    /// Row `i` of the adjacency is `adjacency[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    adjacency: Vec<usize>,
}

/// A decomposition priority: highest penalty, ties to lowest priority,
/// latest release, lowest task id, then highest position.
type RemovalKey = (usize, Reverse<Priority>, Time, Reverse<TaskId>, usize);

/// Calls `edge(i, j)` once for every conflicting pair of the sorted
/// ideal executions `spans`. With `a` before `b` in that order, the
/// executions overlap iff `b` begins before `a` ends and `a` begins
/// before `b` ends (the second test only matters for a zero-length `b`).
/// Each job continues the sweep only while the first test holds, so the
/// sweep is linear in the conflicts rather than quadratic in the jobs.
fn for_each_conflict(spans: &[(Time, Time, usize)], mut edge: impl FnMut(usize, usize)) {
    for (pos, &(start, finish, i)) in spans.iter().enumerate() {
        for &(other_start, other_finish, j) in &spans[pos + 1..] {
            if other_start >= finish {
                break;
            }
            if start < other_finish {
                edge(i, j);
            }
        }
    }
}

impl ConflictGraph {
    /// Builds the conflict graph of `jobs` at their ideal executions.
    #[must_use]
    pub fn build(jobs: &JobSet) -> Self {
        let mut graph = ConflictGraph::default();
        graph.rebuild(jobs);
        graph
    }

    /// [`ConflictGraph::build`] on this graph's buffers.
    fn rebuild(&mut self, jobs: &JobSet) {
        let all = jobs.as_slice();
        let n = all.len();
        self.spans.clear();
        self.spans.extend(
            all.iter()
                .enumerate()
                .map(|(i, job)| (job.ideal_start(), job.ideal_start() + job.wcet(), i)),
        );
        self.spans.sort_unstable();

        self.bounds.clear();
        let mut reach = Time::ZERO;
        for (pos, &(start, finish, _)) in self.spans.iter().enumerate() {
            if start >= reach {
                self.bounds.push(pos);
            }
            reach = reach.max(finish);
        }
        self.bounds.push(n);

        // Degrees, then inclusive prefix sums: `offsets[i]` is the end of
        // row `i`. Filling walks each row's cursor back to its start.
        let offsets = &mut self.offsets;
        offsets.clear();
        offsets.resize(n + 1, 0);
        for_each_conflict(&self.spans, |i, j| {
            offsets[i] += 1;
            offsets[j] += 1;
        });
        let mut total = 0;
        for end in &mut offsets[..n] {
            total += *end;
            *end = total;
        }
        offsets[n] = total;
        let adjacency = &mut self.adjacency;
        adjacency.clear();
        adjacency.resize(total, 0);
        for_each_conflict(&self.spans, |i, j| {
            offsets[i] -= 1;
            adjacency[offsets[i]] = j;
            offsets[j] -= 1;
            adjacency[offsets[j]] = i;
        });
    }

    /// Number of vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when the graph has no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of conflict edges.
    pub(crate) fn edges(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// The penalty weight `ψ` of job `i` (its degree).
    #[must_use]
    pub fn penalty(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Neighbours of job `i`, in no particular order.
    #[must_use]
    pub fn neighbours(&self, i: usize) -> &[usize] {
        &self.adjacency[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Decomposes the graph (Algorithm 1, lines 2–9).
    ///
    /// Repeatedly removes the vertex with the highest current penalty
    /// weight; ties are broken by lowest priority, then by latest release
    /// (both favour jobs with more reallocation slack), then by task id
    /// and index for determinism. Returns `(exact, sacrificed)`: the jobs
    /// that keep their ideal starts, ascending, and the rest in removal
    /// order. Removal runs one dependency graph at a time, so the list
    /// holds each graph's removals in sequence, graphs in ideal-start
    /// order (see the module docs for why that is the same decomposition).
    #[must_use]
    pub fn decompose(&self, jobs: &JobSet) -> (Vec<usize>, Vec<usize>) {
        let mut phases = Phases::default();
        self.decompose_with(jobs, &mut phases);
        (phases.exact, phases.sacrificed)
    }

    /// [`ConflictGraph::decompose`] into the buffers of `phases` (all but
    /// its graph), leaving the result in `phases.exact` and
    /// `phases.sacrificed`.
    fn decompose_with(&self, jobs: &JobSet, phases: &mut Phases) {
        let all = jobs.as_slice();
        let n = self.len();
        let Phases {
            degree,
            removed,
            heap,
            exact,
            sacrificed,
            ..
        } = phases;
        degree.clear();
        degree.extend((0..n).map(|i| self.penalty(i)));
        removed.clear();
        removed.resize(n, false);
        sacrificed.clear();

        // Max-heap with lazy decrease-key: a full rescan per removal is
        // quadratic in the graph's size. An entry is pushed whenever a
        // vertex's degree changes; stale entries (recorded degree no
        // longer current) are skipped on pop, so each pop yields exactly
        // the vertex the rescan would have picked.
        let key = |i: usize, d: usize| -> RemovalKey {
            (
                d,
                Reverse(all[i].priority()),
                all[i].release(),
                Reverse(all[i].id().task),
                i,
            )
        };
        for run in self.bounds.windows(2) {
            let members = &self.spans[run[0]..run[1]];
            if members.len() < 2 {
                continue; // an isolated job keeps its ideal start
            }
            // Every member of a graph with two or more jobs has a conflict.
            heap.clear();
            heap.extend(members.iter().map(|&(_, _, i)| key(i, degree[i])));
            while let Some((d, _, _, _, v)) = heap.pop() {
                if removed[v] || degree[v] != d {
                    continue;
                }
                removed[v] = true;
                sacrificed.push(v);
                for &w in self.neighbours(v) {
                    if !removed[w] {
                        degree[w] -= 1;
                        if degree[w] > 0 {
                            heap.push(key(w, degree[w]));
                        }
                    }
                }
                degree[v] = 0;
            }
        }
        exact.clear();
        exact.extend((0..n).filter(|&i| !removed[i]));
    }
}

/// Reusable working memory for Algorithm 1's phases one and two: the
/// conflict graph, the decomposition's degrees, removal marks and heap,
/// and its two outputs. Every buffer is cleared before use, so a reused
/// `Phases` gives the results of a fresh one.
#[derive(Debug, Default)]
pub(crate) struct Phases {
    graph: ConflictGraph,
    degree: Vec<usize>,
    removed: Vec<bool>,
    heap: BinaryHeap<RemovalKey>,
    exact: Vec<usize>,
    sacrificed: Vec<usize>,
}

impl Phases {
    /// Builds and decomposes the conflict graph of `jobs`. Returns the
    /// exact jobs (ascending), the sacrificed jobs (in removal order, for
    /// the caller to re-sort) and the number of conflict edges.
    pub(crate) fn run(&mut self, jobs: &JobSet) -> (&[usize], &mut Vec<usize>, usize) {
        let mut graph = std::mem::take(&mut self.graph);
        graph.rebuild(jobs);
        graph.decompose_with(jobs, self);
        let edges = graph.edges();
        self.graph = graph;
        (&self.exact, &mut self.sacrificed, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::{synthesize_in, SlotPolicy, StaticScheduler, Timeline, TimelineScratch};
    use crate::scheduler::Scheduler;
    use crate::solve::{check_capacity, priority_rank};
    use tagio_core::job::{Job, JobId};
    use tagio_core::quality::QualityCurve;
    use tagio_core::schedule::Schedule;
    use tagio_core::solve::{Infeasible, InfeasibleCause};
    use tagio_core::time::Duration;

    impl ConflictGraph {
        /// The dependency graphs: connected components (singletons
        /// included), each sorted ascending; components ordered by
        /// smallest member.
        fn components(&self) -> Vec<Vec<usize>> {
            let mut out: Vec<Vec<usize>> = self
                .bounds
                .windows(2)
                .map(|run| {
                    let mut component: Vec<usize> =
                        self.spans[run[0]..run[1]].iter().map(|s| s.2).collect();
                    component.sort_unstable();
                    component
                })
                .collect();
            out.sort_unstable_by_key(|component| component[0]);
            out
        }
    }

    /// Builds a job whose *ideal execution* is `[start, start+len)` (ms),
    /// with a wide release window so graph logic is isolated from window
    /// clamping.
    fn job_at(task: u32, start_ms: u64, len_ms: u64, prio: u32) -> Job {
        Job::new(
            JobId::new(TaskId(task), 0),
            Time::ZERO,
            Time::from_millis(start_ms),
            Time::from_millis(1000),
            Duration::from_millis(len_ms),
            Duration::from_millis(start_ms.min(50)),
            Priority(prio),
            QualityCurve::linear(1.0, 0.0),
        )
    }

    fn set(jobs: Vec<Job>) -> JobSet {
        JobSet::from_jobs(jobs, Duration::from_millis(1000))
    }

    /// The paper's Fig. 2 example: nine jobs forming four dependency graphs
    /// {1}, {2,3}, {4,5,6} (5 linking 4 and 6), {7,8,9} (mutual conflicts).
    fn figure2() -> JobSet {
        set(vec![
            job_at(1, 0, 4, 1),  // job 1: isolated
            job_at(2, 10, 4, 2), // jobs 2,3 overlap
            job_at(3, 12, 4, 3),
            job_at(4, 20, 4, 4), // 4-5 overlap, 5-6 overlap, 4-6 do not
            job_at(5, 23, 4, 5),
            job_at(6, 26, 4, 6),
            job_at(7, 40, 6, 7), // 7,8,9 mutually overlap
            job_at(8, 42, 6, 8),
            job_at(9, 44, 6, 9),
        ])
    }

    #[test]
    fn paper_figure2_example() {
        let jobs = figure2();
        let g = ConflictGraph::build(&jobs);
        let comps = g.components();
        assert_eq!(comps.len(), 4);
        let sizes: Vec<usize> = comps.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![1, 2, 3, 3]);
        // Job 5 (index 4) has penalty weight 2 (paper: "Job 5 has a penalty
        // weight of 2").
        assert_eq!(g.penalty(4), 2);
        // Jobs 4 and 6 are not linked.
        assert!(!g.neighbours(3).contains(&5));
    }

    #[test]
    fn figure2_decomposition_keeps_six_exact() {
        let jobs = figure2();
        let g = ConflictGraph::build(&jobs);
        let (exact, sacrificed) = g.decompose(&jobs);
        // G1 keeps 1; G2 keeps one of {2,3}; G3 keeps {4,6} (removing 5);
        // G4 keeps one of {7,8,9}.
        assert_eq!(exact.len() + sacrificed.len(), 9);
        assert_eq!(exact.len(), 5);
        // Job 5 (index 4) must be sacrificed: it has the highest penalty in G3.
        assert!(sacrificed.contains(&4));
        // Jobs 4 and 6 (indices 3,5) survive.
        assert!(exact.contains(&3) && exact.contains(&5));
        // Job 1 (index 0) is isolated and survives.
        assert!(exact.contains(&0));
    }

    #[test]
    fn exact_jobs_have_no_mutual_conflicts() {
        let jobs = figure2();
        let g = ConflictGraph::build(&jobs);
        let (exact, _) = g.decompose(&jobs);
        for (a_pos, &a) in exact.iter().enumerate() {
            for &b in &exact[a_pos + 1..] {
                assert!(!g.neighbours(a).contains(&b), "{a} and {b} conflict");
            }
        }
    }

    #[test]
    fn tie_break_removes_lowest_priority() {
        // Two jobs overlapping, equal degree 1: the lower priority goes.
        let jobs = set(vec![job_at(0, 0, 4, 5), job_at(1, 2, 4, 1)]);
        let g = ConflictGraph::build(&jobs);
        let (exact, sacrificed) = g.decompose(&jobs);
        // job index of task1 (priority 1) sacrificed
        let idx_low = jobs
            .as_slice()
            .iter()
            .position(|j| j.priority() == Priority(1))
            .unwrap();
        assert_eq!(sacrificed, vec![idx_low]);
        assert_eq!(exact.len(), 1);
    }

    #[test]
    fn touching_intervals_do_not_conflict() {
        let jobs = set(vec![job_at(0, 0, 4, 0), job_at(1, 4, 4, 1)]);
        let g = ConflictGraph::build(&jobs);
        assert_eq!(g.penalty(0), 0);
        assert_eq!(g.components().len(), 2);
    }

    #[test]
    fn empty_jobset_yields_empty_graph() {
        let jobs = set(vec![]);
        let g = ConflictGraph::build(&jobs);
        assert!(g.is_empty());
        assert!(g.components().is_empty());
        let (exact, sacrificed) = g.decompose(&jobs);
        assert!(exact.is_empty() && sacrificed.is_empty());
    }

    #[test]
    fn clique_keeps_exactly_one() {
        // Four mutually overlapping jobs: decomposition keeps one.
        let jobs = set(vec![
            job_at(0, 10, 10, 0),
            job_at(1, 11, 10, 1),
            job_at(2, 12, 10, 2),
            job_at(3, 13, 10, 3),
        ]);
        let g = ConflictGraph::build(&jobs);
        let (exact, sacrificed) = g.decompose(&jobs);
        assert_eq!(exact.len(), 1);
        assert_eq!(sacrificed.len(), 3);
    }

    #[test]
    fn star_removes_center_first() {
        // Center job overlaps three satellites that do not overlap each
        // other: removing the center (psi=3) frees all satellites.
        let jobs = set(vec![
            job_at(0, 10, 30, 9), // center, high priority: still removed first
            job_at(1, 12, 2, 0),
            job_at(2, 20, 2, 1),
            job_at(3, 30, 2, 2),
        ]);
        let g = ConflictGraph::build(&jobs);
        assert_eq!(g.penalty(0), 3);
        let (exact, sacrificed) = g.decompose(&jobs);
        assert_eq!(sacrificed, vec![0]);
        assert_eq!(exact.len(), 3);
    }

    #[test]
    fn chain_split_matches_paper_narrative() {
        // "G3 will split into two graphs with Job 5 removed": a 3-chain
        // keeps both endpoints.
        let jobs = set(vec![
            job_at(4, 20, 4, 4),
            job_at(5, 23, 4, 5),
            job_at(6, 26, 4, 6),
        ]);
        let g = ConflictGraph::build(&jobs);
        let (exact, sacrificed) = g.decompose(&jobs);
        assert_eq!(sacrificed.len(), 1);
        assert_eq!(exact.len(), 2);
    }

    /// The builder this module replaced: one adjacency list per job,
    /// swept in ideal-start order.
    fn reference_build(jobs: &JobSet) -> Vec<Vec<usize>> {
        let all = jobs.as_slice();
        let n = all.len();
        let mut adjacency = vec![Vec::new(); n];
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| all[i].ideal_start());
        for (pos, &i) in order.iter().enumerate() {
            let ei = all[i].ideal_start() + all[i].wcet();
            for &j in &order[pos + 1..] {
                let sj = all[j].ideal_start();
                if sj >= ei {
                    break;
                }
                if all[i].ideal_start() < sj + all[j].wcet() {
                    adjacency[i].push(j);
                    adjacency[j].push(i);
                }
            }
        }
        adjacency
    }

    /// The connected components of `adjacency` by depth-first search,
    /// each sorted, ordered by smallest member.
    fn reference_components(adjacency: &[Vec<usize>]) -> Vec<Vec<usize>> {
        let mut seen = vec![false; adjacency.len()];
        let mut out = Vec::new();
        for start in 0..adjacency.len() {
            if seen[start] {
                continue;
            }
            let mut stack = vec![start];
            let mut component = Vec::new();
            seen[start] = true;
            while let Some(v) = stack.pop() {
                component.push(v);
                for &w in &adjacency[v] {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            component.sort_unstable();
            out.push(component);
        }
        out
    }

    /// The decomposition this module replaced: one lazy heap over every
    /// job of the set.
    fn reference_decompose(adjacency: &[Vec<usize>], jobs: &JobSet) -> (Vec<usize>, Vec<usize>) {
        let all = jobs.as_slice();
        let n = adjacency.len();
        let mut degree: Vec<usize> = adjacency.iter().map(Vec::len).collect();
        let mut removed = vec![false; n];
        let mut sacrificed = Vec::new();
        let key = |i: usize, d: usize| {
            (
                d,
                Reverse(all[i].priority()),
                all[i].release(),
                Reverse(all[i].id().task),
                i,
            )
        };
        let mut heap: BinaryHeap<_> = (0..n)
            .filter(|&i| degree[i] > 0)
            .map(|i| key(i, degree[i]))
            .collect();
        while let Some((d, _, _, _, v)) = heap.pop() {
            if removed[v] || degree[v] != d {
                continue;
            }
            removed[v] = true;
            sacrificed.push(v);
            for &w in &adjacency[v] {
                if !removed[w] {
                    degree[w] -= 1;
                    if degree[w] > 0 {
                        heap.push(key(w, degree[w]));
                    }
                }
            }
            degree[v] = 0;
        }
        let exact = (0..n).filter(|&i| !removed[i]).collect();
        (exact, sacrificed)
    }

    /// A random job set of one of four shapes, by `round`: scattered
    /// executions, executions on a coarse grid of equal ideal starts,
    /// clusters of mutually overlapping executions (cliques), and
    /// executions that each overlap the next (chains). Every shape but
    /// the cliques includes zero-WCET jobs.
    fn random_set(rng: &mut rand::rngs::StdRng, round: usize) -> JobSet {
        use rand::RngExt;
        let n = rng.random_range(0..40u32);
        let jobs = (0..n)
            .map(|t| {
                let (start, len) = match round % 4 {
                    0 => (rng.random_range(0..120u64), rng.random_range(0..10u64)),
                    1 => (4 * rng.random_range(0..10u64), rng.random_range(0..12u64)),
                    2 => (
                        40 * rng.random_range(0..4u64) + rng.random_range(0..4u64),
                        rng.random_range(5..10u64),
                    ),
                    _ => (
                        3 * u64::from(t) + rng.random_range(0..2u64),
                        rng.random_range(0..6u64),
                    ),
                };
                job_at(t, start, len, rng.random_range(0..4u32))
            })
            .collect();
        set(jobs)
    }

    /// The CSR graph and per-dependency-graph decomposition give the
    /// replaced code's edges, components and exact set, and each
    /// dependency graph's removals in the global heap's order; a reused
    /// `Phases` agrees with both.
    #[test]
    fn phases_match_the_global_heap_reference() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(29);
        let mut phases = Phases::default();
        let (mut zero_wcet_conflicts, mut equal_starts, mut large, mut reordered) = (0, 0, 0, 0);
        for round in 0..4000 {
            let jobs = random_set(&mut rng, round);
            let all = jobs.as_slice();
            let case = format!("round {round}");
            let adjacency = reference_build(&jobs);
            let graph = ConflictGraph::build(&jobs);
            assert_eq!(graph.len(), adjacency.len(), "{case}");
            for (i, want) in adjacency.iter().enumerate() {
                let mut got = graph.neighbours(i).to_vec();
                let mut want = want.clone();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{case}, job {i}");
                assert_eq!(graph.penalty(i), want.len(), "{case}, job {i}");
                zero_wcet_conflicts +=
                    usize::from(all[i].wcet() == Duration::ZERO && !want.is_empty());
            }
            let components = reference_components(&adjacency);
            assert_eq!(graph.components(), components, "{case}");

            let (want_exact, want_sacrificed) = reference_decompose(&adjacency, &jobs);
            let (exact, sacrificed) = graph.decompose(&jobs);
            assert_eq!(exact, want_exact, "{case}");
            assert_eq!(sacrificed.len(), want_sacrificed.len(), "{case}");
            for component in &components {
                let within = |order: &[usize]| -> Vec<usize> {
                    order
                        .iter()
                        .copied()
                        .filter(|i| component.binary_search(i).is_ok())
                        .collect()
                };
                assert_eq!(within(&sacrificed), within(&want_sacrificed), "{case}");
                large += usize::from(component.len() >= 6);
                equal_starts += usize::from(
                    component
                        .windows(2)
                        .any(|w| all[w[0]].ideal_start() == all[w[1]].ideal_start()),
                );
            }
            reordered += usize::from(sacrificed != want_sacrificed);

            let (reused_exact, reused_sacrificed, edges) = phases.run(&jobs);
            assert_eq!(reused_exact, &exact[..], "{case}");
            assert_eq!(reused_sacrificed, &sacrificed, "{case}");
            assert_eq!(
                edges,
                adjacency.iter().map(Vec::len).sum::<usize>() / 2,
                "{case}"
            );
        }
        assert!(
            zero_wcet_conflicts > 200 && equal_starts > 200 && large > 200 && reordered > 200,
            "{zero_wcet_conflicts} zero-WCET conflicts, {equal_starts} equal starts, \
             {large} large graphs, {reordered} reordered"
        );
    }

    /// Algorithm 1 on the reference phases: `synthesize_in`'s LCC-D loop
    /// over `reference_build` and `reference_decompose`.
    fn reference_synthesis(jobs: &JobSet, policy: SlotPolicy) -> Result<Schedule, Infeasible> {
        check_capacity(jobs)?;
        let adjacency = reference_build(jobs);
        let (exact, sacrificed) = reference_decompose(&adjacency, jobs);
        let mut timeline = Timeline::with_exact_jobs(jobs, &exact);
        let all = jobs.as_slice();
        let mut order = sacrificed;
        order.sort_by_key(|&i| priority_rank(&all[i]));
        for pos in 0..order.len() {
            let idx = order[pos];
            if timeline.allocate(idx, &order[pos + 1..], policy).is_none() {
                let (psi, upsilon) = timeline.partial_quality(&mut Vec::new());
                return Err(Infeasible::new(InfeasibleCause::NoFeasibleSlot)
                    .with_jobs([all[idx].id()])
                    .with_partial(psi, upsilon));
            }
        }
        Ok(timeline.into_schedule())
    }

    /// The static scheduler, and synthesis on a reused scratch, give the
    /// reference-driven synthesis's result on paper task sets: the same
    /// schedule, or the same diagnostic with the same partial Ψ/Υ.
    #[test]
    fn static_schedule_matches_reference_driven_synthesis() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use tagio_workload::generator::SystemConfig;
        let mut rng = StdRng::seed_from_u64(31);
        let mut scratch = TimelineScratch::default();
        let (mut schedulable, mut infeasible) = (0, 0);
        for u in [0.3, 0.6, 0.85, 0.95, 1.0] {
            for _ in 0..8 {
                let jobs = JobSet::expand(&SystemConfig::paper(u).generate(&mut rng));
                for policy in [SlotPolicy::default(), SlotPolicy::BestFit] {
                    let want = reference_synthesis(&jobs, policy);
                    let case = format!("u {u}, {} jobs, {policy:?}", jobs.len());
                    assert_eq!(
                        StaticScheduler::with_policy(policy).schedule(&jobs),
                        want,
                        "{case}"
                    );
                    assert_eq!(synthesize_in(&jobs, policy, &mut scratch), want, "{case}");
                    if want.is_ok() {
                        schedulable += 1;
                    } else {
                        infeasible += 1;
                    }
                }
            }
        }
        assert!(
            schedulable > 10 && infeasible > 5,
            "{schedulable} schedulable, {infeasible} infeasible"
        );
    }
}
