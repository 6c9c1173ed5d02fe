//! NSGA-II machinery: fast non-dominated sorting and crowding distance
//! (Deb et al., 2002). Used for survivor selection so the engine maintains a
//! well-spread Pareto front alongside the paper's uniform weight-vector
//! selection pressure.

use crate::objectives::Objectives;

/// Assigns each point a front rank (0 = non-dominated). Returns the fronts
/// as index lists, best first.
///
/// Every pair is compared once, on a flat copy of the values. The first
/// front lists its members by index; each later one in the order they
/// lose their last dominator while the front before it is walked. The
/// engine's survivor order, and so its tournament draws, depend on it.
///
/// # Panics
/// Panics if the points have different numbers of objectives.
#[must_use]
pub fn fast_non_dominated_sort(points: &[Objectives]) -> Vec<Vec<usize>> {
    let n = points.len();
    let m = points.first().map_or(0, Objectives::len);
    assert!(
        points.iter().all(|p| p.len() == m),
        "objective arity mismatch"
    );
    let flat: Vec<f64> = points.iter().flat_map(|p| p.values()).copied().collect();
    // `dominates[i]` lists the points `i` dominates in increasing index
    // order: pairs `(k, i)` with `k < i` push during earlier rows, pairs
    // `(i, j)` with `j > i` during row `i`.
    let mut dominates: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut dominated_by: Vec<usize> = vec![0; n];
    for i in 0..n {
        let a = &flat[i * m..(i + 1) * m];
        for j in i + 1..n {
            let b = &flat[j * m..(j + 1) * m];
            // NaN compares neither way, exactly as in `Objectives::dominates`.
            let (mut a_better, mut b_better) = (false, false);
            for (x, y) in a.iter().zip(b) {
                a_better |= x > y;
                b_better |= x < y;
            }
            if a_better && !b_better {
                dominates[i].push(j);
                dominated_by[j] += 1;
            } else if b_better && !a_better {
                dominates[j].push(i);
                dominated_by[i] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominates[i] {
                dominated_by[j] -= 1;
                if dominated_by[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(current);
        current = next;
    }
    fronts
}

/// Crowding distance of each member of one front (infinite at the
/// extremes). Input points are indexed by `front` into `points`.
#[must_use]
pub fn crowding_distance(points: &[Objectives], front: &[usize]) -> Vec<f64> {
    let len = front.len();
    let mut dist = vec![0.0f64; len];
    if len == 0 {
        return dist;
    }
    if len <= 2 {
        return vec![f64::INFINITY; len];
    }
    let m = points[front[0]].len();
    for k in 0..m {
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_by(|&a, &b| {
            points[front[a]].values()[k]
                .partial_cmp(&points[front[b]].values()[k])
                .unwrap_or(core::cmp::Ordering::Equal)
        });
        let lo = points[front[order[0]]].values()[k];
        let hi = points[front[order[len - 1]]].values()[k];
        dist[order[0]] = f64::INFINITY;
        dist[order[len - 1]] = f64::INFINITY;
        let span = hi - lo;
        if span <= 0.0 {
            continue;
        }
        for w in 1..len - 1 {
            let prev = points[front[order[w - 1]]].values()[k];
            let next = points[front[order[w + 1]]].values()[k];
            dist[order[w]] += (next - prev) / span;
        }
    }
    dist
}

/// Ranks every point: `(front_rank, crowding_distance)` — smaller rank is
/// better; within a rank, larger crowding is better.
#[must_use]
pub fn rank_and_crowd(points: &[Objectives]) -> Vec<(usize, f64)> {
    let mut out = vec![(usize::MAX, 0.0); points.len()];
    for (rank, front) in fast_non_dominated_sort(points).iter().enumerate() {
        let crowd = crowding_distance(points, front);
        for (slot, &idx) in front.iter().enumerate() {
            out[idx] = (rank, crowd[slot]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(v: &[f64]) -> Objectives {
        Objectives::from(v.to_vec())
    }

    #[test]
    fn sort_layers_simple_fronts() {
        let pts = vec![
            o(&[2.0, 2.0]), // front 0
            o(&[1.0, 1.0]), // front 1
            o(&[0.0, 0.0]), // front 2
        ];
        let fronts = fast_non_dominated_sort(&pts);
        assert_eq!(fronts, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn incomparable_points_share_a_front() {
        let pts = vec![o(&[2.0, 0.0]), o(&[0.0, 2.0]), o(&[1.0, 1.0])];
        let fronts = fast_non_dominated_sort(&pts);
        assert_eq!(fronts.len(), 1);
        assert_eq!(fronts[0].len(), 3);
    }

    /// The per-point scan the pair loop replaced: every ordered pair
    /// tested through `Objectives::dominates`.
    fn reference_sort(points: &[Objectives]) -> Vec<Vec<usize>> {
        let n = points.len();
        let mut dominates: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut dominated_by: Vec<usize> = vec![0; n];
        let mut current = Vec::new();
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                if points[i].dominates(&points[j]) {
                    dominates[i].push(j);
                } else if points[j].dominates(&points[i]) {
                    dominated_by[i] += 1;
                }
            }
            if dominated_by[i] == 0 {
                current.push(i);
            }
        }
        let mut fronts = Vec::new();
        while !current.is_empty() {
            let mut next = Vec::new();
            for &i in &current {
                for &j in &dominates[i] {
                    dominated_by[j] -= 1;
                    if dominated_by[j] == 0 {
                        next.push(j);
                    }
                }
            }
            fronts.push(current);
            current = next;
        }
        fronts
    }

    #[test]
    fn sort_matches_the_per_point_scan() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for case in 0..200 {
            let n = rng.random_range(0..90usize);
            let m = 1 + case % 3;
            // Few distinct values, so ties, duplicates and equal
            // coordinates are common; the GA's infeasible sentinel and
            // NaN are in the mix.
            let pts: Vec<Objectives> = (0..n)
                .map(|_| {
                    (0..m)
                        .map(|_| match rng.random_range(0..12u32) {
                            0 => -1.0,
                            1 if case % 4 == 0 => f64::NAN,
                            v => f64::from(v) / 4.0,
                        })
                        .collect()
                })
                .collect();
            assert_eq!(
                fast_non_dominated_sort(&pts),
                reference_sort(&pts),
                "case {case}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn sort_rejects_mixed_arity() {
        let _ = fast_non_dominated_sort(&[o(&[1.0, 2.0]), o(&[1.0])]);
    }

    #[test]
    fn sort_of_empty_is_empty() {
        assert!(fast_non_dominated_sort(&[]).is_empty());
    }

    #[test]
    fn extremes_get_infinite_crowding() {
        let pts = vec![
            o(&[0.0, 3.0]),
            o(&[1.0, 2.0]),
            o(&[2.0, 1.0]),
            o(&[3.0, 0.0]),
        ];
        let front: Vec<usize> = vec![0, 1, 2, 3];
        let d = crowding_distance(&pts, &front);
        assert!(d[0].is_infinite() && d[3].is_infinite());
        assert!(d[1].is_finite() && d[2].is_finite());
    }

    #[test]
    fn middle_crowding_reflects_spacing() {
        // Point 1 is crowded; point 2 is isolated.
        let pts = vec![
            o(&[0.0, 10.0]),
            o(&[0.5, 9.5]),
            o(&[5.0, 5.0]),
            o(&[10.0, 0.0]),
        ];
        let front: Vec<usize> = vec![0, 1, 2, 3];
        let d = crowding_distance(&pts, &front);
        assert!(d[2] > d[1]);
    }

    #[test]
    fn tiny_fronts_are_all_infinite() {
        let pts = vec![o(&[1.0, 1.0]), o(&[2.0, 0.0])];
        let d = crowding_distance(&pts, &[0, 1]);
        assert!(d.iter().all(|x| x.is_infinite()));
    }

    #[test]
    fn rank_and_crowd_is_consistent() {
        let pts = vec![o(&[2.0, 2.0]), o(&[1.0, 1.0]), o(&[3.0, 0.0])];
        let rc = rank_and_crowd(&pts);
        assert_eq!(rc[0].0, 0);
        assert_eq!(rc[2].0, 0); // incomparable with point 0
        assert_eq!(rc[1].0, 1);
    }

    #[test]
    fn degenerate_identical_points_single_front() {
        let pts = vec![o(&[1.0, 1.0]); 5];
        let fronts = fast_non_dominated_sort(&pts);
        assert_eq!(fronts.len(), 1);
        let d = crowding_distance(&pts, &fronts[0]);
        // zero span: extremes infinite, middles zero
        assert!(d.iter().filter(|x| x.is_infinite()).count() >= 2);
    }
}
