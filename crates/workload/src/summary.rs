//! Summary statistics of task sets (used by the experiment harness and
//! handy when characterising generated workloads).

use serde::{Deserialize, Serialize};
use tagio_core::job::JobSet;
use tagio_core::task::TaskSet;
use tagio_core::time::Duration;

/// Aggregate characteristics of one task set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskSetSummary {
    /// Number of tasks.
    pub tasks: usize,
    /// Total utilisation `Σ Ci/Ti`.
    pub utilisation: f64,
    /// Hyper-period.
    pub hyperperiod: Duration,
    /// Jobs per hyper-period.
    pub jobs: usize,
    /// Shortest period.
    pub min_period: Duration,
    /// Longest period.
    pub max_period: Duration,
    /// Longest WCET.
    pub max_wcet: Duration,
}

impl TaskSetSummary {
    /// Summarises `tasks`; `None` for an empty set.
    #[must_use]
    pub fn compute(tasks: &TaskSet) -> Option<Self> {
        if tasks.is_empty() {
            return None;
        }
        let jobs = JobSet::expand(tasks);
        Some(TaskSetSummary {
            tasks: tasks.len(),
            utilisation: tasks.utilisation(),
            hyperperiod: tasks.hyperperiod(),
            jobs: jobs.len(),
            min_period: tasks.iter().map(|t| t.period()).min()?,
            max_period: tasks.iter().map(|t| t.period()).max()?,
            max_wcet: tasks.iter().map(|t| t.wcet()).max()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SystemConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn summarises_generated_system() {
        let mut rng = StdRng::seed_from_u64(1);
        let sys = SystemConfig::paper(0.5).generate(&mut rng);
        let s = TaskSetSummary::compute(&sys).unwrap();
        assert_eq!(s.tasks, 10);
        assert!((s.utilisation - 0.5).abs() < 0.05);
        assert!(s.min_period <= s.max_period);
        assert!(s.jobs > 0);
    }

    #[test]
    fn empty_set_has_no_summary() {
        assert!(TaskSetSummary::compute(&TaskSet::new()).is_none());
    }

    #[test]
    fn paper_generator_is_blocking_safe() {
        let mut rng = StdRng::seed_from_u64(2);
        for u in [0.3, 0.6, 0.9] {
            let sys = SystemConfig::paper(u).generate(&mut rng);
            let s = TaskSetSummary::compute(&sys).unwrap();
            // No job can block the shortest-period task past its deadline.
            assert!(s.max_wcet <= s.min_period / 2, "U={u}: {s:?}");
        }
    }

    #[test]
    fn unsafe_generator_can_violate_blocking_safety() {
        let mut cfg = SystemConfig::paper(0.9);
        cfg.blocking_safe = false;
        let mut rng = StdRng::seed_from_u64(3);
        let violated = (0..30).any(|_| {
            let sys = cfg.generate(&mut rng);
            let s = TaskSetSummary::compute(&sys).unwrap();
            s.max_wcet > s.min_period / 2
        });
        assert!(violated, "expected some unsafe draw at U=0.9");
    }
}
