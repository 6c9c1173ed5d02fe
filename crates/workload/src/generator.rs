//! Synthetic system generation following the paper's evaluation setup
//! (§V.A).
//!
//! For a target utilisation `U`, the paper generates `|Γ| = U / 0.05` tasks,
//! distributes utilisation with UUniFast, draws periods uniformly from the
//! divisors of a 1440 ms hyper-period, sets `Di = Ti`, assigns
//! deadline-monotonic priorities, sets the margin `θi = Ti/4` (enforcing
//! `θi ≥ Ci`), draws `δi` uniformly in `[θi, Di − θi]`, and uses
//! `Vmax = Pi + 1` with a global `Vmin = 1`.

use crate::periods::PeriodPool;
use crate::uunifast::{uunifast, uunifast_capped};
use rand::{Rng, RngExt};
use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
use tagio_core::time::Duration;

/// Configuration of the synthetic system generator.
///
/// [`SystemConfig::paper`] reproduces §V.A exactly; individual knobs can be
/// overridden for ablations.
///
/// ```
/// use tagio_workload::generator::SystemConfig;
/// use rand::SeedableRng;
///
/// let cfg = SystemConfig::paper(0.3);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let system = cfg.generate(&mut rng);
/// assert_eq!(system.len(), 6); // 0.3 / 0.05
/// assert!((system.utilisation() - 0.3).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Target total utilisation `U`.
    pub utilisation: f64,
    /// Number of tasks (`U / 0.05` in the paper).
    pub tasks: usize,
    /// Pool of candidate periods.
    pub periods: PeriodPool,
    /// Number of devices; tasks are spread round-robin (the paper evaluates
    /// a single device).
    pub devices: u32,
}

/// The margin as a fraction of the period, `θ = T / MARGIN_DIVISOR`: the
/// paper's 4, a quality window of half the period.
const MARGIN_DIVISOR: u64 = 4;

/// The global minimum quality `Vmin`.
const VMIN: f64 = 1.0;

impl SystemConfig {
    /// The paper's configuration for target utilisation `u`
    /// (`|Γ| = u/0.05`, 1440 ms hyper-period pool, `θ = T/4`, `Vmin = 1`,
    /// one device).
    ///
    /// # Panics
    /// Panics if `u` is not in `(0, 1]` or is not (close to) a multiple of
    /// 0.05.
    #[must_use]
    pub fn paper(u: f64) -> Self {
        assert!(u > 0.0 && u <= 1.0, "utilisation must be in (0, 1]");
        let tasks = paper_task_count(u).expect("paper utilisations are multiples of 0.05");
        SystemConfig {
            utilisation: u,
            tasks,
            periods: PeriodPool::paper_default(),
            devices: 1,
        }
    }

    /// Generates one synthetic system.
    ///
    /// Per-task utilisations come from UUniFast, capped at `1/4` (so
    /// `θi ≥ Ci` holds without distorting `Ci`); if no capped draw succeeds
    /// in 1000 attempts, the draw is accepted and oversized `Ci` are
    /// clamped to `θi` (documented deviation — it only triggers for
    /// pathological configurations).
    ///
    /// Systems are kept *non-preemptively feasible*: the largest
    /// utilisations are paired with the shortest periods and every `Ci` is
    /// capped at half the system's minimum period. Without this, a long job
    /// (`Ci > Tmin`) fully covers some release window of the
    /// shortest-period task and **no** non-preemptive scheduler can meet
    /// that deadline — yet the paper reports 100% schedulability for
    /// FPS-offline (Fig. 5), so its generator cannot produce such systems.
    ///
    /// The returned set has DMPO priorities and `Vmax = Pi + 1` assigned.
    #[must_use]
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> TaskSet {
        let cap = 1.0 / MARGIN_DIVISOR as f64;
        let mut utils = uunifast_capped(self.tasks, self.utilisation, cap, 1000, rng)
            .unwrap_or_else(|| uunifast(self.tasks, self.utilisation, rng));
        let mut periods: Vec<Duration> =
            (0..self.tasks).map(|_| self.periods.sample(rng)).collect();
        // Largest utilisation gets the shortest period, so big shares of
        // the budget become short executions rather than long blockers.
        utils.sort_by(|a, b| b.partial_cmp(a).expect("finite utilisations"));
        periods.sort();
        let blocking_cap = periods.first().copied().expect("non-empty task set") / 2;
        let mut set = TaskSet::new();
        for (i, (u, period)) in utils.into_iter().zip(periods).enumerate() {
            let margin = period / MARGIN_DIVISOR;
            let wcet_us = ((period.as_micros() as f64) * u).round().max(1.0) as u64;
            let wcet = Duration::from_micros(wcet_us).min(margin).min(blocking_cap);
            let deadline = period; // implicit deadline Di = Ti
            let delta_lo = margin.as_micros();
            let delta_hi = (deadline - margin).as_micros();
            let delta = Duration::from_micros(rng.random_range(delta_lo..=delta_hi));
            let task = IoTask::builder(TaskId(i as u32), DeviceId(i as u32 % self.devices))
                .wcet(wcet)
                .period(period)
                .ideal_offset(delta)
                .margin(margin)
                .quality(1.0, VMIN)
                .build()
                .expect("generator invariants guarantee a valid task");
            set.push(task).expect("sequential ids are unique");
        }
        set.assign_dmpo(); // also sets Vmax = Pi + 1
        set.set_global_vmin(VMIN);
        set
    }
}

/// The paper's task count `u / 0.05` for target utilisation `u`, or `None`
/// when `u` is not (close to) a multiple of 0.05 in `(0, 1]` — the values
/// [`SystemConfig::paper`] rejects.
#[must_use]
pub fn paper_task_count(u: f64) -> Option<usize> {
    let tasks = (u / 0.05).round();
    (u > 0.0 && u <= 1.0 && (tasks * 0.05 - u).abs() < 1e-9).then_some(tasks as usize)
}

/// The utilisation sweep used across Figs. 5–7: `0.2, 0.25, …, 0.9`.
#[must_use]
pub fn paper_utilisation_sweep() -> Vec<f64> {
    (4..=18).map(|i| f64::from(i) * 0.05).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_config_task_count() {
        assert_eq!(SystemConfig::paper(0.2).tasks, 4);
        assert_eq!(SystemConfig::paper(0.55).tasks, 11);
        assert_eq!(SystemConfig::paper(0.9).tasks, 18);
    }

    #[test]
    #[should_panic(expected = "multiples of 0.05")]
    fn paper_config_rejects_odd_utilisation() {
        let _ = SystemConfig::paper(0.33);
    }

    #[test]
    fn generated_system_matches_target_utilisation() {
        let mut rng = StdRng::seed_from_u64(1);
        for u in [0.2, 0.5, 0.9] {
            let sys = SystemConfig::paper(u).generate(&mut rng);
            // Rounding of Ci and the theta cap may shave a little.
            assert!(
                (sys.utilisation() - u).abs() < 0.05,
                "u={u} got {}",
                sys.utilisation()
            );
        }
    }

    #[test]
    fn generated_tasks_respect_margin_invariant() {
        let mut rng = StdRng::seed_from_u64(2);
        let sys = SystemConfig::paper(0.7).generate(&mut rng);
        for t in &sys {
            assert!(t.margin() >= t.wcet(), "theta >= C violated");
            assert_eq!(t.margin(), t.period() / 4);
            assert!(t.ideal_offset() >= t.margin());
            assert!(t.ideal_offset() + t.margin() <= t.deadline());
        }
    }

    #[test]
    fn paper_generator_is_blocking_safe() {
        let mut rng = StdRng::seed_from_u64(2);
        for u in [0.3, 0.6, 0.9] {
            let sys = SystemConfig::paper(u).generate(&mut rng);
            let min_period = sys.iter().map(IoTask::period).min().unwrap();
            let max_wcet = sys.iter().map(IoTask::wcet).max().unwrap();
            // No job can block the shortest-period task past its deadline.
            assert!(max_wcet <= min_period / 2, "U={u}");
        }
    }

    #[test]
    fn generated_hyperperiod_divides_1440ms() {
        let mut rng = StdRng::seed_from_u64(3);
        let sys = SystemConfig::paper(0.4).generate(&mut rng);
        let hp = sys.hyperperiod();
        assert!((Duration::from_millis(1440) % hp).is_zero());
    }

    #[test]
    fn priorities_and_vmax_are_assigned() {
        let mut rng = StdRng::seed_from_u64(4);
        let sys = SystemConfig::paper(0.3).generate(&mut rng);
        for t in &sys {
            assert_eq!(t.vmax(), f64::from(t.priority().0) + 1.0);
            assert_eq!(t.vmin(), 1.0);
        }
        // Priorities are a permutation of 0..n.
        let mut ps: Vec<u32> = sys.iter().map(|t| t.priority().0).collect();
        ps.sort_unstable();
        assert_eq!(ps, (0..sys.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = SystemConfig::paper(0.5).generate(&mut StdRng::seed_from_u64(77));
        let b = SystemConfig::paper(0.5).generate(&mut StdRng::seed_from_u64(77));
        assert_eq!(a, b);
    }

    #[test]
    fn multi_device_round_robin() {
        let mut cfg = SystemConfig::paper(0.4);
        cfg.devices = 2;
        let sys = cfg.generate(&mut StdRng::seed_from_u64(6));
        let parts = sys.partitions();
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn sweep_covers_paper_range() {
        let sweep = paper_utilisation_sweep();
        assert!((sweep[0] - 0.2).abs() < 1e-12);
        assert!((sweep.last().unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(sweep.len(), 15);
    }
}
