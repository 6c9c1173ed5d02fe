//! End-to-end integration: workload generation → every scheduler →
//! independent validation → the paper's headline orderings.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagio::core::job::JobSet;
use tagio::core::metrics;
use tagio::ga::GaConfig;
use tagio::sched::{
    taskset_schedulable_np_fps, FpsOffline, GaScheduler, Gpiocp, Scheduler, SchedulingReport,
    StaticScheduler,
};
use tagio::workload::SystemConfig;

fn quick_ga(seed: u64) -> GaScheduler {
    GaScheduler::new()
        .with_config(GaConfig {
            population: 40,
            generations: 40,
            ..GaConfig::default()
        })
        .with_seed(seed)
}

#[test]
fn every_scheduler_produces_validating_schedules() {
    let mut rng = StdRng::seed_from_u64(1);
    for u in [0.3, 0.5, 0.7] {
        for _ in 0..3 {
            let tasks = SystemConfig::paper(u).generate(&mut rng);
            let jobs = JobSet::expand(&tasks);
            let solvers: Vec<Box<dyn Scheduler>> = vec![
                Box::new(FpsOffline::new()),
                Box::new(Gpiocp::new()),
                Box::new(StaticScheduler::new()),
                Box::new(quick_ga(7)),
            ];
            for s in &solvers {
                if let Ok(schedule) = s.schedule(&jobs) {
                    schedule
                        .validate(&jobs)
                        .unwrap_or_else(|e| panic!("{} invalid at U={u}: {e}", s.name()));
                }
            }
        }
    }
}

#[test]
fn fps_offline_schedules_every_generated_system() {
    // The paper's Fig. 5: FPS-offline is schedulable at every utilisation.
    let mut rng = StdRng::seed_from_u64(2);
    for u in [0.2, 0.5, 0.9] {
        for _ in 0..10 {
            let tasks = SystemConfig::paper(u).generate(&mut rng);
            let jobs = JobSet::expand(&tasks);
            assert!(
                FpsOffline::new().schedule(&jobs).is_ok(),
                "FPS-offline failed at U={u}"
            );
        }
    }
}

#[test]
fn fps_has_zero_psi() {
    // The paper's Fig. 6: no job is exactly timing-accurate under FPS.
    let mut rng = StdRng::seed_from_u64(3);
    let tasks = SystemConfig::paper(0.5).generate(&mut rng);
    let jobs = JobSet::expand(&tasks);
    let r = SchedulingReport::evaluate(&FpsOffline::new(), &jobs).unwrap();
    assert!(r.schedulable);
    assert_eq!(r.psi, 0.0);
}

#[test]
fn proposed_methods_dominate_gpiocp_on_psi() {
    // Figs. 5–6: the proposed methods outperform GPIOCP under load.
    let mut rng = StdRng::seed_from_u64(4);
    let mut static_psi = 0.0;
    let mut gpiocp_psi = 0.0;
    let mut both = 0;
    for _ in 0..10 {
        let tasks = SystemConfig::paper(0.6).generate(&mut rng);
        let jobs = JobSet::expand(&tasks);
        let st = SchedulingReport::evaluate(&StaticScheduler::new(), &jobs).unwrap();
        let gp = SchedulingReport::evaluate(&Gpiocp::new(), &jobs).unwrap();
        if st.schedulable && gp.schedulable {
            static_psi += st.psi;
            gpiocp_psi += gp.psi;
            both += 1;
        } else if st.schedulable {
            // static schedulable where GPIOCP is not: also a win
            static_psi += st.psi;
            gpiocp_psi += 0.0;
            both += 1;
        }
    }
    assert!(both > 0);
    assert!(
        static_psi >= gpiocp_psi,
        "static {static_psi} < gpiocp {gpiocp_psi}"
    );
}

#[test]
fn online_test_never_beats_offline_simulation() {
    // FPS-online is the worst-case guarantee; it can only be more
    // pessimistic than the synchronous offline simulation.
    let mut rng = StdRng::seed_from_u64(5);
    for u in [0.5, 0.8] {
        for _ in 0..10 {
            let tasks = SystemConfig::paper(u).generate(&mut rng);
            let jobs = JobSet::expand(&tasks);
            let offline = FpsOffline::new().schedule(&jobs).is_ok();
            let online = taskset_schedulable_np_fps(&tasks);
            assert!(!online || offline, "online passed but offline failed");
        }
    }
}

#[test]
fn ga_front_extremes_are_consistent() {
    let mut rng = StdRng::seed_from_u64(6);
    let tasks = SystemConfig::paper(0.5).generate(&mut rng);
    let jobs = JobSet::expand(&tasks);
    let result = quick_ga(1).search(&jobs).expect("feasible");
    let best_psi = metrics::psi(&result.best_psi, &jobs);
    let best_ups = metrics::upsilon(&result.best_upsilon, &jobs);
    for (psi, upsilon, schedule) in &result.front {
        schedule.validate(&jobs).expect("front schedule valid");
        assert!(best_psi >= *psi - 1e-12);
        assert!(best_ups >= *upsilon - 1e-12);
        // Reported objectives match recomputation from the schedule.
        assert!((metrics::psi(schedule, &jobs) - psi).abs() < 1e-12);
        assert!((metrics::upsilon(schedule, &jobs) - upsilon).abs() < 1e-12);
    }
}

#[test]
fn metrics_are_bounded() {
    let mut rng = StdRng::seed_from_u64(7);
    for u in [0.3, 0.6] {
        let tasks = SystemConfig::paper(u).generate(&mut rng);
        let jobs = JobSet::expand(&tasks);
        for report in [
            SchedulingReport::evaluate(&FpsOffline::new(), &jobs).unwrap(),
            SchedulingReport::evaluate(&Gpiocp::new(), &jobs).unwrap(),
            SchedulingReport::evaluate(&StaticScheduler::new(), &jobs).unwrap(),
        ] {
            assert!((0.0..=1.0).contains(&report.psi), "{report:?}");
            assert!((0.0..=1.0).contains(&report.upsilon), "{report:?}");
        }
    }
}

#[test]
fn multi_device_systems_schedule_per_partition() {
    let mut rng = StdRng::seed_from_u64(8);
    let mut config = SystemConfig::paper(0.6);
    config.devices = 3;
    let tasks = config.generate(&mut rng);
    let partitions = tasks.partitions();
    assert_eq!(partitions.len(), 3);
    for (_, part) in partitions {
        let jobs = JobSet::expand(&part);
        if let Ok(s) = StaticScheduler::new().schedule(&jobs) {
            s.validate(&jobs).expect("partition schedule valid");
        }
    }
}
