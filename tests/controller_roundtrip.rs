//! Round-trip: offline schedule → controller command table → simulated
//! execution → the *observed I/O instants at the device pins* match the
//! schedule within the paper's jitter bound — which is **zero**, because
//! the controller's global timer triggers table rows exactly (§IV).
//!
//! Covered for both offline methods (the static heuristic of Algorithm 1
//! and the GA), and for the online path: a schedule repaired by
//! `tagio::online` hot-swapped into the controller between hyper-periods.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagio::controller::device::PinEventKind;
use tagio::controller::sim::{max_deviation_micros, trace_matches_schedule, IoController};
use tagio::core::event::SystemEvent;
use tagio::core::job::JobSet;
use tagio::core::schedule::Schedule;
use tagio::core::task::{DeviceId, IoTask, TaskId, TaskSet};
use tagio::core::time::{Duration, Time};
use tagio::ga::GaConfig;
use tagio::sched::{GaScheduler, Scheduler, StaticScheduler};
use tagio::workload::SystemConfig;

/// The paper's jitter bound for the proposed controller: zero deviation.
const JITTER_BOUND_US: u64 = 0;

fn replay_and_check(tasks: &TaskSet, jobs: &JobSet, schedule: &Schedule, method: &str) {
    schedule.validate(jobs).expect("scheduler output is valid");
    let mut ctrl = IoController::for_taskset(tasks).expect("memory fits");
    ctrl.load_schedule(DeviceId(0), schedule);
    ctrl.enable_all();
    let traces = ctrl.run();
    let trace = &traces[&DeviceId(0)];
    assert!(trace.faults.is_empty(), "{method}: faults during replay");
    assert!(
        trace_matches_schedule(trace, schedule),
        "{method}: trace diverged from the schedule"
    );
    assert!(
        max_deviation_micros(trace, schedule) <= Some(JITTER_BOUND_US),
        "{method}: deviation exceeds the paper's jitter bound"
    );
    // The observable I/O: every pulse task's rising edge must sit exactly
    // at its job's scheduled start instant.
    let rising: Vec<Time> = ctrl
        .processor(DeviceId(0))
        .expect("device 0 exists")
        .device()
        .events()
        .iter()
        .filter(|e| matches!(e.kind, PinEventKind::Level { high: true, .. }))
        .map(|e| e.time)
        .collect();
    for entry in schedule {
        let task = tasks.get(entry.job.task).expect("scheduled task exists");
        if task.wcet() >= Duration::from_micros(3) {
            assert!(
                rising.contains(&entry.start),
                "{method}: no rising edge at {} for {}",
                entry.start.as_micros(),
                entry.job
            );
        }
    }
}

#[test]
fn heuristic_schedule_round_trips_with_zero_jitter() {
    let mut rng = StdRng::seed_from_u64(42);
    let tasks = SystemConfig::paper(0.4).generate(&mut rng);
    let jobs = JobSet::expand(&tasks);
    let schedule = StaticScheduler::new()
        .schedule(&jobs)
        .expect("paper workload at U=0.4 is feasible");
    replay_and_check(&tasks, &jobs, &schedule, "static heuristic");
}

#[test]
fn ga_schedule_round_trips_with_zero_jitter() {
    let mut rng = StdRng::seed_from_u64(7);
    let tasks = SystemConfig::paper(0.3).generate(&mut rng);
    let jobs = JobSet::expand(&tasks);
    let ga = GaScheduler::new()
        .with_config(GaConfig {
            population: 16,
            generations: 10,
            threads: 1,
            ..GaConfig::quick()
        })
        .with_seed(7);
    let schedule = ga.schedule(&jobs).expect("GA finds a feasible schedule");
    replay_and_check(&tasks, &jobs, &schedule, "GA");
}

#[test]
fn online_repaired_schedule_hot_swaps_and_round_trips() {
    // The tentpole wiring: live schedule -> arrival admitted by
    // incremental repair -> hot-swap between hyper-periods -> the
    // controller realises the repaired schedule with zero jitter, with
    // already-requested tasks still enabled.
    let mk = |id: u32, delta_ms: u64| {
        IoTask::builder(TaskId(id), DeviceId(0))
            .wcet(Duration::from_micros(500))
            .period(Duration::from_millis(10))
            .ideal_offset(Duration::from_millis(delta_ms))
            .margin(Duration::from_millis(2))
            .build()
            .unwrap()
    };
    let base: TaskSet = vec![mk(0, 3), mk(1, 7)].into_iter().collect();
    let mut svc =
        tagio::online::service::OnlineScheduler::bootstrap(DeviceId(0), base.clone()).unwrap();

    let mut ctrl = IoController::for_taskset(&base).expect("memory fits");
    ctrl.load_schedule(DeviceId(0), svc.schedule());
    ctrl.enable_all();
    let first = ctrl.run();
    assert!(trace_matches_schedule(&first[&DeviceId(0)], svc.schedule()));

    // A new request stream arrives mid-flight; the service repairs.
    let newcomer = mk(2, 5);
    assert!(matches!(
        svc.apply(&SystemEvent::Arrival(newcomer.clone())),
        tagio::online::service::EventOutcome::Admitted { .. }
    ));
    // Preload the newcomer's commands, then swap the repaired schedule in
    // for the next hyper-period.
    ctrl.preload(
        newcomer.id(),
        tagio::controller::command::CommandBlock::pulse(0, newcomer.wcet().as_micros() - 2),
    )
    .expect("memory fits");
    let enabled = ctrl.hot_swap_schedule(DeviceId(0), svc.schedule());
    let running_rows = svc
        .schedule()
        .iter()
        .filter(|e| e.job.task != newcomer.id())
        .count();
    assert_eq!(
        enabled, running_rows,
        "running tasks stay enabled across the swap, the newcomer does not"
    );
    // The newcomer's request arrives: its rows are the only ones left off.
    ctrl.enable_all();
    let second = ctrl.run();
    let trace = &second[&DeviceId(0)];
    assert!(trace.faults.is_empty());
    assert!(trace_matches_schedule(trace, svc.schedule()));
    assert_eq!(
        max_deviation_micros(trace, svc.schedule()),
        Some(JITTER_BOUND_US)
    );
}

#[test]
fn fleet_epoch_hot_swaps_every_partition_and_round_trips() {
    // The multi-partition wiring: a fleet routes an epoch of arrivals
    // across its partitions, then every partition's schedule is pushed down to the
    // hardware in one fleet-wide hot swap — every partition replays its
    // repaired schedule with zero jitter.
    use std::collections::BTreeMap;
    use tagio::online::fleet::{FleetConfig, FleetScheduler, PlacementPolicy};

    let mk = |id: u32, device: u32, delta_ms: u64| {
        IoTask::builder(TaskId(id), DeviceId(device))
            .wcet(Duration::from_micros(500))
            .period(Duration::from_millis(10))
            .ideal_offset(Duration::from_millis(delta_ms))
            .margin(Duration::from_millis(2))
            .build()
            .unwrap()
    };
    let mut bases = BTreeMap::new();
    bases.insert(
        DeviceId(0),
        vec![mk(0, 0, 3)].into_iter().collect::<TaskSet>(),
    );
    bases.insert(
        DeviceId(1),
        vec![mk(1, 1, 7)].into_iter().collect::<TaskSet>(),
    );
    let mut fleet = FleetScheduler::bootstrap(
        &bases,
        FleetConfig {
            policy: PlacementPolicy::BestFit,
            threads: 1,
            ..FleetConfig::default()
        },
    );

    // One epoch: two arrivals routed across the fleet.
    let epoch = [
        SystemEvent::Arrival(mk(2, 0, 5)),
        SystemEvent::Arrival(mk(3, 1, 4)),
    ];
    let outcomes = fleet.apply_batch(&epoch);
    assert!(outcomes
        .iter()
        .all(|o| matches!(o.outcome, tagio::online::EventOutcome::Admitted { .. })));

    // All active tasks across all partitions, preloaded into one
    // controller; then the whole epoch's schedules swap in together.
    let all_tasks: TaskSet = fleet
        .partitions()
        .iter()
        .flat_map(|p| p.tasks().iter().cloned())
        .collect();
    let mut ctrl = IoController::for_taskset(&all_tasks).expect("memory fits");
    let schedules: BTreeMap<DeviceId, _> = fleet
        .partitions()
        .iter()
        .map(|p| (p.device(), p.schedule().clone()))
        .collect();
    let enabled: usize = schedules
        .iter()
        .map(|(device, schedule)| ctrl.hot_swap_schedule(*device, schedule))
        .sum();
    assert_eq!(enabled, 0, "no requests have arrived yet");
    ctrl.enable_all();
    let traces = ctrl.run();
    for (device, schedule) in &schedules {
        let trace = &traces[device];
        assert!(trace.faults.is_empty(), "partition {device:?} faulted");
        assert!(
            trace_matches_schedule(trace, schedule),
            "partition {device:?} diverged from its swapped schedule"
        );
        assert_eq!(max_deviation_micros(trace, schedule), Some(JITTER_BOUND_US));
    }
}
