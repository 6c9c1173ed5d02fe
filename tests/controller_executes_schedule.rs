//! Integration: offline schedules produced by the scheduling crates are
//! realised by the simulated controller hardware with zero deviation —
//! the paper's Section IV guarantee.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagio::controller::command::CommandBlock;
use tagio::controller::sim::{
    execute_partitioned, max_deviation_micros, partition_jobs, trace_matches_schedule, IoController,
};
use tagio::core::job::JobSet;
use tagio::core::schedule::Schedule;
use tagio::core::task::{DeviceId, TaskId};
use tagio::sched::{Gpiocp, Scheduler, StaticScheduler};
use tagio::workload::SystemConfig;

fn schedules_for(
    tasks: &tagio::core::task::TaskSet,
) -> Option<std::collections::BTreeMap<DeviceId, Schedule>> {
    let mut map = std::collections::BTreeMap::new();
    for (device, jobs) in partition_jobs(tasks) {
        let s = StaticScheduler::new().schedule(&jobs).ok()?;
        s.validate(&jobs).expect("scheduler output is valid");
        map.insert(device, s);
    }
    Some(map)
}

#[test]
fn controller_replays_static_schedules_exactly() {
    let mut rng = StdRng::seed_from_u64(1);
    for u in [0.3, 0.6] {
        let tasks = SystemConfig::paper(u).generate(&mut rng);
        let Some(schedules) = schedules_for(&tasks) else {
            continue;
        };
        let traces = execute_partitioned(&tasks, &schedules).expect("memory fits");
        for (device, trace) in &traces {
            assert!(trace.faults.is_empty(), "faults on {device}");
            assert!(trace_matches_schedule(trace, &schedules[device]));
            assert_eq!(max_deviation_micros(trace, &schedules[device]), Some(0));
        }
    }
}

#[test]
fn controller_replays_gpiocp_schedules_too() {
    // The controller is schedule-agnostic: even a FIFO-derived schedule is
    // replayed exactly; GPIOCP's inaccuracy is baked into the schedule
    // itself, not the hardware.
    let mut rng = StdRng::seed_from_u64(2);
    let tasks = SystemConfig::paper(0.3).generate(&mut rng);
    let jobs = JobSet::expand(&tasks);
    let Ok(schedule) = Gpiocp::new().schedule(&jobs) else {
        return;
    };
    let mut schedules = std::collections::BTreeMap::new();
    schedules.insert(DeviceId(0), schedule.clone());
    let traces = execute_partitioned(&tasks, &schedules).expect("memory fits");
    assert!(trace_matches_schedule(&traces[&DeviceId(0)], &schedule));
}

#[test]
fn multi_device_controller_isolates_partitions() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut config = SystemConfig::paper(0.6);
    config.devices = 2;
    let tasks = config.generate(&mut rng);
    let Some(schedules) = schedules_for(&tasks) else {
        return;
    };
    let traces = execute_partitioned(&tasks, &schedules).expect("memory fits");
    assert_eq!(traces.len(), 2);
    for (device, trace) in &traces {
        // Every executed job belongs to a task mapped to this device.
        for e in &trace.executed {
            let task = tasks.get(e.job.task).expect("task exists");
            assert_eq!(task.device(), *device);
        }
    }
}

#[test]
fn unrequested_tasks_fault_without_disturbing_others() {
    let mut rng = StdRng::seed_from_u64(4);
    let tasks = SystemConfig::paper(0.3).generate(&mut rng);
    let Some(schedules) = schedules_for(&tasks) else {
        return;
    };
    let mut controller = IoController::for_taskset(&tasks).expect("memory fits");
    // Every task except the first is requested: load each table without
    // the skipped task's rows and enable them all, then hot-swap the full
    // schedule in. The swap carries each task's enable bit over, so the
    // skipped task's rows come up disabled and every other row enabled.
    let skipped = tasks.iter().next().expect("non-empty").id();
    let requested = |schedule: &Schedule| -> Schedule {
        schedule
            .iter()
            .filter(|e| e.job.task != skipped)
            .cloned()
            .collect()
    };
    for (device, schedule) in &schedules {
        controller.load_schedule(*device, &requested(schedule));
    }
    controller.enable_all();
    for (device, schedule) in &schedules {
        let enabled = controller.hot_swap_schedule(*device, schedule);
        assert_eq!(enabled, requested(schedule).len());
    }
    let traces = controller.run();
    let trace = &traces[&DeviceId(0)];
    assert!(!trace.faults.is_empty());
    // All executed jobs are on time; the skipped task never ran.
    assert!(trace.executed.iter().all(|e| e.job.task != skipped));
    for e in &trace.executed {
        let scheduled = schedules[&DeviceId(0)]
            .start_of(e.job)
            .expect("job was scheduled");
        assert_eq!(e.start, scheduled);
    }
}

#[test]
fn preload_capacity_is_respected() {
    let mut controller = IoController::new();
    // Fill memory with ~32KB of 4-byte commands.
    let huge: CommandBlock = (0..8192)
        .map(|_| tagio::controller::command::GpioCommand::ReadWord)
        .collect();
    controller.preload(TaskId(0), huge).expect("exactly fits");
    let err = controller.preload(TaskId(1), CommandBlock::sample());
    assert!(err.is_err(), "33rd KB must not fit");
}
