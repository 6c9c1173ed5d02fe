//! Whole-controller simulation: one controller memory shared by one
//! controller processor per I/O device (the paper's global I/O controller
//! with fully-partitioned scheduling, §III–IV).

use crate::command::CommandBlock;
use crate::device::GpioPort;
use crate::execution::{ControllerProcessor, ExecutionTrace};
use crate::memory::{ControllerMemory, PreloadError};
use crate::table::SchedulingTable;
use std::collections::BTreeMap;
use tagio_core::job::JobSet;
use tagio_core::schedule::Schedule;
use tagio_core::task::{DeviceId, TaskId, TaskSet};

/// A configured I/O controller ready to execute offline schedules.
///
/// ```
/// # use tagio_controller::sim::IoController;
/// # use tagio_controller::command::CommandBlock;
/// # use tagio_core::{task::*, job::JobSet, schedule::{Schedule, entry_for}, time::Duration};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut tasks = TaskSet::new();
/// tasks.push(
///     IoTask::builder(TaskId(0), DeviceId(0))
///         .wcet(Duration::from_micros(100))
///         .period(Duration::from_millis(4))
///         .ideal_offset(Duration::from_millis(2))
///         .margin(Duration::from_millis(1))
///         .build()?,
/// )?;
/// let jobs = JobSet::expand(&tasks);
/// let schedule: Schedule = jobs.iter().map(|j| entry_for(j, j.ideal_start())).collect();
///
/// let mut ctrl = IoController::new();
/// ctrl.preload(TaskId(0), CommandBlock::pulse(0, 50))?;
/// ctrl.load_schedule(DeviceId(0), &schedule);
/// ctrl.enable_all();
/// let traces = ctrl.run();
/// assert!(traces[&DeviceId(0)].faults.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct IoController {
    memory: ControllerMemory,
    processors: BTreeMap<DeviceId, ControllerProcessor<GpioPort>>,
}

impl IoController {
    /// A controller with the paper's 32 KB memory and no processors yet
    /// (processors appear as schedules are loaded).
    #[must_use]
    pub fn new() -> Self {
        IoController {
            memory: ControllerMemory::new(),
            processors: BTreeMap::new(),
        }
    }

    /// Builds a controller for a task set: one processor per device, and a
    /// synthetic pulse command block per task sized within its WCET.
    ///
    /// # Errors
    /// Returns [`PreloadError`] if the controller memory cannot hold all
    /// blocks.
    pub fn for_taskset(tasks: &TaskSet) -> Result<Self, PreloadError> {
        let mut ctrl = IoController::new();
        for task in tasks {
            // Pulse high for as long as the WCET allows (rise + hold + fall).
            let wcet = task.wcet().as_micros();
            let block = if wcet >= 3 {
                CommandBlock::pulse(0, wcet - 2)
            } else {
                CommandBlock::sample()
            };
            debug_assert!(block.duration() <= task.wcet());
            ctrl.preload(task.id(), block)?;
            ctrl.processors
                .entry(task.device())
                .or_insert_with(|| ControllerProcessor::new(GpioPort::new()));
        }
        Ok(ctrl)
    }

    /// Pre-loads a command block for `task` (Phase 1).
    ///
    /// # Errors
    /// Propagates [`PreloadError`] from the controller memory.
    pub fn preload(&mut self, task: TaskId, block: CommandBlock) -> Result<(), PreloadError> {
        self.memory.preload(task, block)
    }

    /// Loads an offline schedule into `device`'s processor (Phase 2),
    /// creating the processor if needed.
    pub fn load_schedule(&mut self, device: DeviceId, schedule: &Schedule) {
        self.processors
            .entry(device)
            .or_insert_with(|| ControllerProcessor::new(GpioPort::new()))
            .load_table(SchedulingTable::from_schedule(schedule));
    }

    /// Hot-swaps `device`'s table to `schedule` between hyper-periods,
    /// preserving per-task enable bits (see
    /// [`SchedulingTable::hot_swap`]); creates the processor if needed.
    /// Returns the number of rows that came up enabled.
    pub fn hot_swap_schedule(&mut self, device: DeviceId, schedule: &Schedule) -> usize {
        self.processors
            .entry(device)
            .or_insert_with(|| ControllerProcessor::new(GpioPort::new()))
            .table_mut()
            .hot_swap(schedule)
    }

    /// Sets the enable bit of every table row (all requests received).
    pub fn enable_all(&mut self) {
        for cp in self.processors.values_mut() {
            cp.table_mut().enable_all();
        }
    }

    /// Enables one task's rows on its device's processor; returns the
    /// number of rows enabled.
    pub fn enable_task(&mut self, device: DeviceId, task: TaskId) -> usize {
        self.processors
            .get_mut(&device)
            .map_or(0, |cp| cp.table_mut().enable_task(task))
    }

    /// The shared controller memory.
    #[must_use]
    pub fn memory(&self) -> &ControllerMemory {
        &self.memory
    }

    /// The processor bound to `device`.
    #[must_use]
    pub fn processor(&self, device: DeviceId) -> Option<&ControllerProcessor<GpioPort>> {
        self.processors.get(&device)
    }

    /// Runs every processor over its table (Phase 3) and returns the
    /// per-device traces.
    pub fn run(&mut self) -> BTreeMap<DeviceId, ExecutionTrace> {
        self.processors
            .iter_mut()
            .map(|(dev, cp)| (*dev, cp.run(&self.memory)))
            .collect()
    }
}

/// Checks that `trace` realised `schedule` with **zero timing deviation**:
/// every scheduled job executed, exactly at its offline start instant.
///
/// This is the paper's hardware guarantee: once decisions are in the
/// scheduling table, the global timer triggers them exactly.
#[must_use]
pub fn trace_matches_schedule(trace: &ExecutionTrace, schedule: &Schedule) -> bool {
    if trace.executed.len() != schedule.len() {
        return false;
    }
    schedule
        .iter()
        .all(|e| trace.start_of(e.job) == Some(e.start))
}

/// The largest deviation (µs) between scheduled and executed starts;
/// `None` when some scheduled job did not execute.
#[must_use]
pub fn max_deviation_micros(trace: &ExecutionTrace, schedule: &Schedule) -> Option<u64> {
    let mut max = 0u64;
    for e in schedule {
        let start = trace.start_of(e.job)?;
        max = max.max(start.abs_diff(e.start).as_micros());
    }
    Some(max)
}

/// Builds the offline schedule and controller for `tasks` in one call using
/// the provided scheduler output, returning per-device traces.
///
/// Convenience wrapper used by examples and integration tests.
///
/// # Errors
/// Returns [`PreloadError`] if controller memory is exhausted.
///
/// # Panics
/// Panics if `schedules` lacks a device that `tasks` uses.
pub fn execute_partitioned(
    tasks: &TaskSet,
    schedules: &BTreeMap<DeviceId, Schedule>,
) -> Result<BTreeMap<DeviceId, ExecutionTrace>, PreloadError> {
    let mut ctrl = IoController::for_taskset(tasks)?;
    for (device, schedule) in schedules {
        ctrl.load_schedule(*device, schedule);
    }
    ctrl.enable_all();
    Ok(ctrl.run())
}

/// Expands each partition of `tasks` into its job set (helper pairing with
/// [`execute_partitioned`]).
#[must_use]
pub fn partition_jobs(tasks: &TaskSet) -> BTreeMap<DeviceId, JobSet> {
    tasks
        .partitions()
        .into_iter()
        .map(|(dev, part)| (dev, JobSet::expand(&part)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagio_core::schedule::entry_for;
    use tagio_core::task::IoTask;
    use tagio_core::time::{Duration, Time};

    fn tasks_two_devices() -> TaskSet {
        let mk = |id: u32, dev: u32, period_ms: u64| {
            IoTask::builder(TaskId(id), DeviceId(dev))
                .wcet(Duration::from_micros(100))
                .period(Duration::from_millis(period_ms))
                .ideal_offset(Duration::from_millis(period_ms / 2))
                .margin(Duration::from_millis(period_ms / 4))
                .build()
                .unwrap()
        };
        vec![mk(0, 0, 4), mk(1, 1, 8), mk(2, 0, 8)]
            .into_iter()
            .collect()
    }

    fn ideal_schedules(tasks: &TaskSet) -> BTreeMap<DeviceId, Schedule> {
        partition_jobs(tasks)
            .into_iter()
            .map(|(dev, jobs)| {
                let s: Schedule = jobs.iter().map(|j| entry_for(j, j.ideal_start())).collect();
                (dev, s)
            })
            .collect()
    }

    #[test]
    fn controller_replays_schedule_exactly() {
        let tasks = tasks_two_devices();
        let schedules = ideal_schedules(&tasks);
        let traces = execute_partitioned(&tasks, &schedules).unwrap();
        for (dev, trace) in &traces {
            assert!(trace.faults.is_empty(), "faults on {dev}");
            assert!(trace_matches_schedule(trace, &schedules[dev]));
            assert_eq!(max_deviation_micros(trace, &schedules[dev]), Some(0));
        }
    }

    #[test]
    fn per_device_partitioning_isolates_traffic() {
        let tasks = tasks_two_devices();
        let schedules = ideal_schedules(&tasks);
        let traces = execute_partitioned(&tasks, &schedules).unwrap();
        // Device 0 executes jobs of tasks 0 and 2 only.
        let d0_jobs: Vec<TaskId> = traces[&DeviceId(0)]
            .executed
            .iter()
            .map(|e| e.job.task)
            .collect();
        assert!(d0_jobs.iter().all(|t| *t == TaskId(0) || *t == TaskId(2)));
        assert_eq!(traces[&DeviceId(1)].executed.len(), 1);
    }

    #[test]
    fn disabled_task_faults_but_others_run() {
        let tasks = tasks_two_devices();
        let schedules = ideal_schedules(&tasks);
        let mut ctrl = IoController::for_taskset(&tasks).unwrap();
        for (dev, s) in &schedules {
            ctrl.load_schedule(*dev, s);
        }
        // Enable only task 0 on device 0 (task 2 rows stay disabled).
        ctrl.enable_task(DeviceId(0), TaskId(0));
        ctrl.enable_task(DeviceId(1), TaskId(1));
        let traces = ctrl.run();
        let d0 = &traces[&DeviceId(0)];
        assert!(!d0.faults.is_empty());
        assert!(d0.executed.iter().all(|e| e.job.task == TaskId(0)));
        assert!(traces[&DeviceId(1)].faults.is_empty());
    }

    #[test]
    fn pin_trace_shows_pulses_at_scheduled_instants() {
        let tasks = tasks_two_devices();
        let schedules = ideal_schedules(&tasks);
        let mut ctrl = IoController::for_taskset(&tasks).unwrap();
        for (dev, s) in &schedules {
            ctrl.load_schedule(*dev, s);
        }
        ctrl.enable_all();
        ctrl.run();
        let port = ctrl.processor(DeviceId(1)).unwrap().device();
        // Task 1 ideal start: 4ms into its 8ms period.
        assert_eq!(port.events()[0].time, Time::from_millis(4));
    }

    #[test]
    fn for_taskset_respects_wcet_budget() {
        let tasks = tasks_two_devices();
        let ctrl = IoController::for_taskset(&tasks).unwrap();
        for task in &tasks {
            let block = ctrl.memory().fetch(task.id()).unwrap();
            assert!(block.duration() <= task.wcet());
        }
    }

    #[test]
    fn fleet_hot_swap_installs_every_partition_between_hyperperiods() {
        let tasks = tasks_two_devices();
        let schedules = ideal_schedules(&tasks);
        let mut ctrl = IoController::for_taskset(&tasks).unwrap();
        for (dev, s) in &schedules {
            ctrl.load_schedule(*dev, s);
        }
        ctrl.enable_all();
        let first = ctrl.run();
        assert!(first.values().all(|t| t.faults.is_empty()));
        // Shift every partition's schedule (an epoch of online repairs)
        // and install the whole map in one fleet-wide swap.
        let shift = Duration::from_micros(150);
        let moved: BTreeMap<DeviceId, Schedule> = schedules
            .iter()
            .map(|(dev, s)| {
                let shifted: Schedule = s
                    .iter()
                    .map(|e| tagio_core::schedule::ScheduleEntry {
                        job: e.job,
                        start: e.start + shift,
                        duration: e.duration,
                    })
                    .collect();
                (*dev, shifted)
            })
            .collect();
        let enabled: usize = moved
            .iter()
            .map(|(dev, s)| ctrl.hot_swap_schedule(*dev, s))
            .sum();
        let rows: usize = moved.values().map(Schedule::len).sum();
        assert_eq!(enabled, rows, "every request survives the fleet swap");
        let second = ctrl.run();
        for (dev, schedule) in &moved {
            assert!(
                trace_matches_schedule(&second[dev], schedule),
                "partition {dev:?} replays its swapped schedule exactly"
            );
        }
    }

    #[test]
    fn memory_capacity_error_propagates() {
        let tasks = tasks_two_devices();
        let mut ctrl = IoController {
            memory: ControllerMemory::with_capacity(4),
            processors: BTreeMap::new(),
        };
        let err = tasks
            .iter()
            .try_for_each(|t| ctrl.preload(t.id(), CommandBlock::pulse(0, 50)));
        assert!(err.is_err());
    }

    #[test]
    fn hot_swap_between_hyperperiods_preserves_requests() {
        let tasks = tasks_two_devices();
        let schedules = ideal_schedules(&tasks);
        let mut ctrl = IoController::for_taskset(&tasks).unwrap();
        for (dev, s) in &schedules {
            ctrl.load_schedule(*dev, s);
        }
        // Only task 0's request arrived before the first hyper-period.
        ctrl.enable_task(DeviceId(0), TaskId(0));
        let first = ctrl.run();
        assert!(first[&DeviceId(0)]
            .executed
            .iter()
            .all(|e| e.job.task == TaskId(0)));
        // The online layer repaired device 0's schedule (task 0 moved);
        // swap it in for the next hyper-period.
        let moved: Schedule = schedules[&DeviceId(0)]
            .iter()
            .map(|e| tagio_core::schedule::ScheduleEntry {
                job: e.job,
                start: e.start + Duration::from_micros(200),
                duration: e.duration,
            })
            .collect();
        let enabled = ctrl.hot_swap_schedule(DeviceId(0), &moved);
        assert!(enabled > 0, "task 0's request survives the swap");
        let second = ctrl.run();
        let trace = &second[&DeviceId(0)];
        // Task 0 executes at the new instants without re-requesting;
        // task 2 is still awaiting its request.
        for e in moved.iter().filter(|e| e.job.task == TaskId(0)) {
            assert_eq!(trace.start_of(e.job), Some(e.start));
        }
        assert!(trace.executed.iter().all(|e| e.job.task == TaskId(0)));
    }

    #[test]
    fn deviation_detects_wrong_replay() {
        let tasks = tasks_two_devices();
        let schedules = ideal_schedules(&tasks);
        let traces = execute_partitioned(&tasks, &schedules).unwrap();
        // Compare device 0's trace against device 1's schedule: mismatch.
        assert!(!trace_matches_schedule(
            &traces[&DeviceId(0)],
            &schedules[&DeviceId(1)]
        ));
    }
}
