//! Property-based tests of the controller simulator's core guarantee:
//! any valid offline schedule is realised with zero timing deviation.

use proptest::prelude::*;
use tagio_controller::command::CommandBlock;
use tagio_controller::sim::{max_deviation_micros, trace_matches_schedule, IoController};
use tagio_core::job::JobId;
use tagio_core::schedule::{Schedule, ScheduleEntry};
use tagio_core::task::{DeviceId, TaskId};
use tagio_core::time::{Duration, Time};

/// Builds a random non-overlapping schedule of `n` jobs with gaps.
fn arb_schedule() -> impl Strategy<Value = (Schedule, Vec<(u32, u64)>)> {
    // Each element: (gap_before_us 1..500, duration_us 3..50, task 0..4)
    proptest::collection::vec((1u64..500, 3u64..50, 0u32..4), 1..20).prop_map(|spec| {
        let mut cursor = 0u64;
        let mut per_task = std::collections::HashMap::new();
        let mut entries = Vec::new();
        let mut meta = Vec::new();
        for (gap, dur, task) in spec {
            cursor += gap;
            let index = per_task.entry(task).or_insert(0u32);
            entries.push(ScheduleEntry {
                job: JobId::new(TaskId(task), *index),
                start: Time::from_micros(cursor),
                duration: Duration::from_micros(dur),
            });
            meta.push((task, dur));
            *index += 1;
            cursor += dur;
        }
        (entries.into_iter().collect(), meta)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_valid_schedule_replays_with_zero_deviation(
        (schedule, meta) in arb_schedule()
    ) {
        let mut controller = IoController::new();
        // One block per task, sized within the smallest budget that task has.
        let mut min_dur: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for (task, dur) in &meta {
            let e = min_dur.entry(*task).or_insert(u64::MAX);
            *e = (*e).min(*dur);
        }
        for (&task, &dur) in &min_dur {
            let block = if dur >= 3 {
                CommandBlock::pulse(0, dur - 2)
            } else {
                CommandBlock::sample()
            };
            controller.preload(TaskId(task), block).expect("fits");
        }
        controller.load_schedule(DeviceId(0), &schedule);
        controller.enable_all();
        let traces = controller.run();
        let trace = &traces[&DeviceId(0)];
        prop_assert!(trace.faults.is_empty(), "faults: {:?}", trace.faults);
        prop_assert!(trace_matches_schedule(trace, &schedule));
        prop_assert_eq!(max_deviation_micros(trace, &schedule), Some(0));
    }

    #[test]
    fn device_events_stay_inside_execution_windows(
        (schedule, _meta) in arb_schedule()
    ) {
        let mut controller = IoController::new();
        for task in 0..4u32 {
            controller
                .preload(TaskId(task), CommandBlock::sample())
                .expect("fits");
        }
        controller.load_schedule(DeviceId(0), &schedule);
        controller.enable_all();
        controller.run();
        let port = controller.processor(DeviceId(0)).expect("exists").device();
        for event in port.events() {
            let inside = schedule
                .iter()
                .any(|e| event.time >= e.start && event.time < e.finish());
            prop_assert!(inside, "event at {} outside all windows", event.time);
        }
    }
}
