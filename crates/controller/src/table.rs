//! The scheduling table of a controller processor (paper §IV, Fig. 4).
//!
//! The table "records the identifier and the start time of the I/O tasks
//! produced by the offline scheduling methods" (Phase 2). At run-time, the
//! request channel sets a task's *enable bit*; the global timer then
//! triggers each enabled entry at its start instant.

use tagio_core::job::JobId;
use tagio_core::schedule::Schedule;
use tagio_core::task::TaskId;
use tagio_core::time::{Duration, Time};

/// One row of the scheduling table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableEntry {
    /// The job this row triggers.
    pub job: JobId,
    /// Offline-decided start instant `κ`.
    pub start: Time,
    /// Execution budget (the job's WCET).
    pub budget: Duration,
    /// Run-time enable bit, set via the request channel.
    pub enabled: bool,
}

/// The per-processor scheduling table, ordered by start time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedulingTable {
    entries: Vec<TableEntry>,
}

impl SchedulingTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        SchedulingTable {
            entries: Vec::new(),
        }
    }

    /// Loads the offline schedule (Phase 2, via Port A). Entries start
    /// disabled; the request channel enables them at run-time.
    #[must_use]
    pub fn from_schedule(schedule: &Schedule) -> Self {
        SchedulingTable {
            entries: schedule
                .iter()
                .map(|e| TableEntry {
                    job: e.job,
                    start: e.start,
                    budget: e.duration,
                    enabled: false,
                })
                .collect(),
        }
    }

    /// Rows in start-time order.
    #[must_use]
    pub fn entries(&self) -> &[TableEntry] {
        &self.entries
    }

    /// Enables every row (convenience for fully-periodic systems where all
    /// pre-loaded tasks are requested at start-up).
    pub fn enable_all(&mut self) {
        for e in &mut self.entries {
            e.enabled = true;
        }
    }

    /// Replaces the table's rows with `next` **between hyper-periods**,
    /// carrying each task's enable bit over (the paper's request channel
    /// sets bits per task, so a task that was requested stays requested
    /// across the swap). New tasks start disabled. Returns the number of
    /// rows that came up enabled.
    ///
    /// This is the online scheduling service's hand-off point: when an
    /// event reshapes the schedule, the repaired table is staged and
    /// swapped in at the hyper-period boundary, so the running
    /// hyper-period's offline decisions are never perturbed mid-flight.
    pub fn hot_swap(&mut self, next: &Schedule) -> usize {
        let enabled_tasks: std::collections::BTreeSet<TaskId> = self
            .entries
            .iter()
            .filter(|e| e.enabled)
            .map(|e| e.job.task)
            .collect();
        self.entries = next
            .iter()
            .map(|e| TableEntry {
                job: e.job,
                start: e.start,
                budget: e.duration,
                enabled: enabled_tasks.contains(&e.job.task),
            })
            .collect();
        self.entries.iter().filter(|e| e.enabled).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagio_core::schedule::ScheduleEntry;

    fn schedule() -> Schedule {
        vec![
            ScheduleEntry {
                job: JobId::new(TaskId(0), 0),
                start: Time::from_millis(2),
                duration: Duration::from_micros(100),
            },
            ScheduleEntry {
                job: JobId::new(TaskId(1), 0),
                start: Time::from_millis(5),
                duration: Duration::from_micros(200),
            },
            ScheduleEntry {
                job: JobId::new(TaskId(0), 1),
                start: Time::from_millis(8),
                duration: Duration::from_micros(100),
            },
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn from_schedule_preserves_order_and_budget() {
        let t = SchedulingTable::from_schedule(&schedule());
        assert_eq!(t.entries().len(), 3);
        assert_eq!(t.entries()[0].start, Time::from_millis(2));
        assert_eq!(t.entries()[1].budget, Duration::from_micros(200));
        assert!(t.entries().iter().all(|e| !e.enabled));
    }

    #[test]
    fn empty_table_is_empty() {
        assert!(SchedulingTable::new().entries().is_empty());
    }

    #[test]
    fn hot_swap_carries_enable_bits_per_task() {
        let mut t = SchedulingTable::from_schedule(&schedule());
        // Task 0's request arrived; task 1 stays disabled.
        for e in &mut t.entries {
            e.enabled = e.job.task == TaskId(0);
        }
        let next: Schedule = vec![
            ScheduleEntry {
                job: JobId::new(TaskId(0), 0),
                start: Time::from_millis(1),
                duration: Duration::from_micros(100),
            },
            ScheduleEntry {
                job: JobId::new(TaskId(1), 0),
                start: Time::from_millis(4),
                duration: Duration::from_micros(200),
            },
            ScheduleEntry {
                job: JobId::new(TaskId(2), 0), // newly admitted task
                start: Time::from_millis(6),
                duration: Duration::from_micros(300),
            },
        ]
        .into_iter()
        .collect();
        let enabled = t.hot_swap(&next);
        assert_eq!(enabled, 1);
        assert_eq!(t.entries().len(), 3);
        let bits: Vec<(u32, bool)> = t
            .entries()
            .iter()
            .map(|e| (e.job.task.0, e.enabled))
            .collect();
        assert_eq!(bits, vec![(0, true), (1, false), (2, false)]);
        assert_eq!(t.entries()[0].start, Time::from_millis(1));
    }

    #[test]
    fn hot_swap_to_empty_schedule_clears_table() {
        let mut t = SchedulingTable::from_schedule(&schedule());
        t.enable_all();
        assert_eq!(t.hot_swap(&Schedule::new()), 0);
        assert!(t.entries().is_empty());
    }
}
