//! The execution module of a controller processor (paper Fig. 4):
//! global timer, synchroniser, fault recovery and EXU, plus the response
//! channel back to the application CPUs.

use crate::command::CommandBlock;
use crate::device::IoDevice;
use crate::memory::ControllerMemory;
use crate::table::SchedulingTable;
use serde::{Deserialize, Serialize};
use tagio_core::job::JobId;
use tagio_core::time::{Duration, Time};

/// One executed job, as observed at the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutedJob {
    /// The job.
    pub job: JobId,
    /// The instant the first command hit the device — with the global timer
    /// this equals the scheduled start exactly.
    pub start: Time,
    /// The instant the device was released (start + budget; the processor
    /// idles out the remaining budget to preserve the offline decisions,
    /// §III.C).
    pub finish: Time,
    /// Device time actually consumed by the command block.
    pub active: Duration,
}

/// A response returned to the application CPU via the response channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Response {
    /// The producing job.
    pub job: JobId,
    /// When the response was produced.
    pub time: Time,
    /// The data word (e.g. a port sample).
    pub value: u32,
}

/// A run-time exception handled by the fault-recovery unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Fault {
    /// The entry's enable bit was never set (the I/O request was not
    /// received) — the row is skipped, later rows are unaffected.
    NotEnabled {
        /// The skipped job.
        job: JobId,
    },
    /// No command block was pre-loaded for the task — the row is skipped.
    MissingCommands {
        /// The affected job.
        job: JobId,
    },
    /// The pre-loaded block is longer than the job's budget — the block is
    /// truncated at the budget boundary so the next row still starts on
    /// time.
    BudgetOverrun {
        /// The affected job.
        job: JobId,
        /// The block's full duration.
        needed: Duration,
        /// The budget it had to fit.
        budget: Duration,
    },
}

/// The outcome of one hyper-period of execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionTrace {
    /// Jobs executed, in start order.
    pub executed: Vec<ExecutedJob>,
    /// Responses produced (read data).
    pub responses: Vec<Response>,
    /// Faults handled by the recovery unit.
    pub faults: Vec<Fault>,
}

impl ExecutionTrace {
    /// The start instant of `job`, if it executed.
    #[must_use]
    pub fn start_of(&self, job: JobId) -> Option<Time> {
        self.executed.iter().find(|e| e.job == job).map(|e| e.start)
    }
}

/// A controller processor: scheduling table + execution module bound to one
/// I/O device (the design is generic and duplicated per device, §IV).
#[derive(Debug)]
pub struct ControllerProcessor<D> {
    table: SchedulingTable,
    device: D,
}

impl<D: IoDevice> ControllerProcessor<D> {
    /// Binds a processor to its device with an empty table.
    #[must_use]
    pub fn new(device: D) -> Self {
        ControllerProcessor {
            table: SchedulingTable::new(),
            device,
        }
    }

    /// Loads the offline scheduling decisions (Phase 2).
    pub fn load_table(&mut self, table: SchedulingTable) {
        self.table = table;
    }

    /// The scheduling table (request channel writes enable bits here).
    pub fn table_mut(&mut self) -> &mut SchedulingTable {
        &mut self.table
    }

    /// The scheduling table.
    #[must_use]
    pub fn table(&self) -> &SchedulingTable {
        &self.table
    }

    /// The attached device.
    #[must_use]
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Runs Phase 3 over one hyper-period: the global timer walks the
    /// table; the synchroniser fetches and translates each enabled row's
    /// commands from `memory`; the EXU applies them to the device at exact
    /// instants; fault recovery skips or truncates problem rows so
    /// subsequent rows stay on time.
    pub fn run(&mut self, memory: &ControllerMemory) -> ExecutionTrace {
        let mut trace = ExecutionTrace::default();
        for entry in self.table.entries().to_vec() {
            if !entry.enabled {
                trace.faults.push(Fault::NotEnabled { job: entry.job });
                continue;
            }
            let Some(block) = memory.fetch(entry.job.task) else {
                trace.faults.push(Fault::MissingCommands { job: entry.job });
                continue;
            };
            let active =
                self.execute_block(entry.job, entry.start, entry.budget, block, &mut trace);
            trace.executed.push(ExecutedJob {
                job: entry.job,
                start: entry.start,
                finish: entry.start + entry.budget,
                active,
            });
        }
        trace
    }

    fn execute_block(
        &mut self,
        job: JobId,
        start: Time,
        budget: Duration,
        block: &CommandBlock,
        trace: &mut ExecutionTrace,
    ) -> Duration {
        if block.duration() > budget {
            trace.faults.push(Fault::BudgetOverrun {
                job,
                needed: block.duration(),
                budget,
            });
        }
        let mut elapsed = Duration::ZERO;
        for cmd in block.commands() {
            if elapsed + cmd.cost() > budget {
                break; // truncated by fault recovery
            }
            let at = start + elapsed;
            if let Some(value) = self.device.apply(at, cmd) {
                trace.responses.push(Response {
                    job,
                    time: at,
                    value,
                });
            }
            elapsed += cmd.cost();
        }
        elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{CommandBlock, GpioCommand};
    use crate::device::{GpioPort, PinEventKind};
    use tagio_core::schedule::{Schedule, ScheduleEntry};
    use tagio_core::task::TaskId;

    fn table(entries: &[(u32, u32, u64, u64)]) -> SchedulingTable {
        // (task, index, start_us, budget_us)
        let s: Schedule = entries
            .iter()
            .map(|&(t, i, start, budget)| ScheduleEntry {
                job: JobId::new(TaskId(t), i),
                start: Time::from_micros(start),
                duration: Duration::from_micros(budget),
            })
            .collect();
        SchedulingTable::from_schedule(&s)
    }

    #[test]
    fn executes_enabled_rows_at_exact_starts() {
        let mut mem = ControllerMemory::new();
        mem.preload(TaskId(0), CommandBlock::pulse(2, 48)).unwrap();
        let mut cp = ControllerProcessor::new(GpioPort::new());
        cp.load_table(table(&[(0, 0, 100, 50), (0, 1, 500, 50)]));
        cp.table_mut().enable_all();
        let trace = cp.run(&mem);
        assert!(trace.faults.is_empty());
        assert_eq!(trace.executed.len(), 2);
        assert_eq!(
            trace.start_of(JobId::new(TaskId(0), 0)),
            Some(Time::from_micros(100))
        );
        assert_eq!(
            trace.start_of(JobId::new(TaskId(0), 1)),
            Some(Time::from_micros(500))
        );
        // Device saw the rising edge exactly at the scheduled instants.
        let rising: Vec<Time> = cp
            .device()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, PinEventKind::Level { high: true, .. }))
            .map(|e| e.time)
            .collect();
        assert_eq!(rising, vec![Time::from_micros(100), Time::from_micros(500)]);
    }

    #[test]
    fn disabled_rows_fault_and_are_skipped() {
        let mut mem = ControllerMemory::new();
        mem.preload(TaskId(0), CommandBlock::sample()).unwrap();
        let mut cp = ControllerProcessor::new(GpioPort::new());
        cp.load_table(table(&[(0, 0, 100, 10)]));
        let trace = cp.run(&mem);
        assert_eq!(trace.executed.len(), 0);
        assert_eq!(
            trace.faults,
            vec![Fault::NotEnabled {
                job: JobId::new(TaskId(0), 0)
            }]
        );
    }

    #[test]
    fn missing_commands_fault_and_are_skipped() {
        let mem = ControllerMemory::new();
        let mut cp = ControllerProcessor::new(GpioPort::new());
        cp.load_table(table(&[(7, 0, 100, 10)]));
        cp.table_mut().enable_all();
        let trace = cp.run(&mem);
        assert!(matches!(trace.faults[0], Fault::MissingCommands { .. }));
        assert!(trace.executed.is_empty());
    }

    #[test]
    fn overrun_blocks_are_truncated_at_budget() {
        let mut mem = ControllerMemory::new();
        // pulse(_, 48) lasts 50us but the budget is 10us.
        mem.preload(TaskId(0), CommandBlock::pulse(1, 48)).unwrap();
        let mut cp = ControllerProcessor::new(GpioPort::new());
        cp.load_table(table(&[(0, 0, 0, 10), (0, 1, 20, 10)]));
        cp.table_mut().enable_all();
        let trace = cp.run(&mem);
        assert!(matches!(trace.faults[0], Fault::BudgetOverrun { .. }));
        // Both rows still executed; the second started on time.
        assert_eq!(trace.executed.len(), 2);
        assert_eq!(trace.executed[1].start, Time::from_micros(20));
        // The truncated block only applied SetHigh (1us).
        assert_eq!(trace.executed[0].active, Duration::from_micros(1));
    }

    #[test]
    fn responses_flow_through_response_channel() {
        let mut mem = ControllerMemory::new();
        mem.preload(TaskId(0), CommandBlock::sample()).unwrap();
        let mut cp = ControllerProcessor::new(GpioPort::new());
        cp.load_table(table(&[(0, 0, 42, 5)]));
        cp.table_mut().enable_all();
        let trace = cp.run(&mem);
        assert_eq!(trace.responses.len(), 1);
        assert_eq!(trace.responses[0].time, Time::from_micros(42));
        assert_eq!(trace.responses[0].value, 0);
    }

    #[test]
    fn finish_holds_full_budget_even_when_block_is_short() {
        // §III.C: the processor idles until the budget elapses so the
        // offline decisions are preserved.
        let mut mem = ControllerMemory::new();
        mem.preload(TaskId(0), CommandBlock::sample()).unwrap(); // 1us
        let mut cp = ControllerProcessor::new(GpioPort::new());
        cp.load_table(table(&[(0, 0, 0, 100)]));
        cp.table_mut().enable_all();
        let trace = cp.run(&mem);
        assert_eq!(trace.executed[0].finish, Time::from_micros(100));
        assert_eq!(trace.executed[0].active, Duration::from_micros(1));
    }

    #[test]
    fn toggling_commands_compose_on_the_device() {
        let mut mem = ControllerMemory::new();
        let blink: CommandBlock = vec![
            GpioCommand::Toggle { pin: 0 },
            GpioCommand::Delay { micros: 3 },
            GpioCommand::Toggle { pin: 0 },
        ]
        .into_iter()
        .collect();
        mem.preload(TaskId(0), blink).unwrap();
        let mut cp = ControllerProcessor::new(GpioPort::new());
        cp.load_table(table(&[(0, 0, 10, 10)]));
        cp.table_mut().enable_all();
        cp.run(&mem);
        // Toggle at 10, delay 3 (at 11..14), toggle at 14.
        let times: Vec<u64> = cp
            .device()
            .events()
            .iter()
            .map(|e| e.time.as_micros())
            .collect();
        assert_eq!(times, vec![10, 14]);
        assert!(!cp.device().pin(0));
    }
}
