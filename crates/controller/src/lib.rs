//! # tagio-controller
//!
//! A discrete-event simulator of the paper's I/O controller hardware
//! (Section IV): the **controller memory** holding pre-loaded command
//! blocks (Phase 1), per-device **controller processors** whose
//! **scheduling tables** hold the offline decisions (Phase 2), and the
//! **execution module** — global timer, synchroniser, fault recovery and
//! EXU — that fires each enabled job at its exact start instant (Phase 3),
//! returning read data through the **response channel**.
//!
//! The paper synthesises this design for a Xilinx VC709; we have no FPGA,
//! so the architecture is simulated instead (see DESIGN.md §4). The
//! property the evaluation relies on — *the controller realises the offline
//! schedule with zero timing deviation, faults are contained, and
//! per-device partitioning isolates traffic* — is functional/timing
//! behaviour the simulation captures and `tests/` verify; the FPGA resource
//! comparison (Table I) lives in `tagio-hwcost`.
//!
//! ```
//! use tagio_controller::command::CommandBlock;
//! use tagio_controller::sim::{trace_matches_schedule, IoController};
//! use tagio_core::schedule::{entry_for, Schedule};
//! use tagio_core::job::JobSet;
//! use tagio_core::task::{DeviceId, IoTask, TaskId, TaskSet};
//! use tagio_core::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut tasks = TaskSet::new();
//! tasks.push(
//!     IoTask::builder(TaskId(0), DeviceId(0))
//!         .wcet(Duration::from_micros(100))
//!         .period(Duration::from_millis(4))
//!         .ideal_offset(Duration::from_millis(2))
//!         .margin(Duration::from_millis(1))
//!         .build()?,
//! )?;
//! let jobs = JobSet::expand(&tasks);
//! let schedule: Schedule = jobs.iter().map(|j| entry_for(j, j.ideal_start())).collect();
//!
//! let mut controller = IoController::for_taskset(&tasks)?;
//! controller.load_schedule(DeviceId(0), &schedule);
//! controller.enable_all();
//! let traces = controller.run();
//! assert!(trace_matches_schedule(&traces[&DeviceId(0)], &schedule));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod command;
pub mod device;
pub mod execution;
pub mod memory;
pub mod sim;
pub mod table;
pub mod waveform;

pub use command::{CommandBlock, GpioCommand};
pub use device::{GpioPort, IoDevice, PinEvent, PinEventKind};
pub use execution::{ControllerProcessor, ExecutedJob, ExecutionTrace, Fault, Response};
pub use memory::{ControllerMemory, PreloadError};
pub use sim::{
    execute_partitioned, max_deviation_micros, partition_jobs, trace_matches_schedule, IoController,
};
pub use table::{SchedulingTable, TableEntry};
pub use waveform::Waveform;
