//! The I/O command ISA of the controller.
//!
//! The paper groups "continuous I/O commands" into one timed I/O task
//! (Phase 1): a [`CommandBlock`] is that group. The controller memory
//! stores blocks; the synchroniser translates a due task into its commands
//! and hands them to the EXU (Phase 3).

use serde::{Deserialize, Serialize};
use tagio_core::time::Duration;

/// One primitive I/O command.
///
/// Each pin-level command takes [`GpioCommand::BASE_COST`] of device time;
/// an explicit [`GpioCommand::Delay`] stretches the block (e.g. to shape a
/// pulse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GpioCommand {
    /// Drive a pin high.
    SetHigh {
        /// Pin index (0–31).
        pin: u8,
    },
    /// Drive a pin low.
    SetLow {
        /// Pin index (0–31).
        pin: u8,
    },
    /// Invert a pin.
    Toggle {
        /// Pin index (0–31).
        pin: u8,
    },
    /// Write a full 32-bit word to the port.
    WriteWord {
        /// The word driven onto the port.
        value: u32,
    },
    /// Sample the 32-bit port state (produces a response).
    ReadWord,
    /// Hold for a fixed time before the next command.
    Delay {
        /// Hold time in microseconds.
        micros: u64,
    },
}

impl GpioCommand {
    /// Device time consumed by every non-delay command.
    pub const BASE_COST: Duration = Duration::from_micros(1);

    /// Device time consumed by this command.
    #[must_use]
    pub fn cost(&self) -> Duration {
        match self {
            GpioCommand::Delay { micros } => Duration::from_micros(*micros),
            _ => Self::BASE_COST,
        }
    }

    /// Encoded size in controller memory (fixed 4-byte words, as in simple
    /// command-store designs).
    #[must_use]
    pub fn encoded_bytes(&self) -> usize {
        4
    }
}

/// A timed I/O task's command group.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommandBlock {
    commands: Vec<GpioCommand>,
}

impl CommandBlock {
    /// An empty block.
    #[must_use]
    pub fn new() -> Self {
        CommandBlock {
            commands: Vec::new(),
        }
    }

    /// Appends a command (builder style).
    #[must_use]
    pub fn with(mut self, cmd: GpioCommand) -> Self {
        self.commands.push(cmd);
        self
    }

    /// Appends a command.
    pub fn push(&mut self, cmd: GpioCommand) {
        self.commands.push(cmd);
    }

    /// The commands in execution order.
    #[must_use]
    pub fn commands(&self) -> &[GpioCommand] {
        &self.commands
    }

    /// Number of commands.
    #[must_use]
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// `true` if the block holds no commands.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// Total device time of the block (must not exceed the task's WCET).
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.commands.iter().map(GpioCommand::cost).sum()
    }

    /// Encoded size in controller memory.
    #[must_use]
    pub fn encoded_bytes(&self) -> usize {
        self.commands.iter().map(GpioCommand::encoded_bytes).sum()
    }

    /// A convenience pulse block: drive `pin` high, hold, drive low.
    #[must_use]
    pub fn pulse(pin: u8, hold_micros: u64) -> Self {
        CommandBlock::new()
            .with(GpioCommand::SetHigh { pin })
            .with(GpioCommand::Delay {
                micros: hold_micros,
            })
            .with(GpioCommand::SetLow { pin })
    }

    /// A convenience sample block: read the port once.
    #[must_use]
    pub fn sample() -> Self {
        CommandBlock::new().with(GpioCommand::ReadWord)
    }
}

impl FromIterator<GpioCommand> for CommandBlock {
    fn from_iter<I: IntoIterator<Item = GpioCommand>>(iter: I) -> Self {
        CommandBlock {
            commands: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_costs() {
        assert_eq!(
            GpioCommand::SetHigh { pin: 0 }.cost(),
            Duration::from_micros(1)
        );
        assert_eq!(
            GpioCommand::Delay { micros: 40 }.cost(),
            Duration::from_micros(40)
        );
    }

    #[test]
    fn block_duration_sums_commands() {
        let b = CommandBlock::pulse(3, 48);
        assert_eq!(b.len(), 3);
        assert_eq!(b.duration(), Duration::from_micros(50));
    }

    #[test]
    fn encoded_bytes_are_word_aligned() {
        let b = CommandBlock::pulse(0, 10);
        assert_eq!(b.encoded_bytes(), 12);
    }

    #[test]
    fn sample_block_is_one_read() {
        let b = CommandBlock::sample();
        assert_eq!(b.commands(), &[GpioCommand::ReadWord]);
        assert_eq!(b.duration(), Duration::from_micros(1));
    }

    #[test]
    fn empty_block_has_zero_duration() {
        assert!(CommandBlock::new().is_empty());
        assert_eq!(CommandBlock::new().duration(), Duration::ZERO);
    }

    #[test]
    fn collect_builds_block() {
        let b: CommandBlock = vec![
            GpioCommand::Toggle { pin: 1 },
            GpioCommand::Toggle { pin: 1 },
        ]
        .into_iter()
        .collect();
        assert_eq!(b.len(), 2);
        assert_eq!(b.duration(), Duration::from_micros(2));
    }
}
