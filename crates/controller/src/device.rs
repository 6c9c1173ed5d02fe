//! I/O device models attached to controller processors.
//!
//! The paper's controller is "physically connected and synchronised with
//! the I/O devices, so that the timing accuracy of a single I/O operation
//! can always be achieved". Devices here record a timestamped event trace,
//! which tests and experiments use to confirm that executed operations hit
//! their scheduled instants exactly.

use crate::command::GpioCommand;
use serde::{Deserialize, Serialize};
use tagio_core::time::Time;

/// A pin state change (or port access) observed on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PinEvent {
    /// When the command took effect on the device.
    pub time: Time,
    /// What happened.
    pub kind: PinEventKind,
}

/// The observable effect of one command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PinEventKind {
    /// A pin changed level.
    Level {
        /// The pin.
        pin: u8,
        /// New level.
        high: bool,
    },
    /// The whole port was written.
    PortWrite {
        /// Driven word.
        value: u32,
    },
    /// The port was sampled.
    PortRead {
        /// Sampled word.
        value: u32,
    },
}

/// An I/O device the EXU can drive.
pub trait IoDevice {
    /// Applies `cmd` at instant `time`; returns a response word for
    /// commands that produce one.
    fn apply(&mut self, time: Time, cmd: &GpioCommand) -> Option<u32>;

    /// Device name for traces and reports.
    fn name(&self) -> &str;
}

/// A 32-pin GPIO port with full event tracing.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GpioPort {
    state: u32,
    events: Vec<PinEvent>,
}

impl GpioPort {
    /// A port with all pins low.
    #[must_use]
    pub fn new() -> Self {
        GpioPort::default()
    }

    /// Current port word.
    #[must_use]
    pub fn state(&self) -> u32 {
        self.state
    }

    /// Level of one pin.
    ///
    /// # Panics
    /// Panics if `pin >= 32`.
    #[must_use]
    pub fn pin(&self, pin: u8) -> bool {
        assert!(pin < 32, "pin index out of range");
        self.state & (1 << pin) != 0
    }

    /// The recorded event trace, in time order.
    #[must_use]
    pub fn events(&self) -> &[PinEvent] {
        &self.events
    }
}

impl IoDevice for GpioPort {
    fn apply(&mut self, time: Time, cmd: &GpioCommand) -> Option<u32> {
        match *cmd {
            GpioCommand::SetHigh { pin } => {
                assert!(pin < 32, "pin index out of range");
                self.state |= 1 << pin;
                self.events.push(PinEvent {
                    time,
                    kind: PinEventKind::Level { pin, high: true },
                });
                None
            }
            GpioCommand::SetLow { pin } => {
                assert!(pin < 32, "pin index out of range");
                self.state &= !(1 << pin);
                self.events.push(PinEvent {
                    time,
                    kind: PinEventKind::Level { pin, high: false },
                });
                None
            }
            GpioCommand::Toggle { pin } => {
                assert!(pin < 32, "pin index out of range");
                self.state ^= 1 << pin;
                let high = self.pin(pin);
                self.events.push(PinEvent {
                    time,
                    kind: PinEventKind::Level { pin, high },
                });
                None
            }
            GpioCommand::WriteWord { value } => {
                self.state = value;
                self.events.push(PinEvent {
                    time,
                    kind: PinEventKind::PortWrite { value },
                });
                None
            }
            GpioCommand::ReadWord => {
                let value = self.state;
                self.events.push(PinEvent {
                    time,
                    kind: PinEventKind::PortRead { value },
                });
                Some(value)
            }
            GpioCommand::Delay { .. } => None,
        }
    }

    fn name(&self) -> &str {
        "gpio32"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_clear_pin() {
        let mut p = GpioPort::new();
        p.apply(Time::from_micros(5), &GpioCommand::SetHigh { pin: 3 });
        assert!(p.pin(3));
        p.apply(Time::from_micros(6), &GpioCommand::SetLow { pin: 3 });
        assert!(!p.pin(3));
        assert_eq!(p.events().len(), 2);
        assert_eq!(p.events()[0].time, Time::from_micros(5));
    }

    #[test]
    fn toggle_flips_state() {
        let mut p = GpioPort::new();
        p.apply(Time::ZERO, &GpioCommand::Toggle { pin: 0 });
        assert!(p.pin(0));
        p.apply(Time::ZERO, &GpioCommand::Toggle { pin: 0 });
        assert!(!p.pin(0));
    }

    #[test]
    fn write_word_replaces_state() {
        let mut p = GpioPort::new();
        p.apply(Time::ZERO, &GpioCommand::WriteWord { value: 0xDEAD });
        assert_eq!(p.state(), 0xDEAD);
    }

    #[test]
    fn read_returns_current_state() {
        let mut p = GpioPort::new();
        p.apply(Time::ZERO, &GpioCommand::SetHigh { pin: 1 });
        let r = p.apply(Time::from_micros(1), &GpioCommand::ReadWord);
        assert_eq!(r, Some(2));
    }

    #[test]
    fn delay_has_no_observable_effect() {
        let mut p = GpioPort::new();
        let r = p.apply(Time::ZERO, &GpioCommand::Delay { micros: 100 });
        assert_eq!(r, None);
        assert!(p.events().is_empty());
    }

    #[test]
    #[should_panic(expected = "pin index")]
    fn out_of_range_pin_panics() {
        let mut p = GpioPort::new();
        p.apply(Time::ZERO, &GpioCommand::SetHigh { pin: 32 });
    }
}
