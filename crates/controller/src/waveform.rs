//! ASCII waveform rendering of GPIO traces.
//!
//! Logic-analyser-style views of [`GpioPort`](crate::device::GpioPort)
//! event traces, for examples, debugging, and eyeballing that pulses land
//! at their scheduled instants. One character cell represents a fixed time
//! quantum; pins render as `_` (low), `#` (high).
//!
//! ```
//! use tagio_controller::command::GpioCommand;
//! use tagio_controller::device::{GpioPort, IoDevice};
//! use tagio_controller::waveform::Waveform;
//! use tagio_core::time::{Duration, Time};
//!
//! let mut port = GpioPort::new();
//! port.apply(Time::from_micros(2), &GpioCommand::SetHigh { pin: 0 });
//! port.apply(Time::from_micros(6), &GpioCommand::SetLow { pin: 0 });
//! let wave = Waveform::from_port_events(port.events(), Duration::from_micros(1))
//!     .render(Time::ZERO, Time::from_micros(8));
//! assert!(wave.contains("pin 0"));
//! ```

use crate::device::{PinEvent, PinEventKind};
use core::fmt::Write as _;
use std::collections::BTreeMap;
use tagio_core::time::{Duration, Time};

/// A renderable set of pin waveforms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waveform {
    /// Level-change events per pin, time-ordered.
    transitions: BTreeMap<u8, Vec<(Time, bool)>>,
    /// Time represented by one output character.
    quantum: Duration,
}

impl Waveform {
    /// Builds waveforms from a GPIO event trace; only level events
    /// contribute (port-wide reads/writes are ignored).
    ///
    /// # Panics
    /// Panics if `quantum` is zero.
    #[must_use]
    pub fn from_port_events(events: &[PinEvent], quantum: Duration) -> Self {
        assert!(!quantum.is_zero(), "quantum must be positive");
        let mut transitions: BTreeMap<u8, Vec<(Time, bool)>> = BTreeMap::new();
        for e in events {
            if let PinEventKind::Level { pin, high } = e.kind {
                transitions.entry(pin).or_default().push((e.time, high));
            }
        }
        for list in transitions.values_mut() {
            list.sort_by_key(|(t, _)| *t);
        }
        Waveform {
            transitions,
            quantum,
        }
    }

    /// The pins with any activity, ascending.
    #[must_use]
    pub fn pins(&self) -> Vec<u8> {
        self.transitions.keys().copied().collect()
    }

    /// The level of `pin` at instant `t` (low before its first event).
    #[must_use]
    pub fn level_at(&self, pin: u8, t: Time) -> bool {
        let Some(events) = self.transitions.get(&pin) else {
            return false;
        };
        let idx = events.partition_point(|(et, _)| *et <= t);
        if idx == 0 {
            false
        } else {
            events[idx - 1].1
        }
    }

    /// Renders all active pins over `[from, to)`, one row per pin.
    ///
    /// # Panics
    /// Panics if the window is empty.
    #[must_use]
    pub fn render(&self, from: Time, to: Time) -> String {
        assert!(to > from, "empty render window");
        let cells = ((to - from).as_micros()).div_ceil(self.quantum.as_micros()) as usize;
        let mut out = String::new();
        for pin in self.pins() {
            let _ = write!(out, "pin {pin:<3} ");
            for c in 0..cells {
                let t = from + self.quantum * c as u64;
                out.push(if self.level_at(pin, t) { '#' } else { '_' });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::GpioCommand;
    use crate::device::{GpioPort, IoDevice};

    fn pulse_port() -> GpioPort {
        let mut p = GpioPort::new();
        p.apply(Time::from_micros(2), &GpioCommand::SetHigh { pin: 0 });
        p.apply(Time::from_micros(6), &GpioCommand::SetLow { pin: 0 });
        p.apply(Time::from_micros(4), &GpioCommand::SetHigh { pin: 3 });
        p
    }

    #[test]
    fn level_at_follows_transitions() {
        let w = Waveform::from_port_events(pulse_port().events(), Duration::from_micros(1));
        assert!(!w.level_at(0, Time::from_micros(1)));
        assert!(w.level_at(0, Time::from_micros(2)));
        assert!(w.level_at(0, Time::from_micros(5)));
        assert!(!w.level_at(0, Time::from_micros(6)));
        assert!(w.level_at(3, Time::from_micros(9)));
    }

    #[test]
    fn render_shows_pulse_shape() {
        let w = Waveform::from_port_events(pulse_port().events(), Duration::from_micros(1));
        let s = w.render(Time::ZERO, Time::from_micros(8));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].ends_with("__####__"), "{}", lines[0]);
        assert!(lines[1].ends_with("____####"), "{}", lines[1]);
    }

    #[test]
    fn unknown_pin_is_low() {
        let w = Waveform::from_port_events(&[], Duration::from_micros(1));
        assert!(!w.level_at(5, Time::from_micros(100)));
        assert!(w.pins().is_empty());
    }

    #[test]
    fn quantum_scales_render_width() {
        let w = Waveform::from_port_events(pulse_port().events(), Duration::from_micros(2));
        let s = w.render(Time::ZERO, Time::from_micros(8));
        assert!(s.lines().all(|l| l.len() == "pin 0   ".len() + 4));
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_panics() {
        let _ = Waveform::from_port_events(&[], Duration::ZERO);
    }
}
