//! Independent event-trace verification.
//!
//! A trace drives replay, so its own well-formedness is an artifact
//! invariant: it must parse, its timestamps must never go backwards,
//! and no task may arrive twice without departing in between (the
//! fleet would reject the duplicate, turning a generator bug into a
//! silently skewed workload).

use crate::report::{AuditReport, ViolationClass};
use tagio_core::event::{SystemEvent, TimedEvent};
use tagio_core::task::TaskId;
use tagio_online::codec::parse_trace;

/// Verifies trace text. Returns the parsed events when parsing
/// succeeded.
#[must_use]
pub fn verify_trace_text(text: &str) -> (Option<Vec<TimedEvent>>, AuditReport) {
    let mut report = AuditReport::new();
    let events = match parse_trace(text) {
        Ok(events) => events,
        Err(e) => {
            report.push(
                ViolationClass::TraceMalformed,
                format!("line {}", e.line),
                e.message,
            );
            return (None, report);
        }
    };
    report.merge(verify_trace(&events));
    (Some(events), report)
}

/// Verifies parsed trace events: monotone timestamps and no duplicate
/// arrivals of a still-live task.
#[must_use]
pub fn verify_trace(events: &[TimedEvent]) -> AuditReport {
    let mut report = AuditReport::new();
    for (i, pair) in events.windows(2).enumerate() {
        if pair[1].at < pair[0].at {
            report.push(
                ViolationClass::TimestampOrder,
                format!("event {}", i + 2),
                format!(
                    "at {}us, after an event at {}us",
                    pair[1].at.as_micros(),
                    pair[0].at.as_micros()
                ),
            );
        }
    }
    let mut alive: Vec<TaskId> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match &e.event {
            SystemEvent::Arrival(task) => {
                if alive.contains(&task.id()) {
                    report.push(
                        ViolationClass::DuplicateArrival,
                        format!("event {} {}", i + 1, task.id()),
                        "arrives again without departing first",
                    );
                } else {
                    alive.push(task.id());
                }
            }
            SystemEvent::Departure(id) => {
                alive.retain(|t| t != id);
            }
            _ => {}
        }
    }
    report
}
