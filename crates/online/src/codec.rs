//! The line dialect of the scenario trace, the write-ahead log and the
//! fleet snapshot: blank lines and `#` comments are skipped, every other
//! line is one record of words ending after its last field, and a
//! defect is a [`LineError`] naming its line. Here live the event bodies
//! all three carry, the trace format ([`format_trace`] /
//! [`parse_trace`]), the word grammar, the one line reader, and the
//! counter tables of [`OnlineStats`](crate::OnlineStats),
//! [`FleetStats`](crate::FleetStats) and
//! [`TenantCounters`](crate::TenantCounters): the one list of persisted
//! counters, which `merge`, the snapshot lines and
//! [`stats_digest`](crate::persist::stats_digest) all iterate.

use core::fmt::Write as _;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use tagio_core::event::{Mode, ModeId, SystemEvent, TimedEvent};
use tagio_core::task::{DeviceId, IoTask, Priority, TaskId, TenantId};
use tagio_core::time::{Duration, Time};

/// The text a [`LineError`] is in; it picks the message prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dialect {
    /// A scenario trace ([`parse_trace`]).
    Trace,
    /// A write-ahead log ([`parse_wal`](crate::wal::parse_wal)), or a
    /// failed append.
    Wal,
    /// A [`FleetSnapshot`](crate::persist::FleetSnapshot) text.
    Snapshot,
}

impl Dialect {
    /// An error in this text at `line`.
    pub(crate) fn error(self, line: usize, message: impl Into<String>) -> LineError {
        LineError {
            dialect: self,
            line,
            message: message.into(),
        }
    }
}

/// A malformed trace, WAL or snapshot text, or a failed WAL append.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    dialect: Dialect,
    /// 1-based line of the defect; `0` when no one line holds it (an
    /// empty or truncated snapshot, a missing verb, WAL I/O).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for LineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let text = match self.dialect {
            Dialect::Trace => "trace",
            Dialect::Wal => "WAL",
            Dialect::Snapshot => "snapshot",
        };
        match self.line {
            0 => write!(f, "{text} error: {}", self.message),
            n => write!(f, "{text} line {n}: {}", self.message),
        }
    }
}

impl std::error::Error for LineError {}

/// The records of a text: each line that is neither blank nor a `#`
/// comment, trimmed, with its 1-based number.
pub(crate) fn records(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let text = raw.trim();
        (!text.is_empty() && !text.starts_with('#')).then_some((i + 1, text))
    })
}

/// Ends a line: a word left after its last field is an error.
pub(crate) fn finish<'a>(words: &mut impl Iterator<Item = &'a str>) -> Result<(), String> {
    words
        .next()
        .map_or(Ok(()), |_| Err("trailing tokens".into()))
}

/// Parses a `<tag><number>` word (`t3`, `d0`, `tn2`, ...).
pub(crate) fn tagged(word: Option<&str>, tag: &str) -> Result<u32, String> {
    word.and_then(|w| w.strip_prefix(tag))
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| format!("expected {tag}<number>"))
}

/// The value of a `<key>=<value>` word.
pub(crate) fn kv<'a>(word: Option<&'a str>, key: &str) -> Result<&'a str, String> {
    word.and_then(|w| w.strip_prefix(key))
        .and_then(|w| w.strip_prefix('='))
        .ok_or_else(|| format!("expected {key}=<value>"))
}

/// Inserts a keyed value; a key already seen in its scope (a snapshot's
/// fleet or partition section, a WAL `commit` line) is an error, not a
/// silent overwrite.
pub(crate) fn insert_once<K: Ord + core::fmt::Display, V>(
    map: &mut BTreeMap<K, V>,
    verb: &str,
    key: K,
    value: V,
) -> Result<(), String> {
    match map.entry(key) {
        Entry::Occupied(seen) => Err(format!("repeated `{verb}` key `{}`", seen.key())),
        Entry::Vacant(slot) => {
            slot.insert(value);
            Ok(())
        }
    }
}

/// Parses a count.
pub(crate) fn num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("bad number `{s}`"))
}

/// One row of a stats record's counter table: the snapshot key (the
/// field's name) and the field.
pub(crate) struct Counter<T> {
    pub(crate) key: &'static str,
    pub(crate) get: fn(&T) -> usize,
    pub(crate) get_mut: fn(&mut T) -> &mut usize,
}

/// A counter table listing the named fields in order.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        [$($crate::codec::Counter {
            key: stringify!($field),
            get: |s| s.$field,
            get_mut: |s| &mut s.$field,
        }),*]
    };
}
pub(crate) use counters;

/// Adds every counter of `other` into `record`.
pub(crate) fn add_counters<T>(table: &[Counter<T>], record: &mut T, other: &T) {
    for c in table {
        *(c.get_mut)(record) += (c.get)(other);
    }
}

/// Appends ` <key>=<value>` for every row of `table`.
pub(crate) fn write_counters<T>(out: &mut String, table: &[Counter<T>], record: &T) {
    for c in table {
        let _ = write!(out, " {}={}", c.key, (c.get)(record));
    }
}

/// Reads one `<key>=<value>` word per row of `table`, in order.
pub(crate) fn read_counters<'a, T>(
    words: &mut impl Iterator<Item = &'a str>,
    table: &[Counter<T>],
    record: &mut T,
) -> Result<(), String> {
    for c in table {
        *(c.get_mut)(record) = num(kv(words.next(), c.key)?)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Events and the trace
// ---------------------------------------------------------------------

/// Renders events in the line-based trace format (see `EXPERIMENTS.md`):
///
/// ```text
/// @1000 arrive t3 d0 c=500 t=10000 dl=10000 o=0 delta=4000 theta=2500 p=144 vmax=145 vmin=1
/// @2000 depart t3
/// @3000 mode m1 t0,t2,t4
/// @4000 spike d0 150
/// ```
///
/// Instants are microseconds since the epoch; `c`/`t`/`dl`/`o`/`delta`/
/// `theta` are the task's WCET, period, deadline, release offset, ideal
/// offset and margin in microseconds.
#[must_use]
pub fn format_trace(events: &[TimedEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        let _ = write!(out, "@{} ", ev.at.as_micros());
        write_event_body(&mut out, &ev.event);
        out.push('\n');
    }
    out
}

/// Parses the trace format emitted by [`format_trace`]. Blank lines and
/// `#` comments are skipped.
///
/// # Errors
/// Returns a [`LineError`] naming the first malformed line.
pub fn parse_trace(s: &str) -> Result<Vec<TimedEvent>, LineError> {
    records(s)
        .map(|(line, text)| trace_line(text).map_err(|m| Dialect::Trace.error(line, m)))
        .collect()
}

/// One `@<micros> <event body>` trace line.
fn trace_line(text: &str) -> Result<TimedEvent, String> {
    let mut words = text.split_whitespace();
    let at = words
        .next()
        .and_then(|w| w.strip_prefix('@'))
        .and_then(|w| w.parse::<u64>().ok())
        .map(Time::from_micros)
        .ok_or_else(|| "expected @<micros> timestamp".to_owned())?;
    let verb = words.next().ok_or_else(|| "missing verb".to_owned())?;
    let event = parse_event_body(verb, &mut words)?;
    finish(&mut words)?;
    Ok(TimedEvent { at, event })
}

/// Appends one event in the trace dialect, without the `@<micros>`
/// timestamp: the body trace lines, WAL `ev` lines and snapshot
/// `active`/`pool` lines share.
pub(crate) fn write_event_body(out: &mut String, event: &SystemEvent) {
    // Writing into a `String` cannot fail.
    match event {
        SystemEvent::Arrival(t) => write_arrival(out, t),
        SystemEvent::Departure(id) => {
            let _ = write!(out, "depart t{}", id.0);
        }
        SystemEvent::ModeChange(mode) => {
            let _ = write!(out, "mode m{} ", mode.id.0);
            if mode.active.is_empty() {
                out.push('-');
            }
            let mut sep = "";
            for t in &mode.active {
                let _ = write!(out, "{sep}t{}", t.0);
                sep = ",";
            }
        }
        SystemEvent::UtilisationSpike { device, percent } => {
            let _ = write!(out, "spike d{} {percent}", device.0);
        }
        SystemEvent::PartitionDeath { device } => {
            let _ = write!(out, "death d{}", device.0);
        }
    }
}

/// Appends the `arrive …` body of `t`'s arrival.
pub(crate) fn write_arrival(out: &mut String, t: &IoTask) {
    let _ = write!(
        out,
        "arrive t{} d{} c={} t={} dl={} o={} delta={} theta={} p={} vmax={} vmin={}",
        t.id().0,
        t.device().0,
        t.wcet().as_micros(),
        t.period().as_micros(),
        t.deadline().as_micros(),
        t.release_offset().as_micros(),
        t.ideal_offset().as_micros(),
        t.margin().as_micros(),
        t.priority().0,
        t.vmax(),
        t.vmin(),
    );
    // Trace-format v2: the tenant tag rides as a trailing
    // optional key. Anonymous arrivals omit it, so untenanted
    // traces (and their WAL digests) stay byte-identical to v1.
    if !t.tenant().is_anonymous() {
        let _ = write!(out, " tn={}", t.tenant().0);
    }
}

/// Parses one event body (verb already split off): the inverse of
/// [`write_event_body`]. Leaves any trailing tokens in `words` for the
/// caller to reject.
pub(crate) fn parse_event_body<'a>(
    verb: &str,
    words: &mut impl Iterator<Item = &'a str>,
) -> Result<SystemEvent, String> {
    match verb {
        "arrive" => parse_arrival(words).map(SystemEvent::Arrival),
        "depart" => {
            let id = tagged(words.next(), "t")?;
            Ok(SystemEvent::Departure(TaskId(id)))
        }
        "mode" => {
            let id = tagged(words.next(), "m")?;
            let list = words.next().ok_or_else(|| "missing task list".to_owned())?;
            let active = if list == "-" {
                Vec::new()
            } else {
                list.split(',')
                    .map(|w| tagged(Some(w), "t").map(TaskId))
                    .collect::<Result<Vec<_>, _>>()?
            };
            Ok(SystemEvent::ModeChange(Mode {
                id: ModeId(id),
                active,
            }))
        }
        "spike" => {
            let device = tagged(words.next(), "d")?;
            let percent: u32 = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| "expected <percent>".to_owned())?;
            Ok(SystemEvent::UtilisationSpike {
                device: DeviceId(device),
                percent,
            })
        }
        "death" => {
            let device = tagged(words.next(), "d")?;
            Ok(SystemEvent::PartitionDeath {
                device: DeviceId(device),
            })
        }
        other => Err(format!("unknown verb `{other}`")),
    }
}

/// The `<key>=` words of an `arrive` body, in written order: WCET,
/// period, deadline, release offset, ideal offset and margin (µs), the
/// priority, the quality extrema, and the optional tenant tag
/// (trace-format v2).
const ARRIVAL_KEYS: [&str; 10] = [
    "c", "t", "dl", "o", "delta", "theta", "p", "vmax", "vmin", "tn",
];

/// Parses an `arrive` body (verb already split off) into its task,
/// consuming every remaining word.
pub(crate) fn parse_arrival<'a>(
    words: &mut impl Iterator<Item = &'a str>,
) -> Result<IoTask, String> {
    let id = tagged(words.next(), "t")?;
    let device = tagged(words.next(), "d")?;
    let mut micros = [None; 6];
    let mut prio = None;
    let mut quality = [None; 2];
    let mut tenant = TenantId::ANONYMOUS;
    let mut seen = [false; ARRIVAL_KEYS.len()];
    for word in words {
        let (key, value) = word
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got `{word}`"))?;
        let slot = ARRIVAL_KEYS
            .iter()
            .position(|k| *k == key)
            .ok_or_else(|| format!("unknown key `{key}`"))?;
        if std::mem::replace(&mut seen[slot], true) {
            return Err(format!("repeated key `{key}`"));
        }
        let bad = |what: &str| format!("bad {what} in `{word}`");
        match slot {
            0..=5 => micros[slot] = Some(value.parse::<u64>().map_err(|_| bad("integer"))?),
            6 => prio = Some(value.parse::<u32>().map_err(|_| bad("priority"))?),
            7 | 8 => quality[slot - 7] = Some(value.parse::<f64>().map_err(|_| bad("quality"))?),
            _ => tenant = TenantId(value.parse::<u32>().map_err(|_| bad("tenant"))?),
        }
    }
    let missing = |slot: usize| format!("arrival missing `{}`", ARRIVAL_KEYS[slot]);
    let mut us = [Duration::ZERO; 6];
    for (slot, value) in micros.into_iter().enumerate() {
        us[slot] = Duration::from_micros(value.ok_or_else(|| missing(slot))?);
    }
    let [wcet, period, deadline, offset, delta, theta] = us;
    let prio = prio.ok_or_else(|| missing(6))?;
    let [vmax, vmin] = quality;
    IoTask::builder(TaskId(id), DeviceId(device))
        .wcet(wcet)
        .period(period)
        .deadline(deadline)
        .release_offset(offset)
        .ideal_offset(delta)
        .margin(theta)
        .priority(Priority(prio))
        .quality(
            vmax.ok_or_else(|| missing(7))?,
            vmin.ok_or_else(|| missing(8))?,
        )
        .tenant(tenant)
        .build()
        .map_err(|e| format!("invalid arrival task: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed arrival line.
    const ARRIVAL: &str =
        "@12 arrive t0 d0 c=500 t=10000 dl=10000 o=0 delta=5000 theta=2500 p=1 vmax=2 vmin=1";

    #[test]
    fn parse_rejects_malformed_lines() {
        for (bad, what) in [
            ("arrive t0 d0", "missing timestamp"),
            ("@12 warp t0", "unknown verb"),
            ("@12 depart x0", "bad tag"),
            ("@12 spike d0", "missing percent"),
            ("@12 mode m0", "missing list"),
            ("@12 arrive t0 d0 c=1", "missing fields"),
            ("@12 depart t0 extra", "trailing tokens"),
            ("@12 death x0", "bad device tag"),
            ("@12 death d0 150", "trailing tokens"),
            (&format!("{ARRIVAL} c=2000"), "repeated key"),
            (&format!("{ARRIVAL} tn=2 tn=3"), "repeated tenant"),
        ] {
            assert!(parse_trace(bad).is_err(), "accepted {what}: {bad}");
        }
        // The repeated key is named, on its line.
        assert!(parse_trace(ARRIVAL).is_ok());
        let err = parse_trace(&format!("{ARRIVAL}\n{ARRIVAL} c=2000")).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("repeated key `c`"), "{err}");
        // Comments and blanks are fine.
        assert_eq!(parse_trace("# nothing\n\n").unwrap(), Vec::new());
    }

    #[test]
    fn death_lines_round_trip() {
        let events = vec![TimedEvent {
            at: Time::from_millis(4),
            event: SystemEvent::PartitionDeath {
                device: DeviceId(2),
            },
        }];
        let text = format_trace(&events);
        assert_eq!(text, "@4000 death d2\n");
        assert_eq!(parse_trace(&text).unwrap(), events);
    }

    #[test]
    fn line_errors_keep_each_dialects_prefix() {
        let cases = [
            (Dialect::Trace, 3, "trace line 3: x"),
            (Dialect::Wal, 0, "WAL error: x"),
            (Dialect::Wal, 2, "WAL line 2: x"),
            (Dialect::Snapshot, 0, "snapshot error: x"),
            (Dialect::Snapshot, 5, "snapshot line 5: x"),
        ];
        for (dialect, line, shown) in cases {
            assert_eq!(dialect.error(line, "x").to_string(), shown);
        }
    }
}
