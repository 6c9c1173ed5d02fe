//! Durable write-ahead log for the fleet epoch pipeline.
//!
//! Every [`FleetScheduler::apply_batch`](crate::FleetScheduler::apply_batch)
//! epoch can be journalled as an [`EpochRecord`]: the epoch's event batch
//! (the replay payload) and a **commit line** carrying the epoch id, the
//! fleet seed and per-partition digests of the post-commit schedules and
//! stats. Replay re-derives where every offer went, so the log records
//! no routing metadata. `crate::persist` replays the suffix of a log on
//! top of a [`FleetSnapshot`](crate::persist::FleetSnapshot) and checks every
//! commit digest, so divergence is detected at the epoch that caused it
//! rather than at the end of recovery.
//!
//! The on-disk dialect is line-based, read and written through
//! [`crate::codec`] like the scenario trace whose event bodies it
//! shares (`EXPERIMENTS.md` documents both formats):
//!
//! ```text
//! epoch 3
//! ev arrive t5 d0 c=120 t=30000 dl=30000 o=0 delta=7500 theta=7500 p=8 vmax=9 vmin=0
//! ev depart t2
//! commit 3 seed=2020 events=2 d0=00000000deadbeef:00000000cafebabe d1=...
//! ```
//!
//! A record is **committed** only once its `commit` line is fully
//! written: a crash mid-append leaves a torn tail that
//! [`parse_wal`]/[`WalSource::load`] truncate (and flag) instead of
//! failing, which is exactly the prefix a recovering fleet may trust.
//! Inside the committed prefix every line is checked: an unknown verb, a
//! malformed field, a word after a line's last field or a `commit` line
//! naming one device twice is an error.

use crate::codec::{
    finish, insert_once, kv, parse_event_body, records, tagged, write_event_body, Dialect,
    LineError,
};
use core::fmt::Write as _;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use tagio_core::event::SystemEvent;
use tagio_core::task::DeviceId;

/// One committed epoch: what was applied, and what it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// 1-based epoch id — equals
    /// [`FleetStats::epochs`](crate::FleetStats::epochs) right after the
    /// batch committed.
    pub epoch: usize,
    /// The fleet's RNG seed, re-checked on recovery: replaying a log
    /// against a differently-seeded fleet can only diverge.
    pub seed: u64,
    /// The epoch's input events, in order — the replay payload.
    pub events: Vec<SystemEvent>,
    /// Per-partition `(schedule digest, stats digest)` of the
    /// post-commit state, keyed by device — the crash-consistency
    /// check. Computed by [`crate::persist::schedule_digest`] and
    /// [`crate::persist::stats_digest`].
    pub digests: BTreeMap<DeviceId, (u64, u64)>,
}

/// Everything a log held: the committed records plus whether an
/// uncommitted (torn) tail was discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct WalContents {
    /// Committed epochs, in file order.
    pub epochs: Vec<EpochRecord>,
    /// `true` when the log ended mid-record (a crash during append);
    /// the torn tail was dropped, as recovery must.
    pub torn_tail: bool,
}

/// Where epoch records are appended (memory for tests, a file for
/// durability).
pub trait WalSink {
    /// Appends one committed epoch. The record must be fully durable
    /// when this returns — a torn write may only ever affect the
    /// *latest* record.
    ///
    /// # Errors
    /// Returns a [`LineError`] when the record cannot be written.
    fn append(&mut self, record: &EpochRecord) -> Result<(), LineError>;
}

/// Where epoch records are loaded from at recovery.
pub trait WalSource {
    /// Reads every committed record, truncating (and flagging) a torn
    /// tail.
    ///
    /// # Errors
    /// Returns a [`LineError`] when the log is unreadable or a
    /// *committed* record is malformed.
    fn load(&self) -> Result<WalContents, LineError>;
}

/// Renders one record in the WAL dialect (always ends with the commit
/// line and a trailing newline).
#[must_use]
pub fn format_record(record: &EpochRecord) -> String {
    // Writing into a `String` cannot fail.
    let mut out = String::new();
    let _ = writeln!(out, "epoch {}", record.epoch);
    for event in &record.events {
        out.push_str("ev ");
        write_event_body(&mut out, event);
        out.push('\n');
    }
    let _ = write!(
        out,
        "commit {} seed={} events={}",
        record.epoch,
        record.seed,
        record.events.len()
    );
    for (device, (schedule, stats)) in &record.digests {
        let _ = write!(out, " d{}={schedule:016x}:{stats:016x}", device.0);
    }
    out.push('\n');
    out
}

/// Parses a whole log. A malformed *committed* record is an error; an
/// incomplete record at the end of the text (no `commit` line yet — a
/// crash mid-append) is silently truncated and flagged as a torn tail.
///
/// # Errors
/// Returns a [`LineError`] naming the first malformed committed line.
pub fn parse_wal(s: &str) -> Result<WalContents, LineError> {
    // Every line the writer emits ends in a newline, so text after the
    // last `\n` is a line the crash cut mid-write: part of the torn
    // tail, not a committed line to be validated.
    let (body, partial) = match s.rfind('\n') {
        Some(ix) => (&s[..=ix], !s[ix + 1..].trim().is_empty()),
        None => ("", !s.trim().is_empty()),
    };
    let mut epochs = Vec::new();
    // The record being assembled: (epoch id, events).
    let mut open: Option<(usize, Vec<SystemEvent>)> = None;
    for (line, text) in records(body) {
        wal_line(text, &mut open, &mut epochs).map_err(|m| Dialect::Wal.error(line, m))?;
    }
    Ok(WalContents {
        epochs,
        torn_tail: open.is_some() || partial,
    })
}

/// Folds one WAL line into the open record, or commits it to `epochs`.
fn wal_line(
    text: &str,
    open: &mut Option<(usize, Vec<SystemEvent>)>,
    epochs: &mut Vec<EpochRecord>,
) -> Result<(), String> {
    let mut words = text.split_whitespace();
    match words.next().unwrap_or_default() {
        "epoch" => {
            // A fresh header while a record is open is a torn tail
            // *inside* the log — only the final record may be torn.
            if open.is_some() {
                return Err("epoch header inside an uncommitted record".into());
            }
            let id: usize = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| "expected `epoch <id>`".to_owned())?;
            *open = Some((id, Vec::new()));
        }
        "ev" => {
            let (_, events) = open
                .as_mut()
                .ok_or_else(|| "`ev` outside an epoch record".to_owned())?;
            let verb = words
                .next()
                .ok_or_else(|| "missing event verb".to_owned())?;
            events.push(parse_event_body(verb, &mut words)?);
        }
        "commit" => {
            let (epoch, events) = open
                .take()
                .ok_or_else(|| "`commit` outside an epoch record".to_owned())?;
            let id: usize = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| "expected `commit <id>`".to_owned())?;
            if id != epoch {
                return Err(format!(
                    "commit id {id} does not match epoch header {epoch}"
                ));
            }
            let seed: u64 = kv(words.next(), "seed")?
                .parse()
                .map_err(|_| "bad seed".to_owned())?;
            let count: usize = kv(words.next(), "events")?
                .parse()
                .map_err(|_| "bad event count".to_owned())?;
            if count != events.len() {
                return Err(format!(
                    "commit says {count} events, record holds {}",
                    events.len()
                ));
            }
            let mut digests = BTreeMap::new();
            for word in words.by_ref() {
                let (dev, rest) = word
                    .split_once('=')
                    .ok_or_else(|| format!("expected d<dev>=<hex>:<hex>, got `{word}`"))?;
                let device = DeviceId(tagged(Some(dev), "d")?);
                let (sched, stats) = rest
                    .split_once(':')
                    .ok_or_else(|| "digest missing `:`".to_owned())?;
                let parse_hex =
                    |w: &str| u64::from_str_radix(w, 16).map_err(|_| format!("bad digest `{w}`"));
                let digest = (parse_hex(sched)?, parse_hex(stats)?);
                insert_once(&mut digests, "commit", device, digest)?;
            }
            epochs.push(EpochRecord {
                epoch,
                seed,
                events,
                digests,
            });
        }
        other => return Err(format!("unknown WAL verb `{other}`")),
    }
    finish(&mut words)
}

/// An in-memory log: the reference [`WalSink`]/[`WalSource`] pair (and
/// what the crash-injection tests truncate at arbitrary byte offsets).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryWal {
    text: String,
}

impl MemoryWal {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        MemoryWal::default()
    }

    /// The raw log text appended so far.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }
}

impl WalSink for MemoryWal {
    fn append(&mut self, record: &EpochRecord) -> Result<(), LineError> {
        self.text.push_str(&format_record(record));
        Ok(())
    }
}

impl WalSource for MemoryWal {
    fn load(&self) -> Result<WalContents, LineError> {
        parse_wal(&self.text)
    }
}

/// A file-backed log: records are appended and synced before `append`
/// returns, so a crash can only ever tear the latest record — the case
/// [`parse_wal`] truncates.
#[derive(Debug, Clone)]
pub struct FileWal {
    path: PathBuf,
}

impl FileWal {
    /// A log at `path` (created on first append).
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileWal { path: path.into() }
    }

    /// The log's location.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl WalSink for FileWal {
    fn append(&mut self, record: &EpochRecord) -> Result<(), LineError> {
        let io = |e: std::io::Error| Dialect::Wal.error(0, format!("{}: {e}", self.path.display()));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(io)?;
        file.write_all(format_record(record).as_bytes())
            .map_err(io)?;
        file.sync_all().map_err(io)
    }
}

impl WalSource for FileWal {
    fn load(&self) -> Result<WalContents, LineError> {
        let text = std::fs::read_to_string(&self.path)
            .map_err(|e| Dialect::Wal.error(0, format!("{}: {e}", self.path.display())))?;
        parse_wal(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagio_core::event::{Mode, ModeId};
    use tagio_core::task::{IoTask, TaskId};
    use tagio_core::time::Duration;

    fn mk(id: u32, device: u32) -> IoTask {
        IoTask::builder(TaskId(id), DeviceId(device))
            .wcet(Duration::from_micros(120 + u64::from(id)))
            .period(Duration::from_millis(8))
            .ideal_offset(Duration::from_millis(u64::from(id % 7)))
            .margin(Duration::from_millis(1))
            .quality(f64::from(id) + 1.0, 0.5)
            .build()
            .unwrap()
    }

    fn every_kind_record(epoch: usize) -> EpochRecord {
        let mut digests = BTreeMap::new();
        digests.insert(DeviceId(0), (0xdead_beef_0102_0304, 0x0a0b_0c0d_0e0f_1011));
        digests.insert(DeviceId(3), (u64::MAX, 0));
        EpochRecord {
            epoch,
            seed: 2020,
            events: vec![
                SystemEvent::Arrival(mk(5, 0)),
                SystemEvent::Departure(TaskId(2)),
                SystemEvent::ModeChange(Mode {
                    id: ModeId(1),
                    active: vec![TaskId(0), TaskId(5)],
                }),
                SystemEvent::ModeChange(Mode {
                    id: ModeId(2),
                    active: Vec::new(),
                }),
                SystemEvent::UtilisationSpike {
                    device: DeviceId(3),
                    percent: 140,
                },
                SystemEvent::PartitionDeath {
                    device: DeviceId(0),
                },
            ],
            digests,
        }
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let mut wal = MemoryWal::new();
        wal.append(&every_kind_record(1)).unwrap();
        wal.append(&every_kind_record(2)).unwrap();
        let loaded = wal.load().unwrap();
        assert!(!loaded.torn_tail);
        assert_eq!(
            loaded.epochs,
            vec![every_kind_record(1), every_kind_record(2)]
        );
    }

    #[test]
    fn any_byte_truncation_yields_a_committed_prefix() {
        let mut wal = MemoryWal::new();
        wal.append(&every_kind_record(1)).unwrap();
        wal.append(&every_kind_record(2)).unwrap();
        let text = wal.text().to_owned();
        // A cut landing exactly between records leaves a clean log; any
        // other offset must be flagged as a torn tail.
        let boundaries = [0, format_record(&every_kind_record(1)).len(), text.len()];
        for cut in 0..=text.len() {
            let loaded = parse_wal(&text[..cut])
                .unwrap_or_else(|e| panic!("cut at byte {cut} must stay parseable, got {e}"));
            // Whatever survives is a prefix of the committed records…
            assert!(loaded.epochs.len() <= 2, "cut {cut}");
            for (i, rec) in loaded.epochs.iter().enumerate() {
                assert_eq!(*rec, every_kind_record(i + 1), "cut {cut}");
            }
            // …and anything short of a record boundary is flagged torn.
            assert_eq!(loaded.torn_tail, !boundaries.contains(&cut), "cut {cut}");
        }
    }

    #[test]
    fn corruption_inside_a_committed_record_is_an_error() {
        let mut wal = MemoryWal::new();
        wal.append(&every_kind_record(1)).unwrap();
        let bad = wal.text().replace("commit 1", "commit 9");
        let err = parse_wal(&bad).unwrap_err();
        assert!(err.message.contains("does not match"), "{err}");

        let bad = wal.text().replace("events=6", "events=5");
        let err = parse_wal(&bad).unwrap_err();
        assert!(err.message.contains("record holds"), "{err}");

        // Records carry no routing notes: `routed` is an unknown verb.
        let bad = wal.text().replace(
            "commit 1",
            "routed from=- to=d0 attempt=0 depart t2\ncommit 1",
        );
        let err = parse_wal(&bad).unwrap_err();
        assert!(err.message.contains("unknown WAL verb `routed`"), "{err}");

        // A word after the epoch header's id is an error on its line.
        let bad = wal.text().replacen("epoch 1\n", "epoch 1 7\n", 1);
        let err = parse_wal(&bad).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("trailing tokens"), "{err}");

        // A device named twice on one commit line is an error, not a
        // silent overwrite by the second digest pair.
        let commit = wal.text().lines().last().unwrap().to_owned();
        let pair = commit.split_whitespace().last().unwrap();
        assert!(pair.starts_with("d3="), "{commit}");
        let bad = wal.text().replace(&commit, &format!("{commit} d3=0:1"));
        let err = parse_wal(&bad).unwrap_err();
        assert_eq!(err.line, wal.text().lines().count());
        assert_eq!(err.message, "repeated `commit` key `d3`", "{err}");
    }

    #[test]
    fn interior_torn_records_do_not_pass_silently() {
        // Only the *final* record may be torn; an epoch header inside an
        // uncommitted record means the log itself is corrupt.
        let text = "epoch 1\nev depart t0\nepoch 2\nev depart t1\ncommit 2 seed=1 events=1\n";
        let err = parse_wal(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("uncommitted"), "{err}");
    }

    #[test]
    fn file_wal_appends_and_reloads() {
        let path = std::env::temp_dir().join(format!("tagio-wal-test-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut wal = FileWal::new(&path);
        wal.append(&every_kind_record(1)).unwrap();
        wal.append(&every_kind_record(2)).unwrap();
        let loaded = wal.load().unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded.epochs.len(), 2);
        assert!(!loaded.torn_tail);
        assert_eq!(loaded.epochs[1], every_kind_record(2));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let mut wal = MemoryWal::new();
        wal.append(&every_kind_record(1)).unwrap();
        let loaded = parse_wal(&format!("# journal\n\n{}", wal.text())).unwrap();
        assert_eq!(loaded.epochs.len(), 1);
        assert!(!loaded.torn_tail);
    }

    #[test]
    fn tenant_tags_survive_the_journal() {
        use tagio_core::task::TenantId;
        let tagged = IoTask::builder(TaskId(7), DeviceId(0))
            .wcet(Duration::from_micros(400))
            .period(Duration::from_millis(8))
            .ideal_offset(Duration::from_millis(2))
            .margin(Duration::from_millis(1))
            .tenant(TenantId(3))
            .build()
            .unwrap();
        let record = EpochRecord {
            epoch: 1,
            seed: 11,
            events: vec![SystemEvent::Arrival(tagged)],
            digests: BTreeMap::new(),
        };
        let mut wal = MemoryWal::new();
        wal.append(&record).unwrap();
        assert!(wal.text().contains("tn=3"), "the tag is journalled");
        let loaded = wal.load().unwrap();
        assert_eq!(loaded.epochs, vec![record], "tn= replays bit-exactly");
        // Untenanted records never grow the tag, so pre-tenant logs and
        // their digests are reproduced byte-identically.
        let mut plain = MemoryWal::new();
        plain.append(&every_kind_record(1)).unwrap();
        assert!(!plain.text().contains("tn="));
    }
}
