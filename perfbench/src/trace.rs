//! The traced mode's span recorder.
//!
//! A span is recorded around each call the benchmark makes into a
//! layer's public function: name, start, end, the span that caused it
//! and the request (epoch or task set) it belongs to. Spans stay in
//! memory while the workload runs and are written out once it ends, so
//! recording never blocks or reorders the admission path it observes.
//! With tracing off nothing is stored.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer function the span wraps, e.g. `fleet.apply_batch`.
    pub name: &'static str,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// The epoch or task set the span belongs to.
    pub request: u64,
    /// Start, relative to the recorder's origin.
    pub start: Duration,
    /// End, relative to the recorder's origin.
    pub end: Duration,
}

/// In-memory span store (the default keeps nothing).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(false)
    }
}

impl Tracer {
    /// A recorder; with `enabled == false` every call is a no-op.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span from `start` to `end`; returns its index (for
    /// children to name as parent), or `None` when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            request,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f`, records it as a span, and returns its result and
    /// duration (the duration is measured whether or not tracing is on).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, request, parent, start, end);
        (out, end - start)
    }

    /// The recorded spans, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line
    /// (`id parent request name start_ns end_ns`).
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.request,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_keeps_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (v, d) = t.time("x", 0, None, || 41 + 1);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let mut t = Tracer::new(true);
        let start = Instant::now();
        let parent = t.record("outer", 3, None, start, Instant::now());
        let _ = t.time("inner", 3, parent, || ());
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.end >= s.start && s.request == 3));
    }
}
