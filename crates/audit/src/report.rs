//! Structured audit findings.
//!
//! Every verifier in this crate reports [`AuditViolation`]s, not
//! booleans: a violation names the invariant class that failed, the
//! artifact element it failed on, and what the verifier saw — enough
//! for a human (or the mutation harness) to pinpoint the defect
//! without re-running anything.

use std::fmt;

/// The invariant class a violation belongs to. One variant per
/// independently checkable property; the mutation harness asserts at
/// least one detected mutation per class it can reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum ViolationClass {
    /// Two schedule entries occupy the same device at the same time.
    Overlap,
    /// An entry starts before its job's release.
    ReleaseWindow,
    /// An entry finishes after its job's absolute deadline.
    DeadlineMiss,
    /// An entry's duration differs from its job's WCET.
    WrongDuration,
    /// A job is scheduled more than once.
    DuplicateJob,
    /// A job of the active set has no schedule entry.
    MissingJob,
    /// A schedule entry names a job outside the active set.
    UnknownJob,
    /// A cached Ψ or Υ value differs bit-for-bit from the
    /// independently recomputed one.
    QualityMismatch,
    /// A task is owned by zero or several partitions, or ownership
    /// disagrees with the active sets.
    OwnershipViolation,
    /// A counter identity fails (e.g. arrivals ≠ admitted + rejected,
    /// or per-tenant counters exceed the fleet totals they partition).
    CounterConservation,
    /// Snapshot partitions are not in strictly increasing device order.
    PartitionOrder,
    /// A snapshot does not survive parse → write byte-identically.
    SnapshotNotFixedPoint,
    /// A snapshot fails to parse at all.
    SnapshotMalformed,
    /// A WAL fails to parse (interior corruption, not a torn tail).
    WalMalformed,
    /// WAL epochs are not consecutive.
    EpochGap,
    /// WAL records carry more than one RNG seed, or a seed differing
    /// from the snapshot's.
    SeedMismatch,
    /// A replayed epoch's re-derived digests differ from the WAL's
    /// commit line.
    DigestMismatch,
    /// The WAL ends mid-record (crash during append).
    TornTail,
    /// A trace fails to parse.
    TraceMalformed,
    /// Trace timestamps go backwards.
    TimestampOrder,
    /// A trace re-arrives a task that never departed.
    DuplicateArrival,
    /// A source-lint rule fired (see `audit lint`).
    Lint,
}

impl ViolationClass {
    /// Stable kebab-case identifier (used in CLI diagnostics).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ViolationClass::Overlap => "overlap",
            ViolationClass::ReleaseWindow => "release-window",
            ViolationClass::DeadlineMiss => "deadline-miss",
            ViolationClass::WrongDuration => "wrong-duration",
            ViolationClass::DuplicateJob => "duplicate-job",
            ViolationClass::MissingJob => "missing-job",
            ViolationClass::UnknownJob => "unknown-job",
            ViolationClass::QualityMismatch => "quality-mismatch",
            ViolationClass::OwnershipViolation => "ownership-violation",
            ViolationClass::CounterConservation => "counter-conservation",
            ViolationClass::PartitionOrder => "partition-order",
            ViolationClass::SnapshotNotFixedPoint => "snapshot-not-fixed-point",
            ViolationClass::SnapshotMalformed => "snapshot-malformed",
            ViolationClass::WalMalformed => "wal-malformed",
            ViolationClass::EpochGap => "epoch-gap",
            ViolationClass::SeedMismatch => "seed-mismatch",
            ViolationClass::DigestMismatch => "digest-mismatch",
            ViolationClass::TornTail => "torn-tail",
            ViolationClass::TraceMalformed => "trace-malformed",
            ViolationClass::TimestampOrder => "timestamp-order",
            ViolationClass::DuplicateArrival => "duplicate-arrival",
            ViolationClass::Lint => "lint",
        }
    }
}

impl fmt::Display for ViolationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One invariant failure, located and explained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Which invariant failed.
    pub class: ViolationClass,
    /// The artifact element it failed on (a device, a job id, a line,
    /// an epoch…).
    pub subject: String,
    /// What the verifier saw, with expected vs. actual where useful.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.class, self.subject, self.detail)
    }
}

/// The outcome of one verification pass: every violation found, in
/// discovery order — verifiers never stop at the first defect.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Everything that failed; empty means the artifact is certified.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// An empty (clean) report.
    #[must_use]
    pub fn new() -> AuditReport {
        AuditReport::default()
    }

    /// `true` when no invariant failed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Records one violation.
    pub fn push(
        &mut self,
        class: ViolationClass,
        subject: impl Into<String>,
        detail: impl Into<String>,
    ) {
        self.violations.push(AuditViolation {
            class,
            subject: subject.into(),
            detail: detail.into(),
        });
    }

    /// Folds another report's violations into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.violations.extend(other.violations);
    }

    /// `true` when at least one violation of `class` was found.
    #[must_use]
    pub fn has(&self, class: ViolationClass) -> bool {
        self.violations.iter().any(|v| v.class == class)
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(f, "clean");
        }
        for v in &self.violations {
            writeln!(f, "{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_collects_and_classifies() {
        let mut r = AuditReport::new();
        assert!(r.is_clean());
        r.push(ViolationClass::Overlap, "d0", "jobs t1#0 and t2#0 collide");
        r.push(ViolationClass::Overlap, "d0", "jobs t2#0 and t3#0 collide");
        r.push(ViolationClass::EpochGap, "epoch 3", "expected 2");
        assert!(!r.is_clean());
        let classes: Vec<_> = r.violations.iter().map(|v| v.class).collect();
        assert_eq!(
            classes,
            vec![
                ViolationClass::Overlap,
                ViolationClass::Overlap,
                ViolationClass::EpochGap
            ]
        );
        assert!(r.has(ViolationClass::EpochGap));
        assert!(!r.has(ViolationClass::TornTail));
        let shown = r.to_string();
        assert!(shown.contains("[overlap] d0:"), "{shown}");
    }
}
