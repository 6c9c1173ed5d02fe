//! Live commit-point certification.
//!
//! A [`ScheduleCertificate`] re-derives every fleet invariant from a
//! *running* [`FleetScheduler`]'s public observation surface — the
//! per-partition schedules and job sets, cached Ψ/Υ, ownership, and
//! the full counter hierarchy. Certifying right after an
//! `apply_batch` returns checks the epoch it just committed: nothing
//! runs between the commit and the return. The workspace tests certify
//! every epoch of the scripted recovery scenario this way
//! (`tests/commit_audit.rs`).

use crate::report::{AuditReport, ViolationClass};
use crate::schedule::{verify_entries, verify_quality};
use crate::snapshot::{verify_fleet_stats, verify_online_stats};
use std::collections::BTreeMap;
use tagio_core::task::TaskId;
use tagio_online::FleetScheduler;

/// The outcome of certifying one committed epoch.
#[derive(Debug, Clone)]
pub struct ScheduleCertificate {
    /// The epoch the certificate covers.
    pub epoch: usize,
    /// Everything that failed (empty = certified).
    pub report: AuditReport,
}

impl ScheduleCertificate {
    /// Certifies the fleet's current (post-commit) state.
    #[must_use]
    pub fn certify(fleet: &FleetScheduler) -> ScheduleCertificate {
        ScheduleCertificate {
            epoch: fleet.stats().epochs,
            report: certify_fleet(fleet),
        }
    }

    /// `true` when every invariant held.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }
}

/// Re-derives every invariant of a live fleet.
#[must_use]
pub fn certify_fleet(fleet: &FleetScheduler) -> AuditReport {
    let mut report = AuditReport::new();
    let mut active = 0usize;
    let mut seen: BTreeMap<TaskId, usize> = BTreeMap::new();
    for p in fleet.partitions() {
        let device = p.device();
        let sub = verify_entries(p.schedule().as_slice(), p.jobs());
        for v in sub.violations {
            report.push(v.class, format!("{device} {}", v.subject), v.detail);
        }
        let sub = verify_quality(p.schedule(), p.jobs(), p.psi(), p.upsilon());
        for v in sub.violations {
            report.push(v.class, format!("{device} {}", v.subject), v.detail);
        }
        verify_online_stats(&device.to_string(), p.stats(), &mut report);
        for t in p.tasks() {
            active += 1;
            *seen.entry(t.id()).or_insert(0) += 1;
            match fleet.owner_of(t.id()) {
                Some(owned) if owned == device => {}
                Some(owned) => report.push(
                    ViolationClass::OwnershipViolation,
                    format!("{}", t.id()),
                    format!("active on {device} but owned by {owned}"),
                ),
                None => report.push(
                    ViolationClass::OwnershipViolation,
                    format!("{}", t.id()),
                    format!("active on {device} but unowned"),
                ),
            }
        }
    }
    for (task, holders) in &seen {
        if *holders > 1 {
            report.push(
                ViolationClass::OwnershipViolation,
                format!("{task}"),
                format!("active on {holders} partitions"),
            );
        }
    }
    if active != fleet.active_tasks() {
        report.push(
            ViolationClass::OwnershipViolation,
            "fleet owner map",
            format!(
                "{} owner entries vs {active} active tasks across partitions",
                fleet.active_tasks()
            ),
        );
    }
    verify_fleet_stats(fleet.stats(), &mut report);
    report
}
