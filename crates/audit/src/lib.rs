//! # tagio-audit — independent certificate verification + determinism lint
//!
//! The rest of the workspace *produces* schedules, snapshots, WALs and
//! traces; this crate re-checks them **without reusing the producing
//! code paths**. Every invariant the system rests on — per-slot
//! non-overlap and window feasibility, bit-exact cached Ψ/Υ,
//! fleet-wide single ownership, tenant-counter conservation, WAL epoch
//! continuity with independently re-derived digests, and the snapshot
//! parse → write byte fixed point — is re-derived from artifact bytes
//! and public observation surfaces alone, and failures come back as
//! structured [`AuditViolation`] reports, not booleans.
//!
//! Three consumption surfaces:
//!
//! - **[`certificate::ScheduleCertificate`]** — certify a *live*
//!   [`FleetScheduler`](tagio_online::FleetScheduler) right after an
//!   `apply_batch` returns, which checks the epoch it just committed.
//! - **the `audit` CLI** — `audit schedule|snapshot|wal|trace <file>`
//!   verifies artifacts offline (exit 2 + diagnostics on violation),
//!   `audit wal --repair` truncates a torn tail to the last committed
//!   epoch, `audit lint` runs the workspace determinism lint, and
//!   `audit gen` emits fresh artifacts from a scripted recovery
//!   scenario. See EXPERIMENTS.md for the full surface.
//! - **[`mutate`]** — the mutation harness: plants single-field
//!   defects in valid artifacts and asserts the verifier names the
//!   exact violation class.
//!
//! The [`lint`] module is the source-level half: an offline,
//! dependency-free analyzer enforcing no panicking idioms on
//! admission/commit/WAL hot paths, no wall clocks or unordered
//! containers in determinism-critical modules, and EXPERIMENTS.md
//! documentation for every emitted metric name — with an explicit,
//! shrink-only allowlist (`AUDIT_ALLOWLIST.txt`).

pub mod certificate;
pub mod digest;
pub mod gen;
pub mod lint;
pub mod mutate;
pub mod report;
pub mod schedule;
pub mod snapshot;
pub mod trace;
pub mod walcheck;

pub use certificate::ScheduleCertificate;
pub use report::{AuditReport, AuditViolation, ViolationClass};
