//! Commit-point certification: every `apply_batch` epoch of the scripted
//! recovery scenario is independently verified the moment it returns.
//! Nothing runs between an epoch's commit and `apply_batch`'s return, so
//! certifying here checks exactly the committed state.

use tagio_audit::gen;
use tagio_audit::ScheduleCertificate;

#[test]
fn every_epoch_is_certified_at_commit() {
    let mut fleet = gen::fleet();
    let batches = gen::batches();
    assert!(!batches.is_empty());
    for (applied, batch) in (1..).zip(&batches) {
        let _ = fleet.apply_batch(batch);
        let cert = ScheduleCertificate::certify(&fleet);
        assert!(
            cert.is_clean(),
            "commit-point certificate violated at epoch {}:\n{}",
            cert.epoch,
            cert.report
        );
        assert_eq!(
            cert.epoch, applied,
            "certificate must name the epoch just committed"
        );
    }
}
