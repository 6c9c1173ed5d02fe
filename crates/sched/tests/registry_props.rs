//! Property-based tests of the closed method table: `MethodSet::parse`
//! CSV handling and the rejection of names outside the table — the
//! paths every experiment binary's `--methods` flag funnels through.

use proptest::collection::vec;
use proptest::prelude::*;
use tagio_sched::{make_scheduler, method_names, MethodError, MethodSet};

/// A built-in name drawn by index.
fn name_at(i: usize) -> String {
    let names = method_names();
    names[i % names.len()].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// names -> csv -> parse -> names round-trips through surrounding
    /// whitespace and blank segments, preserving order and multiplicity
    /// (selecting a method twice is legitimate in a sweep).
    #[test]
    fn csv_round_trips_through_spaces_and_blank_segments(
        picks in vec(0usize..10, 1..8),
        pad in 0usize..3,
    ) {
        let names: Vec<String> = picks.iter().map(|&i| name_at(i)).collect();
        let spaces = " ".repeat(pad);
        let noisy = names
            .iter()
            .map(|n| format!("{spaces}{n}{spaces}"))
            .collect::<Vec<_>>()
            .join(",")
            + ",,";
        let set = MethodSet::parse(&noisy).expect("built-in names parse");
        prop_assert_eq!(set.names(), names);
    }

    /// A single corrupted name anywhere in the list rejects the whole
    /// selection, names the offender and lists the known names.
    #[test]
    fn one_unknown_name_rejects_the_whole_list(
        picks in vec(0usize..10, 1..6),
        corrupt_at in 0usize..6,
        suffix in 1u32..1000,
    ) {
        let mut names: Vec<String> = picks.iter().map(|&i| name_at(i)).collect();
        let at = corrupt_at % names.len();
        names[at] = format!("{}-bogus{suffix}", names[at]);
        let bad = names[at].clone();
        let err = MethodSet::parse(&names.join(",")).expect_err("must reject");
        match &err {
            MethodError::Unknown { name, known } => {
                prop_assert_eq!(name, &bad);
                prop_assert_eq!(known, &method_names());
            }
            other => prop_assert!(false, "unexpected error {other:?}"),
        }
        let msg = err.to_string();
        prop_assert!(msg.contains(&bad));
        prop_assert!(msg.contains("fps-offline"));
    }
}

#[test]
fn empty_and_blank_lists_are_rejected() {
    for csv in ["", " ", ",", " , ,, "] {
        let err = MethodSet::parse(csv).expect_err("blank list must not select zero methods");
        assert!(
            matches!(err, MethodError::EmptySelection(_)),
            "{csv:?}: {err}"
        );
    }
}

#[test]
fn formerly_parameterized_specs_are_unknown_names() {
    // The table is closed: an old `key=value` or multi-flag spec never
    // silently selects a method's defaults.
    for spec in ["ga:pop=8", "optimal-psi:nodes=2"] {
        assert!(
            matches!(make_scheduler(spec), Err(MethodError::Unknown { name, .. }) if name == spec),
            "{spec} must be rejected"
        );
    }
    // In a list, the comma splits `static:first-fit,best-fit` into a
    // valid name and the unknown `best-fit`.
    assert!(matches!(
        MethodSet::parse("static:first-fit,best-fit"),
        Err(MethodError::Unknown { name, .. }) if name == "best-fit"
    ));
    assert!(matches!(
        make_scheduler("static:first-fit,best-fit"),
        Err(MethodError::Unknown { .. })
    ));
}
