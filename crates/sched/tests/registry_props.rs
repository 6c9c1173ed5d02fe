//! Property-based tests of the scheduler registry's parameterized
//! method-name grammar: `MethodSpec` format→parse→format round-trips,
//! duplicate-key rejection, unknown-key/unknown-name rejection, and
//! `MethodSet::parse` / `from_names` behaviour — the paths every
//! experiment binary's `--methods` flag funnels through.

use proptest::collection::vec;
use proptest::prelude::*;
use tagio_sched::{make_scheduler, method_names, MethodError, MethodSet, MethodSpec};

/// A registered base name drawn by index.
fn name_at(i: usize) -> String {
    let names = method_names();
    names[i % names.len()].clone()
}

/// The grammar's word alphabet: letters, digits, `_ . + -`.
const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.+-";

/// A grammar word (1..6 alphabet characters).
fn word() -> impl Strategy<Value = String> {
    vec(0usize..ALPHABET.len(), 1..6)
        .prop_map(|ixs| ixs.into_iter().map(|i| ALPHABET[i] as char).collect())
}

/// An arbitrary valid spec with `lo..hi` distinct params; each param is
/// a flag or a `key=value` (duplicate keys are dropped, first wins).
fn spec_with(lo: usize, hi: usize) -> impl Strategy<Value = MethodSpec> {
    (word(), vec((word(), 0u8..2, word()), lo..hi)).prop_map(|(base, raw)| {
        let mut seen = std::collections::HashSet::new();
        let params: Vec<(String, Option<String>)> = raw
            .into_iter()
            .filter(|(key, _, _)| seen.insert(key.clone()))
            .map(|(key, keyed, value)| (key, (keyed == 1).then_some(value)))
            .collect();
        MethodSpec::build(&base, params).expect("generated words satisfy the grammar")
    })
}

/// An arbitrary valid spec: base plus 0..4 distinct params.
fn spec() -> impl Strategy<Value = MethodSpec> {
    spec_with(0, 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The satellite contract: format → parse → format is the identity
    /// on canonical specs (order, flags and values all preserved).
    #[test]
    fn spec_round_trips_through_its_canonical_form(s in spec()) {
        let rendered = s.to_string();
        let reparsed = MethodSpec::parse(&rendered).expect("canonical form parses");
        prop_assert_eq!(&reparsed, &s);
        prop_assert_eq!(reparsed.to_string(), rendered);
    }

    /// Whitespace around any token never changes the parse.
    #[test]
    fn spec_parsing_is_whitespace_insensitive(s in spec(), pad in 0usize..3) {
        let spaces = " ".repeat(pad);
        let rendered = s.to_string();
        let noisy: String = rendered
            .chars()
            .map(|c| {
                if matches!(c, ':' | ',' | '=') {
                    format!("{spaces}{c}{spaces}")
                } else {
                    c.to_string()
                }
            })
            .collect();
        prop_assert_eq!(MethodSpec::parse(&noisy).expect("noisy spec parses"), s);
    }

    /// Duplicating any existing parameter key (or flag) rejects the
    /// whole spec.
    #[test]
    fn duplicate_keys_are_rejected(s in spec_with(1, 4), at in 0usize..4) {
        let params: Vec<(String, Option<String>)> =
            s.params().map(|(k, v)| (k.to_owned(), v.map(str::to_owned))).collect();
        let dup = params[at % params.len()].clone();
        let mut doubled = params;
        doubled.push(dup);
        prop_assert!(MethodSpec::build(s.base(), doubled).is_err());
    }

    /// Keys no built-in method understands are rejected, never silently
    /// ignored (`BadParam`, not a solver with defaults).
    #[test]
    fn unknown_keys_are_rejected_per_method(i in 0usize..10, key in word(), value in word()) {
        let base = name_at(i);
        let spec = format!("{base}:zz{key}={value}");
        // `zz` prefix guarantees the key is none of the documented ones.
        let err = match make_scheduler(&spec) {
            Err(err) => err,
            Ok(_) => {
                prop_assert!(false, "unknown key `{spec}` was accepted");
                unreachable!()
            }
        };
        prop_assert!(matches!(err, MethodError::BadParam { .. }), "{err}");
    }

    /// names -> csv -> parse -> names round-trips, preserving order and
    /// multiplicity (the registry allows selecting a method twice — two
    /// columns with the same scheduler are legitimate in a sweep).
    #[test]
    fn csv_round_trips_any_selection(picks in vec(0usize..10, 1..8)) {
        let names: Vec<String> = picks.iter().map(|&i| name_at(i)).collect();
        let csv = names.join(",");
        let set = MethodSet::parse(&csv).expect("registered names parse");
        prop_assert_eq!(set.names(), names.clone());
        prop_assert_eq!(set.len(), names.len());
        // And the explicit-iterable constructor agrees with the csv path.
        let direct = MethodSet::from_names(&names).expect("registered names");
        prop_assert_eq!(direct.names(), set.names());
    }

    /// Whitespace around names and empty segments never change the
    /// selection.
    #[test]
    fn csv_is_whitespace_and_empty_segment_insensitive(
        picks in vec(0usize..10, 1..6),
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
        let set = MethodSet::parse(&noisy).expect("noisy csv still parses");
        prop_assert_eq!(set.names(), names);
    }

    /// A single corrupted name anywhere in the list rejects the whole
    /// selection and names the offender (no partial method sets).
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
                prop_assert!(known.iter().any(|n| n == "fps-offline"));
            }
            other => prop_assert!(false, "unexpected error {other:?}"),
        }
        // The error message lists the known names for discoverability.
        let msg = err.to_string();
        prop_assert!(msg.contains(&bad));
        prop_assert!(msg.contains("fps-offline"));
        // from_names rejects identically.
        prop_assert!(MethodSet::from_names(&names).is_err());
    }

    /// Registry lookups agree with parse: a spec is constructible iff a
    /// one-element parse succeeds.
    #[test]
    fn make_scheduler_and_parse_agree(i in 0usize..10, mangle in 0u8..2) {
        let name = if mangle == 0 {
            name_at(i)
        } else {
            format!("{}x", name_at(i))
        };
        let direct = make_scheduler(&name).is_ok();
        let parsed = MethodSet::parse(&name).is_ok();
        prop_assert_eq!(direct, parsed);
        if direct {
            // Parsed sets evaluate under the display name they were
            // requested with.
            let set = MethodSet::parse(&name).unwrap();
            prop_assert_eq!(set.names(), vec![name.as_str()]);
        }
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
fn documented_grammar_examples_parse() {
    // The examples EXPERIMENTS.md documents must keep working verbatim.
    for spec in [
        "static",
        "static:lcc-d",
        "static:first-fit",
        "static:best-fit",
        "static:worst-fit",
        "ga:pop=64,gens=500,seed=7",
        "ga:pop=30,gens=25,hint=0.2,threads=1",
        "optimal-psi:nodes=10000",
    ] {
        assert!(
            make_scheduler(spec).is_ok(),
            "documented example `{spec}` no longer constructs"
        );
    }
}
