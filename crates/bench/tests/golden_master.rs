//! Golden-master regression suite for every experiment binary.
//!
//! Each binary runs a tiny fixed-seed sweep with `--json --threads 2`
//! and the parsed document is compared **structurally** (via [`diff`]:
//! key sets, array shapes, strings, numbers within tolerance — but not
//! byte formatting or member order) against
//! the snapshot under `tests/golden/` at the repository root. Report-
//! format churn therefore fails this suite until the snapshots are
//! regenerated deliberately:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p tagio-bench --test golden_master
//! ```
//!
//! Wall-clock metrics (`repair_latency_us` in `online_scenarios`) are
//! the one non-deterministic output; their summaries are normalised to
//! zero on both sides before the comparison (their *presence* is still
//! pinned).

use std::path::PathBuf;
use std::process::Command;
use tagio_bench::json::{self, Value};

/// `(name, path, extra args)` for every experiment binary. All runs add
/// `--json --threads 2` (a fixed thread count keeps the provenance block
/// machine-independent; results are thread-count-invariant anyway).
fn cases() -> Vec<(&'static str, &'static str, Vec<&'static str>)> {
    vec![
        (
            "fig5_schedulability",
            env!("CARGO_BIN_EXE_fig5_schedulability"),
            vec!["--systems", "2", "--pop", "12", "--gens", "4"],
        ),
        (
            "fig6_psi",
            env!("CARGO_BIN_EXE_fig6_psi"),
            vec!["--systems", "2", "--pop", "12", "--gens", "4"],
        ),
        (
            "fig7_upsilon",
            env!("CARGO_BIN_EXE_fig7_upsilon"),
            vec!["--systems", "2", "--pop", "12", "--gens", "4"],
        ),
        ("table1_hwcost", env!("CARGO_BIN_EXE_table1_hwcost"), vec![]),
        (
            "noc_latency",
            env!("CARGO_BIN_EXE_noc_latency"),
            vec!["--systems", "3"],
        ),
        (
            "ablation_lccd",
            env!("CARGO_BIN_EXE_ablation_lccd"),
            vec!["--systems", "2"],
        ),
        (
            "ablation_ga",
            env!("CARGO_BIN_EXE_ablation_ga"),
            vec!["--systems", "1", "--budgets", "6x6,8x8+seed"],
        ),
        (
            "ablation_baselines",
            env!("CARGO_BIN_EXE_ablation_baselines"),
            vec!["--systems", "2"],
        ),
        (
            "online_scenarios",
            env!("CARGO_BIN_EXE_online_scenarios"),
            vec!["--systems", "2"],
        ),
        (
            "fleet_scenarios",
            env!("CARGO_BIN_EXE_fleet_scenarios"),
            vec!["--systems", "2"],
        ),
        (
            "failover_scenarios",
            env!("CARGO_BIN_EXE_failover_scenarios"),
            vec!["--systems", "2"],
        ),
        (
            "tenant_scenarios",
            env!("CARGO_BIN_EXE_tenant_scenarios"),
            vec!["--systems", "2"],
        ),
    ]
}

/// Structurally compares two documents, returning one human-readable
/// line per difference (empty when equivalent). Numbers are compared
/// with absolute-or-relative tolerance `tol`; object member *order* is
/// ignored, key sets and everything else must match. This is the
/// golden-master comparison: byte-level churn (whitespace, key order,
/// number formatting) does not trip it, schema or value changes do.
fn diff(expected: &Value, actual: &Value, tol: f64) -> Vec<String> {
    let mut out = Vec::new();
    diff_at("$", expected, actual, tol, &mut out);
    out
}

fn diff_at(path: &str, expected: &Value, actual: &Value, tol: f64, out: &mut Vec<String>) {
    match (expected, actual) {
        (Value::Null, Value::Null) => {}
        (Value::Bool(a), Value::Bool(b)) => {
            if a != b {
                out.push(format!("{path}: expected {a}, got {b}"));
            }
        }
        (Value::Number(a), Value::Number(b)) => {
            let scale = 1.0f64.max(a.abs()).max(b.abs());
            if (a - b).abs() > tol * scale {
                out.push(format!("{path}: expected {a}, got {b}"));
            }
        }
        (Value::String(a), Value::String(b)) => {
            if a != b {
                out.push(format!("{path}: expected {a:?}, got {b:?}"));
            }
        }
        (Value::Array(a), Value::Array(b)) => {
            if a.len() != b.len() {
                out.push(format!(
                    "{path}: expected {} elements, got {}",
                    a.len(),
                    b.len()
                ));
                return;
            }
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                diff_at(&format!("{path}[{i}]"), x, y, tol, out);
            }
        }
        (Value::Object(a), Value::Object(b)) => {
            for (key, x) in a {
                match member(actual, key) {
                    Some(y) => diff_at(&format!("{path}.{key}"), x, y, tol, out),
                    None => out.push(format!("{path}: missing key {key:?}")),
                }
            }
            for (key, _) in b {
                if member(expected, key).is_none() {
                    out.push(format!("{path}: unexpected key {key:?}"));
                }
            }
        }
        _ => out.push(format!(
            "{path}: expected {}, got {}",
            kind(expected),
            kind(actual)
        )),
    }
}

/// Member lookup on objects (`None` on other kinds or missing keys).
fn member<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A one-word name of the value's kind (used in diff messages).
fn kind(value: &Value) -> &'static str {
    match value {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Number(_) => "number",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

/// Renders a [`Value`] back to compact JSON text (the inverse of
/// [`json::parse`]), so regenerated snapshots are *normalised* and
/// byte-stable for unchanged schemas.
fn render(value: &Value) -> String {
    match value {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => json::number(*n),
        Value::String(s) => json::string(s),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", inner.join(","))
        }
        Value::Object(members) => {
            let inner: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{}:{}", json::string(k), render(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Zeroes the summaries of wall-clock metrics so run-to-run timing noise
/// cannot trip the diff. The metric's presence and sample count remain
/// pinned.
fn normalise(value: &mut Value) {
    if let Value::Object(members) = value {
        for (key, member) in members.iter_mut() {
            if key == "repair_latency_us" {
                if let Value::Object(summary) = member {
                    for (stat, v) in summary.iter_mut() {
                        if stat != "count" {
                            *v = Value::Number(0.0);
                        }
                    }
                }
            } else {
                normalise(member);
            }
        }
    } else if let Value::Array(items) = value {
        for item in items {
            normalise(item);
        }
    }
}

#[test]
fn experiment_binaries_match_their_golden_documents() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    if update {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let mut failures = Vec::new();
    for (name, path, extra) in cases() {
        let out = Command::new(path)
            .args(&extra)
            .args(["--json", "--threads", "2"])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert!(
            out.status.success(),
            "{name} exited with {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("reports are UTF-8");
        let mut actual = json::parse(stdout.trim())
            .unwrap_or_else(|e| panic!("{name} emitted invalid JSON: {e}"));
        normalise(&mut actual);
        let golden_path = dir.join(format!("{name}.json"));
        if update {
            // Write the *normalised* document: wall-clock summaries are
            // already zeroed, so regeneration is byte-stable whenever the
            // schema and deterministic values are unchanged.
            std::fs::write(&golden_path, render(&actual) + "\n")
                .unwrap_or_else(|e| panic!("write {}: {e}", golden_path.display()));
            eprintln!("updated {}", golden_path.display());
            continue;
        }
        let golden_text = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
                golden_path.display()
            )
        });
        let mut golden = json::parse(golden_text.trim())
            .unwrap_or_else(|e| panic!("corrupt golden {}: {e}", golden_path.display()));
        normalise(&mut golden);
        let differences = diff(&golden, &actual, 1e-9);
        if !differences.is_empty() {
            failures.push(format!(
                "{name}: {} difference(s) vs {}:\n  {}",
                differences.len(),
                golden_path.display(),
                differences
                    .iter()
                    .take(12)
                    .cloned()
                    .collect::<Vec<_>>()
                    .join("\n  ")
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden-master mismatches (regenerate deliberately with UPDATE_GOLDEN=1):\n{}",
        failures.join("\n")
    );
}

#[test]
fn golden_documents_cover_every_binary() {
    // The snapshot set must not silently drift from the binary list.
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return;
    }
    let dir = golden_dir();
    for (name, _, _) in cases() {
        assert!(
            dir.join(format!("{name}.json")).exists(),
            "no golden snapshot for {name} under {}",
            dir.display()
        );
    }
}

#[test]
fn render_round_trips_through_parse() {
    let doc = r#"{"a":[1,2.5,{"b":"x\n"},null,true],"c":"Ψ"}"#;
    let v = json::parse(doc).unwrap();
    assert_eq!(json::parse(&render(&v)).unwrap(), v);
}

#[test]
fn diff_ignores_order_and_formatting_but_not_structure() {
    let a = json::parse(r#"{"x":1.0,"y":[1,2],"s":"v"}"#).unwrap();
    let same = json::parse(r#"{ "y":[1, 2.0], "s":"v", "x":1 }"#).unwrap();
    assert!(diff(&a, &same, 1e-9).is_empty());
    let tweaked = json::parse(r#"{"x":1.0001,"y":[1,2],"s":"v"}"#).unwrap();
    assert_eq!(diff(&a, &tweaked, 1e-9).len(), 1);
    assert!(diff(&a, &tweaked, 1e-2).is_empty(), "within tolerance");
    let missing = json::parse(r#"{"x":1,"y":[1,2]}"#).unwrap();
    assert!(diff(&a, &missing, 1e-9)[0].contains("missing key"));
    let extra = json::parse(r#"{"x":1,"y":[1,2],"s":"v","z":0}"#).unwrap();
    assert!(diff(&a, &extra, 1e-9)[0].contains("unexpected key"));
    let wrong_len = json::parse(r#"{"x":1,"y":[1],"s":"v"}"#).unwrap();
    assert!(diff(&a, &wrong_len, 1e-9)[0].contains("elements"));
    let wrong_kind = json::parse(r#"{"x":"1","y":[1,2],"s":"v"}"#).unwrap();
    assert!(diff(&a, &wrong_kind, 1e-9)[0].contains("expected number"));
}
