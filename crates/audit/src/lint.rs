//! The workspace determinism lint (`audit lint`).
//!
//! An offline, dependency-free token/line-level analyzer over
//! `crates/*/src` enforcing repo-specific rules the compiler cannot:
//!
//! | rule | scope | forbids |
//! |------|-------|---------|
//! | `no-panic` | admission/commit/WAL hot paths | `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` |
//! | `no-wall-clock` | determinism-critical modules | `Instant::now`, `SystemTime` |
//! | `no-unordered-iter` | determinism-critical modules | `HashMap`, `HashSet` (ordered containers or an audited, allowlisted membership-only use required) |
//! | `metrics-documented` | every crate | metric names `push`ed into a `MetricSet` that EXPERIMENTS.md does not document |
//!
//! Doc comments, string literals and `#[cfg(test)]` modules never
//! fire a rule. Findings are suppressed only by an explicit entry in
//! `AUDIT_ALLOWLIST.txt` (`<rule> <path-suffix> <line-needle…>`), and
//! an entry that suppresses nothing is itself an error — the
//! allowlist can only shrink.

use crate::report::{AuditReport, ViolationClass};
use std::fmt;
use std::path::{Path, PathBuf};

/// Modules on the admission/commit/WAL hot path: a panic here takes
/// down live scheduling, so every panicking idiom must be either
/// removed or explicitly allowlisted as an audited invariant.
const HOT_PATH: &[&str] = &[
    "crates/online/src/codec.rs",
    "crates/online/src/service.rs",
    "crates/online/src/fleet.rs",
    "crates/online/src/wal.rs",
    "crates/online/src/persist.rs",
    "crates/online/src/tenant.rs",
    "crates/sched/src/fps.rs",
    "crates/sched/src/solve.rs",
    "crates/sched/src/cache.rs",
    "crates/sched/src/analysis.rs",
    "crates/sched/src/heuristic/mod.rs",
    "crates/sched/src/heuristic/graph.rs",
    "crates/sched/src/heuristic/repair.rs",
    "crates/sched/src/heuristic/lccd.rs",
    "crates/core/src/pool.rs",
];

/// Modules whose decisions feed committed state or digests: wall
/// clocks and unordered iteration here break bit-determinism across
/// pool widths and restore/replay.
const DETERMINISM: &[&str] = &[
    "crates/online/src/codec.rs",
    "crates/online/src/service.rs",
    "crates/online/src/fleet.rs",
    "crates/online/src/wal.rs",
    "crates/online/src/persist.rs",
    "crates/online/src/tenant.rs",
    "crates/online/src/scenario.rs",
    "crates/sched/src/cache.rs",
    "crates/sched/src/analysis.rs",
    "crates/sched/src/heuristic/repair.rs",
    "crates/core/src/metrics.rs",
    "crates/core/src/schedule.rs",
    "crates/ga/src/engine.rs",
    "crates/ga/src/nsga2.rs",
    "crates/sched/src/ga_sched.rs",
];

const PANIC_NEEDLES: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];
const CLOCK_NEEDLES: &[&str] = &["Instant::now", "SystemTime"];
const UNORDERED_NEEDLES: &[&str] = &["HashMap", "HashSet"];

/// One lint rule violation.
#[derive(Debug, Clone)]
pub struct LintFinding {
    /// The rule that fired.
    pub rule: &'static str,
    /// Repo-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.excerpt
        )
    }
}

/// The lint pass outcome.
#[derive(Debug, Clone, Default)]
pub struct LintOutcome {
    /// Rule violations not covered by the allowlist.
    pub findings: Vec<LintFinding>,
    /// Allowlist entries that suppressed nothing (stale entries are
    /// themselves failures — the allowlist can only shrink).
    pub unused_allowlist: Vec<String>,
    /// How many source files were scanned.
    pub checked_files: usize,
}

impl LintOutcome {
    /// `true` when no rule fired and no allowlist entry is stale.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.unused_allowlist.is_empty()
    }

    /// Renders the outcome as an [`AuditReport`].
    #[must_use]
    pub fn to_report(&self) -> AuditReport {
        let mut report = AuditReport::new();
        for f in &self.findings {
            report.push(
                ViolationClass::Lint,
                format!("{}:{}", f.path, f.line),
                format!("[{}] {}", f.rule, f.excerpt),
            );
        }
        for e in &self.unused_allowlist {
            report.push(
                ViolationClass::Lint,
                "AUDIT_ALLOWLIST.txt",
                format!("stale entry suppresses nothing: `{e}`"),
            );
        }
        report
    }
}

#[derive(Debug, Clone)]
struct AllowEntry {
    rule: String,
    path_suffix: String,
    needle: String,
    raw: String,
    used: bool,
}

/// Runs the full lint pass over `root` (the workspace directory).
///
/// # Errors
/// Returns a message when the workspace layout is unreadable (no
/// `crates/` directory, unreadable files, or a missing EXPERIMENTS.md
/// while metric names are emitted).
pub fn run_lint(root: &Path) -> Result<LintOutcome, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!("{} has no crates/ directory", root.display()));
    }
    let mut files = Vec::new();
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk {}: {e}", crates_dir.display()))?;
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    let experiments = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap_or_default();
    let mut allow = load_allowlist(root)?;
    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        lint_file(&rel, &text, &experiments, &mut findings);
    }
    // Allowlist application: a finding survives only when no entry
    // covers it; an entry is "used" when it covered at least one.
    findings.retain(|f| {
        let mut covered = false;
        for e in &mut allow {
            if e.rule == f.rule && f.path.ends_with(&e.path_suffix) && f.excerpt.contains(&e.needle)
            {
                e.used = true;
                covered = true;
            }
        }
        !covered
    });
    Ok(LintOutcome {
        findings,
        unused_allowlist: allow
            .into_iter()
            .filter(|e| !e.used)
            .map(|e| e.raw)
            .collect(),
        checked_files: files.len(),
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn load_allowlist(root: &Path) -> Result<Vec<AllowEntry>, String> {
    let path = root.join("AUDIT_ALLOWLIST.txt");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(Vec::new()); // no allowlist: nothing suppressed
    };
    let mut entries = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.splitn(3, char::is_whitespace);
        let (Some(rule), Some(path_suffix), Some(needle)) =
            (words.next(), words.next(), words.next())
        else {
            return Err(format!(
                "AUDIT_ALLOWLIST.txt:{}: expected `<rule> <path-suffix> <line-needle>`",
                i + 1
            ));
        };
        entries.push(AllowEntry {
            rule: rule.to_string(),
            path_suffix: path_suffix.to_string(),
            needle: needle.trim().to_string(),
            raw: line.to_string(),
            used: false,
        });
    }
    Ok(entries)
}

/// Lints one file. `rel` is the repo-relative path with `/` separators.
fn lint_file(rel: &str, text: &str, experiments: &str, findings: &mut Vec<LintFinding>) {
    // Two scrubbed views with identical byte offsets: `code` blanks
    // comments AND string interiors (structure only); `with_strings`
    // blanks comments but keeps string contents (metric names).
    let mut code = scrub(text, false);
    let mut with_strings = scrub(text, true);
    for (start, end) in test_regions(&code) {
        blank_region(&mut code, start, end);
        blank_region(&mut with_strings, start, end);
    }
    let is_hot = HOT_PATH.iter().any(|m| rel.ends_with(m));
    let is_det = DETERMINISM.iter().any(|m| rel.ends_with(m));
    for (li, scrubbed_line) in code.lines().enumerate() {
        let mut fire = |rule: &'static str| {
            let excerpt = text.lines().nth(li).unwrap_or_default().trim().to_string();
            findings.push(LintFinding {
                rule,
                path: rel.to_string(),
                line: li + 1,
                excerpt,
            });
        };
        if is_hot && PANIC_NEEDLES.iter().any(|n| scrubbed_line.contains(n)) {
            fire("no-panic");
        }
        if is_det {
            if CLOCK_NEEDLES.iter().any(|n| scrubbed_line.contains(n)) {
                fire("no-wall-clock");
            }
            if UNORDERED_NEEDLES.iter().any(|n| scrubbed_line.contains(n)) {
                fire("no-unordered-iter");
            }
        }
    }
    lint_metric_names(rel, text, &code, &with_strings, experiments, findings);
}

/// Finds two-argument `.push("name", …)` / `.push(format!("…"), …)`
/// metric emissions and requires every literal name segment to appear
/// in EXPERIMENTS.md. Single-argument pushes (`Vec::push`) never
/// match — the second argument is what marks a `MetricSet` emission.
fn lint_metric_names(
    rel: &str,
    text: &str,
    code: &str,
    with_strings: &str,
    experiments: &str,
    findings: &mut Vec<LintFinding>,
) {
    let bytes = code.as_bytes();
    let mut at = 0usize;
    while let Some(hit) = code[at..].find(".push(") {
        let open = at + hit + ".push(".len() - 1;
        at = open + 1;
        let Some((name, after)) = push_literal_name(code, with_strings, open) else {
            continue;
        };
        // Two-arg check: the literal must be followed by a comma.
        let mut k = after;
        while k < bytes.len() && bytes[k].is_ascii_whitespace() {
            k += 1;
        }
        if k >= bytes.len() || bytes[k] != b',' {
            continue; // single-argument push — not a MetricSet emission
        }
        if !plausible_metric_name(&name) {
            continue;
        }
        // Every literal segment outside `{…}` placeholders must be
        // documented (placeholders themselves are runtime-expanded,
        // e.g. `{tenant}_arrivals` is documented as `tn<k>_arrivals`).
        let undocumented = literal_segments(&name)
            .into_iter()
            .any(|seg| !experiments.contains(&seg));
        if undocumented {
            let line = code[..open].matches('\n').count();
            findings.push(LintFinding {
                rule: "metrics-documented",
                path: rel.to_string(),
                line: line + 1,
                excerpt: format!(
                    "metric `{name}` is emitted but not documented in EXPERIMENTS.md ({})",
                    text.lines().nth(line).unwrap_or_default().trim()
                ),
            });
        }
    }
}

/// Extracts the string-literal first argument of a `push(` whose open
/// paren is at `open`. Handles a bare literal and `format!("…")`.
/// Returns the literal (from the strings-kept view) and the offset
/// just past the argument.
fn push_literal_name(code: &str, with_strings: &str, open: usize) -> Option<(String, usize)> {
    let bytes = code.as_bytes();
    let mut j = open + 1;
    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
        j += 1;
    }
    if bytes.get(j) == Some(&b'"') {
        let close = code[j + 1..].find('"')? + j + 1;
        return Some((with_strings[j + 1..close].to_string(), close + 1));
    }
    if code[j..].starts_with("format!") {
        let inner_open = code[j..].find('(')? + j;
        let inner_close = matching_paren(code, inner_open)?;
        let q1 = code[inner_open..inner_close].find('"')? + inner_open;
        let q2 = code[q1 + 1..inner_close].find('"')? + q1 + 1;
        return Some((with_strings[q1 + 1..q2].to_string(), inner_close + 1));
    }
    None
}

fn matching_paren(code: &str, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, b) in code.bytes().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// A metric name: identifier characters plus `{…}` placeholders.
fn plausible_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '{' | '}'))
}

/// The literal pieces of a possibly-formatted name: `{tenant}_psi`
/// yields `["_psi"]`, a plain name yields itself.
fn literal_segments(name: &str) -> Vec<String> {
    let mut segments = Vec::new();
    let mut current = String::new();
    let mut depth = 0usize;
    for c in name.chars() {
        match c {
            '{' => {
                depth += 1;
                if !current.is_empty() {
                    segments.push(std::mem::take(&mut current));
                }
            }
            '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => current.push(c),
            _ => {}
        }
    }
    if !current.is_empty() {
        segments.push(current);
    }
    segments
}

/// Blanks comments (line, doc and nested block) and — when
/// `keep_strings` is false — string/char literal interiors, replacing
/// them with spaces so byte offsets and line numbers survive.
fn scrub(text: &str, keep_strings: bool) -> String {
    let bytes = text.as_bytes();
    let mut out: Vec<u8> = bytes.to_vec();
    let mut i = 0usize;
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for b in &mut out[from..to] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = text[i..].find('\n').map_or(bytes.len(), |n| i + n);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            b'"' => {
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += if bytes[j] == b'\\' { 2 } else { 1 };
                }
                if !keep_strings {
                    blank(&mut out, i + 1, j.min(bytes.len()));
                }
                i = (j + 1).min(bytes.len());
            }
            b'r' if is_raw_string_start(bytes, i) => {
                let hashes = count_hashes(bytes, i + 1);
                let quote = i + 1 + hashes;
                let closer: String = std::iter::once('"')
                    .chain(std::iter::repeat_n('#', hashes))
                    .collect();
                let end = text[quote + 1..]
                    .find(&closer)
                    .map_or(bytes.len(), |n| quote + 1 + n + closer.len());
                if !keep_strings {
                    blank(&mut out, quote + 1, end.saturating_sub(closer.len()));
                }
                i = end;
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes within a
                // few bytes; a lifetime never has a closing quote.
                if bytes.get(i + 1) == Some(&b'\\') {
                    let mut j = i + 2;
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                    if !keep_strings {
                        blank(&mut out, i + 1, j.min(bytes.len()));
                    }
                    i = (j + 1).min(bytes.len());
                } else if bytes.get(i + 2) == Some(&b'\'') {
                    if !keep_strings {
                        blank(&mut out, i + 1, i + 2);
                    }
                    i += 3;
                } else {
                    i += 1; // lifetime
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let hashes = count_hashes(bytes, i + 1);
    bytes.get(i + 1 + hashes) == Some(&b'"')
}

fn count_hashes(bytes: &[u8], mut i: usize) -> usize {
    let start = i;
    while bytes.get(i) == Some(&b'#') {
        i += 1;
    }
    i - start
}

/// Byte ranges of `#[cfg(test)]`-gated items (their whole brace body),
/// computed on the strings-blanked view so braces in literals cannot
/// confuse the matcher.
fn test_regions(code: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut at = 0usize;
    let bytes = code.as_bytes();
    while let Some(hit) = code[at..].find("#[cfg(test)]") {
        let start = at + hit;
        let mut j = start + "#[cfg(test)]".len();
        while j < bytes.len() && bytes[j] != b'{' && bytes[j] != b';' {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] == b';' {
            at = j;
            continue;
        }
        let mut depth = 0usize;
        let mut end = bytes.len();
        for (k, &b) in bytes.iter().enumerate().skip(j) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = k + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        regions.push((start, end));
        at = end;
    }
    regions
}

fn blank_region(text: &mut String, start: usize, end: usize) {
    // SAFETY-free byte surgery: the scrubbed views are ASCII-compatible
    // at these offsets (regions start at `#` and end at `}`).
    let mut bytes = std::mem::take(text).into_bytes();
    let end = end.min(bytes.len());
    for b in &mut bytes[start..end] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
    *text = String::from_utf8_lossy(&bytes).into_owned();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let src = "let a = \"panic!(\"; // .unwrap()\nlet b = 1; /* HashMap */\n";
        let code = scrub(src, false);
        assert!(!code.contains("panic!("));
        assert!(!code.contains(".unwrap()"));
        assert!(!code.contains("HashMap"));
        assert_eq!(code.lines().count(), src.lines().count());
        let kept = scrub(src, true);
        assert!(kept.contains("panic!(\""), "strings survive when kept");
        assert!(!kept.contains(".unwrap()"), "comments never survive");
    }

    #[test]
    fn test_modules_never_fire() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let mut code = scrub(src, false);
        let regions = test_regions(&code);
        assert_eq!(regions.len(), 1);
        for (s, e) in regions {
            blank_region(&mut code, s, e);
        }
        assert!(!code.contains(".unwrap()"));
        assert!(code.contains("fn live"));
    }

    #[test]
    fn metric_names_extract_through_format() {
        let src = r#"set.push("psi", 1.0); set.push(format!("{tenant}_shed"), 2.0); v.push("not_a_metric_no_second_arg");"#;
        let code = scrub(src, false);
        let with_strings = scrub(src, true);
        let mut findings = Vec::new();
        lint_metric_names(
            "x.rs",
            src,
            &code,
            &with_strings,
            "docs mention psi and _shed",
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
        let mut findings = Vec::new();
        lint_metric_names(
            "x.rs",
            src,
            &code,
            &with_strings,
            "docs mention only psi",
            &mut findings,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].excerpt.contains("{tenant}_shed"));
    }

    #[test]
    fn ga_modules_are_determinism_critical() {
        // They decide the GA's fronts, which the offline digests pin.
        let src = "let t = Instant::now();\nlet m: HashMap<u32, u32> = HashMap::new();\n";
        for rel in [
            "crates/ga/src/engine.rs",
            "crates/ga/src/nsga2.rs",
            "crates/sched/src/ga_sched.rs",
        ] {
            let mut findings = Vec::new();
            lint_file(rel, src, "", &mut findings);
            let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
            assert_eq!(rules, ["no-wall-clock", "no-unordered-iter"], "{rel}");
        }
    }

    #[test]
    fn lifetimes_do_not_derail_the_scrubber() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } // ok\nlet c = 'x';\n";
        let code = scrub(src, false);
        assert!(code.contains("fn f<'a>"));
        assert!(!code.contains("// ok"));
    }
}
