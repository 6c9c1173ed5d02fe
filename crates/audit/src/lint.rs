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
//! | `test-only-api` | every crate | a `pub fn` whose name no live code uses: only tests, doc comments or `pub use` re-exports name it |
//!
//! `test-only-api` also reads `crates/*/benches`, `src/`, `examples/`
//! and `perfbench/src`, but only as callers: a use there keeps a
//! `pub fn` live, and no rule runs on them. It matches names, not
//! types, so it can miss a dead item but never flags a live one.
//!
//! Doc comments, string literals and `#[cfg(test)]` modules never
//! fire a rule, and never count as a use. Findings are suppressed only
//! by an explicit entry in `AUDIT_ALLOWLIST.txt`
//! (`<rule> <path-suffix> <line-needle…>`), and an entry that
//! suppresses nothing is itself an error — the allowlist can only
//! shrink.

use crate::report::{AuditReport, ViolationClass};
use std::collections::BTreeSet;
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

/// Directories outside `crates/*` whose code keeps a `pub fn` live
/// (`test-only-api`) but that no rule lints; each crate's `benches/`
/// is read the same way.
const CALLER_DIRS: &[&str] = &["src", "examples", "perfbench/src"];

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
    let mut callers = Vec::new();
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk {}: {e}", crates_dir.display()))?;
        collect_rs(&entry.path().join("src"), &mut files)?;
        collect_rs(&entry.path().join("benches"), &mut callers)?;
    }
    for dir in CALLER_DIRS {
        collect_rs(&root.join(dir), &mut callers)?;
    }
    files.sort();
    let experiments = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap_or_default();
    let mut allow = load_allowlist(root)?;
    let mut findings = Vec::new();
    let mut pub_fns = Vec::new();
    let mut used = BTreeSet::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let code = lint_file(&rel, &text, &experiments, &mut findings);
        for (name, line) in pub_fn_defs(&code) {
            pub_fns.push((name, finding("test-only-api", &rel, &text, line)));
        }
        live_uses(&code, &mut used);
    }
    for path in &callers {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        live_uses(&live_view(&text), &mut used);
    }
    findings.extend(
        pub_fns
            .into_iter()
            .filter(|(name, _)| !used.contains(name))
            .map(|(_, f)| f),
    );
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

/// Appends every `.rs` file under `dir` (none when it does not exist).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
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
/// Returns the file's live view (see [`live_view`]).
fn lint_file(rel: &str, text: &str, experiments: &str, findings: &mut Vec<LintFinding>) -> String {
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
        let mut fire = |rule: &'static str| findings.push(finding(rule, rel, text, li + 1));
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
    code
}

/// A finding of `rule` at 1-based `line` of `text`.
fn finding(rule: &'static str, rel: &str, text: &str, line: usize) -> LintFinding {
    LintFinding {
        rule,
        path: rel.to_string(),
        line,
        excerpt: text
            .lines()
            .nth(line - 1)
            .unwrap_or_default()
            .trim()
            .to_string(),
    }
}

/// `text` with comments, string interiors and `#[cfg(test)]` items
/// blanked: what is left is the code a build without tests runs.
fn live_view(text: &str) -> String {
    let mut code = scrub(text, false);
    for (start, end) in test_regions(&code) {
        blank_region(&mut code, start, end);
    }
    code
}

/// Byte ranges of the identifiers in a scrubbed view (numeric literals
/// such as `1u32` are skipped whole).
fn idents(code: &str) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if !word(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && word(bytes[i]) {
            i += 1;
        }
        if !bytes[start].is_ascii_digit() {
            out.push((start, i));
        }
    }
    out
}

/// The name and 1-based line of every `pub fn` (also `pub const fn`,
/// `pub async fn`, `pub unsafe fn`) in a live view. `pub(crate)` and
/// other restricted visibilities are not public API.
fn pub_fn_defs(code: &str) -> Vec<(String, usize)> {
    let toks = idents(code);
    let word = |k: usize| &code[toks[k].0..toks[k].1];
    let joined = |k: usize| code[toks[k].1..toks[k + 1].0].trim().is_empty();
    let mut defs = Vec::new();
    for k in 1..toks.len().saturating_sub(1) {
        let name_at = toks[k + 1].0;
        // `fn $name` inside a macro body defines no name of its own.
        if word(k) != "fn" || !joined(k) || code[..name_at].ends_with('$') {
            continue;
        }
        let mut q = k - 1;
        while q > 0 && matches!(word(q), "const" | "async" | "unsafe") && joined(q) {
            q -= 1;
        }
        if word(q) == "pub" && joined(q) {
            let line = code[..name_at].matches('\n').count() + 1;
            defs.push((word(k + 1).to_string(), line));
        }
    }
    defs
}

/// Adds every identifier a live view uses to `used`. The name after
/// `fn` is a definition, and a `pub use` re-export only names items,
/// so neither counts.
fn live_uses(code: &str, used: &mut BTreeSet<String>) {
    let toks = idents(code);
    let word = |k: usize| &code[toks[k].0..toks[k].1];
    let joined = |k: usize| code[toks[k].1..toks[k + 1].0].trim().is_empty();
    let mut k = 0usize;
    while k < toks.len() {
        if word(k) == "pub" && k + 1 < toks.len() && joined(k) && word(k + 1) == "use" {
            let end = code[toks[k].1..]
                .find(';')
                .map_or(code.len(), |n| toks[k].1 + n);
            while k < toks.len() && toks[k].0 < end {
                k += 1;
            }
            continue;
        }
        let defined = k > 0 && word(k - 1) == "fn" && joined(k - 1);
        if !defined {
            used.insert(word(k).to_string());
        }
        k += 1;
    }
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

    /// Lints a throwaway workspace holding `files` (repo-relative path,
    /// text) under `allowlist`, then removes it.
    fn lint_tree(name: &str, files: &[(&str, &str)], allowlist: &str) -> LintOutcome {
        let root = std::env::temp_dir().join(format!("tagio-lint-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for (rel, text) in files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("nested path")).expect("mkdir");
            std::fs::write(path, text).expect("write source");
        }
        std::fs::write(root.join("AUDIT_ALLOWLIST.txt"), allowlist).expect("write allowlist");
        let outcome = run_lint(&root).expect("lint runs");
        std::fs::remove_dir_all(&root).expect("clean up");
        outcome
    }

    /// The `test-only-api` findings, as their excerpts.
    fn test_only(outcome: &LintOutcome) -> Vec<&str> {
        outcome
            .findings
            .iter()
            .filter(|f| f.rule == "test-only-api")
            .map(|f| f.excerpt.as_str())
            .collect()
    }

    const HELPER_LIB: &str = "\
/// Doubles `x`; `helper(2)` in a doc comment is no use.
pub fn helper(x: u32) -> u32 { x * 2 }
pub fn live() -> u32 { 1 }
fn private_caller() -> u32 { live() }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert_eq!(super::helper(1), 2); }
}
";

    #[test]
    fn test_only_api_fires_on_a_pub_fn_only_tests_call() {
        let outcome = lint_tree(
            "tests-only",
            &[
                ("crates/a/src/lib.rs", HELPER_LIB),
                ("crates/a/tests/it.rs", "fn t() { a::helper(3); }"),
                ("tests/facade.rs", "fn t() { a::helper(4); }"),
                ("perfbench/tests/w.rs", "fn t() { a::helper(5); }"),
            ],
            "",
        );
        assert_eq!(
            test_only(&outcome),
            ["pub fn helper(x: u32) -> u32 { x * 2 }"]
        );
        assert_eq!(outcome.findings[0].line, 2);
    }

    #[test]
    fn callers_outside_the_linted_sources_keep_a_pub_fn_live() {
        let lib = "pub fn by_example() {}\npub fn by_perfbench() {}\n\
                   pub fn by_bench() {}\npub fn by_bin() {}\npub fn dead() {}\n";
        let outcome = lint_tree(
            "callers",
            &[
                ("crates/a/src/lib.rs", lib),
                ("examples/e.rs", "fn main() { a::by_example(); }"),
                ("perfbench/src/main.rs", "fn main() { a::by_perfbench(); }"),
                ("crates/a/benches/b.rs", "fn main() { a::by_bench(); }"),
                ("crates/a/src/bin/tool.rs", "fn main() { a::by_bin(); }"),
            ],
            "",
        );
        assert_eq!(test_only(&outcome), ["pub fn dead() {}"]);
    }

    #[test]
    fn a_pub_use_re_export_is_not_a_use() {
        let lib = "pub use inner::single;\npub use inner::{\n    first,\n    second,\n};\n\
                   mod inner {\n    pub fn single() {}\n    pub fn first() {}\n    \
                   pub fn second() {}\n    pub const fn constant() {}\n}\n";
        let outcome = lint_tree("reexport", &[("crates/a/src/lib.rs", lib)], "");
        assert_eq!(
            test_only(&outcome),
            [
                "pub fn single() {}",
                "pub fn first() {}",
                "pub fn second() {}",
                "pub const fn constant() {}"
            ]
        );
    }

    #[test]
    fn a_pub_fn_inside_cfg_test_never_fires() {
        let lib = "pub fn used() {}\nfn main() { used(); }\n\
                   #[cfg(test)]\nmod tests {\n    pub fn fixture() {}\n}\n\
                   #[cfg(test)]\npub fn gated() {}\npub(crate) fn restricted() {}\n";
        let outcome = lint_tree("cfg-test", &[("crates/a/src/lib.rs", lib)], "");
        assert!(test_only(&outcome).is_empty(), "{:?}", outcome.findings);
    }

    #[test]
    fn one_allowlist_entry_covers_a_finding_and_a_stale_one_fails() {
        let files = [("crates/a/src/lib.rs", HELPER_LIB)];
        let covered = lint_tree(
            "allow",
            &files,
            "# why: a checker\ntest-only-api a/src/lib.rs pub fn helper(\n",
        );
        assert!(covered.is_clean(), "{:?}", covered.findings);
        let stale = lint_tree(
            "stale",
            &files,
            "test-only-api a/src/lib.rs pub fn helper(\ntest-only-api a/src/lib.rs pub fn gone(\n",
        );
        assert!(stale.findings.is_empty());
        assert_eq!(
            stale.unused_allowlist,
            ["test-only-api a/src/lib.rs pub fn gone("]
        );
        assert!(!stale.is_clean());
    }
}
