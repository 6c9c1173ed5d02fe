//! Minimal JSON emission and validation.
//!
//! The workspace's vendored `serde` stub carries the trait contract but no
//! serialisation backend (see `vendor/README.md`), so sweep reports emit
//! JSON through these small helpers instead. [`validate`] is a strict
//! recursive-descent parser used by the test-suite (and CI smoke checks)
//! so the emitted schema cannot silently rot.

/// Escapes `s` into a double-quoted JSON string literal.
#[must_use]
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite `f64` as a JSON number; non-finite values become
/// `null` (JSON has no NaN/Infinity).
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A parsed JSON value (the golden-master suite's document model).
///
/// Objects keep key order as a `Vec` — the reports emit keys in a stable
/// order, and [`diff`] reports key-set differences regardless of order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also what non-finite numbers serialise to).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects (`None` on other kinds or missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// A one-word name of the value's kind (used in diff messages).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Renders a [`Value`] back to compact JSON text (the inverse of
/// [`parse`], used by the golden-master suite to write *normalised*
/// snapshots so regeneration is byte-stable for unchanged schemas).
#[must_use]
pub fn render(value: &Value) -> String {
    match value {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => number(*n),
        Value::String(s) => string(s),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", inner.join(","))
        }
        Value::Object(members) => {
            let inner: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{}:{}", string(k), render(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

/// Parses one complete JSON document into a [`Value`].
///
/// # Errors
/// Returns a message naming the byte offset of the first violation.
pub fn parse(s: &str) -> Result<Value, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

/// Validates that `s` is one complete, well-formed JSON value.
///
/// # Errors
/// Returns a message naming the byte offset of the first violation.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

/// Structurally compares two documents, returning one human-readable
/// line per difference (empty when equivalent). Numbers are compared
/// with absolute-or-relative tolerance `tol`; object member *order* is
/// ignored, key sets and everything else must match. This is the
/// golden-master comparison: byte-level churn (whitespace, key order,
/// number formatting) does not trip it, schema or value changes do.
#[must_use]
pub fn diff(expected: &Value, actual: &Value, tol: f64) -> Vec<String> {
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
                match actual.get(key) {
                    Some(y) => diff_at(&format!("{path}.{key}"), x, y, tol, out),
                    None => out.push(format!("{path}: missing key {key:?}")),
                }
            }
            for (key, _) in b {
                if expected.get(key).is_none() {
                    out.push(format!("{path}: unexpected key {key:?}"));
                }
            }
        }
        _ => out.push(format!(
            "{path}: expected {}, got {}",
            expected.kind(),
            actual.kind()
        )),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos).map(Value::String),
        Some(b't') => parse_literal(b, pos, b"true", Value::Bool(true)),
        Some(b'f') => parse_literal(b, pos, b"false", Value::Bool(false)),
        Some(b'n') => parse_literal(b, pos, b"null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}", pos = *pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &[u8], value: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    let mut members = Vec::new();
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        let value = parse_value(b, pos)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    let mut items = Vec::new();
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // '"'
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => match b.get(*pos + 1) {
                Some(&e @ (b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't')) => {
                    out.push(match e {
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        other => other as char,
                    });
                    *pos += 2;
                }
                Some(b'u') => {
                    let hex = b.get(*pos + 2..*pos + 6).ok_or("truncated \\u escape")?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {pos}", pos = *pos));
                    }
                    let code = u32::from_str_radix(core::str::from_utf8(hex).expect("hex"), 16)
                        .expect("hex digits");
                    // Surrogates and astral escapes are out of scope for
                    // report documents; map unpairable codes to U+FFFD.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    *pos += 6;
                }
                _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
            },
            c if c < 0x20 => {
                return Err(format!("raw control byte in string at {pos}", pos = *pos))
            }
            _ => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always well-formed).
                let len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let slice = b
                    .get(*pos..*pos + len)
                    .ok_or_else(|| format!("truncated UTF-8 at byte {pos}", pos = *pos))?;
                out.push_str(
                    core::str::from_utf8(slice).map_err(|_| {
                        format!("invalid UTF-8 in string at byte {pos}", pos = *pos)
                    })?,
                );
                *pos += len;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    let int_digits = eat_digits(b, pos);
    if int_digits == 0 {
        return Err(format!("expected digits at byte {pos}", pos = *pos));
    }
    if int_digits > 1 && b[int_start] == b'0' {
        return Err(format!("leading zero at byte {int_start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(b, pos) == 0 {
            return Err(format!(
                "expected fraction digits at byte {pos}",
                pos = *pos
            ));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(b, pos) == 0 {
            return Err(format!(
                "expected exponent digits at byte {pos}",
                pos = *pos
            ));
        }
    }
    let text = core::str::from_utf8(&b[start..*pos]).expect("ASCII number");
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| format!("unparseable number at byte {start}"))
}

fn eat_digits(b: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    *pos - start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("Ψ/Υ"), "\"Ψ/Υ\"");
        validate(&string("quote \" backslash \\ tab \t ctrl \u{1}")).unwrap();
    }

    #[test]
    fn numbers_are_json_safe() {
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(-3.0), "-3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        for v in [0.0, 1e-9, 1e12, -0.125] {
            validate(&number(v)).unwrap();
        }
    }

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-12.5e-3",
            r#"{"a":[1,2,{"b":"x"}],"c":true,"d":null}"#,
            "  [ 1 , \"two\" , [ ] ]  ",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("rejected {ok}: {e}"));
        }
    }

    #[test]
    fn parse_builds_the_value_tree() {
        let v = parse(r#"{"a":[1,2.5,{"b":"x\n"}],"c":true,"d":null}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
        let Some(Value::Array(a)) = v.get("a") else {
            panic!("`a` is an array: {v:?}");
        };
        assert_eq!(a[0], Value::Number(1.0));
        assert_eq!(a[1], Value::Number(2.5));
        assert_eq!(a[2].get("b").and_then(Value::as_str), Some("x\n"));
        assert!(v.get("missing").is_none());
        // Round-trip through the emitters.
        let emitted = parse(&string("Ψ \"quoted\" \\ tab\t")).unwrap();
        assert_eq!(emitted.as_str(), Some("Ψ \"quoted\" \\ tab\t"));
    }

    #[test]
    fn render_round_trips_through_parse() {
        let doc = r#"{"a":[1,2.5,{"b":"x\n"},null,true],"c":"Ψ"}"#;
        let v = parse(doc).unwrap();
        let rendered = render(&v);
        assert_eq!(parse(&rendered).unwrap(), v);
    }

    #[test]
    fn diff_ignores_order_and_formatting_but_not_structure() {
        let a = parse(r#"{"x":1.0,"y":[1,2],"s":"v"}"#).unwrap();
        let same = parse(r#"{ "y":[1, 2.0], "s":"v", "x":1 }"#).unwrap();
        assert!(diff(&a, &same, 1e-9).is_empty());
        let tweaked = parse(r#"{"x":1.0001,"y":[1,2],"s":"v"}"#).unwrap();
        assert_eq!(diff(&a, &tweaked, 1e-9).len(), 1);
        assert!(diff(&a, &tweaked, 1e-2).is_empty(), "within tolerance");
        let missing = parse(r#"{"x":1,"y":[1,2]}"#).unwrap();
        assert!(diff(&a, &missing, 1e-9)[0].contains("missing key"));
        let extra = parse(r#"{"x":1,"y":[1,2],"s":"v","z":0}"#).unwrap();
        assert!(diff(&a, &extra, 1e-9)[0].contains("unexpected key"));
        let wrong_len = parse(r#"{"x":1,"y":[1],"s":"v"}"#).unwrap();
        assert!(diff(&a, &wrong_len, 1e-9)[0].contains("elements"));
        let wrong_kind = parse(r#"{"x":"1","y":[1,2],"s":"v"}"#).unwrap();
        assert!(diff(&a, &wrong_kind, 1e-9)[0].contains("expected number"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{} extra",
            "01e",
            "01",
            "-012.5",
            "NaN",
        ] {
            assert!(validate(bad).is_err(), "accepted {bad}");
        }
    }
}
