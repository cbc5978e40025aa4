//! Hand-rolled JSON value, writer and parser.
//!
//! Covers exactly what the workspace needs from a JSON library: building a
//! tree of values, writing it compactly or pretty-printed with a stable
//! (insertion-order) key order so emitted artifacts are byte-reproducible,
//! and parsing it back for roundtrip checks and bitstream/arch import.
//! Objects preserve insertion order deliberately — a `HashMap` would make
//! `results/*.json` differ run-to-run, breaking the hermetic-build promise.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; written without a trailing `.0` when integral.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Self {
        Json::Arr(items.into_iter().collect())
    }

    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, when a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, when an integral non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as `usize`, when an integral non-negative number.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The value as `&str`, when a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, when a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation and a trailing newline —
    /// the format every `results/*.json` artifact uses.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    ///
    /// Safe on untrusted input: anything after the top-level value (other
    /// than whitespace) is rejected, and nesting is capped at
    /// [`MAX_PARSE_DEPTH`] containers so a crafted `[[[[…` cannot blow the
    /// stack — the recursive-descent parser recurses once per container
    /// level.
    ///
    /// # Errors
    ///
    /// Returns the byte offset and description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// Maximum container nesting depth [`Json::parse`] accepts. Every artifact
/// the workspace emits nests a handful of levels; 128 leaves two orders of
/// magnitude of headroom while keeping the parser's stack usage bounded on
/// adversarial input (shell-serve feeds network bytes straight into it).
pub const MAX_PARSE_DEPTH: usize = 128;

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the least-surprising stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            if depth >= MAX_PARSE_DEPTH {
                return Err(format!(
                    "nesting deeper than {MAX_PARSE_DEPTH} at byte {pos}"
                ));
            }
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            if depth >= MAX_PARSE_DEPTH {
                return Err(format!(
                    "nesting deeper than {MAX_PARSE_DEPTH} at byte {pos}"
                ));
            }
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos}")),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the whole run of unescaped bytes and validate its
                // UTF-8 once. (`"` and `\` are ASCII, so a raw byte scan
                // cannot split a multi-byte sequence.) Validating from
                // `pos` to end-of-input per character instead is quadratic
                // and made large-artifact parses ~100x slower.
                let start = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'"' || b == b'\\' {
                        break;
                    }
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact_and_pretty() {
        let v = Json::obj([
            ("name", Json::from("shell")),
            ("bits", Json::arr([Json::from(1u64), Json::from(0u64)])),
            ("ok", Json::from(true)),
        ]);
        assert_eq!(
            v.to_string_compact(),
            r#"{"name":"shell","bits":[1,0],"ok":true}"#
        );
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"name\": \"shell\""), "{pretty}");
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn key_order_is_insertion_order() {
        let v = Json::obj([("z", Json::Null), ("a", Json::Null)]);
        assert_eq!(v.to_string_compact(), r#"{"z":null,"a":null}"#);
    }

    #[test]
    fn integral_numbers_have_no_decimal_point() {
        assert_eq!(Json::from(42u64).to_string_compact(), "42");
        assert_eq!(Json::Num(2.5).to_string_compact(), "2.5");
        assert_eq!(Json::Num(-3.0).to_string_compact(), "-3");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn string_escapes() {
        let v = Json::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.to_string_compact(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn parse_roundtrips() {
        let v = Json::obj([
            ("n", Json::Num(1.5)),
            ("s", Json::from("he\"llo\nworld")),
            (
                "a",
                Json::arr([Json::Null, Json::from(false), Json::from(7u64)]),
            ),
            ("o", Json::obj([("inner", Json::from("v"))])),
        ]);
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_rejects_trailing_garbage_after_top_level_value() {
        // Untrusted-input contract: nothing but whitespace may follow the
        // top-level value. A lenient parser here would let a malicious
        // request smuggle a second payload past a length check.
        for text in [
            "{}x",
            "{} {}",
            "[1] 2",
            "null null",
            "true,",
            "\"s\"\"t\"",
            "7 //comment",
        ] {
            let err = Json::parse(text).unwrap_err();
            assert!(err.contains("trailing"), "`{text}` -> {err}");
        }
        // ...but trailing whitespace alone is fine.
        assert_eq!(Json::parse(" {} \n\t").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn parse_enforces_depth_limit() {
        // A value at exactly the limit parses...
        let ok = "[".repeat(MAX_PARSE_DEPTH) + &"]".repeat(MAX_PARSE_DEPTH);
        assert!(Json::parse(&ok).is_ok());
        // ...one level past it is a typed error, not a stack overflow —
        // even at bomb depth (this would recurse ~500k frames unchecked).
        for depth in [MAX_PARSE_DEPTH + 1, 500_000] {
            let arr_bomb = "[".repeat(depth);
            let err = Json::parse(&arr_bomb).unwrap_err();
            assert!(err.contains("nesting deeper"), "{err}");
        }
        let obj_bomb = "{\"k\":".repeat(MAX_PARSE_DEPTH + 1);
        let err = Json::parse(&obj_bomb).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // Mixed nesting counts every container level.
        let mixed = "[{\"k\":".repeat((MAX_PARSE_DEPTH / 2) + 1);
        assert!(Json::parse(&mixed).is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"k": 3, "s": "x", "b": true, "a": [1]}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("k").and_then(Json::as_usize), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn unicode_survives() {
        let v = Json::from("héllo ☃");
        let text = v.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::from("A"));
    }
}
