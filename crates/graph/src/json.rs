//! The workspace's one JSON codec: a reader into [`Value`] and an
//! escaping object writer.
//!
//! Every JSON surface goes through this module: the `mcrd` wire
//! protocol (`mcr-req v1` / `mcr-resp v1`), its journal and metrics,
//! the `mcr-trace v1` / `mcr-metrics v1` renderers of `mcr-obs`, the
//! `mcr-edits v1` script reader and the generated request logs. It
//! covers objects, arrays, strings with `\uXXXX` escapes, numbers,
//! booleans and null, and rejects everything else with a
//! position-carrying error.
//!
//! Integer literals are read exactly ([`Value::Int`]): a weight, arc
//! index or request id never passes through an `f64` on its way to the
//! solver, so `2^53 + 1` stays `2^53 + 1` and `2^63` is out of range for
//! [`Value::as_i64`] instead of saturating.

// Wire parsing must never panic on hostile bytes; CI runs clippy with
// -D warnings, so these lints are a gate.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// A number written without fraction or exponent, read exactly.
    /// Integer literals beyond `i128` fall back to [`Value::Float`].
    Int(i128),
    /// Every other number.
    Float(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Key/value pairs in document order, duplicates included.
    /// [`Value::get`] answers the last of duplicate keys; a reader that
    /// must refuse duplicates checks the pairs itself.
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A non-negative whole number that fits `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(n) => u64::try_from(n).ok(),
            Value::Float(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// A whole number in `i64` range (`-2^63 ..= 2^63 - 1`).
    pub fn as_i64(&self) -> Option<i64> {
        // `i64::MIN as f64` is exactly -2^63, so the half-open range
        // is exactly the representable one.
        const LIMIT: f64 = -(i64::MIN as f64);
        match *self {
            Value::Int(n) => i64::try_from(n).ok(),
            Value::Float(n) if n.fract() == 0.0 && (-LIMIT..LIMIT).contains(&n) => Some(n as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(n) => Some(n as f64),
            Value::Float(n) => Some(n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value of `key` in an object; the last one if `key` repeats.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parse failure with a byte offset into the input.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    pub at: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(v)
}

fn err(at: usize, message: &str) -> JsonError {
    JsonError {
        at,
        message: message.to_string(),
    }
}

const MAX_DEPTH: usize = 64;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while let Some(c) = b.get(*pos) {
        if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    if depth > MAX_DEPTH {
        return Err(err(*pos, "nesting too deep"));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    Value::Str(s) => s,
                    _ => return Err(err(*pos, "object key must be a string")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected `:` after object key"));
                }
                *pos += 1;
                let val = parse_value(b, pos, depth + 1)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}` in object")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(arr));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]` in array")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, JsonError> {
    if b.get(*pos..*pos + lit.len()) == Some(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while b
        .get(*pos)
        .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(b.get(start..*pos).unwrap_or(b""))
        .map_err(|_| err(start, "invalid number"))?;
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(n) = text.parse::<i128>() {
            return Ok(Value::Int(n));
        }
    }
    let n: f64 = text.parse().map_err(|_| err(start, "invalid number"))?;
    if !n.is_finite() {
        return Err(err(start, "number out of range"));
    }
    Ok(Value::Float(n))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        // Surrogates are not paired here; the protocol
                        // never emits them. Replace to stay lossless-ish.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err(err(*pos, "raw control character in string")),
            Some(_) => {
                // Copy the whole run of plain characters up to the next
                // quote, backslash or control byte. All three are ASCII,
                // so the run ends on a character boundary of the UTF-8
                // input and is validated once, in linear time.
                let rest = b.get(*pos..).unwrap_or(b"");
                let len = rest
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                    .unwrap_or(rest.len());
                let run = std::str::from_utf8(rest.get(..len).unwrap_or(b""))
                    .map_err(|_| err(*pos, "invalid utf-8 in string"))?;
                out.push_str(run);
                *pos += len;
            }
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal (no quotes added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < '\u{20}' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

/// Incremental JSON object writer: `ObjWriter::new().str("k", "v")...`.
/// Key order is emission order, so every rendered layout is stable.
///
/// ```
/// let line = mcr_graph::json::ObjWriter::new()
///     .str("schema", "mcr-trace v1")
///     .u64("job", 3)
///     .finish();
/// assert_eq!(line, r#"{"schema":"mcr-trace v1","job":3}"#);
/// ```
#[derive(Debug)]
pub struct ObjWriter {
    buf: String,
}

impl Default for ObjWriter {
    fn default() -> Self {
        ObjWriter::new()
    }
}

impl ObjWriter {
    /// An empty object.
    pub fn new() -> ObjWriter {
        ObjWriter {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
    }

    /// Appends a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
        self
    }

    /// Appends an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Appends a signed integer field.
    pub fn i64(mut self, k: &str, v: i64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Appends a float field with enough digits to round-trip;
    /// non-finite values render as `null`.
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            self.buf.push_str(&format!("{v}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Appends pre-encoded JSON verbatim (arrays, nested objects); the
    /// caller guarantees it is valid.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_shapes() {
        let text = r#"{"schema":"mcr-req v1","id":3,"op":"solve","graph":"p mcr 2 2\na 1 2 4 1\n","maximize":false,"epsilon":1.5e-6,"deadline_ms":null,"cycle":[0,2]}"#;
        let v = parse(text).expect("parses");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("mcr-req v1"));
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(3));
        assert_eq!(
            v.get("graph").and_then(Value::as_str),
            Some("p mcr 2 2\na 1 2 4 1\n")
        );
        assert_eq!(v.get("maximize").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("deadline_ms"), Some(&Value::Null));
        assert_eq!(
            v.get("cycle"),
            Some(&Value::Arr(vec![Value::Int(0), Value::Int(2)]))
        );
    }

    #[test]
    fn writer_output_parses_back() {
        let s = ObjWriter::new()
            .str("schema", "mcr-resp v1")
            .u64("id", 7)
            .str("lambda", "5/2")
            .f64("lambda_f64", 2.5)
            .bool("ok", true)
            .raw("error", "null")
            .raw("cycle", "[1,2,3]")
            .finish();
        let v = parse(&s).expect("writer output is valid json");
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("lambda_f64").and_then(Value::as_f64), Some(2.5));
        assert_eq!(v.get("error"), Some(&Value::Null));
    }

    #[test]
    fn writer_renders_exact_bytes() {
        let o = ObjWriter::new()
            .str("k", "v\"x\u{1}")
            .u64("n", 7)
            .i64("i", -3)
            .f64("e", 0.5)
            .f64("nan", f64::NAN)
            .raw("a", "[1,2]")
            .finish();
        assert_eq!(
            o,
            r#"{"k":"v\"x\u0001","n":7,"i":-3,"e":0.5,"nan":null,"a":[1,2]}"#
        );
        assert_eq!(ObjWriter::new().finish(), "{}");
        assert_eq!(ObjWriter::default().finish(), "{}");
    }

    #[test]
    fn escapes_survive_round_trip() {
        let nasty = "line1\nline2\t\"quoted\" \\slash\u{1}";
        let s = ObjWriter::new().str("k", nasty).finish();
        let v = parse(&s).expect("parses");
        assert_eq!(v.get("k").and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1} trailing",
            "nul",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn strings_copy_multibyte_runs_between_escapes() {
        let text = "é日本 plain 🦀\"\\n\\u00e9 tail";
        let s = ObjWriter::new().str("k", text).finish();
        let v = parse(&s).expect("parses");
        assert_eq!(v.get("k").and_then(Value::as_str), Some(text));
        let v = parse("\"ab\\u00e9cd\\té\"").expect("parses");
        assert_eq!(v.as_str(), Some("abécd\té"));
        // Error positions: the end of input, and the control byte itself.
        let e = parse("\"abc日").expect_err("unterminated");
        assert_eq!((e.at, e.message.as_str()), (7, "unterminated string"));
        let e = parse("\"ab\u{1}c\"").expect_err("raw control byte");
        assert_eq!((e.at, e.message.as_str()), (3, "raw control character in string"));
    }

    #[test]
    fn integers_round_trip_exactly() {
        for n in [
            i64::MIN,
            -(1 << 53) - 1,
            (1 << 53) + 1,
            (1 << 62) + 1,
            i64::MAX,
        ] {
            let v = parse(&ObjWriter::new().i64("n", n).finish()).expect("parses");
            assert_eq!(v.get("n").and_then(Value::as_i64), Some(n), "{n}");
        }
        for n in [(1 << 53) + 1, (1 << 62) + 1, u64::MAX] {
            let v = parse(&ObjWriter::new().u64("n", n).finish()).expect("parses");
            assert_eq!(v.get("n").and_then(Value::as_u64), Some(n), "{n}");
        }
        // One past either end of i64 is out of range, not saturated.
        for text in ["9223372036854775808", "-9223372036854775809"] {
            assert_eq!(parse(text).expect("parses").as_i64(), None, "{text}");
        }
        assert_eq!(parse("-1").expect("parses").as_u64(), None);
        // Floats keep their old meaning; a whole one converts, 2^63 not.
        assert_eq!(parse("4.0").expect("parses").as_i64(), Some(4));
        assert_eq!(parse("9.3e18").expect("parses").as_i64(), None);
        assert_eq!(parse("-4.5").expect("parses").as_i64(), None);
        assert_eq!(parse("1e3").expect("parses").as_u64(), Some(1000));
    }

    #[test]
    fn objects_keep_duplicates_and_get_answers_the_last() {
        let v = parse(r#"{"a":1,"b":2,"a":3}"#).expect("parses");
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        let Value::Obj(pairs) = v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "b", "a"]);
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }
}
