//! Minimal JSON reader/writer for the wire protocol.
//!
//! The workspace is offline and `vendor/serde_json` is an honest stub
//! (it always errors), so the service speaks JSON through this ~200
//! line module instead: a recursive-descent parser into [`Value`] and
//! an escaping writer. It covers exactly what `mcr-req v1` /
//! `mcr-resp v1` need — objects, arrays, strings with `\uXXXX`
//! escapes, integers/floats, booleans, null — and rejects everything
//! else with a position-carrying error.

// Wire parsing must never panic on hostile bytes; CI runs clippy with
// -D warnings, so these lints are a gate.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value. Object keys keep only the last duplicate, in
/// sorted order (BTreeMap) — fine for a protocol that never relies on
/// key order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All JSON numbers; integers that fit i64 are exact.
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
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
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(map));
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
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(map));
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
    let n: f64 = text.parse().map_err(|_| err(start, "invalid number"))?;
    if !n.is_finite() {
        return Err(err(start, "number out of range"));
    }
    Ok(Value::Num(n))
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Incremental JSON object writer: `Writer::obj().str("k", "v")...`.
/// Key order is emission order, so response layouts are stable.
#[derive(Default)]
pub struct ObjWriter {
    buf: String,
    first: bool,
}

impl ObjWriter {
    pub fn new() -> ObjWriter {
        ObjWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
        self
    }

    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    pub fn i64(mut self, k: &str, v: i64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            self.buf.push_str(&format!("{v}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn null(mut self, k: &str) -> Self {
        self.key(k);
        self.buf.push_str("null");
        self
    }

    /// Raw pre-encoded JSON (arrays, nested objects).
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    pub fn opt_str(self, k: &str, v: Option<&str>) -> Self {
        match v {
            Some(v) => self.str(k, v),
            None => self.null(k),
        }
    }

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
            Some(&Value::Arr(vec![Value::Num(0.0), Value::Num(2.0)]))
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
            .null("error")
            .raw("cycle", "[1,2,3]")
            .finish();
        let v = parse(&s).expect("writer output is valid json");
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("lambda_f64").and_then(Value::as_f64), Some(2.5));
        assert_eq!(v.get("error"), Some(&Value::Null));
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
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }
}
