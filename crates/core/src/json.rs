//! Minimal in-tree JSON value, parser and writer.
//!
//! Anything that needs bytes on disk serializes through this module:
//! [`crate::io`] uses it for real model snapshots
//! (save a trained network once, restore per grid point) and
//! `axsnn_bench::json` re-exports it for the `BENCH_*.json` perf
//! artifacts and their trajectory gate. Only the subset of JSON those
//! consumers need is supported: objects, arrays, strings (no escapes
//! beyond `\"`, `\\`, `\n`, `\t`), numbers, booleans and `null`.
//!
//! Numbers render through Rust's shortest-roundtrip `f64` formatting,
//! so an `f32` widened to `f64`, written and re-parsed comes back to
//! the identical bit pattern — which is what lets the model snapshots
//! promise value-exact weight restoration.
//!
//! # Example
//!
//! ```
//! use axsnn_core::json::{parse, Json};
//!
//! let doc = Json::Obj(vec![
//!     ("name".into(), Json::Str("layer".into())),
//!     ("weights".into(), Json::Arr(vec![Json::Num(0.25), Json::Num(-1.5)])),
//! ]);
//! let text = doc.to_json_string();
//! assert_eq!(parse(&text).unwrap(), doc);
//! ```

use std::fmt;
use std::fmt::Write as _;

/// A JSON parse failure: what went wrong and the byte offset it went
/// wrong at. The offset is what lets higher layers (model snapshots,
/// sweep journals) point at the exact damaged spot in a file instead of
/// returning a bare message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the source document.
    pub offset: usize,
    /// Description of the failure (offset excluded; [`fmt::Display`]
    /// appends it).
    pub message: String,
}

impl ParseError {
    fn at(offset: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number (all JSON numbers parse as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Looks a key up, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serializes the value as compact JSON.
    ///
    /// Non-finite numbers (which JSON cannot represent) render as
    /// `null`; the workspace's snapshot data is finite by construction.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(v) => {
                if v.is_finite() {
                    // {:?} is Rust's shortest f64 roundtrip form, which
                    // is also valid JSON for finite values.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Null => out.push_str("null"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a [`ParseError`] carrying the byte offset of the failure for
/// malformed input or trailing garbage.
pub fn parse(src: &str) -> Result<Json, ParseError> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError::at(pos, "trailing data"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError::at(*pos, format!("expected '{}'", c as char)))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err(ParseError::at(*pos, "unexpected end of input")),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(ParseError::at(*pos, "invalid literal"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| ParseError::at(start, "invalid number"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    _ => return Err(ParseError::at(*pos, "unsupported escape")),
                }
                *pos += 1;
            }
            c => {
                // Multi-byte UTF-8 passes through unchanged.
                let ch_len = utf8_len(c);
                out.push_str(
                    std::str::from_utf8(&b[*pos..*pos + ch_len])
                        .map_err(|_| ParseError::at(*pos, "invalid UTF-8"))?,
                );
                *pos += ch_len;
            }
        }
    }
    Err(ParseError::at(b.len(), "unterminated string"))
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(ParseError::at(*pos, "expected ',' or '}'")),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(ParseError::at(*pos, "expected ',' or ']'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_parser_roundtrip() {
        let doc = Json::Obj(vec![
            (
                "a".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(-2.5e3)]),
            ),
            ("b".into(), Json::Str("x\"y\\z\nw".into())),
            ("c".into(), Json::Bool(true)),
            ("d".into(), Json::Null),
            ("e".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(parse(&doc.to_json_string()).unwrap(), doc);
    }

    #[test]
    fn f32_values_roundtrip_exactly() {
        // Every f32 written through the f64 shortest-roundtrip form
        // must come back bit-identical after widening/parse/narrowing.
        let values = [
            0.1f32,
            -0.0,
            1.0 / 3.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            -1.5e-30,
            std::f32::consts::PI,
        ];
        for &v in &values {
            let doc = Json::Num(v as f64);
            let back = parse(&doc.to_json_string()).unwrap();
            let restored = back.as_f64().unwrap() as f32;
            assert_eq!(restored.to_bits(), v.to_bits(), "value {v}");
        }
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(Json::Num(f64::NAN).to_json_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_json_string(), "null");
    }

    #[test]
    fn parses_nested_values_and_rejects_garbage() {
        let ok = parse(r#"{"a": [1, -2.5e3, true, null], "b": "x\"y"}"#).unwrap();
        assert_eq!(ok.get("a").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(ok.get("b").unwrap().as_str(), Some("x\"y"));
        assert!(parse("[1, 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[] trailing").is_err());
        assert!(parse("").is_err());
    }
}
