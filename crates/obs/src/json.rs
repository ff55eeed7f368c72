//! Minimal JSON support: the one streaming [`JsonWriter`] every record,
//! event and [`Json`] value serialises through, plus a small
//! recursive-descent parser used by the typed readers.
//!
//! The workspace builds without crates.io access, so this is a
//! deliberately tiny hand-rolled implementation covering exactly the
//! JSONL schema emitted by [`crate::events`]: objects, arrays, strings,
//! finite numbers, booleans and `null`. Unsigned integer literals that fit
//! a `u64` are kept exact ([`Json::Int`]); every other number is an `f64`.

use std::fmt::{self, Write as _};

/// Appends `s` as a JSON string literal (quotes included).
fn escape_into(out: &mut String, s: &str) {
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

/// Streaming JSON serialiser: compact (one JSONL line) or indented two
/// spaces per level (the `BENCH_*.json` form). Values are appended in
/// document order; inside an array call [`JsonWriter::elem`] before each
/// value, inside an object [`JsonWriter::key`].
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    pretty: bool,
    depth: usize,
    /// `true` right after an opening bracket (the container is still empty).
    fresh: bool,
}

impl JsonWriter {
    /// A writer producing compact JSON (no whitespace).
    pub fn compact() -> Self {
        JsonWriter {
            // Most event lines fit; skips the first few regrowths.
            out: String::with_capacity(128),
            pretty: false,
            depth: 0,
            fresh: true,
        }
    }

    /// A writer producing indented multi-line JSON.
    pub fn pretty() -> Self {
        JsonWriter {
            pretty: true,
            ..JsonWriter::compact()
        }
    }

    /// The serialised text.
    pub fn finish(self) -> String {
        self.out
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }

    /// Starts the next array element (separator and indentation).
    pub fn elem(&mut self) {
        if !self.fresh {
            self.out.push(',');
        }
        self.fresh = false;
        self.newline();
    }

    /// Starts the next object member: separator, escaped key and colon.
    pub fn key(&mut self, key: &str) {
        self.elem();
        escape_into(&mut self.out, key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Opens an object (`'{'`) or array (`'['`).
    pub fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.fresh = true;
    }

    /// Closes the innermost container with its matching bracket.
    pub fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.fresh {
            self.newline();
        }
        self.fresh = false;
        self.out.push(bracket);
    }

    /// Appends an unsigned integer.
    pub fn u64(&mut self, v: u64) {
        let _ = write!(self.out, "{v}");
    }

    /// Appends a float; non-finite values become `null`. Integral floats
    /// print without a fractional part (`1`), still a valid JSON number.
    pub fn f64(&mut self, v: f64) {
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.null();
        }
    }

    /// Appends an escaped string literal.
    pub fn str(&mut self, v: &str) {
        escape_into(&mut self.out, v);
    }

    /// Appends `true` / `false`.
    pub fn bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Appends `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number that is not an exact [`Json::Int`].
    Num(f64),
    /// An unsigned integer literal that fits a `u64`, kept exact (a
    /// 64-bit seed does not survive a trip through `f64`).
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document; trailing whitespace is allowed, trailing
    /// garbage is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Object member lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number
    /// below 2⁶⁴ (`u64::MAX as f64` rounds up to 2⁶⁴, hence the strict
    /// bound: 18446744073709551616 is not a `u64`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's members, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serialises the value as compact JSON (no whitespace).
    pub fn dump(&self) -> String {
        let mut w = JsonWriter::compact();
        self.write(&mut w);
        w.finish()
    }

    /// Serialises the value as indented multi-line JSON (two spaces per
    /// level) — the format of `BENCH_*.json` snapshot files.
    pub fn dump_pretty(&self) -> String {
        let mut w = JsonWriter::pretty();
        self.write(&mut w);
        w.finish()
    }

    fn write(&self, w: &mut JsonWriter) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(v) => w.f64(*v),
            Json::Int(v) => w.u64(*v),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => {
                w.open('[');
                for item in items {
                    w.elem();
                    item.write(w);
                }
                w.close(']');
            }
            Json::Obj(members) => {
                w.open('{');
                for (key, value) in members {
                    w.key(key);
                    value.write(w);
                }
                w.close('}');
            }
        }
    }
}

fn err(offset: usize, message: &str) -> JsonError {
    JsonError {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected '{}'", b as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected '{lit}'")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number slice");
    if let Ok(v) = text.parse::<u64>() {
        return Ok(Json::Int(v));
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, "invalid number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, pos)?;
                        let c = match code {
                            0xD800..=0xDBFF => {
                                // Surrogate pair: expect a trailing \uXXXX.
                                if bytes.get(*pos + 1) == Some(&b'\\')
                                    && bytes.get(*pos + 2) == Some(&b'u')
                                {
                                    *pos += 2;
                                    let low = parse_hex4(bytes, pos)?;
                                    let combined = 0x10000
                                        + ((code as u32 - 0xD800) << 10)
                                        + (low as u32).wrapping_sub(0xDC00);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            }
                            0xDC00..=0xDFFF => '\u{FFFD}',
                            c => char::from_u32(c as u32).unwrap_or('\u{FFFD}'),
                        };
                        out.push(c);
                    }
                    _ => return Err(err(*pos, "invalid escape sequence")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash as one
                // slice. Both are ASCII, so the run starts and ends on
                // character boundaries of the (valid UTF-8) input, and
                // checking it costs its own length, not the rest's.
                let run = bytes[*pos..].iter().position(|&b| b == b'"' || b == b'\\');
                let end = run.map_or(bytes.len(), |run| *pos + run);
                out.push_str(std::str::from_utf8(&bytes[*pos..end]).expect("valid utf-8 input"));
                *pos = end;
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u16, JsonError> {
    let start = *pos + 1;
    let end = start + 4;
    if end > bytes.len() {
        return Err(err(*pos, "truncated \\u escape"));
    }
    let hex = std::str::from_utf8(&bytes[start..end]).map_err(|_| err(start, "bad \\u escape"))?;
    let code = u16::from_str_radix(hex, 16).map_err(|_| err(start, "bad \\u escape"))?;
    *pos = end - 1;
    Ok(code)
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escape(s: &str) -> String {
        Json::Str(s.to_string()).dump()
    }

    fn fmt_f64(v: f64) -> String {
        Json::Num(v).dump()
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn fmt_f64_non_finite_is_null() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn parse_roundtrip_object() {
        let doc = r#"{"event":"run_start","algo":"ILS","n_vars":5,"sim":0.75,"ok":true,"x":null,"arr":[1,2]}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("algo").unwrap().as_str(), Some("ILS"));
        assert_eq!(v.get("n_vars").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("sim").unwrap().as_f64(), Some(0.75));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("x"), Some(&Json::Null));
        assert_eq!(v.get("arr").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_escapes_and_unicode() {
        let v = Json::parse(r#""a\"\\\n\t\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"\\\n\tA\u{e9}"));
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    /// Multi-byte characters right against escapes, at both ends of a
    /// string and between two escapes.
    #[test]
    fn parse_keeps_multibyte_characters_next_to_escapes() {
        let doc = r#"["é\n€\"𝄞","\\ß\t","\u00e9😀\u20ac","ü","\"\"",""]"#;
        let parsed = Json::parse(doc).unwrap();
        let strings: Vec<&str> = parsed
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect();
        assert_eq!(strings, ["é\n€\"𝄞", "\\ß\t", "é😀€", "ü", "\"\"", ""]);
        assert_eq!(Json::parse(&parsed.dump()).unwrap(), parsed);
        assert!(Json::parse("\"é€").is_err(), "unterminated");
    }

    /// Parsing is linear in the document: a string-heavy document of
    /// 4 MB parses in well under the 2 s asserted (unoptimised build).
    #[test]
    fn parse_time_is_linear_in_the_document() {
        let item = r#"{"name":"é€𝄞 plain text \"quoted\" and more plain text","n":1}"#;
        let count = 4_000_000 / item.len() + 1;
        let doc = format!("[{}]", vec![item; count].join(","));
        assert!(doc.len() >= 4_000_000);
        let started = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        let secs = started.elapsed().as_secs_f64();
        assert_eq!(parsed.as_array().unwrap().len(), count);
        assert!(secs < 2.0, "{} bytes took {secs:.2} s", doc.len());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{}x").is_err());
        assert!(Json::parse(r#"{"a":}"#).is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
    }

    #[test]
    fn dump_round_trips() {
        let doc = r#"{"label":"ci","n":3,"ok":true,"x":null,"arr":[1,0.5,"s"],"nested":{"a":[]}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.dump(), doc);
        let pretty = v.dump_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }
}
