//! The workspace's one JSON module: a value ([`Json`]), a compact writer
//! (its `Display`) and a recursive-descent parser ([`parse`]). Every
//! document the telemetry dumps, the job server and the CLI write is
//! built as a [`Json`] and printed by the writer; every document they
//! read goes through [`parse`]. Hand-rolled like every other codec in
//! this workspace (no serde — external deps are vendored shims).
//!
//! The parser is built for *untrusted* request bodies: recursion depth
//! and token sizes are bounded, every malformed input is a typed
//! [`JsonError`], and nothing panics. Numbers keep integer precision
//! where possible ([`Json::Int`] for anything that fits `i64`,
//! [`Json::Float`] otherwise) because job parameters are integers.
//!
//! The writer emits no whitespace. A float prints in the shortest form
//! that reads back as the same `f64`, with a `.0` on integral values so
//! it reads back as a float; a non-finite float prints `null`, since JSON
//! has no spelling for it. So `parse(&v.to_string()) == Ok(v)` for every
//! value without a non-finite float.

use std::fmt::{self, Write as _};

/// Maximum nesting depth a request body may use. The job API needs 3.
const MAX_DEPTH: u32 = 32;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order preserved; duplicate keys keep the last value on lookup.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object with `fields` in order.
    pub fn obj<'a, V: Into<Json>>(fields: impl IntoIterator<Item = (&'a str, V)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v.into())).collect())
    }

    /// Object field lookup (last duplicate wins, as in most JSON stacks).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    /// Past `i64::MAX` the value becomes a float, as [`parse`] reads it.
    fn from(v: u64) -> Json {
        i64::try_from(v).map_or(Json::Float(v as f64), Json::Int)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collects into a [`Json::Arr`].
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// The compact writer.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Float(v) if !v.is_finite() => f.write_str("null"),
            Json::Float(v) if v.fract() == 0.0 => write!(f, "{v:.1}"),
            Json::Float(v) => write!(f, "{v}"),
            Json::Str(s) => write_quoted(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    v.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_quoted(f, k)?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Write `s` as a quoted JSON string.
fn write_quoted(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    write_escaped(out, s)?;
    out.write_char('"')
}

fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    Ok(())
}

/// Escape a string for embedding between quotes in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s).expect("writing to a String cannot fail");
    out
}

/// A malformed JSON document. `at` is the byte offset of the offence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub at: usize,
    pub what: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid json at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { b: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> JsonError {
        JsonError { at: self.pos, what: what.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.eat_lit("null").map(|_| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are rejected rather than paired: the
                            // job API is ASCII and a lone surrogate is never
                            // a legal char.
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy up to the next quote, backslash or control byte.
                    // Those are ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.b[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).unwrap();
        if text.is_empty() || text == "-" {
            return Err(self.err("malformed number"));
        }
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Json::Float)
            .ok_or_else(|| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_job_request_shape() {
        let v = parse(
            r#"{"bench":"FFT","schemes":["CC","S9*"],"cores":4,"priority":-2,
               "metrics":true,"note":null}"#,
        )
        .unwrap();
        assert_eq!(v.get("bench").unwrap().as_str(), Some("FFT"));
        let schemes = v.get("schemes").unwrap().as_arr().unwrap();
        assert_eq!(schemes[1].as_str(), Some("S9*"));
        assert_eq!(v.get("cores").unwrap().as_i64(), Some(4));
        assert_eq!(v.get("priority").unwrap().as_i64(), Some(-2));
        assert_eq!(v.get("metrics").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("note"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn numbers_keep_integer_precision() {
        assert_eq!(parse("9007199254740993").unwrap(), Json::Int(9007199254740993));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("1.5").unwrap(), Json::Float(1.5));
        assert!(matches!(parse("1e308").unwrap(), Json::Float(_)));
        assert!(parse("1e999").is_err(), "infinite literals rejected");
    }

    #[test]
    fn strings_unescape() {
        assert_eq!(parse(r#""a\"b\\c\ndA""#).unwrap(), Json::Str("a\"b\\c\nd\u{41}".into()));
        assert_eq!(parse("\"µs → ok\"").unwrap(), Json::Str("µs → ok".into()));
        assert!(parse(r#""\ud800""#).is_err(), "lone surrogate rejected");
        assert!(parse("\"raw\u{1}ctl\"").is_err());
    }

    #[test]
    fn malformed_inputs_are_typed_errors_never_panics() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "nul",
            "01x",
            "-",
            "\"",
            "{]",
            "[1 2]",
            "{\"a\":1,}",
            "\u{7f}",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "he said \"hi\\\" \n\t\u{1}";
        let doc = format!("{{\"k\":\"{}\"}}", escape(nasty));
        assert_eq!(parse(&doc).unwrap().get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn writer_is_compact_and_reads_back() {
        let v = Json::obj([
            ("s", Json::from("a\"b\u{1}")),
            ("n", Json::Int(-3)),
            ("big", Json::from(u64::MAX)),
            ("f", Json::from(2.0)),
            ("g", Json::from(0.125)),
            ("none", Json::from(None::<u64>)),
            ("arr", [1u64, 2].into_iter().collect()),
            ("empty", Json::obj::<Json>([])),
        ]);
        let text = v.to_string();
        assert_eq!(
            text,
            "{\"s\":\"a\\\"b\\u0001\",\"n\":-3,\"big\":18446744073709551616.0,\"f\":2.0,\
             \"g\":0.125,\"none\":null,\"arr\":[1,2],\"empty\":{}}"
        );
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_write_null() {
        let v: Json = [f64::NAN, f64::INFINITY, -0.5].into_iter().collect();
        assert_eq!(v.to_string(), "[null,null,-0.5]");
    }
}
