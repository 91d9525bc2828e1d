//! The workspace's one JSON module, for every crate from `rocket-trace` up
//! (the build links no serde). [`push_str`] is the one string escaper and
//! [`num`] the one number policy: Rust's `{}` when finite, `null` otherwise.
//! One lexer serves both readers: [`Json::parse`] builds a tree nested at
//! most [`MAX_DEPTH`] deep, and [`read_flat`] reads one flat object, keeping
//! numbers as text so integers read back exactly. Both reject what strict
//! JSON rejects and return `Err`, never panic, on hostile input.

// The panic-path set: faults and hostile bytes return errors (docs/static-checks.md).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Json::parse`] accepts; deeper input is
/// an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys for deterministic output).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Looks up an object field.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Serializes to a compact JSON string.
    pub fn to_string_compact(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                let _ = write!(out, "{}", num(*n));
            }
            Json::Str(s) => push_str(out, s),
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
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (requires full consumption of the input).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut lx = Lexer { text, pos: 0 };
        let v = tree(&mut lx, 0)?;
        lx.end().map(|()| v)
    }
}

/// Appends `s` as a JSON string literal, quotes included.
pub fn push_str(out: &mut String, s: &str) {
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

/// `v` as a JSON number: Rust's `{}` when finite, `null` otherwise.
pub fn num(v: f64) -> impl fmt::Display {
    fmt::from_fn(move |f| {
        if v.is_finite() {
            write!(f, "{v}")
        } else {
            f.write_str("null")
        }
    })
}

/// One scalar value of a flat object, borrowed from the input if it can be.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number as its validated source text, so integers parse exactly.
    Num(&'a str),
    /// A string, unescaped.
    Str(Cow<'a, str>),
}

/// Reads one flat JSON object — every value a scalar — into one slot per
/// name in `keys`. A key outside `keys`, a repeated key or a nested value
/// is an error; a missing key leaves its slot `None`.
pub fn read_flat<'a, const N: usize>(
    text: &'a str,
    keys: [&str; N],
) -> Result<[Option<Scalar<'a>>; N], JsonError> {
    let mut slots = [const { None }; N];
    let mut lx = Lexer { text, pos: 0 };
    lx.list(b'{', b'}', |lx| {
        let at = lx.pos;
        let key = lx.key()?;
        let slot = keys
            .iter()
            .position(|k| *k == key)
            .and_then(|i| slots.get_mut(i))
            .ok_or_else(|| JsonError::at(at, format!("unknown field {key:?}")))?;
        if slot.is_some() {
            return Err(JsonError::at(at, format!("repeated field {key:?}")));
        }
        *slot = Some(lx.scalar()?);
        Ok(())
    })?;
    lx.end().map(|()| slots)
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(pos: usize, message: impl Into<String>) -> Self {
        Self {
            pos,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Builds a [`Json`] tree; `depth` counts the containers open around it.
fn tree(lx: &mut Lexer<'_>, depth: usize) -> Result<Json, JsonError> {
    lx.skip_ws();
    let at = lx.pos;
    Ok(match lx.peek() {
        Some(b'[' | b'{') if depth >= MAX_DEPTH => {
            return Err(JsonError::at(at, "nesting too deep"))
        }
        Some(b'[') => {
            let mut items = Vec::new();
            lx.list(b'[', b']', |lx| tree(lx, depth + 1).map(|v| items.push(v)))?;
            Json::Arr(items)
        }
        Some(b'{') => {
            let mut map = BTreeMap::new();
            lx.list(b'{', b'}', |lx| {
                let key = lx.key()?.into_owned();
                tree(lx, depth + 1).map(|v| drop(map.insert(key, v)))
            })?;
            Json::Obj(map)
        }
        _ => match lx.scalar()? {
            Scalar::Null => Json::Null,
            Scalar::Bool(b) => Json::Bool(b),
            Scalar::Str(s) => Json::Str(s.into_owned()),
            Scalar::Num(text) => Json::Num(
                text.parse()
                    .map_err(|_| JsonError::at(at, format!("bad number '{text}'")))?,
            ),
        },
    })
}

/// The one JSON tokenizer, over a `&str` so every span it cuts at an ASCII
/// delimiter is valid UTF-8 and can be borrowed.
struct Lexer<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn require(&mut self, b: u8) -> Result<(), JsonError> {
        let at = self.pos;
        let msg = || JsonError::at(at, format!("expected '{}'", b as char));
        self.eat(b).then_some(()).ok_or_else(msg)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Succeeds when only whitespace is left.
    fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        let rest = JsonError::at(self.pos, "trailing characters");
        (self.pos == self.text.len()).then_some(()).ok_or(rest)
    }

    /// The input from `start` to the cursor.
    fn span(&self, start: usize) -> Result<&'a str, JsonError> {
        let err = || JsonError::at(start, "invalid utf-8 boundary");
        self.text.get(start..self.pos).ok_or_else(err)
    }

    fn literal(&mut self, lit: &str, v: Scalar<'a>) -> Result<Scalar<'a>, JsonError> {
        if !self.text.get(self.pos..).unwrap_or("").starts_with(lit) {
            return Err(JsonError::at(self.pos, format!("expected '{lit}'")));
        }
        self.pos += lit.len();
        Ok(v)
    }

    fn scalar(&mut self) -> Result<Scalar<'a>, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Scalar::Null),
            Some(b't') => self.literal("true", Scalar::Bool(true)),
            Some(b'f') => self.literal("false", Scalar::Bool(false)),
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b'-' | b'0'..=b'9') => self.number().map(Scalar::Num),
            Some(c) => Err(JsonError::at(
                self.pos,
                format!("unexpected '{}'", c as char),
            )),
            None => Err(JsonError::at(self.pos, "unexpected end of input")),
        }
    }

    /// Consumes a run of ASCII digits; true if there was one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        let ok = (self.eat(b'0') || self.digits())
            && (!self.eat(b'.') || self.digits())
            && (!(self.eat(b'e') || self.eat(b'E')) || {
                let _ = self.eat(b'+') || self.eat(b'-');
                self.digits()
            });
        let text = self.span(start)?;
        let bad = || JsonError::at(start, format!("bad number '{text}'"));
        ok.then_some(text).ok_or_else(bad)
    }

    /// A string literal: borrowed when it holds no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.require(b'"')?;
        let (mut out, mut run) = (Cow::Borrowed(""), self.pos);
        loop {
            match self.peek() {
                Some(b'"') => {
                    let tail = self.span(run)?;
                    self.pos += 1;
                    if out.is_empty() {
                        return Ok(Cow::Borrowed(tail));
                    }
                    out.to_mut().push_str(tail);
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.to_mut().push_str(self.span(run)?);
                    self.pos += 1;
                    out.to_mut().push(self.escape()?);
                    run = self.pos;
                }
                Some(0..0x20) => {
                    return Err(JsonError::at(self.pos, "control character in string"))
                }
                Some(_) => self.pos += 1,
                None => return Err(JsonError::at(self.pos, "unterminated string")),
            }
        }
    }

    /// The character an escape stands for; the cursor is past the `\`.
    fn escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        self.pos += 1;
        Ok(match self.text.as_bytes().get(at) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = self
                    .text
                    .get(at + 1..at + 5)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                self.pos += 4;
                let code = hex.ok_or_else(|| JsonError::at(at, "bad \\u escape"))?;
                u32::from_str_radix(code, 16)
                    .ok()
                    .and_then(char::from_u32)
                    .unwrap_or('\u{fffd}')
            }
            _ => return Err(JsonError::at(at, "bad escape")),
        })
    }

    /// An object key and its `:`, leaving the cursor at the value.
    fn key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let key = self.string()?;
        self.skip_ws();
        self.require(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// `open item (, item)* close` — an array or, with `item` reading a
    /// [`Lexer::key`] first, an object.
    fn list(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_ws();
        self.require(open)?;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            self.require(b',')?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parse_nested() {
        let doc = r#"{"points": [[1.5, -2.0], [0, 3]], "name": "p1", "ok": true}"#;
        let v = Json::parse(doc).unwrap();
        let points = v.get("points").unwrap().as_arr().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].as_arr().unwrap()[0].as_f64(), Some(1.5));
        assert_eq!(v.get("name").unwrap(), &Json::Str("p1".into()));
    }

    #[test]
    fn roundtrip_through_writer() {
        let doc = r#"{"a":[1,2.5,null],"b":{"c":"x\ny"},"d":false}"#;
        let v = Json::parse(doc).unwrap();
        let emitted = v.to_string_compact();
        assert_eq!(Json::parse(&emitted).unwrap(), v);
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""line\nquote\"uA""#).unwrap();
        assert_eq!(v, Json::Str("line\nquote\"uA".into()));
        let out = Json::Str("a\"b\\c\nd".into()).to_string_compact();
        assert_eq!(Json::parse(&out).unwrap(), Json::Str("a\"b\\c\nd".into()));
        let mut out = String::new();
        push_str(&mut out, "a\"b\\c\nd\u{1}ä→");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001ä→\"");
        assert_eq!(
            Json::parse(&out).unwrap(),
            Json::Str("a\"b\\c\nd\u{1}ä→".into())
        );
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "tru",
            "1 2",
            r#"{"a" 1}"#,
            "\"unterminated",
            "\"raw\u{1}control\"",
            "01",
            "1.",
            "-",
            "1e",
            "+1",
            r#""\u12""#,
            r#""\u+123""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" {\n\t\"k\" :\r [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn number_policy() {
        assert_eq!(Json::Num(3.0).to_string_compact(), "3");
        assert_eq!(Json::Num(3.25).to_string_compact(), "3.25");
        assert_eq!(Json::Num(1e20).to_string_compact(), "100000000000000000000");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(num(f64::INFINITY).to_string(), "null");
        assert_eq!(num(0.1).to_string(), "0.1");
    }

    #[test]
    fn error_positions() {
        let err = Json::parse("[1, x]").unwrap_err();
        assert_eq!(err.pos, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(Json::parse(&deep).unwrap_err().message, "nesting too deep");
        let hostile = "[".repeat(100_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert_eq!(
            (err.pos, err.message.as_str()),
            (MAX_DEPTH, "nesting too deep")
        );
        let objects = "{\"a\":".repeat(100_000);
        assert_eq!(
            Json::parse(&objects).unwrap_err().message,
            "nesting too deep"
        );
    }

    #[test]
    fn flat_reader_fills_named_slots() {
        let slots = read_flat(
            r#" {"t":18446744073709551615,"k":"a\"b","z":null,"b":true} "#,
            ["b", "k", "t", "z", "absent"],
        )
        .unwrap();
        assert_eq!(
            slots,
            [
                Some(Scalar::Bool(true)),
                Some(Scalar::Str("a\"b".into())),
                Some(Scalar::Num("18446744073709551615")),
                Some(Scalar::Null),
                None,
            ]
        );
        for (bad, why) in [
            (r#"{"a":[1]}"#, "unexpected '['"),
            (r#"{"a":1} x"#, "trailing characters"),
            (r#"{"a":1,"b":2}"#, "unknown field \"b\""),
            (r#"{"a":1,"a":2}"#, "repeated field \"a\""),
        ] {
            assert_eq!(read_flat(bad, ["a"]).unwrap_err().message, why, "{bad}");
        }
    }
}
