//! Recursive-descent JSON parser.
//!
//! Accepts the full JSON grammar (RFC 8259). Rejects: trailing content,
//! NaN/Infinity literals, unescaped control characters, lone surrogates.
//! Depth is bounded to protect the server from hostile payloads.

use crate::error::{JsonError, Result};
use crate::map::{Key, Map};
use crate::value::Value;
use std::borrow::Cow;

/// Maximum nesting depth accepted by [`parse`]. The Laminar server parses
/// untrusted client payloads, so recursion must be bounded.
pub const MAX_DEPTH: usize = 256;

/// Parse a complete JSON document.
///
/// ```
/// let v = laminar_json::parse("[1, 2.5, \"x\"]").unwrap();
/// assert_eq!(v[0].as_i64(), Some(1));
/// ```
pub fn parse(input: &str) -> Result<Value> {
    let mut p = Parser { input, pos: 0, entries: Vec::new(), items: Vec::new() };
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos < input.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// The parser's state: the input, the offset of its next byte, and the
/// entries and items of the objects and arrays still open. A container's
/// elements gather on top of its stack and move into it when it closes,
/// so each is allocated once, at its final size. They move by
/// `split_off`, one copy: collecting a `drain` moved them one at a time,
/// and an array of numbers parsed a third slower than it did growing its
/// own `Vec`.
struct Parser<'a> {
    input: &'a str,
    pos: usize,
    entries: Vec<(Key, Value)>,
    items: Vec<Value>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    /// The error at the current offset. Every error is built here, off
    /// the path a well-formed document takes.
    #[cold]
    #[inline(never)]
    fn err(&self, msg: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.input.as_bytes()[..self.pos.min(self.input.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError::new(msg, line, col, self.pos)
    }

    /// Parse one JSON value starting at the current position.
    fn parse_value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.err(format!("unexpected character '{}'", b as char))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value> {
        if self.input.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err(format!("invalid literal, expected '{kw}'")))
        }
    }

    /// An object; the caller saw its `{`.
    fn parse_object(&mut self, depth: usize) -> Result<Value> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(Map::new()));
        }
        let start = self.entries.len();
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = match self.parse_text()? {
                Cow::Borrowed(text) => Key::from(text),
                Cow::Owned(text) => Key::from(text),
            };
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            let value = self.parse_value(depth + 1)?;
            self.entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(Map::from_entries(self.entries.split_off(start))));
                }
                _ => {
                    // Reported past the offending byte.
                    self.bump();
                    return Err(self.err("expected ',' or '}' in object"));
                }
            }
        }
    }

    /// An array; the caller saw its `[`.
    fn parse_array(&mut self, depth: usize) -> Result<Value> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(Vec::new()));
        }
        let start = self.items.len();
        loop {
            let item = self.parse_value(depth + 1)?;
            self.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(self.items.split_off(start)));
                }
                _ => {
                    // Reported past the offending byte.
                    self.bump();
                    return Err(self.err("expected ',' or ']' in array"));
                }
            }
        }
    }

    /// The run from the current offset up to the next quote, backslash or
    /// control byte (or the end), consumed. Each of the three is ASCII, so
    /// the run ends on a character boundary.
    fn run(&mut self) -> &'a str {
        let input = self.input;
        let rest = &input.as_bytes()[self.pos..];
        let len = rest.iter().position(|&b| b < 0x20 || b == b'"' || b == b'\\').unwrap_or(rest.len());
        let start = self.pos;
        self.pos += len;
        &input[start..self.pos]
    }

    /// A string; the caller saw its opening quote.
    fn parse_string(&mut self) -> Result<String> {
        self.parse_text().map(Cow::into_owned)
    }

    /// A string's text; the caller saw its opening quote. One without
    /// escapes is borrowed from the input in one piece.
    fn parse_text(&mut self) -> Result<Cow<'a, str>> {
        self.pos += 1;
        let run = self.run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = run.to_owned();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(Cow::Owned(out)),
                Some(b'\\') => self.parse_escape(&mut out)?,
                Some(_) => return Err(self.err("control character in string")),
            }
            out.push_str(self.run());
        }
    }

    /// The escape after a backslash, pushed onto `out`.
    fn parse_escape(&mut self, out: &mut String) -> Result<()> {
        match self.bump() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{0008}'),
            Some(b'f') => out.push('\u{000C}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let cp = self.parse_hex4()?;
                if (0xD800..0xDC00).contains(&cp) {
                    // High surrogate: require a following \uXXXX low half.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err("unpaired surrogate escape"));
                    }
                    let lo = self.parse_hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                    out.push(char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))?);
                } else if (0xDC00..0xE000).contains(&cp) {
                    return Err(self.err("unexpected low surrogate"));
                } else {
                    out.push(char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?);
                }
            }
            _ => return Err(self.err("invalid escape sequence")),
        }
        Ok(())
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char).to_digit(16).ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: 0 alone, or non-zero leading digit. Up to 18
        // digits always fit an i64, so they are summed as they are read.
        let digits = self.pos;
        let mut magnitude = 0u64;
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(d @ b'0'..=b'9') = self.peek() {
                    magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let digits = self.pos - digits;
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if !is_float && digits <= 18 {
            let magnitude = magnitude as i64;
            return Ok(Value::Int(if negative { -magnitude } else { magnitude }));
        }
        let text = &self.input[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            // Integer overflow falls back to float, like most JSON parsers.
        }
        let f: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if f.is_nan() || f.is_infinite() {
            return Err(self.err("number out of range"));
        }
        Ok(Value::Float(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{jarr, jobj};

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("0").unwrap(), Value::Int(0));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("-1.5E-2").unwrap(), Value::Float(-0.015));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn containers() {
        assert_eq!(parse("[]").unwrap(), jarr![]);
        assert_eq!(parse("[1,2,3]").unwrap(), jarr![1, 2, 3]);
        assert_eq!(parse("{}").unwrap(), jobj! {});
        assert_eq!(
            parse(r#"{"a": [1, {"b": null}], "c": "d"}"#).unwrap(),
            jobj! { "a" => jarr![1, jobj!{ "b" => Value::Null }], "c" => "d" }
        );
    }

    #[test]
    fn whitespace_tolerance() {
        let v = parse(" \n\t{ \"a\" :\r 1 , \"b\" : [ ] } \n").unwrap();
        assert_eq!(v["a"].as_i64(), Some(1));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\/d\n\t\r\b\f""#).unwrap(),
            Value::Str("a\"b\\c/d\n\t\r\u{8}\u{c}".into())
        );
        assert_eq!(parse(r#""A""#).unwrap(), Value::Str("A".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Value::Str("😀".into()));
        assert_eq!(parse("\"héllo ∆\"").unwrap(), Value::Str("héllo ∆".into()));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "tru",
            "01",
            "1.",
            ".5",
            "1e",
            "+1",
            "nan",
            "Infinity",
            "[1,]",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "\"unterminated",
            "\"\\q\"",
            "\"\\uD800\"",
            "\"\\uDC00x\"",
            "[1] extra",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn control_char_rejected() {
        assert!(parse("\"a\u{1}b\"").is_err());
    }

    #[test]
    fn depth_limit() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn int_overflow_degrades_to_float() {
        let v = parse("99999999999999999999999").unwrap();
        assert!(matches!(v, Value::Float(_)));
        // Either side of the 18 digits summed as they are read.
        assert_eq!(parse("-999999999999999999").unwrap(), Value::Int(-999_999_999_999_999_999));
        assert_eq!(parse("1000000000000000000").unwrap(), Value::Int(1_000_000_000_000_000_000));
        assert_eq!(parse("-0").unwrap(), Value::Int(0));
        assert_eq!(parse("9223372036854775808").unwrap(), Value::Float(9223372036854775808.0));
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v["a"].as_i64(), Some(2));
    }

    #[test]
    fn error_position_reported() {
        let e = parse("{\n  \"a\": @\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.column >= 8, "column was {}", e.column);
        // A byte that is neither ',' nor the closer is reported past
        // itself; the other errors at the byte.
        for (text, message, offset) in [
            ("[1 2]", "expected ',' or ']' in array", 4),
            ("[1", "expected ',' or ']' in array", 2),
            ("{\"a\" 1}", "expected ':' after object key", 5),
            ("{\"a\":1 \"b\"", "expected ',' or '}' in object", 8),
            ("{\"a\":1", "expected ',' or '}' in object", 6),
            ("{1:2}", "expected string key in object", 1),
            ("[-]", "invalid number", 2),
        ] {
            let e = parse(text).unwrap_err();
            assert_eq!(
                (e.message.as_str(), e.line, e.column, e.offset),
                (message, 1, offset + 1, offset),
                "{text}"
            );
        }
    }
}
