//! JSON serialization: compact and pretty printers.
//!
//! Guarantees `parse(to_string(v)) == v` for every `Value` (floats are
//! printed with enough precision to round-trip; the property tests pin this).

use crate::value::Value;
use std::fmt::Write;

/// Serialize to the compact single-line form.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

/// Serialize with two-space indentation, for logs and fixtures.
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write(&mut out, v, Some(2), 0);
    out
}

/// Append the compact form of `v` to `out` — [`to_string`] without a
/// `String` of its own, for a caller that writes JSON text around values
/// it holds as trees.
pub fn write_value(out: &mut String, v: &Value) {
    write(out, v, None, 0);
}

fn write(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => write_int(out, *i),
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Array(a) => {
            if a.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, e) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write(out, e, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, e)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write(out, e, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

/// Decimal digits straight into `out`: an event page is mostly small
/// integers, and `fmt` costs more than the digits do.
fn write_int(out: &mut String, i: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut left = i.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (left % 10) as u8;
        left /= 10;
        if left == 0 {
            break;
        }
    }
    if i < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

fn write_float(out: &mut String, f: f64) {
    debug_assert!(f.is_finite(), "non-finite floats cannot enter a Value");
    // `{}` on f64 prints the shortest representation that round-trips,
    // but prints integral floats without a dot; add ".0" so the value
    // re-parses as Float, keeping parse∘print = id.
    let start = out.len();
    let _ = write!(out, "{f}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Append `s` as a JSON string literal, quotes and escapes included.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Everything that needs an escape is one ASCII byte, so the text
    // between two of them is copied as it stands, in one piece.
    let mut copied = 0;
    for (at, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[copied..at]);
        copied = at + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{jarr, jobj, parse};

    #[test]
    fn compact_forms() {
        assert_eq!(to_string(&Value::Null), "null");
        assert_eq!(to_string(&Value::Int(-3)), "-3");
        assert_eq!(to_string(&Value::Float(2.5)), "2.5");
        assert_eq!(to_string(&Value::Float(3.0)), "3.0");
        assert_eq!(to_string(&jarr![1, 2]), "[1,2]");
        assert_eq!(to_string(&jobj! {"a" => 1, "b" => "x"}), r#"{"a":1,"b":"x"}"#);
    }

    #[test]
    fn string_escaping() {
        assert_eq!(to_string(&Value::Str("a\"b\\c\n\u{1}".into())), "\"a\\\"b\\\\c\\n\\u0001\"");
    }

    #[test]
    fn pretty_has_structure() {
        let p = to_string_pretty(&jobj! {"a" => jarr![1], "b" => jobj!{}});
        assert!(p.contains("\n  \"a\": [\n    1\n  ]"), "pretty was:\n{p}");
        assert!(p.contains("\"b\": {}"));
    }

    #[test]
    fn round_trip_examples() {
        for src in [
            "null",
            "[1,2.5,\"x\",{\"k\":[true,null]}]",
            r#"{"deep":{"er":{"est":[1e-9, -0.5]}}}"#,
            "\"unicode: ∆😀\"",
        ] {
            let v = parse(src).unwrap();
            assert_eq!(parse(&to_string(&v)).unwrap(), v, "compact round-trip {src}");
            assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v, "pretty round-trip {src}");
        }
    }

    #[test]
    fn float_roundtrip_precision() {
        for f in [0.1, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, -1e-300] {
            let v = Value::Float(f);
            let back = parse(&to_string(&v)).unwrap();
            assert_eq!(back, v, "float {f} failed round-trip");
        }
    }
}
