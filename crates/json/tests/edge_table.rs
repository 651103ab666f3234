//! The string and integer fast paths, case by case: the parser copies an
//! escape-free run in one piece and the serializer mirrors it, so every
//! place a run can start or stop is written down here. The error triples
//! were taken from a build of the parser that moved one byte at a time;
//! the fast path reports each error where that one did.

use laminar_json::{parse, to_string, write_string, write_value, Value};

/// `text` parses to the string `want`, and `want` serializes back to
/// `canonical` (which is `text` unless the parser accepts a spelling the
/// serializer does not produce).
fn string_case(text: &str, want: &str, canonical: &str) {
    assert_eq!(parse(text).unwrap(), Value::Str(want.into()), "parse {text:?}");
    assert_eq!(to_string(&Value::Str(want.into())), canonical, "serialize {want:?}");
}

#[test]
fn escapes_at_every_position_of_a_run() {
    string_case(r#""\nabc""#, "\nabc", r#""\nabc""#);
    string_case(r#""ab\"cd""#, "ab\"cd", r#""ab\"cd""#);
    string_case(r#""abc\\""#, "abc\\", r#""abc\\""#);
    string_case(r#""\"\\\n\r\t\b\f""#, "\"\\\n\r\t\u{8}\u{c}", r#""\"\\\n\r\t\b\f""#);
    string_case(r#""\u0001x\u001F""#, "\u{1}x\u{1f}", r#""\u0001x\u001f""#);
    string_case(r#""a\/b\u0041""#, "a/bA", r#""a/bA""#);
    string_case(r#""""#, "", r#""""#);
    // Non-ASCII text lies inside a run, on both sides of an escape.
    string_case("\"hé∆\\n😀\u{7f}\"", "hé∆\n😀\u{7f}", "\"hé∆\\n😀\u{7f}\"");
    string_case(r#""\ud83d\ude00!""#, "😀!", "\"😀!\"");
}

#[test]
fn a_one_mebibyte_escape_free_string_round_trips() {
    let long = "x".repeat(1 << 20);
    let text = to_string(&Value::Str(long.clone()));
    assert_eq!(text.len(), long.len() + 2);
    assert_eq!(parse(&text).unwrap().as_str(), Some(long.as_str()));
}

#[test]
fn string_errors_are_reported_where_they_were() {
    let cases: [(&str, &str, usize, usize, usize); 12] = [
        ("\"\u{1}ab\"", "control character in string", 1, 3, 2),
        ("[\"ab\u{1}cd\"]", "control character in string", 1, 6, 5),
        ("{\n \"k\": \"ab\tcd\"}", "control character in string", 2, 11, 12),
        ("\"hé∆\u{1f}\"", "control character in string", 1, 9, 8),
        ("\"abc", "unterminated string", 1, 5, 4),
        ("\"ab\\n", "unterminated string", 1, 6, 5),
        ("\"ab\\", "invalid escape sequence", 1, 5, 4),
        ("\"", "unterminated string", 1, 2, 1),
        ("{\"a\":[1,\"xy", "unterminated string", 1, 12, 11),
        ("\"é∆", "unterminated string", 1, 7, 6),
        ("\"ab\\qcd\"", "invalid escape sequence", 1, 6, 5),
        // The last row's input is built below: a 1 MiB run, never closed.
        ("", "unterminated string", 1, 1_048_578, 1_048_577),
    ];
    let unclosed = format!("\"{}", "x".repeat(1 << 20));
    for (text, message, line, column, offset) in cases {
        let text = if text.is_empty() { unclosed.as_str() } else { text };
        let e = parse(text).unwrap_err();
        let shown = &text[..text.len().min(24)];
        assert_eq!(
            (e.message.as_str(), e.line, e.column, e.offset),
            (message, line, column, offset),
            "{shown:?}"
        );
    }
}

#[test]
fn integers_and_floats_are_written_digit_for_digit() {
    for (i, text) in [
        (0, "0"),
        (-1, "-1"),
        (7, "7"),
        (10, "10"),
        (-1200, "-1200"),
        (i64::MAX, "9223372036854775807"),
        (i64::MIN, "-9223372036854775808"),
    ] {
        assert_eq!(to_string(&Value::Int(i)), text);
        assert_eq!(parse(text).unwrap(), Value::Int(i));
    }
    for (f, text) in
        [(0.0, "0.0"), (-3.0, "-3.0"), (2.5, "2.5"), (1e21, "1000000000000000000000.0"), (1e-7, "0.0000001")]
    {
        assert_eq!(to_string(&Value::Float(f)), text);
    }
}

#[test]
fn the_appending_writers_leave_what_was_there() {
    let mut out = String::from("{\"k\":");
    write_string(&mut out, "a\"b");
    out.push_str(",\"v\":");
    write_value(&mut out, &parse("[1,-2.0,{\"x\":null}]").unwrap());
    assert_eq!(out, r#"{"k":"a\"b","v":[1,-2.0,{"x":null}]"#);
}
