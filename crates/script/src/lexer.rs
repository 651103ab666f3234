//! LamScript lexer.
//!
//! Hand-written scanner producing position-tagged tokens. Comments (`#` to
//! end of line) are skipped but *counted*, because the summarizer uses the
//! comment density statistic.

use crate::error::{ErrorKind, ScriptError};

/// Token kinds. Keywords are distinguished from identifiers at lex time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    // Literals
    Int(i64),
    Float(f64),
    Str(String),
    Ident(String),
    // Keywords
    Pe,
    Workflow,
    Fn,
    Let,
    If,
    Else,
    While,
    For,
    In,
    Return,
    Break,
    Continue,
    Emit,
    True,
    False,
    Null,
    Import,
    Input,
    Output,
    Init,
    Process,
    Doc,
    Groupby,
    Nodes,
    Connect,
    And,
    Or,
    Not,
    // Punctuation / operators
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Colon,
    Dot,
    Arrow,  // ->
    Assign, // =
    Eq,     // ==
    Ne,     // !=
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Eof,
}

impl TokenKind {
    /// Keyword lookup for an identifier-shaped lexeme.
    fn keyword(s: &str) -> Option<TokenKind> {
        Some(match s {
            "pe" => TokenKind::Pe,
            "workflow" => TokenKind::Workflow,
            "fn" => TokenKind::Fn,
            "let" => TokenKind::Let,
            "if" => TokenKind::If,
            "else" => TokenKind::Else,
            "while" => TokenKind::While,
            "for" => TokenKind::For,
            "in" => TokenKind::In,
            "return" => TokenKind::Return,
            "break" => TokenKind::Break,
            "continue" => TokenKind::Continue,
            "emit" => TokenKind::Emit,
            "true" => TokenKind::True,
            "false" => TokenKind::False,
            "null" => TokenKind::Null,
            "import" => TokenKind::Import,
            "input" => TokenKind::Input,
            "output" => TokenKind::Output,
            "init" => TokenKind::Init,
            "process" => TokenKind::Process,
            "doc" => TokenKind::Doc,
            "groupby" => TokenKind::Groupby,
            "nodes" => TokenKind::Nodes,
            "connect" => TokenKind::Connect,
            "and" => TokenKind::And,
            "or" => TokenKind::Or,
            "not" => TokenKind::Not,
            _ => return None,
        })
    }
}

/// A token with its 1-based source position.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// What was lexed.
    pub(crate) kind: TokenKind,
    /// 1-based line.
    pub(crate) line: usize,
    /// 1-based column.
    pub(crate) column: usize,
}

/// Tokenize `source`, returning tokens terminated by `Eof`.
pub(crate) fn lex(source: &str) -> Result<Vec<Token>, ScriptError> {
    let mut tokens = Vec::new();
    let bytes = source.as_bytes();
    let mut pos = 0usize;
    let mut line = 1usize;
    let mut col = 1usize;

    macro_rules! push {
        ($kind:expr, $l:expr, $c:expr) => {
            tokens.push(Token { kind: $kind, line: $l, column: $c })
        };
    }

    while pos < bytes.len() {
        let b = bytes[pos];
        let (tl, tc) = (line, col);
        match b {
            b' ' | b'\t' | b'\r' => {
                pos += 1;
                col += 1;
            }
            b'\n' => {
                pos += 1;
                line += 1;
                col = 1;
            }
            b'#' => {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'(' => {
                push!(TokenKind::LParen, tl, tc);
                pos += 1;
                col += 1;
            }
            b')' => {
                push!(TokenKind::RParen, tl, tc);
                pos += 1;
                col += 1;
            }
            b'{' => {
                push!(TokenKind::LBrace, tl, tc);
                pos += 1;
                col += 1;
            }
            b'}' => {
                push!(TokenKind::RBrace, tl, tc);
                pos += 1;
                col += 1;
            }
            b'[' => {
                push!(TokenKind::LBracket, tl, tc);
                pos += 1;
                col += 1;
            }
            b']' => {
                push!(TokenKind::RBracket, tl, tc);
                pos += 1;
                col += 1;
            }
            b',' => {
                push!(TokenKind::Comma, tl, tc);
                pos += 1;
                col += 1;
            }
            b';' => {
                push!(TokenKind::Semi, tl, tc);
                pos += 1;
                col += 1;
            }
            b':' => {
                push!(TokenKind::Colon, tl, tc);
                pos += 1;
                col += 1;
            }
            b'.' => {
                push!(TokenKind::Dot, tl, tc);
                pos += 1;
                col += 1;
            }
            b'+' => {
                push!(TokenKind::Plus, tl, tc);
                pos += 1;
                col += 1;
            }
            b'*' => {
                push!(TokenKind::Star, tl, tc);
                pos += 1;
                col += 1;
            }
            b'/' => {
                push!(TokenKind::Slash, tl, tc);
                pos += 1;
                col += 1;
            }
            b'%' => {
                push!(TokenKind::Percent, tl, tc);
                pos += 1;
                col += 1;
            }
            b'-' => {
                if bytes.get(pos + 1) == Some(&b'>') {
                    push!(TokenKind::Arrow, tl, tc);
                    pos += 2;
                    col += 2;
                } else {
                    push!(TokenKind::Minus, tl, tc);
                    pos += 1;
                    col += 1;
                }
            }
            b'=' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    push!(TokenKind::Eq, tl, tc);
                    pos += 2;
                    col += 2;
                } else {
                    push!(TokenKind::Assign, tl, tc);
                    pos += 1;
                    col += 1;
                }
            }
            b'!' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    push!(TokenKind::Ne, tl, tc);
                    pos += 2;
                    col += 2;
                } else {
                    return Err(ScriptError::at(ErrorKind::Lex, "unexpected '!'", tl, tc));
                }
            }
            b'<' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    push!(TokenKind::Le, tl, tc);
                    pos += 2;
                    col += 2;
                } else {
                    push!(TokenKind::Lt, tl, tc);
                    pos += 1;
                    col += 1;
                }
            }
            b'>' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    push!(TokenKind::Ge, tl, tc);
                    pos += 2;
                    col += 2;
                } else {
                    push!(TokenKind::Gt, tl, tc);
                    pos += 1;
                    col += 1;
                }
            }
            b'"' => {
                let (s, consumed, nl) = lex_string(&bytes[pos..], tl, tc)?;
                push!(TokenKind::Str(s), tl, tc);
                pos += consumed;
                if nl > 0 {
                    line += nl;
                    col = 1; // column tracking after multi-line strings is coarse
                } else {
                    col += consumed;
                }
            }
            b'0'..=b'9' => {
                let (kind, consumed) = lex_number(&bytes[pos..], tl, tc)?;
                push!(kind, tl, tc);
                pos += consumed;
                col += consumed;
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = pos;
                while pos < bytes.len() && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_') {
                    pos += 1;
                }
                let s = std::str::from_utf8(&bytes[start..pos]).expect("ascii ident");
                let kind = TokenKind::keyword(s).unwrap_or_else(|| TokenKind::Ident(s.to_string()));
                push!(kind, tl, tc);
                col += pos - start;
            }
            other => {
                return Err(ScriptError::at(
                    ErrorKind::Lex,
                    format!("unexpected character '{}'", other as char),
                    tl,
                    tc,
                ));
            }
        }
    }
    tokens.push(Token { kind: TokenKind::Eof, line, column: col });
    Ok(tokens)
}

fn lex_string(bytes: &[u8], line: usize, col: usize) -> Result<(String, usize, usize), ScriptError> {
    debug_assert_eq!(bytes[0], b'"');
    let mut out = String::new();
    let mut i = 1;
    let mut newlines = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Ok((out, i + 1, newlines)),
            b'\\' => {
                let esc = bytes.get(i + 1).copied().ok_or_else(|| {
                    ScriptError::at(ErrorKind::Lex, "unterminated string escape", line, col)
                })?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    _ => {
                        return Err(ScriptError::at(
                            ErrorKind::Lex,
                            format!("invalid escape '\\{}'", esc as char),
                            line,
                            col,
                        ))
                    }
                }
                i += 2;
            }
            b'\n' => {
                out.push('\n');
                newlines += 1;
                i += 1;
            }
            b if b < 0x80 => {
                out.push(b as char);
                i += 1;
            }
            b => {
                // Multi-byte UTF-8 inside string literals.
                let len = match b {
                    0xC2..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    0xF0..=0xF4 => 4,
                    _ => return Err(ScriptError::at(ErrorKind::Lex, "invalid UTF-8 in string", line, col)),
                };
                if i + len > bytes.len() {
                    return Err(ScriptError::at(ErrorKind::Lex, "truncated UTF-8 in string", line, col));
                }
                let s = std::str::from_utf8(&bytes[i..i + len])
                    .map_err(|_| ScriptError::at(ErrorKind::Lex, "invalid UTF-8 in string", line, col))?;
                out.push_str(s);
                i += len;
            }
        }
    }
    Err(ScriptError::at(ErrorKind::Lex, "unterminated string literal", line, col))
}

fn lex_number(bytes: &[u8], line: usize, col: usize) -> Result<(TokenKind, usize), ScriptError> {
    let mut i = 0;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let mut is_float = false;
    if i < bytes.len() && bytes[i] == b'.' && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) {
        is_float = true;
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_float = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = std::str::from_utf8(&bytes[..i]).expect("ascii number");
    if is_float {
        let f: f64 =
            text.parse().map_err(|_| ScriptError::at(ErrorKind::Lex, "invalid float literal", line, col))?;
        if !f.is_finite() {
            return Err(ScriptError::at(ErrorKind::Lex, "float literal out of range", line, col));
        }
        Ok((TokenKind::Float(f), i))
    } else {
        let n: i64 = text
            .parse()
            .map_err(|_| ScriptError::at(ErrorKind::Lex, "integer literal out of range", line, col))?;
        Ok((TokenKind::Int(n), i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn scalars_and_operators() {
        assert_eq!(
            kinds("1 + 2.5 * x != y"),
            vec![
                TokenKind::Int(1),
                TokenKind::Plus,
                TokenKind::Float(2.5),
                TokenKind::Star,
                TokenKind::Ident("x".into()),
                TokenKind::Ne,
                TokenKind::Ident("y".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn keywords_vs_idents() {
        assert_eq!(
            kinds("pe peer let letter"),
            vec![
                TokenKind::Pe,
                TokenKind::Ident("peer".into()),
                TokenKind::Let,
                TokenKind::Ident("letter".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds(r#""a\n\"b\"" "unicode ∆""#),
            vec![TokenKind::Str("a\n\"b\"".into()), TokenKind::Str("unicode ∆".into()), TokenKind::Eof,]
        );
    }

    #[test]
    fn arrow_vs_minus() {
        assert_eq!(
            kinds("a -> b - c"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Arrow,
                TokenKind::Ident("b".into()),
                TokenKind::Minus,
                TokenKind::Ident("c".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = lex("# header\nlet x = 1; # trailing\n").unwrap();
        let kinds: Vec<TokenKind> = toks.into_iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::Let,
                TokenKind::Ident("x".into()),
                TokenKind::Assign,
                TokenKind::Int(1),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn positions() {
        let toks = lex("let x =\n  42;").unwrap();
        let x = &toks[1];
        assert_eq!((x.line, x.column), (1, 5));
        let n = toks.iter().find(|t| t.kind == TokenKind::Int(42)).unwrap();
        assert_eq!((n.line, n.column), (2, 3));
    }

    #[test]
    fn number_edge_cases() {
        assert_eq!(kinds("1.5e3")[0], TokenKind::Float(1500.0));
        assert_eq!(kinds("10e-1")[0], TokenKind::Float(1.0));
        // Dot not followed by digit is a Dot token (method access).
        assert_eq!(
            kinds("1.foo"),
            vec![TokenKind::Int(1), TokenKind::Dot, TokenKind::Ident("foo".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn lex_errors() {
        assert!(lex("let x = \"unterminated").is_err());
        assert!(lex("a ! b").is_err());
        assert!(lex("€").is_err());
        assert!(lex("99999999999999999999999999").is_err());
        assert!(lex("1e400").is_err(), "a float literal JSON cannot carry");
        assert!(lex(r#""bad \q escape""#).is_err());
    }
}
