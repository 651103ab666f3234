//! Code and natural-language tokenizers feeding the embedding models.
//!
//! The code tokenizer is total: it never fails, even on text that is not
//! valid LamScript (models must embed arbitrary snippets, exactly like the
//! paper's transformer tokenizers do).

/// Classes a code token can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenClass {
    /// Identifier or keyword.
    Word,
    /// Numeric literal.
    Number,
    /// String literal (content, quotes stripped).
    Str,
    /// Operator / punctuation (one lexeme per run).
    Punct,
}

/// A classified code token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeToken {
    /// The lexeme (string contents for `Str`).
    pub text: String,
    /// Classification.
    pub class: TokenClass,
}

/// LamScript keywords — kept when normalizing identifiers because they are
/// structure, not naming.
pub const KEYWORDS: &[&str] = &[
    "pe",
    "workflow",
    "fn",
    "let",
    "if",
    "else",
    "while",
    "for",
    "in",
    "return",
    "break",
    "continue",
    "emit",
    "true",
    "false",
    "null",
    "import",
    "input",
    "output",
    "init",
    "process",
    "doc",
    "groupby",
    "nodes",
    "connect",
    "and",
    "or",
    "not",
    "producer",
    "iterative",
    "consumer",
    "generic",
    "state",
];

/// Is this word a structural keyword?
pub fn is_keyword(w: &str) -> bool {
    KEYWORDS.contains(&w)
}

/// Tokenize arbitrary code-ish text. Comments (`#…`) are dropped; strings
/// become single `Str` tokens; runs of operator characters become one
/// `Punct` token each.
pub fn code_tokens(code: &str) -> Vec<CodeToken> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'"' => {
                let mut j = i + 1;
                let mut s = String::new();
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\\' && j + 1 < bytes.len() {
                        j += 1;
                    }
                    if bytes[j] < 0x80 {
                        s.push(bytes[j] as char);
                    }
                    j += 1;
                }
                out.push(CodeToken { text: s, class: TokenClass::Str });
                i = j + 1;
            }
            b if b.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                out.push(CodeToken {
                    text: String::from_utf8_lossy(&bytes[start..i]).into_owned(),
                    class: TokenClass::Number,
                });
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(CodeToken {
                    text: String::from_utf8_lossy(&bytes[start..i]).into_owned(),
                    class: TokenClass::Word,
                });
            }
            b if b < 0x80 => {
                let start = i;
                while i < bytes.len()
                    && bytes[i] < 0x80
                    && !bytes[i].is_ascii_alphanumeric()
                    && !matches!(bytes[i], b' ' | b'\t' | b'\r' | b'\n' | b'"' | b'#' | b'_')
                {
                    i += 1;
                }
                if i == start {
                    i += 1; // safety: always progress
                }
                out.push(CodeToken {
                    text: String::from_utf8_lossy(&bytes[start..i]).into_owned(),
                    class: TokenClass::Punct,
                });
            }
            _ => {
                // Skip multi-byte UTF-8 sequences byte-safely.
                i += 1;
                while i < bytes.len() && (bytes[i] & 0xC0) == 0x80 {
                    i += 1;
                }
            }
        }
    }
    out
}

/// English stopwords removed from the shared NL/code word channel —
/// without this, short descriptions win on scaffolding words ("a PE
/// that...") rather than content.
pub const STOPWORDS: &[&str] = &[
    "a", "an", "the", "that", "this", "these", "those", "is", "are", "was", "were", "be", "been", "it",
    "its", "if", "of", "for", "to", "in", "on", "with", "and", "or", "each", "every", "when", "as", "by",
    "from", "into", "at", "then", "them", "their", "there", "what", "which", "who", "whether", "do", "does",
    "how", "can", "will", "pe", "pes",
];

/// Is this a stopword?
pub fn is_stopword(w: &str) -> bool {
    STOPWORDS.contains(&w)
}

/// Lowercased word tokens of a natural-language query/description, with
/// stopwords removed.
pub fn text_words(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(|w| w.to_lowercase())
        .filter(|w| !is_stopword(w))
        .collect()
}

/// Normalized source lines: whitespace squeezed, comments removed, empties
/// dropped. The lexical retrieval channel (ReACC-style) hashes these.
pub fn normalized_lines(code: &str) -> Vec<String> {
    code.lines()
        .map(|l| {
            let without_comment = match l.find('#') {
                Some(p) => &l[..p],
                None => l,
            };
            without_comment.split_whitespace().collect::<Vec<_>>().join(" ")
        })
        .filter(|l| !l.is_empty())
        .collect()
}

/// Character trigrams of lowercased text (padded), the pure-text channel
/// used by the GTE/BGE-style models.
pub fn char_trigrams(text: &str) -> Vec<String> {
    let lower = text.to_lowercase();
    let padded: Vec<char> = std::iter::once(' ').chain(lower.chars()).chain(std::iter::once(' ')).collect();
    if padded.len() < 3 {
        return vec![];
    }
    padded.windows(3).map(|w| w.iter().collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_code() {
        let toks = code_tokens("let x1 = num % 2; # comment\nemit(\"hi there\");");
        let words: Vec<&str> =
            toks.iter().filter(|t| t.class == TokenClass::Word).map(|t| t.text.as_str()).collect();
        assert_eq!(words, vec!["let", "x1", "num", "emit"]);
        assert!(toks.iter().any(|t| t.class == TokenClass::Number && t.text == "2"));
        assert!(toks.iter().any(|t| t.class == TokenClass::Str && t.text == "hi there"));
        assert!(!toks.iter().any(|t| t.text.contains("comment")));
    }

    #[test]
    fn total_on_garbage() {
        // Never panics, always makes progress.
        for junk in ["", "@@@@", "∆∆ unicode λ", "\"unterminated", "1.2.3.4....", "\\\\\\"] {
            let _ = code_tokens(junk);
        }
    }

    #[test]
    fn punct_runs_grouped() {
        let toks = code_tokens("a != b");
        let puncts: Vec<&str> =
            toks.iter().filter(|t| t.class == TokenClass::Punct).map(|t| t.text.as_str()).collect();
        assert_eq!(puncts, vec!["!="]);
    }

    #[test]
    fn text_word_splitting() {
        assert_eq!(
            text_words("A PE that checks if a number is prime!"),
            vec!["checks", "number", "prime"],
            "stopwords removed"
        );
        assert_eq!(text_words(""), Vec::<String>::new());
        assert!(is_stopword("the"));
        assert!(!is_stopword("prime"));
    }

    #[test]
    fn line_normalization() {
        let lines = normalized_lines("  let   x = 1;  # trailing\n\n\twhile x { }\n# only comment\n");
        assert_eq!(lines, vec!["let x = 1;", "while x { }"]);
    }

    #[test]
    fn trigrams() {
        let t = char_trigrams("ab");
        assert_eq!(t, vec![" ab", "ab "]);
        assert!(char_trigrams("").is_empty());
        assert!(char_trigrams("x").len() == 1);
    }

    #[test]
    fn keywords() {
        assert!(is_keyword("while"));
        assert!(is_keyword("emit"));
        assert!(!is_keyword("isPrime"));
    }
}
