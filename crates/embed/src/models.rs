//! The seven embedding models Laminar evaluates (paper Tables 6 and 7).
//!
//! Each model is a deterministic feature pipeline over the shared
//! tokenizer. The pipelines are chosen so each model's *mechanism* mirrors
//! the real model's inductive bias, which is what makes the paper's
//! relative ordering reproducible:
//!
//! | Model | Pipeline bias |
//! |---|---|
//! | `codebert` | treats code as prose: lowercased whitespace words only |
//! | `graphcodebert` | raw tokens + def-use dataflow edges |
//! | `reacc-py-retriever` | lexical: normalized lines + raw tokens + trigrams |
//! | `thenlper/gte-large` | pure text trigrams, small capacity |
//! | `BAAI/bge-large-en` | text words + trigrams, large capacity |
//! | `unixcoder-base` | raw tokens + structure, *no* NL/code alignment |
//! | `unixcoder-code-search` | subtoken channel shared between NL and code (the fine-tune) |
//! | `unixcoder-clone-detection` | identifier-normalized structure (rename-invariant) |

use crate::embedding::{fnv1a, Embedding, FeatureHasher};
use crate::tokenizer::{
    code_tokens, is_keyword, normalized_lines, padded_lower_chars, text_words, CodeToken, TokenClass,
};
use laminar_script::{def_use_pairs, parse_script, subtokens};

/// Channel weights for the generic hashed model.
#[derive(Debug, Clone, Copy, Default)]
struct Channels {
    /// Raw code tokens (case-sensitive lexical identity).
    raw_tokens: f32,
    /// Identifier subtokens, lowercased — the NL/code shared space.
    subtokens: f32,
    /// Identifier-normalized structure trigrams (rename-invariant).
    structure: f32,
    /// Normalized source lines + line bigrams (clone-lexical channel).
    lines: f32,
    /// Character trigrams of the raw text.
    char3: f32,
    /// Def-use dataflow edges (GraphCodeBERT's signal).
    defuse: f32,
    /// Whitespace words of the raw input (prose reading of code).
    prose: f32,
}

/// A bi-encoder model: embeds code and natural-language text into one
/// space, each model a configuration of the same hashed pipeline.
pub struct EmbeddingModel {
    name: String,
    dim: usize,
    code: Channels,
    /// Text side: word weight in the shared subtoken space.
    text_words: f32,
    /// Text side: word-bigram weight.
    text_bigrams: f32,
    /// Text side: char-trigram weight.
    text_char3: f32,
}

impl EmbeddingModel {
    /// Model identifier as reported in the paper's tables.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Embedding dimension.
    #[cfg(test)]
    fn dim(&self) -> usize {
        self.dim
    }

    /// Embed a code fragment.
    pub fn embed_code(&self, code: &str) -> Embedding {
        let mut h = FeatureHasher::new(self.dim);
        self.code_features(code, &mut |feature, weight| h.add(feature, weight));
        h.finish()
    }

    /// Embed a natural-language query or description.
    pub fn embed_text(&self, text: &str) -> Embedding {
        let mut h = FeatureHasher::new(self.dim);
        self.text_features(text, &mut |feature, weight| h.add(feature, weight));
        h.finish()
    }

    /// Each weighted feature of `text`, as its [`fnv1a`] hash, in order.
    fn text_features(&self, text: &str, add: &mut impl FnMut(u64, f32)) {
        let words = text_words(text);
        if self.text_words > 0.0 {
            for w in &words {
                // Same "sub" prefix as code subtokens: this alignment IS the
                // cross-modal fine-tuning.
                add(fnv1a(&[b"sub:", w.as_bytes()]), self.text_words);
            }
        }
        if self.text_bigrams > 0.0 {
            for w in words.windows(2) {
                add(fnv1a(&[b"wb:", w[0].as_bytes(), b"_", w[1].as_bytes()]), self.text_bigrams);
            }
        }
        if self.text_char3 > 0.0 {
            char_trigrams(text, self.text_char3, add);
        }
    }

    /// Each weighted feature of `code`, as its [`fnv1a`] hash, in order.
    fn code_features(&self, code: &str, add: &mut impl FnMut(u64, f32)) {
        let ch = &self.code;
        let toks: Vec<CodeToken> = if ch.raw_tokens > 0.0 || ch.subtokens > 0.0 || ch.structure > 0.0 {
            code_tokens(code)
        } else {
            Vec::new()
        };
        let sub = |word: &str| fnv1a(&[b"sub:", word.as_bytes()]);
        if ch.raw_tokens > 0.0 {
            for t in &toks {
                add(fnv1a(&[b"raw:", t.text.as_bytes()]), ch.raw_tokens);
            }
        }
        if ch.subtokens > 0.0 {
            for t in &toks {
                match t.class {
                    TokenClass::Word if !is_keyword(&t.text) => {
                        for s in subtokens(&t.text) {
                            add(sub(&s), ch.subtokens);
                        }
                    }
                    TokenClass::Str => {
                        // Words inside string literals align with queries too
                        // (docstring-like evidence).
                        for w in text_words(&t.text) {
                            add(sub(&w), ch.subtokens * 0.75);
                        }
                    }
                    // Numeric literals share the NL space too: the query
                    // "sum of the first 7 numbers" must match the constant 7.
                    TokenClass::Number => add(sub(&t.text), ch.subtokens * 1.5),
                    _ => {}
                }
            }
        }
        if ch.structure > 0.0 {
            let shapes: Vec<&[u8]> = toks
                .iter()
                .map(|t| match t.class {
                    TokenClass::Word if is_keyword(&t.text) => t.text.as_bytes(),
                    TokenClass::Word => b"V",
                    // Constants stay literal: clones share them, sibling
                    // problems (same template, different parameter) do not.
                    TokenClass::Number => t.text.as_bytes(),
                    TokenClass::Str => b"S",
                    TokenClass::Punct => t.text.as_bytes(),
                })
                .collect();
            for w in shapes.windows(3) {
                add(fnv1a(&[b"st:", w[0], b"_", w[1], b"_", w[2]]), ch.structure);
            }
        }
        if ch.lines > 0.0 {
            let lines = normalized_lines(code);
            for l in &lines {
                add(fnv1a(&[b"ln:", l.as_bytes()]), ch.lines);
            }
            for w in lines.windows(2) {
                add(fnv1a(&[b"lb:", w[0].as_bytes(), b"|", w[1].as_bytes()]), ch.lines * 0.5);
            }
        }
        if ch.char3 > 0.0 {
            char_trigrams(code, ch.char3, add);
        }
        if ch.defuse > 0.0 {
            // Parse if possible; silently skip for non-LamScript snippets.
            if let Ok(script) = parse_script(code) {
                for pe in script.pes() {
                    for edge in def_use_pairs(pe) {
                        add(
                            fnv1a(&[b"du:", edge.def_var.as_bytes(), b">", edge.use_var.as_bytes()]),
                            ch.defuse,
                        );
                    }
                }
            }
        }
        if ch.prose > 0.0 {
            for w in code.split_whitespace() {
                add(fnv1a(&[b"pw:", w.to_lowercase().as_bytes()]), ch.prose);
            }
        }
    }
}

/// The character-trigram channel of `text`: each window of 3 over its
/// lowercased, space-padded characters, hashed from the characters' UTF-8.
fn char_trigrams(text: &str, weight: f32, add: &mut impl FnMut(u64, f32)) {
    for w in padded_lower_chars(text).windows(3) {
        let mut utf8 = [0u8; 12];
        let mut len = 0;
        for c in w {
            len += c.encode_utf8(&mut utf8[len..]).len();
        }
        add(fnv1a(&[b"c3:", &utf8[..len]]), weight);
    }
}

/// Build every model of Table 7 (plus the two of Table 6, which are a
/// subset), in the paper's naming.
pub(crate) fn all_models() -> Vec<EmbeddingModel> {
    vec![
        // CodeBERT, applied zero-shot to retrieval: reads code like prose.
        EmbeddingModel {
            name: "CodeBERT".into(),
            dim: 64,
            code: Channels { prose: 1.0, ..Default::default() },
            text_words: 1.0,
            text_bigrams: 0.0,
            text_char3: 0.5,
        },
        // GraphCodeBERT: raw tokens plus dataflow edges.
        EmbeddingModel {
            name: "GraphCodeBERT".into(),
            dim: 512,
            code: Channels { raw_tokens: 1.0, defuse: 1.5, ..Default::default() },
            text_words: 1.0,
            text_bigrams: 0.0,
            text_char3: 0.0,
        },
        // ReACC retriever: hybrid lexical/semantic tuned for partial-code
        // queries.
        EmbeddingModel {
            name: "ReACC-retriever-py".into(),
            dim: 1024,
            code: Channels { lines: 2.0, raw_tokens: 1.0, char3: 0.5, ..Default::default() },
            text_words: 0.5,
            text_bigrams: 0.0,
            text_char3: 1.0,
        },
        // GTE-large: general text embedder, modest capacity on code.
        EmbeddingModel {
            name: "thenlper/gte-large".into(),
            dim: 96,
            code: Channels { char3: 1.0, ..Default::default() },
            text_words: 0.5,
            text_bigrams: 0.0,
            text_char3: 1.0,
        },
        // BGE-large: stronger general text embedder.
        EmbeddingModel {
            name: "BAAI/bge-large-en".into(),
            dim: 1024,
            code: Channels { char3: 1.0, prose: 0.5, lines: 0.5, ..Default::default() },
            text_words: 1.0,
            text_bigrams: 0.5,
            text_char3: 1.0,
        },
        // UniXcoder base: good code representation, weak NL/code alignment
        // (no retrieval fine-tune).
        EmbeddingModel {
            name: "unixcoder-base".into(),
            dim: 768,
            code: Channels { raw_tokens: 1.0, structure: 1.0, subtokens: 0.6, ..Default::default() },
            text_words: 1.0,
            text_bigrams: 0.25,
            text_char3: 0.25,
        },
        // UniXcoder fine-tuned for code search on AdvTest: strong shared
        // subtoken space.
        EmbeddingModel {
            name: "unixcoder-code-search".into(),
            dim: 768,
            code: Channels { subtokens: 2.0, structure: 0.75, raw_tokens: 0.5, ..Default::default() },
            text_words: 2.0,
            text_bigrams: 0.5,
            text_char3: 0.1,
        },
        // UniXcoder fine-tuned for clone detection: rename-invariant
        // structure dominates.
        EmbeddingModel {
            name: "unixcoder-clone-detection".into(),
            dim: 768,
            code: Channels { structure: 3.0, subtokens: 0.75, ..Default::default() },
            text_words: 1.0,
            text_bigrams: 0.0,
            text_char3: 0.0,
        },
    ]
}

/// Look up a model by its table name.
pub fn model_by_name(name: &str) -> Option<EmbeddingModel> {
    all_models().into_iter().find(|m| m.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::cosine;

    const PRIME_PE: &str = r#"
        pe IsPrime : iterative {
            input num; output output;
            process {
                let i = 2;
                let prime = num > 1;
                while i * i <= num { if num % i == 0 { prime = false; break; } i = i + 1; }
                if prime { emit(num); }
            }
        }
    "#;

    const WORDCOUNT_PE: &str = r#"
        pe CountWords : generic {
            input input groupby 0;
            output output;
            init { state.count = {}; }
            process {
                let word = input[0];
                state.count[word] = get(state.count, word, 0) + input[1];
                emit([word, state.count[word]]);
            }
        }
    "#;

    #[test]
    fn registry_names_present() {
        let names: Vec<String> = all_models().iter().map(|m| m.name().to_string()).collect();
        for expected in [
            "CodeBERT",
            "GraphCodeBERT",
            "ReACC-retriever-py",
            "thenlper/gte-large",
            "BAAI/bge-large-en",
            "unixcoder-base",
            "unixcoder-code-search",
            "unixcoder-clone-detection",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
        assert!(model_by_name("unixcoder-code-search").is_some());
        assert!(model_by_name("nope").is_none());
    }

    #[test]
    fn embeddings_are_deterministic() {
        let m = model_by_name("unixcoder-code-search").unwrap();
        assert_eq!(m.embed_code(PRIME_PE), m.embed_code(PRIME_PE));
        assert_eq!(m.embed_text("count words"), m.embed_text("count words"));
    }

    #[test]
    fn fine_tuned_model_aligns_nl_with_code() {
        let m = model_by_name("unixcoder-code-search").unwrap();
        let prime = m.embed_code(PRIME_PE);
        let wc = m.embed_code(WORDCOUNT_PE);
        let q = m.embed_text("a PE that checks if a number is prime");
        assert!(
            cosine(&prime, &q) > cosine(&wc, &q),
            "prime query must prefer the prime PE: {} vs {}",
            cosine(&prime, &q),
            cosine(&wc, &q)
        );
        let q2 = m.embed_text("count the occurrences of each word");
        assert!(cosine(&wc, &q2) > cosine(&prime, &q2));
    }

    #[test]
    fn fine_tuned_beats_base_on_alignment() {
        let base = model_by_name("unixcoder-base").unwrap();
        let tuned = model_by_name("unixcoder-code-search").unwrap();
        let q = "check whether a number is prime";
        let margin = |m: &EmbeddingModel| {
            let p = cosine(&m.embed_code(PRIME_PE), &m.embed_text(q));
            let w = cosine(&m.embed_code(WORDCOUNT_PE), &m.embed_text(q));
            p - w
        };
        assert!(margin(&tuned) > margin(&base), "fine-tune must sharpen the margin");
    }

    #[test]
    fn clone_model_is_rename_invariant() {
        // The meaningful property is discrimination: under renaming, the
        // structure model must keep the clone well-separated from an
        // unrelated program, more so than the lexical model does.
        let renamed =
            PRIME_PE.replace("num", "zz91").replace("prime", "flag_q").replace("IsPrime", "Checker");
        let clone_model = model_by_name("unixcoder-clone-detection").unwrap();
        let lexical = model_by_name("ReACC-retriever-py").unwrap();
        let margin = |m: &EmbeddingModel| {
            let orig = m.embed_code(PRIME_PE);
            cosine(&orig, &m.embed_code(&renamed)) - cosine(&orig, &m.embed_code(WORDCOUNT_PE))
        };
        let m_clone = margin(&clone_model);
        let m_lex = margin(&lexical);
        assert!(
            m_clone > m_lex,
            "structure model must discriminate renamed clones better: {m_clone} vs {m_lex}"
        );
        let sim_clone = cosine(&clone_model.embed_code(PRIME_PE), &clone_model.embed_code(&renamed));
        assert!(sim_clone > 0.85, "renamed clone should stay close: {sim_clone}");
    }

    #[test]
    fn lexical_model_nails_partial_code() {
        let partial = "state.count[word] = get(state.count, word, 0) + input[1];";
        let lexical = model_by_name("ReACC-retriever-py").unwrap();
        let q = lexical.embed_code(partial);
        let wc = lexical.embed_code(WORDCOUNT_PE);
        let prime = lexical.embed_code(PRIME_PE);
        assert!(cosine(&q, &wc) > cosine(&q, &prime) + 0.1);
    }

    /// FNV-1a over the dimension and every stored `(bucket, weight bits)`
    /// of each model's embeddings of this module's test inputs.
    fn fingerprint(m: &EmbeddingModel) -> u64 {
        const CODE: [&str; 4] = [
            PRIME_PE,
            WORDCOUNT_PE,
            "state.count[word] = get(state.count, word, 0) + input[1];",
            "@@@ not code at all ∆∆∆ \"unterminated",
        ];
        const TEXT: [&str; 4] = [
            "a PE that checks if a number is prime",
            "count the occurrences of each word",
            "count words",
            "",
        ];
        let embeddings = CODE.map(|c| m.embed_code(c)).into_iter().chain(TEXT.map(|t| m.embed_text(t)));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for e in embeddings {
            eat(&(e.dim() as u32).to_le_bytes());
            for (bucket, w) in e.entries() {
                eat(&bucket.to_le_bytes());
                eat(&w.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// The feature hash and the normalization are a contract with every
    /// stored embedding and with Tables 6–7: each model's vectors of the
    /// inputs above keep these fingerprints.
    #[test]
    fn embeddings_keep_their_bits() {
        let expected: [(&str, u64); 8] = [
            ("CodeBERT", 0x3fbf_a9eb_199e_481c),
            ("GraphCodeBERT", 0xdd4e_8070_49af_9133),
            ("ReACC-retriever-py", 0xbfe4_b7e0_0dce_073f),
            ("thenlper/gte-large", 0xf971_f174_41c7_ce2a),
            ("BAAI/bge-large-en", 0x1003_9b40_869c_50d0),
            ("unixcoder-base", 0x543b_a04e_bb77_264d),
            ("unixcoder-code-search", 0xd459_16f4_a8b3_d839),
            ("unixcoder-clone-detection", 0xaa51_0fb4_2aa2_7897),
        ];
        let got: Vec<(String, u64)> =
            all_models().iter().map(|m| (m.name().to_string(), fingerprint(m))).collect();
        let expected: Vec<(String, u64)> = expected.iter().map(|(n, fp)| (n.to_string(), *fp)).collect();
        assert_eq!(got, expected);
    }

    /// The feature pipelines as they were before features were hashed in
    /// place: each feature built as its `prefix:feature` string. Kept only
    /// as the reference the in-place hashes are checked against.
    mod feature_strings {
        use super::super::{Channels, EmbeddingModel};
        use crate::tokenizer::{
            char_trigrams, code_tokens, is_keyword, normalized_lines, text_words, CodeToken, TokenClass,
        };
        use laminar_script::{def_use_pairs, parse_script, subtokens};

        pub(super) fn text(m: &EmbeddingModel, text: &str) -> Vec<(String, f32)> {
            let mut out = Vec::new();
            let mut add = |prefix: &str, feature: &str, w: f32| out.push((format!("{prefix}:{feature}"), w));
            let words = text_words(text);
            if m.text_words > 0.0 {
                for w in &words {
                    add("sub", w, m.text_words);
                }
            }
            if m.text_bigrams > 0.0 {
                for w in words.windows(2) {
                    add("wb", &format!("{}_{}", w[0], w[1]), m.text_bigrams);
                }
            }
            if m.text_char3 > 0.0 {
                for g in char_trigrams(text) {
                    add("c3", &g, m.text_char3);
                }
            }
            out
        }

        pub(super) fn code(m: &EmbeddingModel, code: &str) -> Vec<(String, f32)> {
            let mut out = Vec::new();
            let mut add = |prefix: &str, feature: &str, w: f32| out.push((format!("{prefix}:{feature}"), w));
            let ch: &Channels = &m.code;
            let toks: Vec<CodeToken> = if ch.raw_tokens > 0.0 || ch.subtokens > 0.0 || ch.structure > 0.0 {
                code_tokens(code)
            } else {
                Vec::new()
            };
            if ch.raw_tokens > 0.0 {
                for t in &toks {
                    add("raw", &t.text, ch.raw_tokens);
                }
            }
            if ch.subtokens > 0.0 {
                for t in &toks {
                    match t.class {
                        TokenClass::Word if !is_keyword(&t.text) => {
                            for sub in subtokens(&t.text) {
                                add("sub", &sub, ch.subtokens);
                            }
                        }
                        TokenClass::Str => {
                            for w in text_words(&t.text) {
                                add("sub", &w, ch.subtokens * 0.75);
                            }
                        }
                        TokenClass::Number => add("sub", &t.text, ch.subtokens * 1.5),
                        _ => {}
                    }
                }
            }
            if ch.structure > 0.0 {
                let shapes: Vec<&str> = toks
                    .iter()
                    .map(|t| match t.class {
                        TokenClass::Word if is_keyword(&t.text) => t.text.as_str(),
                        TokenClass::Word => "V",
                        TokenClass::Number => &t.text,
                        TokenClass::Str => "S",
                        TokenClass::Punct => &t.text,
                    })
                    .collect();
                for w in shapes.windows(3) {
                    add("st", &w.join("_"), ch.structure);
                }
            }
            if ch.lines > 0.0 {
                let lines = normalized_lines(code);
                for l in &lines {
                    add("ln", l, ch.lines);
                }
                for w in lines.windows(2) {
                    add("lb", &format!("{}|{}", w[0], w[1]), ch.lines * 0.5);
                }
            }
            if ch.char3 > 0.0 {
                for g in char_trigrams(code) {
                    add("c3", &g, ch.char3);
                }
            }
            if ch.defuse > 0.0 {
                if let Ok(script) = parse_script(code) {
                    for pe in script.pes() {
                        for edge in def_use_pairs(pe) {
                            add("du", &format!("{}>{}", edge.def_var, edge.use_var), ch.defuse);
                        }
                    }
                }
            }
            if ch.prose > 0.0 {
                for w in code.split_whitespace() {
                    add("pw", &w.to_lowercase(), ch.prose);
                }
            }
            out
        }
    }

    /// Every model hashes `input`'s features, as text and as code, to the
    /// hashes of the strings [`feature_strings`] builds, in the same order
    /// with the same weights, and so embeds it to the same bits.
    fn assert_features_hash_as_their_strings(input: &str) {
        for m in all_models() {
            let hashed = |features: Vec<(String, f32)>| -> Vec<(u64, u32)> {
                features.iter().map(|(f, w)| (fnv1a(&[f.as_bytes()]), w.to_bits())).collect()
            };
            let embedded = |features: Vec<(String, f32)>| {
                let mut h = FeatureHasher::new(m.dim);
                for (f, w) in features {
                    h.add(fnv1a(&[f.as_bytes()]), w);
                }
                h.finish()
            };
            let mut text = Vec::new();
            m.text_features(input, &mut |f, w| text.push((f, w.to_bits())));
            assert_eq!(text, hashed(feature_strings::text(&m, input)), "{} text of {input:?}", m.name());
            assert_eq!(m.embed_text(input), embedded(feature_strings::text(&m, input)), "{}", m.name());
            let mut code = Vec::new();
            m.code_features(input, &mut |f, w| code.push((f, w.to_bits())));
            assert_eq!(code, hashed(feature_strings::code(&m, input)), "{} code of {input:?}", m.name());
            assert_eq!(m.embed_code(input), embedded(feature_strings::code(&m, input)), "{}", m.name());
        }
    }

    #[test]
    fn in_place_features_hash_as_their_strings() {
        let cases = [
            "",
            "x",
            "İ",
            "ab",
            "ẞİ",
            "İstanbul ẞtraße ΣΟΦΟΣ",
            "Σ σς ﬁ ŉ ǅ",
            PRIME_PE,
            WORDCOUNT_PE,
            "let a = 1;\n\n  # note\nlet İb = a * 2; # ẞ\nemit(İb)",
            "@@@ not code at all ∆∆∆ \"unterminated",
        ];
        for input in cases {
            assert_features_hash_as_their_strings(input);
        }
    }

    /// Characters that lowercase to other lengths or to several
    /// characters, letters of several scripts, code punctuation and line
    /// breaks.
    const EDGE_CHARS: [char; 24] = [
        'İ', 'ẞ', 'Σ', 'ς', 'ŉ', 'ǅ', 'ﬁ', 'K', 'Å', 'é', '中', '🦀', 'a', 'Z', '_', '0', '7', ' ', '\n',
        '\t', '#', '"', ';', '{',
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Arbitrary Unicode text — any scalar value, mixed with the edge
        /// characters above and with lines of a real PE — hashes its
        /// features as their strings did.
        #[test]
        fn arbitrary_text_hashes_as_its_feature_strings(
            units in proptest::collection::vec((0u8..4, proptest::prelude::any::<u32>()), 0..48),
        ) {
            let lines: Vec<&str> = PRIME_PE.lines().collect();
            let mut input = String::new();
            for (kind, x) in units {
                match kind {
                    0 => input.push(char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}')),
                    1 | 2 => input.push(EDGE_CHARS[x as usize % EDGE_CHARS.len()]),
                    _ => {
                        input.push_str(lines[x as usize % lines.len()]);
                        input.push('\n');
                    }
                }
            }
            assert_features_hash_as_their_strings(&input);
        }
    }

    #[test]
    fn all_models_embed_garbage_without_panicking() {
        for m in all_models() {
            let e = m.embed_code("@@@ not code at all ∆∆∆ \"unterminated");
            assert_eq!(e.dim(), m.dim());
            let t = m.embed_text("");
            assert_eq!(t.dim(), m.dim());
        }
    }
}
