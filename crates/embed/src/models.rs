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

use crate::embedding::{Embedding, FeatureHasher};
use crate::tokenizer::{
    char_trigrams, code_tokens, is_keyword, normalized_lines, text_words, CodeToken, TokenClass,
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
        self.code_features(code, &mut h);
        h.finish()
    }

    /// Embed a natural-language query or description.
    pub fn embed_text(&self, text: &str) -> Embedding {
        let mut h = FeatureHasher::new(self.dim);
        let words = text_words(text);
        if self.text_words > 0.0 {
            for w in &words {
                // Same "sub" prefix as code subtokens: this alignment IS the
                // cross-modal fine-tuning.
                h.add_channel("sub", w, self.text_words);
            }
        }
        if self.text_bigrams > 0.0 {
            for w in words.windows(2) {
                h.add_channel("wb", &format!("{}_{}", w[0], w[1]), self.text_bigrams);
            }
        }
        if self.text_char3 > 0.0 {
            for g in char_trigrams(text) {
                h.add_channel("c3", &g, self.text_char3);
            }
        }
        h.finish()
    }

    fn code_features(&self, code: &str, h: &mut FeatureHasher) {
        let ch = &self.code;
        let toks: Vec<CodeToken> = if ch.raw_tokens > 0.0 || ch.subtokens > 0.0 || ch.structure > 0.0 {
            code_tokens(code)
        } else {
            Vec::new()
        };
        if ch.raw_tokens > 0.0 {
            for t in &toks {
                h.add_channel("raw", &t.text, ch.raw_tokens);
            }
        }
        if ch.subtokens > 0.0 {
            for t in &toks {
                match t.class {
                    TokenClass::Word if !is_keyword(&t.text) => {
                        for sub in subtokens(&t.text) {
                            h.add_channel("sub", &sub, ch.subtokens);
                        }
                    }
                    TokenClass::Str => {
                        // Words inside string literals align with queries too
                        // (docstring-like evidence).
                        for w in text_words(&t.text) {
                            h.add_channel("sub", &w, ch.subtokens * 0.75);
                        }
                    }
                    // Numeric literals share the NL space too: the query
                    // "sum of the first 7 numbers" must match the constant 7.
                    TokenClass::Number => {
                        h.add_channel("sub", &t.text, ch.subtokens * 1.5);
                    }
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
                    // Constants stay literal: clones share them, sibling
                    // problems (same template, different parameter) do not.
                    TokenClass::Number => &t.text,
                    TokenClass::Str => "S",
                    TokenClass::Punct => &t.text,
                })
                .collect();
            for w in shapes.windows(3) {
                h.add_channel("st", &w.join("_"), ch.structure);
            }
        }
        if ch.lines > 0.0 {
            let lines = normalized_lines(code);
            for l in &lines {
                h.add_channel("ln", l, ch.lines);
            }
            for w in lines.windows(2) {
                h.add_channel("lb", &format!("{}|{}", w[0], w[1]), ch.lines * 0.5);
            }
        }
        if ch.char3 > 0.0 {
            for g in char_trigrams(code) {
                h.add_channel("c3", &g, ch.char3);
            }
        }
        if ch.defuse > 0.0 {
            // Parse if possible; silently skip for non-LamScript snippets.
            if let Ok(script) = parse_script(code) {
                for pe in script.pes() {
                    for edge in def_use_pairs(pe) {
                        h.add_channel("du", &format!("{}>{}", edge.def_var, edge.use_var), ch.defuse);
                    }
                }
            }
        }
        if ch.prose > 0.0 {
            for w in code.split_whitespace() {
                h.add_channel("pw", &w.to_lowercase(), ch.prose);
            }
        }
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
