//! Cross-encoder scorer — the accuracy-vs-latency foil of paper §2.4.
//!
//! Bi-encoders embed each side once and compare with cosine; a
//! cross-encoder attends over the *pair*, which is more accurate but must
//! run per (query, candidate). This module implements a token-alignment
//! cross scorer used by the D2 ablation bench: it cannot be precomputed,
//! so query latency scales with corpus size — exactly the trade-off the
//! paper describes when justifying the bi-encoder choice.

use crate::metrics::rank;
use laminar_embed::tokenizer::{code_tokens, is_keyword, text_words, TokenClass};
use laminar_script::analysis::subtokens;
use std::collections::HashMap;

/// Pairwise relevance score between a natural-language query and a code
/// fragment, in `[0, 1]`-ish range (not calibrated).
///
/// Mechanism: greedy soft alignment — each query word scores its best
/// match among the code's subtokens (exact = 1, prefix/suffix = 0.6),
/// weighted by an inverse-frequency estimate over the code tokens, then
/// averaged. This per-pair interaction is what bi-encoders cannot express.
pub fn cross_score(query: &str, code: &str) -> f64 {
    let qwords = text_words(query);
    if qwords.is_empty() {
        return 0.0;
    }
    // Build the code-side subtoken bag with counts.
    let mut bag: HashMap<String, usize> = HashMap::new();
    for t in code_tokens(code) {
        match t.class {
            TokenClass::Word if !is_keyword(&t.text) => {
                for s in subtokens(&t.text) {
                    *bag.entry(s).or_insert(0) += 1;
                }
            }
            TokenClass::Str => {
                for w in text_words(&t.text) {
                    *bag.entry(w).or_insert(0) += 1;
                }
            }
            _ => {}
        }
    }
    if bag.is_empty() {
        return 0.0;
    }
    let total: usize = bag.values().sum();
    let mut score = 0.0;
    for qw in &qwords {
        let mut best: f64 = 0.0;
        for (cw, count) in &bag {
            let match_strength = if cw == qw {
                1.0
            } else if cw.len() >= 3
                && qw.len() >= 3
                && (cw.starts_with(qw.as_str()) || qw.starts_with(cw.as_str()))
            {
                0.6
            } else {
                0.0
            };
            if match_strength > 0.0 {
                // Rarer code tokens are more informative.
                let idf = (total as f64 / *count as f64).ln().max(0.5);
                best = best.max(match_strength * idf);
            }
        }
        score += best;
    }
    // Normalize by query length and a soft cap so scores stay comparable.
    (score / qwords.len() as f64 / 3.0).min(1.0)
}

/// Rank a corpus with the cross-encoder: returns indices best-first. This
/// is O(|corpus| × pair-cost) per query — the latency the ablation
/// measures against the bi-encoder's precomputed-embedding lookup.
pub fn cross_rank(query: &str, corpus: &[String]) -> Vec<(usize, f64)> {
    rank(corpus.iter().map(|c| cross_score(query, c)), corpus.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PRIME: &str = r#"
        pe IsPrime : iterative {
            input num; output output;
            process { let prime = num > 1; if prime { emit(num); } }
        }
    "#;
    const REVERSE: &str = r#"
        pe ReverseText : iterative {
            input text; output output;
            process { emit(reverse(text)); }
        }
    "#;

    #[test]
    fn relevant_pair_scores_higher() {
        let q = "check if a number is prime";
        assert!(cross_score(q, PRIME) > cross_score(q, REVERSE));
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(cross_score("", PRIME), 0.0);
        assert_eq!(cross_score("anything", ""), 0.0);
    }

    #[test]
    fn rank_orders_corpus() {
        let corpus = vec![REVERSE.to_string(), PRIME.to_string()];
        let ranked = cross_rank("prime number test", &corpus);
        assert_eq!(ranked[0].0, 1);
    }

    #[test]
    fn prefix_matching_helps() {
        // "reversing" should still hit "reverse".
        let with_prefix = cross_score("reversing text", REVERSE);
        assert!(with_prefix > 0.0);
    }

    #[test]
    fn scores_bounded() {
        for q in ["prime", "a b c d e f", "emit output input"] {
            let s = cross_score(q, PRIME);
            assert!((0.0..=1.0).contains(&s), "score {s} out of range");
        }
    }
}
