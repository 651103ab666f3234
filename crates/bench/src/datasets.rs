//! Synthetic dataset generators standing in for the paper's evaluation
//! corpora (CosQA, CSN, CodeNet) plus the evaluation drivers.
//!
//! The generators produce LamScript programs from a template bank with
//! controlled transformations:
//!
//! * **parameter variation** makes distinct "problems" that still share
//!   code shapes (hard distractors, like CodeNet problem families);
//! * **identifier renaming** produces semantically identical clones that
//!   only structure-aware models can match;
//! * **style switching** (alternate loop formulation) and **comment/dead
//!   code injection** produce lexical variation;
//! * **query paraphrasing** with a synonym table reproduces CSN's curated
//!   queries (light noise) vs CosQA's web queries (heavy noise).

use crate::metrics::{map_at_k, mrr, precision_at_1, rank};
use laminar_embed::{cosine, Embedding, EmbeddingModel};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

/// One template: a parameterized program plus its English description.
struct Template {
    /// Short topic tag.
    topic: &'static str,
    /// Description with `{P}` for the parameter.
    desc: &'static str,
    /// Identifiers subject to renaming (must appear in the bodies).
    idents: &'static [&'static str],
    /// Primary body formulation, `{P}` for the parameter.
    style_a: &'static str,
    /// Alternate formulation computing the same thing.
    style_b: &'static str,
}

/// The template bank. Each entry is a realistic small streaming PE body.
fn templates() -> &'static [Template] {
    &[
        Template {
            topic: "prime",
            desc: "check if the input number is prime and emit primes greater than {P}",
            idents: &["num", "i", "prime"],
            style_a: "let i = 2; let prime = num > 1; while i * i <= num { if num % i == 0 { prime = false; break; } i = i + 1; } if prime and num > {P} { emit(num); }",
            style_b: "let prime = num > 1; let i = 2; while i < num { if num % i == 0 { prime = false; } i = i + 1; } if prime and num > {P} { emit(num); }",
        },
        Template {
            topic: "sumrange",
            desc: "compute the sum of the first {P} numbers and emit the total",
            idents: &["num", "total", "i"],
            style_a: "let total = 0; let i = 0; while i < {P} { total = total + i; i = i + 1; } emit(total + num);",
            style_b: "let total = 0; for i in range({P}) { total = total + i; } emit(total + num);",
        },
        Template {
            topic: "fib",
            desc: "compute the {P}th fibonacci number for each input",
            idents: &["num", "a", "b", "i", "tmp"],
            style_a: "let a = 0; let b = 1; let i = 0; while i < {P} { let tmp = a + b; a = b; b = tmp; i = i + 1; } emit(a + num * 0);",
            style_b: "let a = 0; let b = 1; for i in range({P}) { let tmp = b; b = a + b; a = tmp; } emit(a + num * 0);",
        },
        Template {
            topic: "gcd",
            desc: "compute the greatest common divisor of the input and {P}",
            idents: &["num", "a", "b", "tmp"],
            style_a: "let a = num; let b = {P}; while b != 0 { let tmp = b; b = a % b; a = tmp; } emit(a);",
            style_b: "let a = {P}; let b = num; while a != 0 { let tmp = a; a = b % a; b = tmp; } emit(b);",
        },
        Template {
            topic: "factorial",
            desc: "compute the factorial of {P} and scale the input by it",
            idents: &["num", "acc", "i"],
            style_a: "let acc = 1; let i = 2; while i <= {P} { acc = acc * i; i = i + 1; } emit(acc * num);",
            style_b: "let acc = 1; for i in range(2, {P} + 1) { acc = acc * i; } emit(num * acc);",
        },
        Template {
            topic: "evenfilter",
            desc: "filter the stream keeping only numbers divisible by {P}",
            idents: &["num"],
            style_a: "if num % {P} == 0 { emit(num); }",
            style_b: "let keep = num % {P}; if keep == 0 { emit(num); }",
        },
        Template {
            topic: "clamp",
            desc: "clamp each input value to a maximum of {P}",
            idents: &["num", "bounded"],
            style_a: "let bounded = num; if bounded > {P} { bounded = {P}; } emit(bounded);",
            style_b: "if num > {P} { emit({P}); } else { emit(num); }",
        },
        Template {
            topic: "square",
            desc: "emit the square of each input number plus {P}",
            idents: &["num", "sq"],
            style_a: "let sq = num * num; emit(sq + {P});",
            style_b: "emit(num * num + {P});",
        },
        Template {
            topic: "runningmax",
            desc: "track the largest value seen so far above the floor {P}",
            idents: &["num", "best"],
            style_a: "let best = get(state, \"best\", {P}); if num > best { best = num; } state.best = best; emit(best);",
            style_b: "if num > get(state, \"best\", {P}) { state.best = num; } emit(get(state, \"best\", {P}));",
        },
        Template {
            topic: "runningmean",
            desc: "compute the running average of the stream values offset by {P}",
            idents: &["num", "count", "total"],
            style_a: "let count = get(state, \"count\", 0) + 1; let total = get(state, \"total\", 0) + num; state.count = count; state.total = total; emit(total / count + {P});",
            style_b: "state.count = get(state, \"count\", 0) + 1; state.total = get(state, \"total\", 0) + num; emit({P} + state.total / state.count);",
        },
        Template {
            topic: "wordcount",
            desc: "count the occurrences of each word longer than {P} letters",
            idents: &["rec", "word", "n"],
            style_a: "let word = rec[0]; if len(word) > {P} { let n = get(state, word, 0) + 1; state[word] = n; emit([word, n]); }",
            style_b: "let word = rec[0]; if len(word) > {P} { state[word] = get(state, word, 0) + 1; emit([word, state[word]]); }",
        },
        Template {
            topic: "reverse",
            desc: "reverse each input string longer than {P} characters",
            idents: &["text", "flipped"],
            style_a: "if len(text) > {P} { let flipped = reverse(text); emit(flipped); }",
            style_b: "if len(text) > {P} { emit(reverse(text)); }",
        },
        Template {
            topic: "palindrome",
            desc: "check whether the input string is a palindrome of at least {P} characters",
            idents: &["text", "flipped"],
            style_a: "let flipped = reverse(text); if flipped == text and len(text) >= {P} { emit(text); }",
            style_b: "if text == reverse(text) and len(text) >= {P} { emit(text); }",
        },
        Template {
            topic: "upper",
            desc: "convert strings shorter than {P} characters to upper case letters",
            idents: &["text"],
            style_a: "if len(text) < {P} { emit(upper(text)); }",
            style_b: "if len(text) < {P} { let text2 = upper(text); emit(text2); }",
        },
        Template {
            topic: "tokenize",
            desc: "split the input text into words and emit words longer than {P}",
            idents: &["text", "parts", "w"],
            style_a: "let parts = split(text); for w in parts { if len(w) > {P} { emit(w); } }",
            style_b: "for w in split(text) { if len(w) > {P} { emit(w); } }",
        },
        Template {
            topic: "vowels",
            desc: "count the vowels in the input string and emit counts above {P}",
            idents: &["text", "n", "c"],
            style_a: "let n = 0; for c in chars(text) { if contains(\"aeiou\", c) { n = n + 1; } } if n > {P} { emit(n); }",
            style_b: "let n = 0; for c in chars(lower(text)) { if contains(\"aeiou\", c) { n = n + 1; } } if n > {P} { emit(n); }",
        },
        Template {
            topic: "threshold",
            desc: "emit values greater than {P} and drop the rest",
            idents: &["num"],
            style_a: "if num > {P} { emit(num); }",
            style_b: "let keep = num > {P}; if keep { emit(num); }",
        },
        Template {
            topic: "windowsum",
            desc: "compute a sliding window sum of the last {P} values",
            idents: &["num", "window", "total", "v"],
            style_a: "let window = push(get(state, \"w\", []), num); if len(window) > {P} { window = slice(window, 1, len(window)); } state.w = window; let total = sum(window); emit(total);",
            style_b: "state.w = push(get(state, \"w\", []), num); if len(state.w) > {P} { state.w = slice(state.w, 1, len(state.w)); } emit(sum(state.w));",
        },
        Template {
            topic: "minmax",
            desc: "emit the smallest and largest value of lists longer than {P}",
            idents: &["xs"],
            style_a: "if len(xs) > {P} { emit([min(xs), max(xs)]); }",
            style_b: "if len(xs) > {P} { let lo = min(xs); let hi = max(xs); emit([lo, hi]); }",
        },
        Template {
            topic: "celsius",
            desc: "convert temperatures from celsius to fahrenheit with a calibration offset of {P}",
            idents: &["num", "f"],
            style_a: "let f = num * 9 / 5 + 32 + {P}; emit(f);",
            style_b: "emit({P} + num * 9 / 5 + 32);",
        },
        Template {
            topic: "leap",
            desc: "check whether years after {P}00 are leap years",
            idents: &["num", "leap"],
            style_a: "let leap = num % 4 == 0 and (num % 100 != 0 or num % 400 == 0); if leap and num > {P} * 100 { emit(num); }",
            style_b: "if num > {P} * 100 and (num % 400 == 0 or (num % 4 == 0 and num % 100 != 0)) { emit(num); }",
        },
        Template {
            topic: "digits",
            desc: "compute the sum of the digits of the input number scaled by {P}",
            idents: &["num", "n", "total"],
            style_a: "let n = abs(num); let total = 0; while n > 0 { total = total + n % 10; n = n / 10; } emit(total * {P});",
            style_b: "let total = 0; let n = abs(num); while n != 0 { total = total + n % 10; n = n / 10; } emit({P} * total);",
        },
        Template {
            topic: "dedupe",
            desc: "drop duplicate values keeping at most {P} distinct entries",
            idents: &["num", "key"],
            style_a: "let key = str(num); if not contains(state, key) and len(state) < {P} { state[key] = true; emit(num); }",
            style_b: "if len(state) < {P} and get(state, str(num), false) == false { state[str(num)] = true; emit(num); }",
        },
        Template {
            topic: "interest",
            desc: "apply {P} percent interest to the input amount",
            idents: &["num", "grown"],
            style_a: "let grown = num + num * {P} / 100; emit(grown);",
            style_b: "emit(num * (100 + {P}) / 100);",
        },
    ]
}

/// Synonym table powering query paraphrases.
// Targets are NL-only words that do NOT collide with code identifiers or
// builtins — paraphrase noise must strictly reduce lexical alignment.
const SYNONYMS: &[(&str, &[&str])] = &[
    ("compute", &["calculate", "work", "derive"]),
    ("check", &["verify", "decide"]),
    ("emit", &["send", "yield", "report"]),
    ("number", &["figure", "quantity"]),
    ("numbers", &["figures", "quantities"]),
    ("string", &["characters", "phrase"]),
    ("count", &["tally", "frequency"]),
    ("largest", &["biggest", "greatest"]),
    ("smallest", &["lowest", "littlest"]),
    ("sum", &["aggregate", "combined"]),
    ("average", &["mean", "typical"]),
    ("drop", &["discard", "skip"]),
    ("input", &["incoming", "given"]),
    ("stream", &["sequence", "feed"]),
    ("each", &["every"]),
    ("reverse", &["invert", "backwards"]),
    ("convert", &["turn", "translate"]),
    ("keeping", &["retaining"]),
    ("greater", &["bigger", "higher"]),
    ("longer", &["lengthier"]),
];

const NAME_POOL: &[&str] = &[
    "alpha", "beta", "gamma", "delta", "omega", "val", "item", "entry", "cur", "tmpv", "aux", "hold",
    "box_a", "box_b", "slot", "reg", "acc2", "mem", "cell", "probe", "q", "zz", "node_v", "datum",
];

/// Render one program variant.
///
/// `style` picks the body formulation, `rename` consistently substitutes
/// identifiers, `decorate` injects comments and a dead statement.
fn render(t: &Template, param: i64, style: bool, rename: bool, decorate: bool, rng: &mut StdRng) -> String {
    let body_src = if style { t.style_a } else { t.style_b };
    let mut body = body_src.replace("{P}", &param.to_string());
    let input_var = t.idents.first().copied().unwrap_or("num");
    let mut pe_name = format!("{}{}", capitalize(t.topic), param.max(0));
    let mut in_name = input_var.to_string();
    if rename {
        // Consistent random renaming of template identifiers.
        let mut pool: Vec<&str> = NAME_POOL.to_vec();
        for ident in t.idents {
            let idx = rng.random_range(0..pool.len());
            let fresh = pool.remove(idx);
            body = rename_ident(&body, ident, fresh);
            if *ident == input_var {
                in_name = fresh.to_string();
            }
        }
        pe_name =
            format!("{}Task{}", capitalize(NAME_POOL[rng.random_range(0..NAME_POOL.len())]), param.max(0));
    }
    // Break the body into one statement per line so partial-code queries
    // (line-truncated) keep a meaningful prefix of the logic.
    let body = body.replace("; ", ";\n        ").replace("} ", "}\n        ");
    let mut lines = vec![
        format!("pe {pe_name} : generic {{"),
        format!("    input {in_name};"),
        "    output output;".into(),
    ];
    if decorate {
        lines.push(format!("    # handles the {} task", t.topic));
    }
    lines.push("    process {".into());
    if decorate {
        lines.push("        let unused_marker = 0;".into());
    }
    // Re-bind the datum: generic PEs receive it as `input`.
    lines.push(format!("        let {in_name} = input;"));
    lines.push(format!("        {body}"));
    lines.push("    }".into());
    lines.push("}".into());
    lines.join("\n")
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

/// Token-aware identifier substitution (won't touch substrings of longer
/// names).
fn rename_ident(code: &str, from: &str, to: &str) -> String {
    let mut out = String::with_capacity(code.len());
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &code[start..i];
            out.push_str(if word == from { to } else { word });
        } else {
            out.push(b as char);
            i += 1;
        }
    }
    out
}

/// Paraphrase a description. `strength` in [0,1]: probability of swapping
/// each swappable word; heavier strength also drops filler words.
fn paraphrase(desc: &str, strength: f64, rng: &mut StdRng) -> String {
    let mut words: Vec<String> = Vec::new();
    for w in desc.split_whitespace() {
        let mut word = w.to_string();
        if let Some((_, syns)) = SYNONYMS.iter().find(|(k, _)| *k == w) {
            if rng.random_bool(strength) {
                word = syns.choose(rng).expect("non-empty synonym list").to_string();
            }
        }
        // Heavy noise drops some filler words entirely, and — like real web
        // queries — usually omits exact constants and occasionally other
        // content words.
        let filler = matches!(w, "the" | "a" | "an" | "and" | "it" | "is" | "of");
        if strength > 0.5 {
            if filler && rng.random_bool(0.35) {
                continue;
            }
            let numeric = w.chars().all(|c| c.is_ascii_digit());
            if numeric && rng.random_bool(0.5) {
                continue;
            }
            if !filler && !numeric && rng.random_bool(0.08) {
                continue;
            }
        }
        words.push(word);
    }
    words.join(" ")
}

// ---------------------------------------------------------------------------
// Text → code search datasets (Table 6)
// ---------------------------------------------------------------------------

/// One (query, code) pair; the corpus is the set of all codes.
#[derive(Debug, Clone)]
pub struct SearchExample {
    /// Natural-language query.
    pub query: String,
    /// The matching code document.
    pub code: String,
    /// The clean description the query was derived from.
    pub doc: String,
}

/// A zero-shot text-to-code search benchmark.
#[derive(Debug, Clone)]
pub struct SearchDataset {
    /// Name used in reports.
    pub name: String,
    /// Query `i` matches code `i`.
    pub examples: Vec<SearchExample>,
}

fn gen_search(name: &str, n: usize, query_noise: f64, seed: u64) -> SearchDataset {
    // Two independent RNG streams: the corpus is identical across noise
    // levels (so CosQA and CSN rank over the same documents, and the
    // noise level is the only experimental variable), while queries get
    // their own stream.
    let mut corpus_rng = StdRng::seed_from_u64(seed);
    let mut query_rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let bank = templates();
    let mut examples = Vec::with_capacity(n);
    for i in 0..n {
        let t = &bank[i % bank.len()];
        // Parameter varies per round so the corpus holds many same-template
        // hard distractors.
        let param = 2 + (i / bank.len()) as i64 * 3 + corpus_rng.random_range(0..3) as i64;
        let style = corpus_rng.random_bool(0.5);
        let decorate = corpus_rng.random_bool(0.3);
        let code = render(t, param, style, false, decorate, &mut corpus_rng);
        let doc = t.desc.replace("{P}", &param.to_string());
        let query = paraphrase(&doc, query_noise, &mut query_rng);
        examples.push(SearchExample { query, code, doc });
    }
    SearchDataset { name: name.to_string(), examples }
}

/// CoSQA-like: noisy web-style queries (heavy paraphrase + word drops).
pub fn gen_cosqa(n: usize, seed: u64) -> SearchDataset {
    gen_search("CosQA", n, 0.85, seed)
}

/// CSN-like: curated queries close to the docstring (light paraphrase).
pub fn gen_csn(n: usize, seed: u64) -> SearchDataset {
    gen_search("CSN", n, 0.35, seed)
}

/// The `k` corpus embeddings closest to `query` by [`cosine`], as
/// [`rank`] orders them. An `f32` score widens to `f64` exactly, so this is
/// the order of the scores themselves.
pub fn rank_corpus(query: &Embedding, corpus: &[Embedding], k: usize) -> Vec<(usize, f64)> {
    rank(corpus.iter().map(|e| f64::from(cosine(query, e))), k)
}

/// Evaluate zero-shot text-to-code search: MRR of the matching document.
pub fn eval_search(model: &EmbeddingModel, ds: &SearchDataset) -> f64 {
    let corpus: Vec<_> = ds.examples.iter().map(|e| model.embed_code(&e.code)).collect();
    let mut ranks = Vec::with_capacity(ds.examples.len());
    for (i, ex) in ds.examples.iter().enumerate() {
        let ranked = rank_corpus(&model.embed_text(&ex.query), &corpus, corpus.len());
        ranks.push(ranked.iter().position(|(idx, _)| *idx == i).map(|p| p + 1));
    }
    mrr(&ranks)
}

// ---------------------------------------------------------------------------
// Code → code clone retrieval dataset (Table 7)
// ---------------------------------------------------------------------------

/// One program in the clone corpus.
#[derive(Debug, Clone)]
pub struct CloneProgram {
    /// Which problem (cluster) this solves.
    pub problem: usize,
    /// Full source.
    pub code: String,
}

/// A partial-code query.
#[derive(Debug, Clone)]
pub struct CloneQuery {
    /// The truncated snippet given to the retriever.
    pub partial_code: String,
    /// Ground-truth problem id.
    pub problem: usize,
}

/// A CodeNet-like clone retrieval benchmark.
#[derive(Debug, Clone)]
pub struct CloneDataset {
    /// The searchable corpus.
    pub programs: Vec<CloneProgram>,
    /// Queries (derived from held-out variants).
    pub queries: Vec<CloneQuery>,
}

/// Generate `problems` clusters with `variants` corpus programs each, plus
/// one partial-code query per problem.
pub fn gen_codenet(problems: usize, variants: usize, seed: u64) -> CloneDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let bank = templates();
    let mut programs = Vec::with_capacity(problems * variants);
    let mut queries = Vec::with_capacity(problems);
    for p in 0..problems {
        let t = &bank[p % bank.len()];
        let param = 2 + (p / bank.len()) as i64 * 5 + rng.random_range(0..4) as i64;
        for v in 0..variants {
            // Variant 0 is canonical; others are renamed / restyled /
            // decorated clones.
            let style = v % 2 == 0;
            let rename = v >= variants / 2;
            let decorate = v % 3 == 1;
            let code = render(t, param, style, rename, decorate, &mut rng);
            programs.push(CloneProgram { problem: p, code });
        }
        // The query: a truncated held-out variant with canonical naming —
        // partial-code completion queries are prefixes of code being
        // written, which shares vocabulary with existing solutions.
        let held_out = render(t, param, rng.random_bool(0.5), false, false, &mut rng);
        let lines: Vec<&str> = held_out.lines().collect();
        let keep = (lines.len() * 2 / 3).max(4).min(lines.len());
        queries.push(CloneQuery { partial_code: lines[..keep].join("\n"), problem: p });
    }
    CloneDataset { programs, queries }
}

/// Clone-retrieval evaluation: (MAP@k, Precision@1).
pub fn eval_clone(model: &EmbeddingModel, ds: &CloneDataset, k: usize) -> (f64, f64) {
    let corpus: Vec<_> = ds.programs.iter().map(|p| model.embed_code(&p.code)).collect();
    let mut per_query = Vec::with_capacity(ds.queries.len());
    let mut top1 = Vec::with_capacity(ds.queries.len());
    for q in &ds.queries {
        let qe = model.embed_code(&q.partial_code);
        let ranked = rank_corpus(&qe, &corpus, k);
        let rel: Vec<bool> = ranked.iter().map(|(i, _)| ds.programs[*i].problem == q.problem).collect();
        top1.push(rel.first().copied().unwrap_or(false));
        let total_relevant = ds.programs.iter().filter(|p| p.problem == q.problem).count();
        per_query.push((rel, total_relevant));
    }
    (map_at_k(&per_query, k), precision_at_1(&top1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_embed::model_by_name;

    #[test]
    fn generated_code_parses() {
        let ds = gen_csn(60, 7);
        let mut parsed = 0;
        for ex in &ds.examples {
            if laminar_script::parse_script(&ex.code).is_ok() {
                parsed += 1;
            } else {
                panic!("generated code failed to parse:\n{}", ex.code);
            }
        }
        assert_eq!(parsed, 60);
    }

    #[test]
    fn clone_corpus_parses_and_clusters() {
        let ds = gen_codenet(30, 6, 11);
        assert_eq!(ds.programs.len(), 180);
        assert_eq!(ds.queries.len(), 30);
        for p in &ds.programs {
            laminar_script::parse_script(&p.code)
                .unwrap_or_else(|e| panic!("variant failed to parse ({e}):\n{}", p.code));
        }
        // Each cluster has the advertised size.
        for pid in 0..30 {
            assert_eq!(ds.programs.iter().filter(|p| p.problem == pid).count(), 6);
        }
    }

    #[test]
    fn datasets_are_seed_deterministic() {
        let a = gen_cosqa(20, 5);
        let b = gen_cosqa(20, 5);
        for (x, y) in a.examples.iter().zip(&b.examples) {
            assert_eq!(x.query, y.query);
            assert_eq!(x.code, y.code);
        }
        let c = gen_cosqa(20, 6);
        assert!(a.examples.iter().zip(&c.examples).any(|(x, y)| x.query != y.query));
    }

    #[test]
    fn csn_queries_closer_to_docs_than_cosqa() {
        let csn = gen_csn(40, 3);
        let cosqa = gen_cosqa(40, 3);
        let overlap = |ds: &SearchDataset| -> f64 {
            ds.examples
                .iter()
                .map(|e| {
                    let dw: std::collections::HashSet<_> = e.doc.split_whitespace().collect();
                    let qw: Vec<_> = e.query.split_whitespace().collect();
                    if qw.is_empty() {
                        return 0.0;
                    }
                    qw.iter().filter(|w| dw.contains(**w)).count() as f64 / qw.len() as f64
                })
                .sum::<f64>()
                / ds.examples.len() as f64
        };
        assert!(overlap(&csn) > overlap(&cosqa), "CSN queries must be cleaner");
    }

    #[test]
    fn rename_is_token_aware() {
        assert_eq!(rename_ident("num + number", "num", "x"), "x + number");
        assert_eq!(rename_ident("a.num[num]", "num", "y"), "a.y[y]");
    }

    #[test]
    fn fine_tuned_model_gets_reasonable_mrr() {
        let ds = gen_csn(60, 42);
        let tuned = model_by_name("unixcoder-code-search").unwrap();
        let base = model_by_name("unixcoder-base").unwrap();
        let m_tuned = eval_search(&tuned, &ds);
        let m_base = eval_search(&base, &ds);
        assert!(m_tuned > m_base, "fine-tuned must beat base: {m_tuned} vs {m_base}");
        assert!(m_tuned > 0.3, "fine-tuned MRR too low: {m_tuned}");
    }

    #[test]
    fn clone_eval_produces_sane_metrics() {
        let ds = gen_codenet(25, 6, 9);
        let reacc = model_by_name("ReACC-retriever-py").unwrap();
        let (map, p1) = eval_clone(&reacc, &ds, 100);
        assert!(map > 0.0 && map <= 1.0);
        assert!(p1 > 0.2, "lexical retriever should often nail top-1, got {p1}");
    }
}
