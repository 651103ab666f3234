//! Rule-based code summarization — the codet5-base-multi-sum substitute.
//!
//! When a PE is registered without a description, the client generates one
//! from the code itself (paper §4.2). This summarizer walks the parsed AST
//! and composes an English sentence from: the PE name's subtokens, its
//! archetype, port inventory, statefulness, calls, and control shape.

use laminar_script::{parse_script, subtokens, CodeFacts, PeDecl, PeKind};

/// Verbs recognized in PE names, mapped to sentence leads.
const NAME_VERBS: &[(&str, &str)] = &[
    ("check", "checks"),
    ("is", "checks whether the input is"),
    ("count", "counts"),
    ("read", "reads"),
    ("get", "fetches"),
    ("fetch", "fetches"),
    ("download", "downloads"),
    ("filter", "filters"),
    ("print", "prints"),
    ("produce", "produces"),
    ("make", "produces"),
    ("gen", "generates"),
    ("compute", "computes"),
    ("calc", "computes"),
    ("sum", "sums"),
    ("split", "splits"),
    ("parse", "parses"),
    ("write", "writes"),
    ("emit", "emits"),
    ("convert", "converts"),
    ("transform", "transforms"),
    ("number", "generates numbers from"),
];

/// Summarize the first PE found in `source`. Returns `None` when the
/// source doesn't parse or holds no PE — callers then fall back to a
/// generic description.
pub fn summarize_pe_source(source: &str) -> Option<String> {
    let script = parse_script(source).ok()?;
    let pe = script.pes().next()?;
    Some(summarize_pe(pe))
}

/// Summarize a parsed PE declaration.
pub(crate) fn summarize_pe(pe: &PeDecl) -> String {
    let facts = CodeFacts::collect(pe);
    let name_parts = subtokens(&pe.name);

    // Lead: verb derived from the name, if recognizable.
    let mut lead = None;
    for part in &name_parts {
        if let Some((_, verb)) = NAME_VERBS.iter().find(|(k, _)| k == part) {
            let objects: Vec<&String> = name_parts.iter().filter(|p| *p != part && p.len() > 1).collect();
            let obj = if objects.is_empty() {
                "the incoming data".to_string()
            } else {
                objects.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(" ")
            };
            lead = Some(format!("{verb} {obj}"));
            break;
        }
    }
    let lead = lead.unwrap_or_else(|| {
        let kind_action = match pe.kind {
            PeKind::Producer => "generates a stream",
            PeKind::Consumer => "consumes the stream",
            PeKind::Iterative => "transforms each datum",
            PeKind::Generic => "processes the stream",
        };
        if name_parts.is_empty() {
            kind_action.to_string()
        } else {
            format!("{kind_action} for {}", name_parts.join(" "))
        }
    });

    let kind_noun = match pe.kind {
        PeKind::Producer => "producer",
        PeKind::Iterative => "iterative",
        PeKind::Consumer => "consumer",
        PeKind::Generic => "generic",
    };

    let mut clauses: Vec<String> = Vec::new();
    if facts.uses_random {
        clauses.push("uses random values".into());
    }
    if facts.uses_state {
        if pe.inputs.iter().any(|p| p.groupby.is_some()) {
            clauses.push("maintains per-key state (group-by routing)".into());
        } else {
            clauses.push("maintains state across inputs".into());
        }
    }
    for (module, func) in facts.module_calls.iter().take(2) {
        if module != "math" && module != "strings" {
            clauses.push(format!("calls the {module}.{func} service"));
        }
    }
    if facts.has_loop {
        clauses.push("iterates over the data".into());
    }
    if !facts.emit_ports.is_empty() {
        clauses.push(format!("routes results to ports {}", facts.emit_ports.join(", ")));
    } else if facts.emits_default && pe.kind != PeKind::Producer {
        clauses.push("forwards results downstream".into());
    }
    if facts.calls.iter().any(|c| c == "print") {
        clauses.push("prints output".into());
    }

    let mut summary = format!("A {kind_noun} PE that {lead}");
    if !clauses.is_empty() {
        summary.push_str("; ");
        summary.push_str(&clauses.join(", "));
    }
    summary.push('.');
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summarize(src: &str) -> String {
        summarize_pe_source(src).expect("source summarizes")
    }

    #[test]
    fn is_prime_summary_mentions_checking() {
        let s = summarize(
            r#"pe IsPrime : iterative {
                input num; output output;
                process {
                    let i = 2;
                    let prime = num > 1;
                    while i * i <= num { if num % i == 0 { prime = false; break; } i = i + 1; }
                    if prime { emit(num); }
                }
            }"#,
        );
        assert!(s.contains("checks whether the input is"), "summary: {s}");
        assert!(s.contains("prime"), "summary: {s}");
        assert!(s.contains("iterates"), "summary: {s}");
    }

    #[test]
    fn producer_with_rng() {
        let s =
            summarize("pe NumberProducer : producer { output output; process { emit(randint(1, 1000)); } }");
        assert!(s.to_lowercase().contains("producer"), "summary: {s}");
        assert!(s.contains("random"), "summary: {s}");
    }

    #[test]
    fn stateful_groupby_noted() {
        let s = summarize(
            r#"pe CountWords : generic {
                input input groupby 0;
                output output;
                init { state.count = {}; }
                process { state.count[input[0]] = get(state.count, input[0], 0) + 1; emit(state.count); }
            }"#,
        );
        assert!(s.contains("counts words"), "summary: {s}");
        assert!(s.contains("per-key state"), "summary: {s}");
    }

    #[test]
    fn service_calls_mentioned() {
        let s = summarize(
            r#"pe GetVoTable : iterative {
                input coords; output output;
                process { emit(vo.fetch(coords)); }
            }"#,
        );
        assert!(s.contains("fetches vo table"), "summary: {s}");
        assert!(s.contains("vo.fetch"), "summary: {s}");
    }

    #[test]
    fn consumer_prints() {
        let s = summarize(
            r#"pe PrintPrime : consumer { input num; process { print("the num", num, "is prime"); } }"#,
        );
        assert!(s.contains("prints"), "summary: {s}");
    }

    #[test]
    fn unparseable_returns_none() {
        assert!(summarize_pe_source("not lamscript at all").is_none());
        assert!(summarize_pe_source("import x;").is_none());
    }

    #[test]
    fn summary_is_deterministic() {
        let src = "pe Foo : producer { output output; process { emit(1); } }";
        assert_eq!(summarize_pe_source(src), summarize_pe_source(src));
    }
}
