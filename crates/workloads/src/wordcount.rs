//! The stateful word-count workload (paper Listing 2 grown into a
//! workflow): sentence producer → tokenizer → group-by counter.

/// The workflow source. `CountWords` is the Listing 2 PE: stateful, with
/// MapReduce-style `groupby 0` routing on the word.
pub const SOURCE: &str = r#"
pe SentenceProducer : producer {
    doc "Streams sentences from a fixed corpus";
    output output;
    process {
        let corpus = [
            "the quick brown fox jumps over the lazy dog",
            "the dog barks at the quick fox",
            "a lazy stream of quick data flows past the dog",
            "brown data and quick data make the stream flow"
        ];
        emit(corpus[iteration % 4]);
    }
}

pe Tokenize : iterative {
    doc "Splits sentences into (word, 1) pairs";
    input sentence;
    output output;
    process {
        for w in split(sentence) { emit([w, 1]); }
    }
}

pe CountWords : generic {
    doc "Counts words, MapReduce style, with per-key state";
    input input groupby 0;
    output output;
    init { state.count = {}; }
    process {
        let word = input[0];
        state.count[word] = get(state.count, word, 0) + input[1];
        emit([word, state.count[word]]);
    }
}

workflow WordCount {
    doc "Counts word occurrences across a stream of sentences";
    nodes { src = SentenceProducer; tok = Tokenize; cnt = CountWords; }
    connect src.output -> tok.sentence;
    connect tok.output -> cnt.input;
}
"#;

/// Reference counts after `iterations` sentences (for assertions).
pub fn reference_counts(iterations: usize) -> std::collections::BTreeMap<String, i64> {
    let corpus = [
        "the quick brown fox jumps over the lazy dog",
        "the dog barks at the quick fox",
        "a lazy stream of quick data flows past the dog",
        "brown data and quick data make the stream flow",
    ];
    let mut counts = std::collections::BTreeMap::new();
    for i in 0..iterations {
        for w in corpus[i % 4].split_whitespace() {
            *counts.entry(w.to_string()).or_insert(0) += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_dataflow::mapping::{Mapping, MultiMapping, RedisMapping, SimpleMapping};
    use laminar_dataflow::{RunOptions, WorkflowGraph};

    fn final_counts(r: &laminar_dataflow::RunResult) -> std::collections::BTreeMap<String, i64> {
        let mut best = std::collections::BTreeMap::new();
        for v in r.port_values("CountWords", "output") {
            let w = v[0].as_str().unwrap().to_string();
            let n = v[1].as_i64().unwrap();
            let e = best.entry(w).or_insert(0);
            *e = (*e).max(n);
        }
        best
    }

    #[test]
    fn counts_match_reference_sequential() {
        let g = WorkflowGraph::from_script(SOURCE, "WordCount").unwrap();
        let r = SimpleMapping.execute(&g, &RunOptions::iterations(8)).unwrap();
        assert_eq!(final_counts(&r), reference_counts(8));
    }

    #[test]
    fn counts_match_reference_under_parallel_mappings() {
        let g = WorkflowGraph::from_script(SOURCE, "WordCount").unwrap();
        let expected = reference_counts(12);
        for mapping in [&MultiMapping, &RedisMapping] {
            let r = mapping.execute(&g, &RunOptions::iterations(12).with_processes(6)).unwrap();
            assert_eq!(final_counts(&r), expected, "{} diverged", mapping);
        }
    }
}
