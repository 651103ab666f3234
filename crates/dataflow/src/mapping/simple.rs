//! The Simple mapping: sequential in-process enactment, one instance per PE.

use super::runtime::Runtime;
use super::{Mapping, MappingKind, RunOptions, RunResult};
use crate::error::DataflowError;
use crate::graph::WorkflowGraph;

/// Sequential enactment. Deterministic: producers run iteration by
/// iteration and data flows breadth-first through the runtime's in-process
/// FIFO (`Runtime::sequential_observed`).
pub struct SimpleMapping;

impl Mapping for SimpleMapping {
    fn kind(&self) -> MappingKind {
        MappingKind::Simple
    }

    fn execute_observed(
        &self,
        graph: &WorkflowGraph,
        options: &RunOptions,
        observer: Option<std::sync::Arc<dyn super::RunObserver>>,
    ) -> Result<RunResult, DataflowError> {
        Runtime::new(graph, options).sequential_observed(observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::{consumer_fn, iterative_fn, producer_fn};
    use laminar_json::Value;

    #[test]
    fn pipeline_end_to_end() {
        let mut g = WorkflowGraph::new("p");
        let a = g.add(producer_fn("Nums", Value::Int));
        let b = g.add(iterative_fn("Square", |v| v.as_i64().map(|n| Value::Int(n * n))));
        g.connect(a, "output", b, "input").unwrap();
        let r = SimpleMapping.execute(&g, &RunOptions::iterations(5)).unwrap();
        let squares: Vec<i64> =
            r.port_values("Square", "output").iter().map(|v| v.as_i64().unwrap()).collect();
        assert_eq!(squares, vec![0, 1, 4, 9, 16]);
        assert_eq!(r.stats.processed["Nums"], 5);
        assert_eq!(r.stats.processed["Square"], 5);
        assert_eq!(r.stats.instances["Square"], 1);
    }

    #[test]
    fn explicit_data_drive() {
        let src = r#"
            pe Reader : producer { output output; process { emit(input * 10); } }
        "#;
        let mut g = WorkflowGraph::new("d");
        g.add_script_pe(src, "Reader").unwrap();
        let r = SimpleMapping.execute(&g, &RunOptions::data(vec![Value::Int(1), Value::Int(2)])).unwrap();
        let out: Vec<i64> = r.port_values("Reader", "output").iter().map(|v| v.as_i64().unwrap()).collect();
        assert_eq!(out, vec![10, 20]);
    }

    #[test]
    fn is_prime_showcase_deterministic_order() {
        // The paper's Listing 3 workflow under the Simple mapping: filters
        // 1..=20 down to the primes, in order (sequential is deterministic).
        let src = r#"
            pe Seq : producer { output output; process { emit(iteration + 1); } }
            pe IsPrime : iterative {
                input num; output output;
                process {
                    let i = 2;
                    let prime = num > 1;
                    while i * i <= num { if num % i == 0 { prime = false; break; } i = i + 1; }
                    if prime { emit(num); }
                }
            }
            pe PrintPrime : consumer {
                input num;
                process { print("the num", num, "is prime"); }
            }
        "#;
        let mut g = WorkflowGraph::new("isprime");
        let s = g.add_script_pe(src, "Seq").unwrap();
        let p = g.add_script_pe(src, "IsPrime").unwrap();
        let c = g.add_script_pe(src, "PrintPrime").unwrap();
        g.connect(s, "output", p, "num").unwrap();
        g.connect(p, "output", c, "num").unwrap();
        let r = SimpleMapping.execute(&g, &RunOptions::iterations(20)).unwrap();
        assert_eq!(
            r.printed,
            vec![
                "the num 2 is prime",
                "the num 3 is prime",
                "the num 5 is prime",
                "the num 7 is prime",
                "the num 11 is prime",
                "the num 13 is prime",
                "the num 17 is prime",
                "the num 19 is prime",
            ]
        );
    }

    #[test]
    fn multiple_sources() {
        let mut g = WorkflowGraph::new("two");
        let a = g.add(producer_fn("A", Value::Int));
        let b = g.add(producer_fn("B", |i| Value::Int(i + 100)));
        let m = g.add(iterative_fn("Merge", Some));
        g.connect(a, "output", m, "input").unwrap();
        g.connect(b, "output", m, "input").unwrap();
        let r = SimpleMapping.execute(&g, &RunOptions::iterations(2)).unwrap();
        let mut out: Vec<i64> =
            r.port_values("Merge", "output").iter().map(|v| v.as_i64().unwrap()).collect();
        out.sort();
        assert_eq!(out, vec![0, 1, 100, 101]);
        assert_eq!(r.stats.processed["Merge"], 4);
    }

    #[test]
    fn stateful_wordcount_groupby_single_instance() {
        let src = r#"
            pe Words : producer { output output; process { emit([get(["a","b","a","a"], iteration), 1]); } }
            pe Count : generic {
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
        let mut g = WorkflowGraph::new("wc");
        let w = g.add_script_pe(src, "Words").unwrap();
        let c = g.add_script_pe(src, "Count").unwrap();
        g.connect(w, "output", c, "input").unwrap();
        let r = SimpleMapping.execute(&g, &RunOptions::iterations(4)).unwrap();
        let final_counts = r.port_values("Count", "output");
        assert_eq!(final_counts.last().unwrap(), &laminar_json::jarr!["a", 3]);
    }

    #[test]
    fn pe_runtime_error_propagates() {
        let src = r#"pe Bad : producer { output output; process { emit(1 / 0); } }"#;
        let mut g = WorkflowGraph::new("bad");
        g.add_script_pe(src, "Bad").unwrap();
        let err = SimpleMapping.execute(&g, &RunOptions::iterations(1)).unwrap_err();
        assert!(matches!(err, DataflowError::PeFailed { pe, .. } if pe == "Bad"));
    }

    #[test]
    fn consumer_only_graph_invalid() {
        // Two consumers and nothing to feed them: user wiring gone wrong.
        let mut g = WorkflowGraph::new("c");
        g.add(consumer_fn("C", |_, _| {}));
        g.add(consumer_fn("D", |_, _| {}));
        assert!(SimpleMapping.execute(&g, &RunOptions::iterations(1)).is_err());
        // One consumer alone is a function of the run's input.
        let mut lone = WorkflowGraph::new("f");
        lone.add(consumer_fn("C", |v, out| out.print(&v.to_string())));
        assert_eq!(SimpleMapping.execute(&lone, &RunOptions::iterations(2)).unwrap().printed, ["0", "1"]);
    }

    #[test]
    fn zero_iterations_is_a_noop() {
        let mut g = WorkflowGraph::new("z");
        g.add(producer_fn("A", Value::Int));
        let r = SimpleMapping.execute(&g, &RunOptions::iterations(0)).unwrap();
        assert_eq!(r.total_outputs(), 0);
    }
}
