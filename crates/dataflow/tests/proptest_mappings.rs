//! Property tests: the four mappings are observationally equivalent.
//!
//! For any generated stateless pipeline, Simple / Multi / MPI / Redis must
//! produce the same multiset of terminal outputs; for group-by stateful
//! pipelines, per-key aggregates must agree exactly; and for every
//! mapping, folding the recorded event stream of a run must reproduce its
//! batch `RunResult` bit-for-bit (the PR-4 emit-then-fold contract).

use laminar_dataflow::mapping::{Mapping, MpiMapping, MultiMapping, RedisMapping, SimpleMapping};
use laminar_dataflow::{fold_events, RecordingObserver, RunObserver, RunOptions, WorkflowGraph};
use proptest::prelude::*;
use std::sync::Arc;

/// Build a generated 3-stage pipeline: producer → map → map.
fn pipeline_source(op1: &str, k1: i64, op2: &str, k2: i64) -> String {
    format!(
        r#"
        pe Src : producer {{ output output; process {{ emit(iteration); }} }}
        pe M1 : iterative {{ input x; output output; process {{ emit(x {op1} {k1}); }} }}
        pe M2 : iterative {{ input x; output output; process {{ if x % 2 == 0 {{ emit(x {op2} {k2}); }} }} }}
        "#
    )
}

fn build(src: &str) -> WorkflowGraph {
    let mut g = WorkflowGraph::new("gen");
    let a = g.add_script_pe(src, "Src").unwrap();
    let b = g.add_script_pe(src, "M1").unwrap();
    let c = g.add_script_pe(src, "M2").unwrap();
    g.connect(a, "output", b, "x").unwrap();
    g.connect(b, "output", c, "x").unwrap();
    g
}

fn sorted_outputs(r: &laminar_dataflow::RunResult) -> Vec<i64> {
    let mut out: Vec<i64> = r.port_values("M2", "output").iter().filter_map(|v| v.as_i64()).collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All four mappings agree on the output multiset of stateless
    /// pipelines.
    #[test]
    fn mappings_agree_on_stateless_pipelines(
        op1 in prop::sample::select(vec!["+", "*", "-"]),
        k1 in 1..7i64,
        op2 in prop::sample::select(vec!["+", "*"]),
        k2 in 1..7i64,
        iters in 1..40i64,
        procs in 2..7usize,
    ) {
        let src = pipeline_source(op1, k1, op2, k2);
        let g = build(&src);
        let baseline = sorted_outputs(&SimpleMapping.execute(&g, &RunOptions::iterations(iters)).unwrap());
        let opts = RunOptions::iterations(iters).with_processes(procs);
        for mapping in [&MultiMapping, &MpiMapping, &RedisMapping] {
            let got = sorted_outputs(&mapping.execute(&g, &opts).unwrap());
            prop_assert_eq!(&got, &baseline, "{} diverged", mapping);
        }
    }

    /// Group-by keyed aggregation yields identical per-key totals under
    /// every mapping and any process count.
    #[test]
    fn groupby_totals_invariant(
        iters in 6..60i64,
        procs in 2..8usize,
        nkeys in 2..5usize,
    ) {
        let keys: Vec<String> = (0..nkeys).map(|i| format!("\"k{i}\"")).collect();
        let src = format!(
            r#"
            pe Words : producer {{ output output; process {{ emit([[{}][iteration % {nkeys}], 1]); }} }}
            pe Count : generic {{
                input input groupby 0;
                output output;
                init {{ state.n = {{}}; }}
                process {{
                    let w = input[0];
                    state.n[w] = get(state.n, w, 0) + 1;
                    emit([w, state.n[w]]);
                }}
            }}
            "#,
            keys.join(", ")
        );
        let mut g = WorkflowGraph::new("wc");
        let a = g.add_script_pe(&src, "Words").unwrap();
        let b = g.add_script_pe(&src, "Count").unwrap();
        g.connect(a, "output", b, "input").unwrap();

        let expected = |r: &laminar_dataflow::RunResult| {
            let mut best: std::collections::BTreeMap<String, i64> = Default::default();
            for v in r.port_values("Count", "output") {
                let e = best.entry(v[0].as_str().unwrap().to_string()).or_insert(0);
                *e = (*e).max(v[1].as_i64().unwrap());
            }
            best
        };

        let baseline = expected(&SimpleMapping.execute(&g, &RunOptions::iterations(iters)).unwrap());
        let opts = RunOptions::iterations(iters).with_processes(procs);
        for mapping in [&MultiMapping, &MpiMapping, &RedisMapping] {
            let got = expected(&mapping.execute(&g, &opts).unwrap());
            prop_assert_eq!(&got, &baseline, "{} diverged", mapping);
        }
    }

    /// Stats conservation: everything a producer emits is processed
    /// downstream, under every mapping.
    #[test]
    fn stats_conservation(iters in 1..30i64, procs in 2..6usize) {
        let src = pipeline_source("+", 1, "*", 2);
        let g = build(&src);
        let opts = RunOptions::iterations(iters).with_processes(procs);
        for mapping in [
            &SimpleMapping,
            &MultiMapping,
            &MpiMapping,
            &RedisMapping,
        ] {
            let r = mapping.execute(&g, &opts).unwrap();
            prop_assert_eq!(r.stats.processed["Src"], iters as u64);
            prop_assert_eq!(r.stats.processed["M1"], r.stats.emitted["Src"]);
            prop_assert_eq!(r.stats.processed["M2"], r.stats.emitted["M1"]);
        }
    }

    /// The emit-then-fold contract: for any generated pipeline, under
    /// every mapping, folding the recorded event stream of a run
    /// reproduces that run's batch `RunResult` bit-for-bit (outputs in
    /// order, prints in order, full stats including timings and the
    /// event count).
    #[test]
    fn fold_of_recorded_stream_equals_batch_result(
        op1 in prop::sample::select(vec!["+", "*", "-"]),
        k1 in 1..7i64,
        op2 in prop::sample::select(vec!["+", "*"]),
        k2 in 1..7i64,
        iters in 1..40i64,
        procs in 2..7usize,
    ) {
        let src = pipeline_source(op1, k1, op2, k2);
        let g = build(&src);
        let opts = RunOptions::iterations(iters).with_processes(procs);
        for mapping in [
            &SimpleMapping,
            &MultiMapping,
            &MpiMapping,
            &RedisMapping,
        ] {
            let recorder = RecordingObserver::new();
            let result = mapping
                .execute_observed(&g, &opts, Some(recorder.clone() as Arc<dyn RunObserver>))
                .unwrap();
            let refolded = fold_events(recorder.take().into_iter().map(|(_, _, e)| e));
            prop_assert_eq!(&refolded.outputs, &result.outputs, "{} outputs diverged", mapping);
            prop_assert_eq!(&refolded.printed, &result.printed, "{} prints diverged", mapping);
            prop_assert_eq!(&refolded.stats, &result.stats, "{} stats diverged", mapping);
        }
    }

    /// Observed and batch runs of the same deterministic pipeline agree:
    /// attaching an observer must not change what the run computes.
    #[test]
    fn observation_does_not_perturb_results(iters in 1..30i64, procs in 2..6usize) {
        let src = pipeline_source("*", 3, "+", 1);
        let g = build(&src);
        let opts = RunOptions::iterations(iters).with_processes(procs);
        for mapping in [
            &SimpleMapping,
            &MultiMapping,
            &MpiMapping,
            &RedisMapping,
        ] {
            let batch = mapping.execute(&g, &opts).unwrap();
            let recorder = RecordingObserver::new();
            let observed = mapping
                .execute_observed(&g, &opts, Some(recorder.clone() as Arc<dyn RunObserver>))
                .unwrap();
            prop_assert_eq!(sorted_outputs(&batch), sorted_outputs(&observed), "{}", mapping);
            prop_assert_eq!(&batch.stats.processed, &observed.stats.processed, "{}", mapping);
            prop_assert_eq!(&batch.stats.emitted, &observed.stats.emitted, "{}", mapping);
            prop_assert_eq!(batch.stats.events, observed.stats.events, "{}", mapping);
        }
    }
}
