//! Property tests: the bytecode VM and the tree-walking interpreter are
//! observationally equivalent *through the dataflow layer*, under every
//! mapping.
//!
//! `crates/script/tests/proptest_vm.rs` proves backend parity at the
//! script level (lockstep invocations, fuel accounting, error objects).
//! These properties prove the integration: a workflow built from
//! compiled PEs and the same workflow built from the interpreter oracle
//! (`laminar_oracle`) must produce identical results under
//! Simple / Multi / MPI / Redis — including stateful group-by PEs,
//! prints, seeded RNG, and scripts that fail mid-run.

use std::sync::Arc;

use laminar_dataflow::mapping::{Mapping, MpiMapping, MultiMapping, RedisMapping, SimpleMapping};
use laminar_dataflow::{RecordingObserver, RunEvent, RunObserver, RunOptions, RunResult, WorkflowGraph};
use laminar_oracle as oracle;
use proptest::prelude::*;

/// Producer → stateful group-by aggregator → formatter with prints.
/// Exercises state mutation, map/list indexing, string ops, floats,
/// and conditionals — the instruction classes the lowerer treats
/// differently from the tree-walker.
fn workload_source(op: &str, k: i64, nkeys: usize) -> String {
    format!(
        r#"
        pe Feed : producer {{
            output output;
            process {{
                let key = "k" + str(iteration % {nkeys});
                emit([key, iteration {op} {k}]);
            }}
        }}
        pe Agg : generic {{
            input input groupby 0;
            output output;
            init {{ state.totals = {{}}; state.seen = 0; }}
            process {{
                let key = input[0];
                state.totals[key] = get(state.totals, key, 0) + input[1];
                state.seen = state.seen + 1;
                emit([key, state.totals[key], state.seen]);
            }}
        }}
        pe Fmt : iterative {{
            input x;
            output output;
            process {{
                if x[1] % 3 == 0 {{ print("hit", x[0]); }}
                emit(upper(x[0]) + ":" + str(x[1] * 2 + x[2]));
            }}
        }}
        "#
    )
}

/// A linear pipeline of `src`'s PEs, one `(name, input port)` per stage,
/// each stage's `output` feeding the next, built on both backends:
/// `(compiled, interpreter oracle)`.
fn both_backends(src: &str, stages: &[(&str, &str)]) -> (WorkflowGraph, WorkflowGraph) {
    let build = |add: oracle::AddPe| {
        let mut g = WorkflowGraph::new("diff");
        let mut upstream = None;
        for (pe, port) in stages {
            let id = add(&mut g, src, pe).unwrap();
            if let Some(from) = upstream {
                g.connect(from, "output", id, port).unwrap();
            }
            upstream = Some(id);
        }
        g
    };
    (build(WorkflowGraph::add_script_pe), build(oracle::add_pe))
}

/// [`workload_source`]'s pipeline on both backends.
fn build_workload(src: &str) -> (WorkflowGraph, WorkflowGraph) {
    both_backends(src, &[("Feed", ""), ("Agg", "input"), ("Fmt", "x")])
}

fn sorted_strings(r: &RunResult, pe: &str) -> Vec<String> {
    let mut out: Vec<String> =
        r.port_values(pe, "output").iter().filter_map(|v| v.as_str().map(str::to_string)).collect();
    out.sort();
    out
}

fn sorted_prints(r: &RunResult) -> Vec<String> {
    let mut p = r.printed.clone();
    p.sort();
    p
}

/// Run checkpointed and collect every epoch marker as `(id, serialized
/// state)` — string comparison makes divergence a *byte* difference, the
/// contract the journal depends on.
fn epoch_states(mapping: &dyn Mapping, g: &WorkflowGraph, opts: &RunOptions) -> Vec<(u64, String)> {
    let recorder = RecordingObserver::new();
    mapping.execute_observed(g, opts, Some(recorder.clone() as Arc<dyn RunObserver>)).unwrap();
    recorder
        .take()
        .into_iter()
        .filter_map(|(_, _, e)| match e {
            RunEvent::Epoch { id, state } => Some((id, laminar_json::to_string(&state))),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Under every mapping, a run on the compiled backend and the same
    /// run on the interpreter agree: exactly (outputs in order, prints
    /// in order) for Simple, and as multisets for the parallel
    /// mappings, whose interleaving is scheduling-dependent but whose
    /// per-instance computation must not depend on the backend.
    #[test]
    fn vm_and_interpreter_agree_across_mappings(
        op in prop::sample::select(vec!["+", "*", "-"]),
        k in 1..9i64,
        nkeys in 2..5usize,
        iters in 4..40i64,
        procs in 2..6usize,
    ) {
        let src = workload_source(op, k, nkeys);
        let (vm_g, interp_g) = build_workload(&src);

        let opts = RunOptions::iterations(iters);
        let vm = SimpleMapping.execute(&vm_g, &opts).unwrap();
        let interp = SimpleMapping.execute(&interp_g, &opts).unwrap();
        prop_assert_eq!(&vm.outputs, &interp.outputs, "simple outputs diverged");
        prop_assert_eq!(&vm.printed, &interp.printed, "simple prints diverged");

        let opts = opts.with_processes(procs);
        for mapping in [&MultiMapping, &MpiMapping, &RedisMapping] {
            let vm = mapping.execute(&vm_g, &opts).unwrap();
            let interp = mapping.execute(&interp_g, &opts).unwrap();
            prop_assert_eq!(
                sorted_strings(&vm, "Fmt"),
                sorted_strings(&interp, "Fmt"),
                "{} outputs diverged", mapping
            );
            prop_assert_eq!(
                sorted_prints(&vm),
                sorted_prints(&interp),
                "{} prints diverged", mapping
            );
            prop_assert_eq!(
                &vm.stats.processed, &interp.stats.processed,
                "{} processed counts diverged", mapping
            );
        }
    }

    /// Seeded RNG parity end to end: each PE instance derives its seed
    /// from the graph seed and its instance id, so for a fixed mapping
    /// and process count the two backends must draw identical random
    /// streams.
    #[test]
    fn seeded_rng_agrees_across_backends(
        lo in 1..5i64,
        span in 1..20i64,
        iters in 1..30i64,
        procs in 2..5usize,
    ) {
        let hi = lo + span;
        let src = format!(
            r#"
            pe Dice : producer {{
                output output;
                process {{ emit([randint({lo}, {hi}), random(), shuffle([1, 2, 3, 4])]); }}
            }}
            pe Tag : iterative {{
                input x;
                output output;
                process {{ emit(str(x[0]) + "|" + str(x[2][0])); }}
            }}
            "#
        );
        let (vm_g, interp_g) = both_backends(&src, &[("Dice", ""), ("Tag", "x")]);

        for mapping in [
            &SimpleMapping,
            &MultiMapping,
            &MpiMapping,
            &RedisMapping,
        ] {
            let opts = RunOptions::iterations(iters).with_processes(procs);
            let vm = mapping.execute(&vm_g, &opts).unwrap();
            let interp = mapping.execute(&interp_g, &opts).unwrap();
            prop_assert_eq!(
                sorted_strings(&vm, "Tag"),
                sorted_strings(&interp, "Tag"),
                "{} rng streams diverged", mapping
            );
        }
    }

    /// Checkpoint parity: the epoch snapshots a checkpointed run emits
    /// must be *byte-identical* between the compiled backend and the
    /// interpreter, under every mapping. This is the property the
    /// durable journal leans on — a checkpoint written by one backend
    /// must be resumable by the other, so serialized `state.*`, RNG
    /// cursors, and group-by tables may not differ even in map ordering.
    #[test]
    fn epoch_snapshots_are_byte_identical_across_backends(
        op in prop::sample::select(vec!["+", "*"]),
        k in 1..9i64,
        nkeys in 2..4usize,
        chunk in 2..6usize,
        epochs in 2..5u64,
        procs in 2..5usize,
    ) {
        // One extra iteration past the last full chunk: the partial tail
        // must not grow an epoch of its own.
        let iters = (chunk as u64 * epochs) as i64 + 1;
        let src = workload_source(op, k, nkeys);
        let (vm_g, interp_g) = build_workload(&src);

        for mapping in [
            &SimpleMapping,
            &MultiMapping,
            &MpiMapping,
            &RedisMapping,
        ] {
            let opts = RunOptions::iterations(iters).with_processes(procs).with_checkpoints(chunk);
            let vm = epoch_states(mapping, &vm_g, &opts);
            let interp = epoch_states(mapping, &interp_g, &opts);
            let ids: Vec<u64> = vm.iter().map(|(id, _)| *id).collect();
            prop_assert_eq!(
                ids,
                (1..=epochs).collect::<Vec<u64>>(),
                "{} epoch ids off", mapping
            );
            prop_assert_eq!(vm, interp, "{} snapshots diverged between backends", mapping);
        }
    }

    /// Failure parity: a script that faults mid-run must fail on both
    /// backends, and under the deterministic Simple mapping the error
    /// text must match verbatim (same kind, message, and source line —
    /// the oracle walks a parse of the very text the program was prepared
    /// from).
    #[test]
    fn runtime_errors_agree_across_backends(
        fail_at in 0..8i64,
        iters in 8..20i64,
        procs in 2..4usize,
    ) {
        let src = format!(
            r#"
            pe Src : producer {{ output output; process {{ emit(iteration); }} }}
            pe Trip : iterative {{
                input x;
                output output;
                process {{
                    if x == {fail_at} {{ emit(1 / (x - {fail_at})); }}
                    emit(x + 1);
                }}
            }}
            "#
        );
        let (vm_g, interp_g) = both_backends(&src, &[("Src", ""), ("Trip", "x")]);
        let opts = RunOptions::iterations(iters);

        let vm = SimpleMapping.execute(&vm_g, &opts).unwrap_err();
        let interp = SimpleMapping.execute(&interp_g, &opts).unwrap_err();
        prop_assert_eq!(vm.to_string(), interp.to_string(), "simple error text diverged");

        for mapping in [&MultiMapping, &MpiMapping, &RedisMapping] {
            let opts = opts.clone().with_processes(procs);
            let vm = mapping.execute(&vm_g, &opts);
            let interp = mapping.execute(&interp_g, &opts);
            prop_assert!(vm.is_err(), "{} vm run should fail", mapping);
            prop_assert!(interp.is_err(), "{} interp run should fail", mapping);
        }
    }
}
