//! The chaos suite: crash the runtime at a *random* epoch with an
//! injected fault, rebuild a resume point from exactly what a journal
//! would have retained — the last complete epoch's snapshot plus the
//! recorded event prefix — and require the refolded result to equal the
//! uninterrupted batch run, under every mapping and both script
//! backends.
//!
//! This is the durability claim as a property:
//!
//! ```text
//! fold(checkpoint + replayed events) == fold(batch)
//! ```
//!
//! Comparisons use outputs, prints, and processed/emitted counts —
//! never timings or raw event counts, which legitimately differ once
//! epoch markers enter the stream.
//!
//! Case count honors `PROPTEST_CASES` (the `chaos` CI tier raises it);
//! the default keeps plain `cargo test` latency in line with the other
//! mapping suites.

use std::sync::Arc;

use laminar_dataflow::mapping::{Mapping, MpiMapping, MultiMapping, RedisMapping, SimpleMapping};
use laminar_dataflow::{
    DataflowError, FaultPlan, MappingKind, RecordingObserver, ResumePoint, RunEvent, RunObserver, RunOptions,
    RunResult, WorkflowGraph,
};
use laminar_oracle as oracle;
use proptest::prelude::*;

/// Producer → stateful group-by fold → formatter. State tables, seeded
/// RNG, and prints all have to survive the crash/resume boundary.
fn chaos_source(nkeys: usize, mix: i64) -> String {
    format!(
        r#"
        pe Pump : producer {{
            output output;
            process {{
                let key = "k" + str(iteration % {nkeys});
                emit([key, iteration * {mix} + randint(0, 9)]);
            }}
        }}
        pe Fold : generic {{
            input input groupby 0;
            output output;
            init {{ state.sums = {{}}; state.count = 0; }}
            process {{
                let key = input[0];
                state.sums[key] = get(state.sums, key, 0) + input[1];
                state.count = state.count + 1;
                if state.count % 4 == 0 {{ print("mark", key, state.count); }}
                emit([key, state.sums[key]]);
            }}
        }}
        pe Tail : iterative {{
            input x;
            output output;
            process {{ emit(x[0] + "=" + str(x[1])); }}
        }}
        "#
    )
}

/// The chaos pipeline, on the backend `add` builds nodes for.
fn build(src: &str, add: oracle::AddPe) -> WorkflowGraph {
    let mut g = WorkflowGraph::new("chaos");
    let mut pe = |name: &str| add(&mut g, src, name).unwrap();
    let (a, b, c) = (pe("Pump"), pe("Fold"), pe("Tail"));
    g.connect(a, "output", b, "input").unwrap();
    g.connect(b, "output", c, "x").unwrap();
    g
}

fn sorted_outputs(r: &RunResult) -> Vec<String> {
    let mut out: Vec<String> =
        r.port_values("Tail", "output").iter().filter_map(|v| v.as_str().map(str::to_string)).collect();
    out.sort();
    out
}

fn sorted_prints(r: &RunResult) -> Vec<String> {
    let mut p = r.printed.clone();
    p.sort();
    p
}

/// Crash `mapping` at epoch `kill_at` while recording the event stream
/// (the in-memory stand-in for the engine's journal), then resume from
/// the recorded prefix and run to completion. Returns the resumed
/// result together with the events the crashed run left behind, so a
/// caller can crash the *resumed* run again.
fn crash_once(
    mapping: &MappingKind,
    g: &WorkflowGraph,
    opts: &RunOptions,
    kill_at: u64,
    journal: Vec<RunEvent>,
) -> (RunOptions, Vec<RunEvent>) {
    let recorder = RecordingObserver::new();
    let mut crash = opts.clone().with_faults(FaultPlan { kill_at_epoch: Some(kill_at), ..FaultPlan::none() });
    if !journal.is_empty() {
        let (epoch, snapshots) = last_epoch(&journal);
        crash = crash.with_resume(ResumePoint { epoch, snapshots, events: journal.clone() });
    }
    let err =
        mapping.execute_observed(g, &crash, Some(recorder.clone() as Arc<dyn RunObserver>)).unwrap_err();
    assert_eq!(err, DataflowError::Injected { epoch: kill_at }, "{} wrong crash", mapping);

    // The journal after the crash: everything already persisted before
    // this attempt plus everything the attempt streamed, which by the
    // kill-ordering contract ends with the epoch marker itself.
    let mut events = journal;
    events.extend(recorder.take().into_iter().map(|(_, _, e)| e));
    let (epoch, snapshots) = last_epoch(&events);
    assert_eq!(epoch, kill_at, "{} journal should end at the kill epoch", mapping);
    let resumed = opts.clone().with_resume(ResumePoint { epoch, snapshots, events: events.clone() });
    (resumed, events)
}

fn last_epoch(events: &[RunEvent]) -> (u64, laminar_json::Value) {
    events
        .iter()
        .rev()
        .find_map(|e| match e {
            RunEvent::Epoch { id, state } => Some((*id, state.clone())),
            _ => None,
        })
        .expect("no epoch in recorded stream")
}

fn assert_refolds(mapping: &MappingKind, resumed: &RunResult, batch: &RunResult) {
    if *mapping == MappingKind::Simple {
        // Sequential enactment is fully deterministic: exact equality.
        assert_eq!(resumed.outputs, batch.outputs, "simple outputs diverged");
        assert_eq!(resumed.printed, batch.printed, "simple prints diverged");
    } else {
        assert_eq!(sorted_outputs(resumed), sorted_outputs(batch), "{} outputs diverged", mapping);
        assert_eq!(sorted_prints(resumed), sorted_prints(batch), "{} prints diverged", mapping);
    }
    assert_eq!(&resumed.stats.processed, &batch.stats.processed, "{} processed diverged", mapping);
    assert_eq!(&resumed.stats.emitted, &batch.stats.emitted, "{} emitted diverged", mapping);
}

/// Explicit `with_cases` beats the `PROPTEST_CASES` environment variable
/// in this workspace's runner, so read it ourselves: full-depth chaos
/// when the CI tier asks for it, mapping-suite depth otherwise.
fn chaos_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.trim().parse::<u32>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    /// Crash at a random epoch, resume, and refold to the batch result —
    /// every mapping, either script backend.
    #[test]
    fn crash_at_a_random_epoch_refolds_to_batch(
        nkeys in 2..5usize,
        mix in 1..7i64,
        chunk in 2..6usize,
        epochs in 2..5u64,
        kill_pick in 0..16u64,
        tail in 0..2i64,
        procs in 2..5usize,
        backend in 0..2usize,
    ) {
        let kill_at = 1 + kill_pick % epochs;
        let iters = (chunk as u64 * epochs) as i64 + tail;
        let src = chaos_source(nkeys, mix);
        let g = build(&src, [WorkflowGraph::add_script_pe, oracle::add_pe][backend]);

        for mapping in [
            &SimpleMapping,
            &MultiMapping,
            &MpiMapping,
            &RedisMapping,
        ] {
            let opts = RunOptions::iterations(iters).with_processes(procs).with_checkpoints(chunk);
            let batch = mapping
                .execute(&g, &RunOptions::iterations(iters).with_processes(procs))
                .unwrap();
            let (resume_opts, _) = crash_once(mapping, &g, &opts, kill_at, Vec::new());
            let resumed = mapping.execute(&g, &resume_opts).unwrap();
            assert_refolds(mapping, &resumed, &batch);
        }
    }

    /// Two crashes back to back: the run dies at one epoch, the *resumed*
    /// run dies at a later epoch, and the second resume still refolds to
    /// batch. This is the journal-keeps-growing-across-restarts contract:
    /// the second resume point is built from the concatenation of both
    /// attempts' streams, exactly as the engine's segment store would
    /// hold them.
    #[test]
    fn a_second_crash_during_resume_still_refolds_to_batch(
        nkeys in 2..4usize,
        mix in 1..5i64,
        chunk in 2..5usize,
        extra in 2..4u64,
        first_pick in 0..8u64,
        procs in 2..4usize,
    ) {
        // kill1 strictly before kill2 <= total epochs.
        let epochs = extra + 1;
        let kill1 = 1 + first_pick % (epochs - 1);
        let kill2 = kill1 + 1;
        let iters = (chunk as u64 * epochs) as i64 + 1;
        let src = chaos_source(nkeys, mix);
        let g = build(&src, WorkflowGraph::add_script_pe);

        for mapping in [
            &SimpleMapping,
            &MultiMapping,
            &MpiMapping,
            &RedisMapping,
        ] {
            let opts = RunOptions::iterations(iters).with_processes(procs).with_checkpoints(chunk);
            let batch = mapping
                .execute(&g, &RunOptions::iterations(iters).with_processes(procs))
                .unwrap();
            let (_, journal) = crash_once(mapping, &g, &opts, kill1, Vec::new());
            let (resume_opts, _) = crash_once(mapping, &g, &opts, kill2, journal);
            let resumed = mapping.execute(&g, &resume_opts).unwrap();
            assert_refolds(mapping, &resumed, &batch);
        }
    }
}
