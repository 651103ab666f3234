//! End-to-end journal-corruption chaos: a checkpointed job is killed by
//! an injected crash, the test then tears its *latest sealed segment* on
//! disk with `JournalStore::truncate_segment` (the shape of a crash racing
//! the sealing rename), and `resume_job` must degrade to the previous
//! epoch — re-running one extra chunk — and still refold to exactly the
//! uninterrupted batch result.
//!
//! The tear and the check that recovery sees it both happen before the
//! resume, while no worker owns the job, so nothing can re-seal the
//! segment between them.

use std::time::Duration;

use laminar_engine::{
    EnginePool, ExecutionEngine, ExecutionRequest, FaultPlan, JobResult, JournalStore, RunConfig,
};

const SRC: &str = r#"
    pe Words : producer {
        output output;
        process {
            let words = ["a", "b", "c"];
            emit([words[iteration % 3], iteration]);
        }
    }
    pe Tally : generic {
        input input groupby 0;
        output output;
        init { state.seen = {}; state.noise = 0; }
        process {
            let w = input[0];
            state.seen[w] = get(state.seen, w, 0) + 1;
            state.noise = state.noise + randint(0, 9);
            emit([w, state.seen[w], state.noise]);
        }
    }
    workflow TallyRun {
        nodes { w = Words; t = Tally; }
        connect w.output -> t.input;
    }
"#;

fn wait_phase(pool: &EnginePool, id: i64, want_failed: bool) -> JobResult {
    let r = pool.wait("u", id, Duration::from_secs(30)).expect("job known");
    match (&r, want_failed) {
        (JobResult::Failed(..), true) | (JobResult::Done(..), false) => r,
        other => panic!("unexpected terminal state: {other:?}"),
    }
}

#[test]
fn torn_segment_resume_falls_back_an_epoch_and_refolds() {
    let root = std::env::temp_dir().join(format!("laminar-chaos-trunc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let pool = EnginePool::start_durable(ExecutionEngine::instant(), 2, 8, &root).unwrap();
    // 14 iterations, chunk 3: epochs 1..=4 seal, the kill lands after
    // epoch 3 (9 iterations journaled).
    let req = ExecutionRequest::new("u", SRC, RunConfig::iterations(14).with_checkpoints(3))
        .with_workflow("TallyRun")
        .with_faults(FaultPlan::parse("kill_at_epoch=3"));
    let id = pool.submit("u", req).unwrap();
    match wait_phase(&pool, id, true) {
        JobResult::Failed(msg, _) => assert!(msg.contains("injected"), "{msg}"),
        _ => unreachable!(),
    }
    // Tear the write: chop 5 bytes off seg-3, which invalidates its
    // trailing CRC frame. Recovery must fall back to epoch 2 rather than
    // trust the damaged epoch-3 checkpoint.
    let journal = JournalStore::open(&root).unwrap();
    assert_eq!(journal.load(id).expect("journaled").epoch, 3, "epochs 1..=3 sealed before the kill");
    journal.truncate_segment(id, 3, 5).unwrap();
    assert_eq!(journal.load(id).expect("journaled").epoch, 2, "a torn seg-3 falls back to epoch 2");

    assert_eq!(pool.resume_job("u", id).unwrap(), id, "resume keeps the original job id");

    let out = match wait_phase(&pool, id, false) {
        JobResult::Done(out, _) => out,
        _ => unreachable!(),
    };

    // The reference: the same request, uninterrupted and uncheckpointed.
    let batch = ExecutionEngine::instant()
        .run(&ExecutionRequest::simple("u", SRC, 14).with_workflow("TallyRun"))
        .unwrap();
    assert_eq!(out.port_values("Tally", "output"), batch.port_values("Tally", "output"));
    assert_eq!(out.processed, batch.processed);
    assert_eq!(out.emitted, batch.emitted);

    // Completion cleans the journal up even though recovery degraded.
    assert!(!root.join(format!("job-{id}")).exists(), "journal removed after Done");
    let _ = std::fs::remove_dir_all(&root);
}
