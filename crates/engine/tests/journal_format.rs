//! The journal's on-disk format is a contract with directories already
//! written: `META` and `SEG_1` below are the literal bytes of the
//! `meta.json` and `seg-1.log` a durable pool wrote for job 7 while the
//! event log still held `Value` trees (the run was killed after epoch 1).
//! This tree must resume from them at the recorded seqs, refold to the
//! batch result, and write the same bytes for the same run.

use laminar_dataflow::{fold_events, RunEvent};
use laminar_engine::{
    EnginePool, ExecutionEngine, ExecutionRequest, FaultPlan, JobResult, JournalStore, RunConfig,
};
use laminar_json::{to_string, Value};
use std::path::PathBuf;
use std::time::Duration;

const SRC: &str = r#"
    pe Words : producer {
        output output;
        process { let words = ["a", "b"]; emit([words[iteration % 2], iteration]); }
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
    workflow TallyRun { nodes { w = Words; t = Tally; } connect w.output -> t.input; }
"#;

const META: &str = r#"{"failed":true,"owner":"u","request":{"input":5,"mapping":"SIMPLE","options":{"checkpointEvery":2,"events":true},"processes":1,"resources":[],"source":"\n    pe Words : producer {\n        output output;\n        process { let words = [\"a\", \"b\"]; emit([words[iteration % 2], iteration]); }\n    }\n    pe Tally : generic {\n        input input groupby 0;\n        output output;\n        init { state.seen = {}; state.noise = 0; }\n        process {\n            let w = input[0];\n            state.seen[w] = get(state.seen, w, 0) + 1;\n            state.noise = state.noise + randint(0, 9);\n            emit([w, state.seen[w], state.noise]);\n        }\n    }\n    workflow TallyRun { nodes { w = Words; t = Tally; } connect w.output -> t.input; }\n","user":"u","workflow":null}}"#;

/// One element per CRC frame (`[len u32 LE][crc32 u32 LE][payload]`).
const SEG_1: &[&[u8]] = &[
    b"3\x00\x00\x00\x90\x8a\x9c\x1d{\"pes\":{\"Tally\":1,\"Words\":1},\"seq\":0,\"type\":\"plan\"}",
    b"4\x00\x00\x00\"\xeaw\xab{\"instance\":0,\"pe\":\"Words\",\"seq\":1,\"type\":\"started\"}",
    b"4\x00\x00\x00\x19\xef\x91\xf1{\"instance\":0,\"pe\":\"Tally\",\"seq\":2,\"type\":\"started\"}",
    b"U\x00\x00\x00U\xbbCP{\"instance\":0,\"pe\":\"Tally\",\"port\":\"output\",\"seq\":3,\"type\":\"output\",\"value\":[\"a\",1,6]}",
    b"V\x00\x00\x00\xd0\xc1\x80\xa1{\"instance\":0,\"pe\":\"Tally\",\"port\":\"output\",\"seq\":4,\"type\":\"output\",\"value\":[\"b\",1,12]}",
    b"T\x00\x00\x00\x12%\x0f-{\"emitted\":2,\"instance\":0,\"pe\":\"Words\",\"processed\":2,\"seq\":5,\"type\":\"instance_done\"}",
    b"T\x00\x00\x00\xd2\xd3\\\x02{\"emitted\":2,\"instance\":0,\"pe\":\"Tally\",\"processed\":2,\"seq\":6,\"type\":\"instance_done\"}",
    b"\xd4\x00\x00\x00\x05\x93\xfa\x96{\"epoch\":1,\"seq\":7,\"state\":[{\"cursors\":[0],\"iteration\":2,\"pe\":{\"rng\":439437842,\"state\":{}}},{\"cursors\":[],\"iteration\":2,\"pe\":{\"rng\":4354685565376283196,\"state\":{\"noise\":12,\"seen\":{\"a\":1,\"b\":1}}}}],\"type\":\"epoch\"}",
];

fn request() -> ExecutionRequest {
    ExecutionRequest::new("u", SRC, RunConfig::iterations(5).with_checkpoints(2).with_events(true))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("laminar-journal-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A journal root holding the parent's job 7.
fn parent_journal(tag: &str) -> PathBuf {
    let root = tmpdir(tag);
    let job = root.join("job-7");
    std::fs::create_dir_all(&job).unwrap();
    std::fs::write(job.join("meta.json"), META).unwrap();
    std::fs::write(job.join("seg-1.log"), SEG_1.concat()).unwrap();
    root
}

fn drain(pool: &EnginePool, id: i64) -> Vec<Value> {
    let mut events = Vec::new();
    let mut since = 0;
    loop {
        let page = pool.events("u", id, since).unwrap();
        assert_eq!(page.first, 0, "the journaled prefix stays addressable");
        let done = page.closed && page.events.is_empty();
        events.extend(page.events);
        since = page.next;
        if done {
            return events;
        }
    }
}

/// Resume job 7 from `root` and check the refold identity
/// `fold(checkpoint + replay) == fold(batch)` on it; returns its stream.
fn resume_and_refold(root: &std::path::Path) -> Vec<Value> {
    let pool = EnginePool::start_durable(ExecutionEngine::instant(), 1, 8, root).unwrap();
    assert_eq!(pool.resume_job("u", 7), Ok(7));
    let out = match pool.wait("u", 7, Duration::from_secs(20)).unwrap() {
        JobResult::Done(out, _) => out,
        other => panic!("expected the resumed job to finish, got {other:?}"),
    };
    let batch = ExecutionEngine::instant().run(&ExecutionRequest::simple("u", SRC, 5)).unwrap();
    assert_eq!(out.port_values("Tally", "output"), batch.port_values("Tally", "output"));
    assert_eq!(out.processed, batch.processed);
    let events = drain(&pool, 7);
    for (i, event) in events.iter().enumerate() {
        assert_eq!(event["seq"].as_i64(), Some(i as i64), "seq gap-free");
    }
    let folded = fold_events(events.iter().filter_map(RunEvent::from_value));
    assert_eq!(folded.port_values("Tally", "output"), batch.port_values("Tally", "output").as_slice());
    assert_eq!(events.last().unwrap()["type"].as_str(), Some("done"));
    events
}

#[test]
fn a_journal_written_by_the_parent_resumes_at_its_recorded_seqs() {
    let root = parent_journal("resume");
    let events = resume_and_refold(&root);
    // The resumed log opens with the journaled records, byte for byte.
    for (event, frame) in events.iter().zip(SEG_1) {
        assert_eq!(to_string(event).as_bytes(), &frame[8..]);
    }
    assert!(events.len() > SEG_1.len(), "the run went on past the journal");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn this_tree_writes_the_bytes_the_parent_wrote() {
    let root = tmpdir("write");
    let pool = EnginePool::start_durable(ExecutionEngine::instant(), 1, 8, &root).unwrap();
    let id = pool.submit("u", request().with_faults(FaultPlan::parse("kill_at_epoch=1"))).unwrap();
    match pool.wait("u", id, Duration::from_secs(20)).unwrap() {
        JobResult::Failed(message, _) => assert!(message.contains("injected"), "{message}"),
        other => panic!("expected the injected kill, got {other:?}"),
    }
    let job = root.join(format!("job-{id}"));
    assert_eq!(std::fs::read_to_string(job.join("meta.json")).unwrap(), META);
    assert_eq!(std::fs::read(job.join("seg-1.log")).unwrap(), SEG_1.concat());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_segment_of_one_record_that_is_no_run_event_falls_back_one_epoch() {
    let root = parent_journal("foreign");
    let payload = br#"{"seq":8,"type":"done"}"#;
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&laminar_codec::checksum(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    std::fs::write(root.join("job-7").join("seg-2.log"), frame).unwrap();
    assert_eq!(JournalStore::open(&root).unwrap().load(7).unwrap().epoch, 1);
    resume_and_refold(&root);
    let _ = std::fs::remove_dir_all(&root);
}
