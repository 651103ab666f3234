//! The `/events` wire form, pinned by literals: whatever the job log holds
//! in memory, the JSON of every event a page carries is exactly this.
//! Three streams cover every event type and all three terminal markers —
//! a checkpointed run that prints, outputs, crosses an epoch and
//! completes; one that fails; one cancelled while queued.

use laminar_engine::{EnginePool, ExecutionEngine, ExecutionRequest, JobPhase, RunConfig};
use laminar_json::{to_string, Value};
use std::time::{Duration, Instant};

const SRC: &str = r#"
    pe Seq : producer { output output; process { emit(iteration + 1); } }
    pe Sq : iterative { input num; output output; process { print("sq " + str(num)); emit(num * num); } }
    workflow Squares {
        nodes { s = Seq; q = Sq; }
        connect s.output -> q.num;
    }
"#;

/// Drain a finished job's stream page by page, checking on the way that
/// `seq` is gap-free from 0.
fn drain(pool: &EnginePool, id: i64) -> Vec<Value> {
    let mut events: Vec<Value> = Vec::new();
    loop {
        let page = pool.events("u", id, events.len() as u64).unwrap();
        assert_eq!(page.first, 0);
        assert!(page.retained_epoch.is_none());
        for event in page.events {
            assert_eq!(event["seq"].as_i64(), Some(events.len() as i64), "seq gap-free");
            events.push(event);
        }
        assert_eq!(page.next, events.len() as u64);
        if page.closed {
            return events;
        }
    }
}

#[test]
fn a_completed_checkpointed_stream_is_these_bytes() {
    let pool = EnginePool::start(ExecutionEngine::instant(), 1, 8);
    let req = ExecutionRequest::new("u", SRC, RunConfig::iterations(3).with_checkpoints(2).with_events(true));
    let id = pool.submit("u", req).unwrap();
    pool.wait("u", id, Duration::from_secs(20)).unwrap();
    let events = drain(&pool, id);
    let expected = [
        r#"{"pes":{"Seq":1,"Sq":1},"seq":0,"type":"plan"}"#,
        r#"{"instance":0,"pe":"Seq","seq":1,"type":"started"}"#,
        r#"{"instance":0,"pe":"Sq","seq":2,"type":"started"}"#,
        r#"{"instance":0,"pe":"Sq","port":"output","seq":3,"type":"output","value":1}"#,
        r#"{"instance":0,"line":"sq 1","pe":"Sq","seq":4,"type":"print"}"#,
        r#"{"instance":0,"pe":"Sq","port":"output","seq":5,"type":"output","value":4}"#,
        r#"{"instance":0,"line":"sq 2","pe":"Sq","seq":6,"type":"print"}"#,
        r#"{"emitted":2,"instance":0,"pe":"Seq","processed":2,"seq":7,"type":"instance_done"}"#,
        r#"{"emitted":2,"instance":0,"pe":"Sq","processed":2,"seq":8,"type":"instance_done"}"#,
        r#"{"epoch":1,"seq":9,"state":[{"cursors":[0],"iteration":2,"pe":{"rng":439437842,"state":{}}},{"cursors":[],"iteration":2,"pe":{"rng":439437842,"state":{}}}],"type":"epoch"}"#,
        r#"{"instance":0,"pe":"Seq","seq":10,"type":"started"}"#,
        r#"{"instance":0,"pe":"Sq","seq":11,"type":"started"}"#,
        r#"{"instance":0,"pe":"Sq","port":"output","seq":12,"type":"output","value":9}"#,
        r#"{"instance":0,"line":"sq 3","pe":"Sq","seq":13,"type":"print"}"#,
        r#"{"emitted":1,"instance":0,"pe":"Seq","processed":1,"seq":14,"type":"instance_done"}"#,
        r#"{"emitted":1,"instance":0,"pe":"Sq","processed":1,"seq":15,"type":"instance_done"}"#,
    ];
    assert_eq!(events.len(), expected.len() + 2, "then `finished` and `done`");
    for (event, literal) in events.iter().zip(expected) {
        assert_eq!(to_string(event), literal);
    }
    // `finished` carries timings: its key set and its non-timing fields
    // are the literal part.
    let finished = &events[16];
    let keys: Vec<&str> = finished.as_object().unwrap().keys().map(laminar_json::Key::as_str).collect();
    assert_eq!(
        keys,
        [
            "collect_us",
            "compile_us",
            "elapsed_us",
            "enact_us",
            "events",
            "first_output_us",
            "plan_us",
            "seq",
            "type"
        ]
    );
    assert_eq!(finished["type"].as_str(), Some("finished"));
    assert_eq!(finished["events"].as_i64(), Some(15));
    assert_eq!(to_string(&events[17]), r#"{"seq":17,"type":"done"}"#);
}

#[test]
fn a_failed_stream_is_these_bytes() {
    let pool = EnginePool::start(ExecutionEngine::instant(), 1, 8);
    let id = pool
        .submit(
            "u",
            ExecutionRequest::new("u", "not a script !!", RunConfig::iterations(1).with_events(true)),
        )
        .unwrap();
    pool.wait("u", id, Duration::from_secs(20)).unwrap();
    let events: Vec<String> = drain(&pool, id).iter().map(to_string).collect();
    assert_eq!(
        events,
        [
            r#"{"error":"PE '<request>' failed: lex error at line 1, column 14: unexpected '!'","seq":0,"type":"failed"}"#
        ]
    );
}

#[test]
fn a_stream_cancelled_while_queued_is_these_bytes() {
    // The one worker is held by an unbounded run, so the second job is
    // still queued when the cancel lands.
    let pool = EnginePool::start(ExecutionEngine::instant(), 1, 8);
    let blocker = pool
        .submit(
            "u",
            ExecutionRequest::new(
                "u",
                SRC,
                RunConfig::unbounded(Duration::from_micros(200)).with_events(false),
            ),
        )
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while pool.status("u", blocker).unwrap().phase == JobPhase::Queued {
        assert!(Instant::now() < deadline, "the blocker never started");
        std::thread::yield_now();
    }
    let id = pool
        .submit("u", ExecutionRequest::new("u", SRC, RunConfig::iterations(3).with_events(true)))
        .unwrap();
    assert_eq!(pool.cancel("u", id).unwrap().phase, JobPhase::Cancelled);
    let events: Vec<String> = drain(&pool, id).iter().map(to_string).collect();
    assert_eq!(events, [r#"{"seq":0,"type":"cancelled"}"#]);
    pool.cancel("u", blocker).unwrap();
}
