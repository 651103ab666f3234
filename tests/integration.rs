//! Cross-crate integration tests: full client → server → registry →
//! engine flows over both transports, the two showcase workflows
//! end-to-end, the search figures as assertions, and failure injection.

use laminar::prelude::*;
use laminar::workloads::astro::{coordinates_file, VoService};
use std::sync::Arc;

fn system(deployment: Deployment) -> LaminarSystem {
    LaminarSystem::start(deployment).expect("system starts")
}

fn login<'a>(system: &'a mut LaminarSystem, user: &str) -> &'a mut LaminarClient {
    let c = system.client_mut();
    c.register(user, "password").unwrap();
    c.login(user, "password").unwrap();
    c
}

#[test]
fn isprime_showcase_full_serverless_loop() {
    // Register → search → retrieve → run, exactly the paper's §5.1 story.
    let mut sys = system(Deployment::Test);
    let c = login(&mut sys, "zz46");
    c.register_workflow(
        laminar::workloads::isprime::SOURCE,
        "isPrime",
        Some("Workflow that prints random prime numbers"),
    )
    .unwrap();

    // Figure 6 assertion: partial text match finds the workflow.
    let hits = c.search_registry("prime", "workflow", "text").unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0]["name"].as_str(), Some("isPrime"));

    // Run with each mapping; every printed number must be prime.
    for mapping in [MappingKind::Simple, MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
        let out = c.run_registered("isPrime", RunConfig::iterations(30).with_mapping(mapping, 5)).unwrap();
        for line in &out.printed {
            if let Some(rest) = line.strip_prefix("the num ") {
                let n: i64 = rest.split_whitespace().next().unwrap().parse().unwrap();
                assert!(laminar::workloads::isprime::is_prime(n), "{mapping}: printed non-prime {n}");
            }
        }
        assert_eq!(out.processed["NumberProducer"], 30, "{mapping}");
    }
    sys.stop();
}

#[test]
fn astrophysics_showcase_with_resources_over_tcp() {
    // The §5.2 workflow over the remote (HTTP) deployment, with the VO
    // service installed on the engine and the coordinates staged as a
    // resource — Listings 5-7.
    let vo: Arc<dyn laminar::script::Host + Send + Sync> = Arc::new(VoService::instant());
    let mut sys = LaminarSystem::start_with_hosts(
        Deployment::RemoteSimulated,
        &[("vo", Arc::clone(&vo)), ("astropy", Arc::clone(&vo))],
    )
    .unwrap();
    let c = login(&mut sys, "astro");
    c.register_workflow(laminar::workloads::astro::SOURCE, "Astrophysics", None).unwrap();
    let out = c
        .run_registered(
            "Astrophysics",
            RunConfig::data(vec![Value::Str("coordinates.txt".into())])
                .with_mapping(MappingKind::Multi, 5)
                .with_resource("coordinates.txt", coordinates_file(6).into_bytes()),
        )
        .unwrap();
    // 6 coordinates × 4 galaxies per VOTable.
    assert_eq!(out.printed.len(), 24);
    for line in &out.printed {
        assert!(line.contains("extinction"));
    }
    sys.stop();
}

#[test]
fn semantic_search_and_completion_figures() {
    // Figures 7 and 8 as assertions against a populated registry.
    let mut sys = system(Deployment::Test);
    let c = login(&mut sys, "zz46");
    c.register_workflow(laminar::workloads::isprime::SOURCE, "isPrime", None).unwrap();
    c.register_pe(
        "pe ReverseText : iterative { input text; output output; process { emit(reverse(text)); } }",
        Some("Reverses the characters of each input string"),
    )
    .unwrap();

    // Figure 7: natural-language query ranks the prime checker first.
    let hits = c.search_registry("A PE that checks if a number is prime", "pe", "text").unwrap();
    assert_eq!(hits[0]["name"].as_str(), Some("IsPrime"), "hits: {hits:?}");
    // Scores are sorted descending.
    let scores: Vec<f64> = hits.iter().map(|h| h["score"].as_f64().unwrap()).collect();
    assert!(scores.windows(2).all(|w| w[0] >= w[1]));

    // Figure 8: a code snippet retrieves the random producer.
    let hits = c.search_registry("emit(randint(1, 1000));", "pe", "code").unwrap();
    assert_eq!(hits[0]["name"].as_str(), Some("NumberProducer"), "hits: {hits:?}");
    sys.stop();
}

#[test]
fn auto_summaries_appear_for_undescribed_pes() {
    let mut sys = system(Deployment::Test);
    let c = login(&mut sys, "zz46");
    c.register_pe(
        r#"pe CountWords : generic {
            input input groupby 0; output output;
            init { state.count = {}; }
            process { state.count[input[0]] = get(state.count, input[0], 0) + 1; emit(state.count); }
        }"#,
        None,
    )
    .unwrap();
    let (meta, _) = c.get_pe("CountWords").unwrap();
    assert_eq!(meta["auto"].as_bool(), Some(true));
    let desc = meta["description"].as_str().unwrap();
    assert!(desc.contains("counts words"), "summary: {desc}");
    sys.stop();
}

#[test]
fn shared_ownership_and_privacy_across_users() {
    let mut sys = system(Deployment::Test);
    let src = "pe Shared : producer { output output; process { emit(1); } }";
    {
        let c = sys.client_mut();
        c.register("alice", "password").unwrap();
        c.login("alice", "password").unwrap();
        c.register_pe(src, Some("alice's PE")).unwrap();
    }
    {
        let c = sys.client_mut();
        c.register("bob", "password").unwrap();
        c.login("bob", "password").unwrap();
        // Bob can't see it until he registers the identical PE himself —
        // then he becomes a co-owner of the same entry (paper §3.1).
        assert!(c.get_pe("Shared").is_err());
        let id = c.register_pe(src, None).unwrap();
        let (meta, _) = c.get_pe("Shared").unwrap();
        assert_eq!(meta["peId"].as_i64(), Some(id));
        // The entry kept alice's description — no duplicate row.
        assert_eq!(meta["description"].as_str(), Some("alice's PE"));
    }
    sys.stop();
}

#[test]
fn execution_failures_surface_as_structured_errors() {
    let mut sys = system(Deployment::Test);
    let c = login(&mut sys, "zz46");

    // Runtime failure inside a PE (division by zero).
    let bad = "pe Bad : producer { output output; process { emit(1 / (iteration - 1)); } }";
    let err = c.run_source(bad, RunConfig::iterations(3)).unwrap_err();
    match err {
        ClientError::Api { status, message, .. } => {
            assert_eq!(status, 400);
            assert!(message.contains("division by zero"), "message: {message}");
        }
        other => panic!("expected API error, got {other:?}"),
    }

    // Unparsable source.
    let err = c.run_source("this is not lamscript", RunConfig::iterations(1)).unwrap_err();
    assert!(matches!(err, ClientError::Api { status: 400, .. }));

    // Running an unregistered workflow.
    let err = c.run_registered("ghost", RunConfig::iterations(1)).unwrap_err();
    assert!(matches!(err, ClientError::Api { status: 404, .. }));
    sys.stop();
}

#[test]
fn a_script_too_large_to_compile_is_refused_wherever_it_enters() {
    // 70k `let`s overflow the bytecode's u16 register file: the source
    // parses but cannot compile, and there is no second backend to run it
    // on — so every door answers the typed error and nothing enacts.
    let lets: String = (0..70_000).map(|i| format!("let v{i} = 0;")).collect();
    let pe = format!("pe Big : producer {{ output output; process {{ {lets} print(\"ran\"); }} }}");
    let wf = format!("{pe} workflow BigFlow {{ nodes {{ b = Big; }} }}");
    let mut sys = system(Deployment::Test);
    let c = login(&mut sys, "zz46");
    for (result, parameter) in [
        (c.register_pe(&pe, None).map(drop), "peCode"),
        (c.register_workflow(&wf, "big", None).map(drop), "workflowCode"),
        (c.run_source(&wf, RunConfig::iterations(1)).map(drop), "source"),
        (c.run_source(&pe, RunConfig::iterations(1)).map(drop), "source"),
    ] {
        match result {
            Err(ClientError::Api { status: 400, kind, message, .. }) => {
                assert_eq!(kind, "Invalid");
                assert!(message.contains(parameter), "{parameter}: {message}");
                assert!(message.contains("program too large to compile"), "{parameter}: {message}");
            }
            other => panic!("{parameter}: expected the 400 envelope, got {other:?}"),
        }
    }
    assert!(c.get_registry().unwrap()["pes"].as_array().unwrap().is_empty(), "nothing registered");
    match WorkflowGraph::from_script(&wf, "BigFlow") {
        Err(laminar::dataflow::DataflowError::PeFailed { error, .. }) => {
            assert_eq!(error.kind, laminar::script::ErrorKind::Parse);
            assert!(error.message.contains("program too large to compile"), "{error}");
        }
        other => panic!("expected the compile error, got {:?}", other.map(|g| g.len())),
    }
    sys.stop();
}

#[test]
fn runaway_pe_is_killed_by_fuel() {
    let mut sys = system(Deployment::Test);
    let c = login(&mut sys, "zz46");
    let hostile = "pe Loop : producer { output output; process { while true { let x = 1; } } }";
    let err = c.run_source(hostile, RunConfig::iterations(1)).unwrap_err();
    match err {
        ClientError::Api { message, .. } => assert!(message.contains("fuel"), "message: {message}"),
        other => panic!("expected API error, got {other:?}"),
    }
    sys.stop();
}

#[test]
fn workflow_members_queryable_and_removable() {
    let mut sys = system(Deployment::Test);
    let c = login(&mut sys, "zz46");
    c.register_workflow(laminar::workloads::wordcount::SOURCE, "wc", None).unwrap();
    let pes = c.get_pes_by_workflow("wc").unwrap();
    assert_eq!(pes.len(), 3);
    // Removing the workflow leaves the PEs registered (they're shared).
    c.remove_workflow("wc").unwrap();
    assert!(c.get_workflow("wc").is_err());
    assert!(c.get_pe("CountWords").is_ok());
    sys.stop();
}

#[test]
fn registry_dump_matches_paper_figure_format() {
    let mut sys = system(Deployment::Test);
    let c = login(&mut sys, "zz46");
    c.register_workflow(laminar::workloads::isprime::SOURCE, "isPrime", None).unwrap();
    let dump = c.get_registry().unwrap();
    let pes = dump["pes"].as_array().unwrap();
    assert_eq!(pes.len(), 3);
    for pe in pes {
        assert!(pe["peId"].as_i64().is_some());
        assert!(pe["peName"].as_str().is_some());
        assert!(pe["description"].as_str().is_some());
    }
    sys.stop();
}

#[test]
fn mapping_equivalence_through_the_full_stack() {
    // Multiset equivalence checked not at the dataflow layer but through
    // the whole client/server/engine path.
    let mut sys = system(Deployment::Test);
    let c = login(&mut sys, "zz46");
    let src = r#"
        pe Seq : producer { output output; process { emit(iteration); } }
        pe Sq : iterative { input x; output output; process { emit(x * x); } }
        workflow Squares { nodes { s = Seq; q = Sq; } connect s.output -> q.x; }
    "#;
    c.register_workflow(src, "squares", None).unwrap();
    let mut reference: Option<Vec<i64>> = None;
    for mapping in [MappingKind::Simple, MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
        let out = c.run_registered("squares", RunConfig::iterations(25).with_mapping(mapping, 4)).unwrap();
        let mut got: Vec<i64> = out.port_values("Sq", "output").iter().filter_map(Value::as_i64).collect();
        got.sort();
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "{mapping} diverged through the full stack"),
        }
    }
    sys.stop();
}

#[test]
fn fold_of_event_stream_reproduces_batch_result_for_every_mapping() {
    // The PR-4 contract: an enactment is an ordered event stream and the
    // batch `RunResult` is a fold over it. For each mapping, record the
    // live stream of one run and check that folding the recording
    // reproduces the returned result bit-for-bit — outputs, prints, and
    // the complete `RunStats` (counters, instances, timings, event count,
    // first-output latency).
    use laminar::dataflow::{fold_events, RecordingObserver, RunEvent, RunObserver};
    use std::time::Duration;

    let src = r#"
        pe Seq : producer { output output; process { emit(iteration + 1); } }
        pe Halve : iterative { input x; output output; process { if x % 2 == 0 { emit(x / 2); } } }
        pe Note : iterative { input x; output output; process { if x % 5 == 0 { print("milestone", x); } emit(x * 10); } }
    "#;
    let mut g = WorkflowGraph::new("stream-equiv");
    let s = g.add_script_pe(src, "Seq").unwrap();
    let h = g.add_script_pe(src, "Halve").unwrap();
    let n = g.add_script_pe(src, "Note").unwrap();
    g.connect(s, "output", h, "x").unwrap();
    g.connect(h, "output", n, "x").unwrap();

    let opts = RunOptions::iterations(40).with_processes(5);
    for kind in [MappingKind::Simple, MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
        let recorder = RecordingObserver::new();
        let result = kind
            .execute_observed(&g, &opts, Some(recorder.clone() as std::sync::Arc<dyn RunObserver>))
            .unwrap();
        let recorded = recorder.take();

        // Stream well-formedness: seq is gapless from 0, the terminal
        // event is Finished, and per-instance events nest correctly.
        for (i, (seq, _, _)) in recorded.iter().enumerate() {
            assert_eq!(*seq, i as u64, "{kind}: seq gap");
        }
        assert!(
            matches!(recorded.last().unwrap().2, RunEvent::Finished { .. }),
            "{kind}: stream must end with Finished"
        );
        let started =
            recorded.iter().filter(|(_, _, e)| matches!(e, RunEvent::InstanceStarted { .. })).count();
        let finished =
            recorded.iter().filter(|(_, _, e)| matches!(e, RunEvent::InstanceFinished { .. })).count();
        assert_eq!(started, finished, "{kind}: every started instance finishes");

        // The acceptance criterion: fold(events) == batch result.
        let refolded = fold_events(recorded.into_iter().map(|(_, _, e)| e));
        assert_eq!(refolded.outputs, result.outputs, "{kind}: outputs diverged");
        assert_eq!(refolded.printed, result.printed, "{kind}: prints diverged");
        assert_eq!(refolded.stats, result.stats, "{kind}: stats diverged");

        // Observed runs report a real first-output latency.
        assert!(result.stats.first_output.unwrap() <= result.stats.elapsed.max(Duration::from_nanos(1)));
        assert_eq!(result.stats.events, refolded.stats.events);
    }
}

#[test]
fn streaming_scenario_through_the_full_stack() {
    // The streaming sensor workload end-to-end: submit with events=true,
    // consume the live stream via the client iterator, and check the
    // folded view agrees with the job result.
    use laminar::workloads::streaming::{expected_windows, SensorFleet, SOURCE};

    let fleet: Arc<dyn laminar::script::Host + Send + Sync> = Arc::new(SensorFleet::instant(3));
    let mut sys = LaminarSystem::start_with_hosts(Deployment::Test, &[("sensor", fleet)]).unwrap();
    let c = login(&mut sys, "streamer");
    c.register_workflow(SOURCE, "SensorWindows", Some("windowed sensor aggregation")).unwrap();
    let id = c
        .submit(
            laminar::client::RunTarget::Registered("SensorWindows".into()),
            RunConfig::iterations(96).with_mapping(MappingKind::Multi, 5).with_events(true),
        )
        .unwrap();
    let mut windows = 0usize;
    let mut alerts = 0usize;
    let mut closed_with = None;
    for event in c.event_stream(id, std::time::Duration::from_secs(30)) {
        let event = event.unwrap();
        match event["type"].as_str() {
            Some("output") => windows += 1,
            Some("print") => alerts += 1,
            Some("done") | Some("failed") => closed_with = event["type"].as_str().map(str::to_string),
            _ => {}
        }
    }
    assert_eq!(closed_with.as_deref(), Some("done"));
    assert_eq!(windows, expected_windows(96, 3), "every window aggregate streamed");
    let out = c.wait_job(id, std::time::Duration::from_secs(10)).unwrap();
    assert_eq!(out.port_values("WindowStats", "output").len(), windows);
    assert_eq!(out.printed.len(), alerts, "alerts streamed == alerts in the batch result");
    assert!(out.first_output.is_some(), "streamed runs report first-output latency");
    sys.stop();
}

#[test]
fn cancel_unbounded_sensor_run_via_client_on_all_mappings() {
    // The acceptance scenario for cooperative cancellation: the sensor
    // workload runs in its natural, unbounded mode; the client consumes
    // the live stream, stops the job mid-stream via
    // DELETE /execution/{user}/job/{id}, and the sealed log is a valid
    // prefix — terminated by exactly one `cancelled` marker — whose fold
    // equals the prefix-fold of its recorded events. All four mappings.
    use laminar::dataflow::{fold_events, RunEvent};
    use laminar::workloads::streaming::{SensorFleet, SOURCE};
    use std::time::Duration;

    for mapping in [MappingKind::Simple, MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
        let fleet: Arc<dyn laminar::script::Host + Send + Sync> = Arc::new(SensorFleet::instant(2));
        let mut sys = LaminarSystem::start_with_hosts(Deployment::Test, &[("sensor", fleet)]).unwrap();
        let c = login(&mut sys, "streamer");
        c.register_workflow(SOURCE, "SensorWindows", None).unwrap();
        let id = c
            .submit(
                laminar::client::RunTarget::Registered("SensorWindows".into()),
                RunConfig::unbounded(Duration::from_micros(200)).with_mapping(mapping, 4),
            )
            .unwrap();

        // Consume the stream; cancel from the consumer loop once four
        // window aggregates have arrived; drain to the seal.
        let mut stream = c.event_stream(id, Duration::from_secs(60));
        let mut wire_events: Vec<Value> = Vec::new();
        let mut outputs = 0usize;
        while let Some(event) = stream.next() {
            let event = event.unwrap_or_else(|e| panic!("{mapping}: stream error {e}"));
            if event["type"].as_str() == Some("output") {
                outputs += 1;
                if outputs == 4 {
                    let r = stream.cancel().unwrap();
                    assert!(
                        matches!(r["status"].as_str(), Some("running") | Some("cancelled")),
                        "{mapping}: {r:?}"
                    );
                }
            }
            wire_events.push(event);
        }
        assert!(outputs >= 4, "{mapping}: cancelled mid-stream after real data");
        let types: Vec<&str> = wire_events.iter().filter_map(|e| e["type"].as_str()).collect();
        assert_eq!(types.last(), Some(&"cancelled"), "{mapping}: sealed by the cancelled marker");
        assert_eq!(types.iter().filter(|t| **t == "cancelled").count(), 1, "{mapping}");
        assert!(!types.contains(&"done") && !types.contains(&"finished"), "{mapping}");

        // The job is terminally cancelled, distinguishable from failure.
        let status = c.job_status(id).unwrap();
        assert_eq!(status["status"].as_str(), Some("cancelled"), "{mapping}");
        match c.wait_job(id, Duration::from_secs(5)) {
            Err(ClientError::Cancelled { job }) => assert_eq!(job, id, "{mapping}"),
            other => panic!("{mapping}: expected Cancelled, got {other:?}"),
        }

        // fold(recorded events) == prefix-fold: parsing the wire log back
        // into run events and folding it reproduces exactly the streamed
        // window aggregates and alerts, in order.
        let run_events: Vec<RunEvent> = wire_events.iter().filter_map(RunEvent::from_value).collect();
        assert!(matches!(run_events.last(), Some(RunEvent::Cancelled)), "{mapping}");
        let streamed_windows: Vec<Value> = wire_events
            .iter()
            .filter(|e| e["type"].as_str() == Some("output"))
            .map(|e| e["value"].clone())
            .collect();
        let streamed_alerts: Vec<String> = wire_events
            .iter()
            .filter(|e| e["type"].as_str() == Some("print"))
            .filter_map(|e| e["line"].as_str().map(str::to_string))
            .collect();
        let folded = fold_events(run_events);
        assert_eq!(
            folded.port_values("WindowStats", "output"),
            &streamed_windows[..],
            "{mapping}: fold != prefix-fold of the recorded stream"
        );
        assert_eq!(folded.printed, streamed_alerts, "{mapping}");
        sys.stop();
    }
}

#[test]
fn cancel_unbounded_job_over_real_tcp() {
    // The DELETE verb and the cancel lifecycle through the actual HTTP
    // front-end (request-line parsing, percent-decoding, connection
    // handling) — not just the in-process transport.
    use std::time::Duration;

    let mut sys = LaminarSystem::start(Deployment::RemoteSimulated).unwrap();
    let c = login(&mut sys, "tcp-cancel");
    let src = r#"
        pe Gen : producer { output output; process { emit(iteration); } }
        workflow Forever { nodes { g = Gen; } }
    "#;
    let id = c
        .submit(
            laminar::client::RunTarget::Source(src.into()),
            RunConfig::unbounded(Duration::from_micros(300)),
        )
        .unwrap();
    let mut stream = c.event_stream(id, Duration::from_secs(30));
    let mut outputs = 0usize;
    let mut last_type = String::new();
    while let Some(event) = stream.next() {
        let event = event.unwrap();
        if event["type"].as_str() == Some("output") {
            outputs += 1;
            if outputs == 3 {
                stream.cancel().unwrap();
            }
        }
        last_type = event["type"].as_str().unwrap_or("?").to_string();
    }
    assert!(outputs >= 3);
    assert_eq!(last_type, "cancelled");
    assert_eq!(c.job_status(id).unwrap()["status"].as_str(), Some("cancelled"));
    match c.wait_job(id, Duration::from_secs(5)) {
        Err(ClientError::Cancelled { job }) => assert_eq!(job, id),
        other => panic!("expected Cancelled over TCP, got {other:?}"),
    }
    sys.stop();
}

#[test]
fn four_mappings_same_graph_same_outputs_and_counts() {
    // The satellite equivalence check: one WorkflowGraph value, enacted by
    // all four back-ends through the shared runtime, must yield identical
    // sorted terminal outputs AND identical per-PE processed/emitted
    // counters — the runtime owns the orchestration, so any divergence
    // would be a transport bug.
    let src = r#"
        pe Seq : producer { output output; process { emit(iteration + 1); } }
        pe Halve : iterative { input x; output output; process { if x % 2 == 0 { emit(x / 2); } } }
        pe Scale : iterative { input x; output output; process { emit(x * 10); } }
    "#;
    let mut g = WorkflowGraph::new("equiv");
    let s = g.add_script_pe(src, "Seq").unwrap();
    let h = g.add_script_pe(src, "Halve").unwrap();
    let k = g.add_script_pe(src, "Scale").unwrap();
    g.connect(s, "output", h, "x").unwrap();
    g.connect(h, "output", k, "x").unwrap();

    let opts = RunOptions::iterations(40).with_processes(5);
    let collect = |m: &dyn Mapping| {
        let r = m.execute(&g, &opts).unwrap();
        let mut out: Vec<i64> = r.port_values("Scale", "output").iter().filter_map(|v| v.as_i64()).collect();
        out.sort();
        (out, r.stats.processed.clone(), r.stats.emitted.clone(), r.stats.timings)
    };

    let (base_out, base_processed, base_emitted, _) = collect(&MappingKind::Simple);
    assert_eq!(base_out.len(), 20, "evens of 1..=40, halved then scaled");
    for kind in [MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
        let (out, processed, emitted, timings) = collect(&kind);
        assert_eq!(out, base_out, "{kind}: terminal outputs diverged");
        assert_eq!(processed, base_processed, "{kind}: processed counts diverged");
        assert_eq!(emitted, base_emitted, "{kind}: emitted counts diverged");
        assert!(timings.enact > std::time::Duration::ZERO, "{kind}: stages not timed");
    }
}

/// An inline run's errors point into the text the client sent; a
/// registered run's into the text the registry stored — what
/// `get_workflow` returns. (Before PR 21 both named a line of a canonical
/// reparse nobody had seen: this `1 / 0` came back as `line 4`.)
#[test]
fn runtime_error_positions_point_into_the_text_that_was_prepared() {
    let padded = format!(
        "pe Bad : producer {{\n  output output;\n  process {{{}    emit(1 / 0);\n  }}\n}}\n\
         workflow BadFlow {{ nodes {{ b = Bad; }} }}\n",
        "\n".repeat(12)
    );
    assert_eq!(padded.lines().position(|l| l.contains("1 / 0")), Some(14), "the fault sits on line 15");

    let mut engine = laminar::engine::ExecutionEngine::instant();
    let err = engine.run(&laminar::engine::ExecutionRequest::simple("u", &padded, 1)).unwrap_err();
    let laminar::dataflow::DataflowError::PeFailed { error, .. } = err else { panic!("not a PE failure") };
    assert_eq!((error.kind, error.line), (laminar::script::ErrorKind::DivisionByZero, 15));

    let mut sys = system(Deployment::Test);
    let c = login(&mut sys, "zz46");
    let line_of = |err: ClientError| match err {
        ClientError::Api { status: 400, message, .. } => {
            let tail = message.split("at line ").nth(1).unwrap_or_else(|| panic!("no position: {message}"));
            tail.split(',').next().unwrap().parse::<usize>().unwrap()
        }
        other => panic!("expected the 400 envelope, got {other:?}"),
    };
    assert_eq!(line_of(c.run_source(&padded, RunConfig::iterations(1)).unwrap_err()), 15);

    c.register_workflow(&padded, "bad", None).unwrap();
    let (_, stored) = c.get_workflow("bad").unwrap();
    let stored_line = stored.lines().position(|l| l.contains("1 / 0")).unwrap() + 1;
    assert_ne!(stored_line, 15, "the registry stores the canonical text, not the padded one");
    assert_eq!(line_of(c.run_registered("bad", RunConfig::iterations(1)).unwrap_err()), stored_line);
    sys.stop();
}

/// Hostile nesting over real TCP: 100,000 × `(` used to end the whole
/// server process with a stack overflow. Every door that takes source
/// text answers the parser's 400 and the same server serves the next
/// request.
#[test]
fn deep_nesting_is_a_400_on_every_entry_point_and_the_server_keeps_serving() {
    let deep = format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000));
    let pe = format!("pe Deep : producer {{ output output; process {{ emit({deep}); }} }}");
    let wf = format!("{pe} workflow DeepFlow {{ nodes {{ d = Deep; }} }}");
    let mut sys = system(Deployment::RemoteSimulated);
    let c = login(&mut sys, "zz46");
    for (door, result) in [
        ("register_pe", c.register_pe(&pe, None).map(drop)),
        ("register_workflow", c.register_workflow(&wf, "deep", None).map(drop)),
        ("run", c.run_source(&wf, RunConfig::iterations(1)).map(drop)),
    ] {
        match result {
            Err(ClientError::Api { status: 400, kind, message, .. }) => {
                assert_eq!(kind, "Invalid", "{door}");
                assert!(
                    message.contains("parse error at line 1") && message.contains("nesting"),
                    "{door}: {message}"
                );
            }
            other => panic!("{door}: expected the 400 envelope, got {other:?}"),
        }
        let ok = "pe Gen : producer { output output; process { emit(((iteration))); } }";
        let out = c.run_source(ok, RunConfig::iterations(2)).unwrap_or_else(|e| panic!("after {door}: {e}"));
        assert_eq!(out.port_values("Gen", "output").len(), 2, "after {door}");
    }
    sys.stop();
}
