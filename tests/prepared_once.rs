//! "A script is prepared once, where it enters", counted from outside:
//! how many `prepare` calls registration, a registered run, an inline run
//! and a reopened registry cost. One test in its own binary — the counter
//! is process-wide.

use laminar::engine::ExecutionEngine;
use laminar::prelude::*;
use laminar::registry::Registry;
use laminar::script::prepare_count;
use laminar::workloads::isprime::SOURCE_SEQUENTIAL;

fn logged_in(dir: &std::path::Path) -> LaminarClient {
    let server = LaminarServer::new(Registry::open(dir).expect("registry opens"), ExecutionEngine::instant());
    let mut c = LaminarClient::in_process(server);
    // First start registers the user; a reopened registry already has it.
    let _ = c.register("zz46", "password");
    c.login("zz46", "password").expect("login");
    c
}

#[test]
fn registration_prepares_once_and_a_registered_run_prepares_nothing() {
    let dir = std::env::temp_dir().join(format!("laminar-prepared-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut c = logged_in(&dir);

    let before = prepare_count();
    c.register_workflow(SOURCE_SEQUENTIAL, "isPrime", None).unwrap();
    assert_eq!(prepare_count() - before, 1, "register_workflow prepares the stored text, once");

    let before = prepare_count();
    let mut printed = Vec::new();
    for _ in 0..3 {
        let out = c.run_registered("isPrime", RunConfig::iterations(20)).unwrap();
        assert_eq!(out.processed["NumberProducer"], 20);
        assert_eq!(out.stages.compile, std::time::Duration::ZERO, "nothing to compile at run time");
        printed = out.printed;
    }
    assert!(!printed.is_empty());
    assert_eq!(prepare_count(), before, "three registered runs prepare nothing");

    let inline = c.run_source(SOURCE_SEQUENTIAL, RunConfig::iterations(20)).unwrap();
    assert_eq!(prepare_count() - before, 1, "an inline run prepares its source exactly once");
    assert_eq!(inline.printed, printed);

    // Reopen on the same WAL: replay prepares the stored workflow, so the
    // first run by name still prepares nothing and prints the same.
    drop(c);
    let mut c = logged_in(&dir);
    let before = prepare_count();
    let out = c.run_registered("isPrime", RunConfig::iterations(20)).unwrap();
    assert_eq!(prepare_count(), before, "a replayed workflow is already prepared");
    assert_eq!(out.printed, printed);
    let _ = std::fs::remove_dir_all(&dir);
}
