//! The compile cache, counted from outside: what registration leaves in
//! it and how many lookups a run costs. One test in its own binary — the
//! cache and its hit/miss counters are process-wide.

use laminar::prelude::*;

#[test]
fn a_registered_workflow_runs_on_one_lookup_and_its_first_run_hits() {
    let mut sys = LaminarSystem::start(Deployment::Test).expect("system starts");
    let c = sys.client_mut();
    c.register("zz46", "password").unwrap();
    c.login("zz46", "password").unwrap();
    let stats = || {
        let (hits, misses) = laminar::script::compile::cache_stats();
        (hits, hits + misses)
    };

    // A registered PE is compiled to validate it, not to cache it: a run
    // never looks a program up under one PE's text.
    for i in 0..8 {
        let pe = format!("pe Solo{i} : producer {{ output output; process {{ emit({i}); }} }}");
        c.register_pe(&pe, None).unwrap();
    }
    assert_eq!(stats(), (0, 0), "register_pe leaves the cache alone");

    // Registering the 3-PE workflow warms the one key its runs use.
    c.register_workflow(laminar::workloads::isprime::SOURCE, "isPrime", None).unwrap();
    assert_eq!(stats(), (0, 1), "register_workflow compiles the stored text once");
    for run in 1..=3 {
        let out = c.run_registered("isPrime", RunConfig::iterations(5)).unwrap();
        assert_eq!(out.processed["NumberProducer"], 5);
        assert_eq!(stats(), (run, 1 + run), "run {run}: one lookup for the whole graph, a hit");
    }
    sys.stop();
}
