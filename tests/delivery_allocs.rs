//! What delivering one event costs the allocator, end to end: a streamed
//! run submitted and drained by `LaminarClient` over TCP against an
//! `HttpServer` in this process, so the count covers the producer, the
//! log, the page encoder, both ends of the edge and the client's parse.
//! The client hands its caller one tree per event — an object of six keys
//! and three strings: one allocation for the object's entries, whose keys
//! are inline, and one per string, four in all — and that is meant to be
//! all an event costs after the run that made it: no tree on the server,
//! no copy on the client. Its own binary: the counter is process-wide.

use laminar::prelude::*;
use laminar::server::HttpServer;
use laminar::workloads::sustained;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// the only addition.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ITERATIONS: i64 = 2_000;

/// Submit one streamed run and drain it; allocator calls per event
/// delivered, across every thread of the process.
fn calls_per_event(client: &mut LaminarClient) -> f64 {
    let before = CALLS.load(Ordering::Relaxed);
    let job = client
        .submit(
            RunTarget::Registered(sustained::WORKFLOW.into()),
            RunConfig::iterations(ITERATIONS).with_events(true),
        )
        .unwrap();
    let mut delivered = 0u64;
    let mut outputs = 0usize;
    for event in client.event_stream(job, Duration::from_secs(60)) {
        outputs += usize::from(event.unwrap()["type"].as_str() == Some("output"));
        delivered += 1;
    }
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(outputs, sustained::expected_outputs(ITERATIONS));
    calls as f64 / delivered as f64
}

#[test]
fn delivering_an_event_costs_the_clients_tree_and_little_else() {
    let http = HttpServer::start(LaminarServer::in_memory()).unwrap();
    let mut client = LaminarClient::connect(http.addr());
    client.register("zz46", "password").unwrap();
    client.login("zz46", "password").unwrap();
    client.register_workflow(sustained::SOURCE, sustained::WORKFLOW, None).unwrap();
    for _ in 0..3 {
        calls_per_event(&mut client);
    }
    let mut ops: Vec<f64> = (0..5).map(|_| calls_per_event(&mut client)).collect();
    ops.sort_by(f64::total_cmp);
    let median = ops[2];
    assert!(median < CEILING, "{median:.1} allocator calls per delivered event (five ops: {ops:?})");
    assert!(median > 3.0, "{median:.1} calls cannot build the client's three strings: the measure is broken");
    drop(client);
    http.stop();
}

/// The median measured when the gate was set (4.3), plus 3.
const CEILING: f64 = 7.3;
