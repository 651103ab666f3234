//! What one retained event costs in resident memory. A finished streamed
//! job keeps its log for replay (the newest 256 of them), so the form the
//! log holds sets a serving node's footprint: Beat's `output` event is 83
//! bytes on the wire and ~0.94 KB as a `laminar_json::Value` tree. This
//! pins that the tree is built per page, not kept per event.

use laminar_engine::{EnginePool, ExecutionEngine, ExecutionRequest};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// the only addition.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

const BEAT: &str = r#"
    pe Pulse : producer { output output; process { emit(iteration + 1); } }
    workflow Beat { nodes { p = Pulse; } }
"#;

#[test]
fn a_retained_event_holds_under_300_bytes() {
    const JOBS: i64 = 32;
    const ITERATIONS: i64 = 2_000;
    let pool = EnginePool::start(ExecutionEngine::instant(), 1, 8);
    // One unstreamed run first, so what the worker and the pool allocate
    // once is not charged to the logs.
    pool.run_sync("u", ExecutionRequest::simple("u", BEAT, ITERATIONS)).unwrap();
    let before = LIVE.load(Ordering::Relaxed);
    let mut events = 0;
    for _ in 0..JOBS {
        let id = pool.submit("u", ExecutionRequest::simple("u", BEAT, ITERATIONS).with_events(true)).unwrap();
        pool.wait("u", id, Duration::from_secs(60)).unwrap();
        let (first, end) = pool.event_log_window("u", id).unwrap();
        assert_eq!(first, 0, "nothing evicted");
        events += end - first;
    }
    let per_event = (LIVE.load(Ordering::Relaxed) - before) / events as i64;
    assert!(events >= (JOBS * ITERATIONS) as u64);
    assert!(per_event < 300, "{per_event} bytes retained per logged event");
    assert!(per_event > 40, "{per_event} bytes cannot hold an event: the measure is broken");
}
