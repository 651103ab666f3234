//! What a finished stream keeps in resident memory. A finished streamed
//! job keeps its log for replay (the newest 256 of them), so the form the
//! log holds sets a serving node's footprint: Beat's `output` event is 83
//! bytes on the wire, ~0.94 KB as a `laminar_json::Value` tree, and 108
//! bytes in all as the typed entry the log keeps (a 72-byte deque slot,
//! the deque's growth slack and the job's own output). These pin that the
//! tree is built per page, not kept per event, that an event is no bigger
//! than its own variant, and that a log past the 256 gives its buffer back
//! while its job record stays.

use laminar_engine::{EnginePool, ExecutionEngine, ExecutionRequest, RunConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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

/// The counter is process-wide: each test holds this while it measures,
/// so a concurrent test's allocations are not charged to it.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

const BEAT: &str = r#"
    pe Pulse : producer { output output; process { emit(iteration + 1); } }
    workflow Beat { nodes { p = Pulse; } }
"#;

#[test]
fn a_retained_event_holds_under_135_bytes() {
    const JOBS: i64 = 32;
    const ITERATIONS: i64 = 2_000;
    let _serial = measuring();
    let pool = EnginePool::start(ExecutionEngine::instant(), 1, 8);
    // One unstreamed run first, so what the worker and the pool allocate
    // once is not charged to the logs.
    pool.run_sync("u", ExecutionRequest::simple("u", BEAT, ITERATIONS)).unwrap();
    let before = LIVE.load(Ordering::Relaxed);
    let mut events = 0;
    for _ in 0..JOBS {
        let id = pool
            .submit(
                "u",
                ExecutionRequest::new("u", BEAT, RunConfig::iterations(ITERATIONS).with_events(true)),
            )
            .unwrap();
        pool.wait("u", id, Duration::from_secs(60)).unwrap();
        let (first, end) = pool.event_log_window("u", id).unwrap();
        assert_eq!(first, 0, "nothing evicted");
        events += end - first;
    }
    let per_event = (LIVE.load(Ordering::Relaxed) - before) / events as i64;
    assert!(events >= (JOBS * ITERATIONS) as u64);
    assert!(per_event < 135, "{per_event} bytes retained per logged event");
    assert!(per_event > 40, "{per_event} bytes cannot hold an event: the measure is broken");
}

#[test]
fn an_expired_log_returns_its_buffer() {
    // The pool keeps the newest 256 streamed logs replayable; past that
    // each finished streamed job expires the oldest log. In steady state a
    // job adds one log and frees one, so what stays per job is its record
    // and output, not a log's buffer (512 slots of 72 bytes for 500 events).
    const STREAMED_LOGS: usize = 256;
    const MEASURED: usize = 64;
    const ITERATIONS: i64 = 500;
    let _serial = measuring();
    let pool = EnginePool::start(ExecutionEngine::instant(), 1, 8);
    let run = || {
        let id = pool
            .submit(
                "u",
                ExecutionRequest::new("u", BEAT, RunConfig::iterations(ITERATIONS).with_events(true)),
            )
            .unwrap();
        pool.wait("u", id, Duration::from_secs(60)).unwrap();
        id
    };
    let mut ids: Vec<i64> = (0..STREAMED_LOGS).map(|_| run()).collect();
    let before = LIVE.load(Ordering::Relaxed);
    ids.extend((0..MEASURED).map(|_| run()));
    // The last job's settle expires the log `STREAMED_LOGS` jobs older;
    // the wait can return just before it does.
    let last_expired = ids[ids.len() - 1 - STREAMED_LOGS];
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool.event_log_window("u", last_expired).is_some_and(|(first, end)| first < end) {
        assert!(Instant::now() < deadline, "the oldest retained log never expired");
        std::thread::yield_now();
    }
    for &id in &ids[..MEASURED] {
        let (first, end) = pool.event_log_window("u", id).unwrap();
        assert!(first == end && end as i64 > ITERATIONS, "job {id}'s log expired, its cursor kept");
    }
    let per_job = (LIVE.load(Ordering::Relaxed) - before) / MEASURED as i64;
    assert!(per_job < 40_000, "{per_job} bytes stay per job past the log retention bound");
    assert!(per_job > 1_000, "{per_job} bytes cannot hold a job's record: the measure is broken");
}
