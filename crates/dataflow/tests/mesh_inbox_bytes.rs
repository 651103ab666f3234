//! What a slow stage costs its upstream on every parallel mapping. Multi,
//! MPI and Redis share one mesh: each instance has one bounded `Inbox`,
//! counted in bursts, so a fast source feeding a slow sink blocks once the
//! sink's inbox is full instead of queueing without limit. This reads live
//! heap bytes while an unbounded source runs at full speed into a sink that
//! sleeps per datum: after the inbox has filled, the heap holds flat.

use laminar_dataflow::mapping::CancelToken;
use laminar_dataflow::{consumer_fn, producer_fn, MappingKind, RunOptions, WorkflowGraph};
use laminar_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
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

/// How far the heap may move from its reading once the sink's inbox is
/// full: 16 times what a full inbox of 64 one-datum bursts of 1 KB holds.
/// An unbounded inbox passes it within milliseconds.
const MARGIN: i64 = 1 << 20;

/// How long the heap is watched after the first reading.
const WATCH: Duration = Duration::from_secs(1);

#[test]
fn a_slow_sink_holds_its_upstream_to_a_flat_heap_on_every_parallel_mapping() {
    for kind in [MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
        let consumed = Arc::new(AtomicUsize::new(0));
        let mut g = WorkflowGraph::new("slow");
        let a = g.add(producer_fn("Fast", |i| Value::Str(format!("{i:>1024}"))));
        let taken = Arc::clone(&consumed);
        let b = g.add(consumer_fn("Slow", move |_, _| {
            std::thread::sleep(Duration::from_micros(200));
            taken.fetch_add(1, Ordering::Relaxed);
        }));
        g.connect(a, "output", b, "input").unwrap();
        let token = CancelToken::new();
        let opts = RunOptions::unbounded(Duration::ZERO, token.clone()).with_processes(2);

        let growth = std::thread::scope(|s| {
            let run = s.spawn(|| kind.build().execute(&g, &opts));
            // The first reading comes once the sink has taken 100 datums,
            // by when a bounded inbox has long been full.
            while consumed.load(Ordering::Relaxed) < 100 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let first = LIVE.load(Ordering::Relaxed);
            let t0 = Instant::now();
            let mut growth = 0;
            while t0.elapsed() < WATCH && growth <= MARGIN {
                std::thread::sleep(Duration::from_millis(10));
                growth = LIVE.load(Ordering::Relaxed) - first;
            }
            token.cancel();
            assert!(run.join().unwrap().is_err(), "an unbounded run ends cancelled");
            growth
        });
        assert!(growth <= MARGIN, "{kind}: the heap grew {growth} bytes behind a slow sink");
    }
}
