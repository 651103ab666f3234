//! What one registered PE costs in resident memory. A PE is held twice —
//! the typed entity in its table (two `f32` embeddings, 768 + 1024
//! floats, ~7 KB) and its two rows of the index's matrices (another
//! ~7 KB) — plus text. The same embeddings as a `laminar_json::Value` row
//! are 57 KB of boxed floats; this pins that the row form stays on disk.

use laminar_registry::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

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

#[test]
fn a_registered_pe_retains_under_24_kb() {
    const PES: usize = 200;
    let mut reg = Registry::in_memory();
    reg.register_user("zz46", "password").unwrap();
    let before = LIVE.load(Ordering::Relaxed);
    for i in 0..PES {
        let source = format!(
            "pe Retained{i} : iterative {{ input x; output output; process {{ emit(x * {} + 1); }} }}",
            i % 7 + 1
        );
        reg.register_pe("zz46", &source, Some("scales a sensor stream by a constant")).unwrap();
    }
    let per_pe = (LIVE.load(Ordering::Relaxed) - before) / PES as i64;
    assert!(per_pe < 24 * 1024, "{per_pe} bytes retained per registered PE");
    assert!(per_pe > 14 * 1024, "{per_pe} bytes cannot hold four embedding vectors: the measure is broken");
    assert_eq!(reg.all_pes("zz46").unwrap().len(), PES);
}
