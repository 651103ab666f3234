//! What one registered PE costs in resident memory. Its two embeddings are
//! sparse: the stand-in models fill 149 of a PE's 768 + 1,024 buckets
//! here. Each stored `(bucket, weight)` pair is held twice, 8 bytes a
//! time — once in the typed entity in its table, once as a posting in the
//! index — so the four vectors take ~2.4 KB, and text and bookkeeping
//! bring a PE to ~4.1 KB. The same embeddings as a
//! `laminar_json::Value` row are 57 KB of boxed floats; this pins that the
//! row form stays on disk, and that neither copy goes back to dense `f32`
//! rows (7 KB each).

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

/// 4,225 bytes measured per PE, plus 25 %.
const CEILING: i64 = 4_225 * 5 / 4;

#[test]
fn a_registered_pe_retains_about_4_kb() {
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
    let pes = reg.all_pes("zz46").unwrap();
    assert_eq!(pes.len(), PES);
    let pairs: usize =
        pes.iter().map(|pe| pe.desc_embedding.entries().len() + pe.code_embedding.entries().len()).sum();
    // Four embedding vectors: each stored pair twice, 8 bytes a time.
    let floor = (2 * 8 * pairs / PES) as i64;
    assert!(per_pe < CEILING, "{per_pe} bytes retained per registered PE");
    assert!(
        per_pe > floor,
        "{per_pe} bytes cannot hold four embedding vectors ({floor}): the measure is broken"
    );
}
