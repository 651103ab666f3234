//! What the group-by shape costs the allocator per reading: the sensor
//! workload (`SensorWindows`: poll → `WindowStats` → alerts) enacted on the
//! Simple mapping over 2,000 readings from 16 sensors. `WindowStats` does
//! `state.n[id] = get(state.n, id, 0) + 1` and reads `state.n[id]` and
//! `state.sum[id]`, the shape every stateful PE here uses. A read through a
//! path clones only its leaf, so a reading does not copy the PE's
//! per-sensor maps (about 154 allocator calls a reading when it did). An
//! invocation copies only what it writes: the port-named alias `reading`
//! shares the datum, `input_port` is not built for a body that never
//! names it, an assignment's local index and a fused `get`'s operands are
//! read in place. What is left, about 4.7 calls: the reading the host
//! makes (a list and a sensor id) and the `Arc` it is routed in, the
//! `let id` copy of the sensor id, and an eighth of a window's emissions
//! and alert lines.
//! Its own binary: the counter is process-wide.

use laminar::prelude::*;
use laminar::workloads::streaming::{build_graph, SensorFleet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

const READINGS: i64 = 2_000;
const SENSORS: usize = 16;

/// Allocator calls per reading of one enactment.
fn calls_per_reading(graph: &WorkflowGraph) -> f64 {
    let before = CALLS.load(Ordering::Relaxed);
    let r = MappingKind::Simple.execute(graph, &RunOptions::iterations(READINGS)).unwrap();
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(r.stats.processed["SensorPoll"], READINGS as u64);
    calls as f64 / READINGS as f64
}

#[test]
fn a_reading_does_not_copy_the_group_by_state() {
    let graph = build_graph(Arc::new(SensorFleet::instant(SENSORS)));
    calls_per_reading(&graph);
    let mut runs: Vec<f64> = (0..5).map(|_| calls_per_reading(&graph)).collect();
    runs.sort_by(f64::total_cmp);
    let median = runs[2];
    assert!(median < CEILING, "{median:.1} allocator calls per reading (five runs: {runs:?})");
    assert!(
        median > 4.0,
        "{median:.1} calls cannot carry a reading through three PEs: the measure is broken"
    );
}

/// The median measured when the gate was set (4.66), plus 3.
const CEILING: f64 = 7.66;
