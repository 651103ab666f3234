//! Verifies the interned datapath's headline property: steady-state
//! enactment performs **no per-datum port-name `String` allocations**.
//!
//! Strategy: a counting global allocator measures the bytes allocated by
//! the steady-state portion of a sequential enactment (the difference
//! between a long and a short run of the same graph), for two graphs that
//! are identical except for the *length* of their port names (5 bytes vs
//! 160 bytes). If any code on the datapath still allocated a port name per
//! datum, the long-named graph's steady-state cost would grow by at least
//! the name-length difference for every datum. With interning, the name
//! length can only affect plan/collect-time work, so the per-datum deltas
//! must match to within noise.

use laminar_dataflow::mapping::{Mapping, SimpleMapping};
use laminar_dataflow::pe::{producer_fn, NativePeFactory, PeMeta};
use laminar_dataflow::{RunOptions, WorkflowGraph};
use laminar_json::Value;
use laminar_script::{PeKind, PortDecl};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A → B → C pipeline whose ports are all named `port_name`.
fn pipeline(port_name: &str) -> WorkflowGraph {
    let meta = |name: &str, kind: PeKind, inputs: bool, outputs: bool| PeMeta {
        name: name.to_string(),
        kind,
        inputs: if inputs { vec![PortDecl { name: port_name.to_string(), groupby: None }] } else { vec![] },
        outputs: if outputs { vec![port_name.to_string()] } else { vec![] },
        imports: vec![],
        description: None,
        stateful: false,
    };
    let mut g = WorkflowGraph::new("alloc");
    let a = g.add(producer_fn("A", Value::Int));
    let out_port = port_name.to_string();
    let b_factory = NativePeFactory::new(meta("B", PeKind::Iterative, true, true), move || {
        let port = out_port.clone();
        Box::new(move |input, _it, out| {
            if let Some((_, v)) = input {
                out.emit(&port, v);
            }
            Ok(())
        })
    });
    let b = g.add(b_factory);
    let c_factory = NativePeFactory::new(meta("C", PeKind::Iterative, true, true), || {
        Box::new(|_input, _it, _out| Ok(()))
    });
    let c = g.add(c_factory);
    // producer_fn emits on "output"; B and C listen/speak `port_name`.
    g.connect(a, "output", b, port_name).unwrap();
    g.connect(b, port_name, c, port_name).unwrap();
    g
}

fn bytes_for(graph: &WorkflowGraph, iterations: i64) -> u64 {
    let before = BYTES.load(Ordering::Relaxed);
    SimpleMapping.execute(graph, &RunOptions::iterations(iterations)).unwrap();
    BYTES.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_allocations_are_port_name_independent() {
    let short = pipeline("p");
    let long_name = "p".repeat(160);
    let long = pipeline(&long_name);

    // Warm up (lazy statics, allocator pools).
    bytes_for(&short, 64);
    bytes_for(&long, 64);

    const BASE: i64 = 512;
    const EXTRA: i64 = 2048;
    // Steady-state cost of EXTRA datums = cost(BASE+EXTRA) - cost(BASE);
    // plan/collect work cancels out of the difference.
    let steady_short = bytes_for(&short, BASE + EXTRA) as i64 - bytes_for(&short, BASE) as i64;
    let steady_long = bytes_for(&long, BASE + EXTRA) as i64 - bytes_for(&long, BASE) as i64;

    // One leaked port-name String per datum would cost ≥ 159 bytes × EXTRA
    // ≈ 325 KB here. Allow generous constant noise (buffer doubling
    // raciness etc.) far below that.
    let delta = (steady_long - steady_short).abs();
    assert!(
        delta < 32 * 1024,
        "steady-state allocation depends on port-name length: \
         short={steady_short}B long={steady_long}B delta={delta}B for {EXTRA} datums"
    );
}
