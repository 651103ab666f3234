//! Property tests for the batched transports: per-edge FIFO order and
//! cross-mapping output equivalence on fan-out graphs under every
//! [`Grouping`].
//!
//! The transports group each emission burst into one frame per destination
//! ([`Transport::send_batch`]); these properties pin down what batching
//! must preserve: data sent from one instance to one instance arrives in
//! send order, and the observable outputs agree with the sequential
//! Simple mapping.

use laminar_dataflow::mapping::{Mapping, MpiMapping, MultiMapping, RedisMapping, SimpleMapping};
use laminar_dataflow::{Grouping, RunOptions, RunResult, WorkflowGraph};
use proptest::prelude::*;

/// A producer emitting `[key, seq]` tuples plus a checker that asserts the
/// sequence numbers it observes are strictly increasing. With a single
/// source instance (roots always plan one instance), each checker instance
/// sees a subsequence of one FIFO edge — any inversion is a batching bug.
const FIFO_SRC: &str = r#"
    pe Src : producer {
        output output;
        process { emit([iteration % 3, iteration]); }
    }
    pe Check : generic {
        input input;
        output output;
        init { state.last = 0 - 1; }
        process {
            let seq = input[1];
            if seq <= state.last { emit(["violation", seq, state.last]); }
            state.last = seq;
            emit(["seen", seq]);
        }
    }
"#;

fn fifo_graph(g1: Grouping, g2: Grouping) -> WorkflowGraph {
    // Fan-out: one source feeds two checker PEs over independently grouped
    // edges, so one emission burst routes to several destinations at once.
    let mut g = WorkflowGraph::new("fifo");
    let s = g.add_script_pe(FIFO_SRC, "Src").unwrap();
    let a = g.add_script_pe(FIFO_SRC, "Check").unwrap();
    let b = g.add_script_pe(FIFO_SRC, "Check").unwrap();
    g.connect_grouped(s, "output", a, "input", g1).unwrap();
    g.connect_grouped(s, "output", b, "input", g2).unwrap();
    g
}

fn groupings() -> Vec<Grouping> {
    vec![Grouping::Shuffle, Grouping::GroupBy(0), Grouping::OneToAll, Grouping::AllToOne]
}

/// Sequence numbers seen on `Check.output`, split into violations and data.
fn observations(r: &RunResult) -> (usize, Vec<i64>) {
    let mut violations = 0;
    let mut seen = Vec::new();
    for v in r.port_values("Check", "output") {
        match v[0].as_str() {
            Some("violation") => violations += 1,
            _ => seen.push(v[1].as_i64().unwrap()),
        }
    }
    seen.sort();
    (violations, seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Under batching, every mapping preserves per-edge FIFO order for any
    /// pair of groupings on a fan-out graph: the stateful checker PEs
    /// observe strictly increasing sequence numbers.
    #[test]
    fn batched_transports_preserve_per_edge_fifo(
        iters in 5..60i64,
        procs in 2..8usize,
        gi in 0..4usize,
        gj in 0..4usize,
    ) {
        let g = fifo_graph(groupings()[gi], groupings()[gj]);
        let opts = RunOptions::iterations(iters).with_processes(procs);
        for mapping in [&MultiMapping as &dyn Mapping, &MpiMapping, &RedisMapping::default()] {
            let r = mapping.execute(&g, &opts).unwrap();
            let (violations, _) = observations(&r);
            prop_assert_eq!(violations, 0, "{} reordered a FIFO edge", mapping.kind());
        }
    }

    /// Cross-mapping equivalence under batching: the *set* of sequence
    /// numbers observed matches the Simple mapping exactly, and for
    /// instance-count-independent groupings the multiset matches too.
    #[test]
    fn batched_transports_match_simple_outputs(
        iters in 5..50i64,
        procs in 2..7usize,
        gi in 0..4usize,
        gj in 0..4usize,
    ) {
        let (g1, g2) = (groupings()[gi], groupings()[gj]);
        let g = fifo_graph(g1, g2);
        let (base_viol, base_seen) = observations(
            &SimpleMapping.execute(&g, &RunOptions::iterations(iters)).unwrap(),
        );
        prop_assert_eq!(base_viol, 0);
        let opts = RunOptions::iterations(iters).with_processes(procs);
        let count_invariant = |grp: Grouping| !matches!(grp, Grouping::OneToAll);
        for mapping in [&MultiMapping as &dyn Mapping, &MpiMapping, &RedisMapping::default()] {
            let r = mapping.execute(&g, &opts).unwrap();
            let (violations, seen) = observations(&r);
            prop_assert_eq!(violations, 0);
            if count_invariant(g1) && count_invariant(g2) {
                // No broadcast: exact multiset equivalence.
                prop_assert_eq!(&seen, &base_seen, "{} diverged from Simple", mapping.kind());
            } else {
                // Broadcast scales with the instance count; the distinct
                // sequence numbers still agree.
                let mut a = seen.clone();
                a.dedup();
                let mut b = base_seen.clone();
                b.dedup();
                prop_assert_eq!(&a, &b, "{} lost or invented data", mapping.kind());
            }
        }
    }

    /// Stats conservation holds under batching: every datum the source
    /// emits is processed by each fan-out branch.
    #[test]
    fn batched_stats_conservation(iters in 1..40i64, procs in 2..6usize) {
        let g = fifo_graph(Grouping::Shuffle, Grouping::GroupBy(0));
        let opts = RunOptions::iterations(iters).with_processes(procs);
        for mapping in [&MultiMapping as &dyn Mapping, &MpiMapping, &RedisMapping::default()] {
            let r = mapping.execute(&g, &opts).unwrap();
            prop_assert_eq!(r.stats.processed["Src"], iters as u64);
            // Two edges leave the source: Check processes 2x the source's
            // emissions in total (both branches share the PE name).
            prop_assert_eq!(r.stats.processed["Check"], 2 * r.stats.emitted["Src"]);
        }
    }
}
