//! Stateful word counting under all four mappings — demonstrates that
//! group-by routing (paper Listing 2's `grouping=[0]`) keeps per-key state
//! exact no matter which enactment back-end runs the workflow.
//!
//! ```text
//! cargo run --example wordcount_mappings
//! ```

use laminar::prelude::*;
use laminar::workloads::wordcount::{reference_counts, SOURCE};

fn main() {
    let graph = WorkflowGraph::from_script(SOURCE, "WordCount").expect("workload source is valid");
    let iterations = 16;
    let expected = reference_counts(iterations as usize);

    println!("WordCount over {iterations} sentences, 4 mappings, 6 processes:\n");
    for mapping in [MappingKind::Simple, MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
        let name = mapping.as_str();
        let t0 = std::time::Instant::now();
        let result = mapping
            .execute(&graph, &RunOptions::iterations(iterations).with_processes(6))
            .expect("run succeeds");
        // Final count per word = max over the emitted running counts.
        let mut counts = std::collections::BTreeMap::new();
        for v in result.port_values("CountWords", "output") {
            let w = v[0].as_str().unwrap().to_string();
            let e = counts.entry(w).or_insert(0i64);
            *e = (*e).max(v[1].as_i64().unwrap());
        }
        assert_eq!(counts, expected, "{name} diverged from the reference counts");
        println!(
            "  {name:<7} exact counts ✓  ({} counter instances, {:?})",
            result.stats.instances["CountWords"],
            t0.elapsed()
        );
    }

    println!("\ntop words:");
    let mut sorted: Vec<(&String, &i64)> = expected.iter().collect();
    sorted.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (w, n) in sorted.iter().take(6) {
        println!("  {w:<8} {n}");
    }
}
