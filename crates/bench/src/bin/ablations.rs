//! Ablation benches for the design choices DESIGN.md §4 calls out:
//!
//! * **D1** — stored embeddings (embed-once at registration) vs
//!   recomputing the corpus embedding per query;
//! * **D2** — bi-encoder cosine retrieval vs cross-encoder pair scoring;
//! * **D4** — mapping choice on the same abstract graph: median wall time
//!   and voluntary context switches per mapping, and the measured order;
//! * **D5** — cold vs warm engine environments.
//!
//! ```text
//! cargo run -p laminar-bench --bin ablations --release
//! ```

use laminar_bench::datasets::{gen_csn, rank_corpus};
use laminar_bench::xencoder::cross_rank;
use laminar_dataflow::mapping::Mapping;
use laminar_dataflow::{MappingKind, RunOptions, WorkflowGraph};
use laminar_embed::{cosine, model_by_name};
use std::ffi::{c_int, c_long};
use std::time::Instant;

fn main() {
    d1_stored_embeddings();
    d2_bi_vs_cross();
    d4_mapping_choice();
    d5_warm_environments();
}

fn corpus() -> Vec<String> {
    let ds = gen_csn(200, 9);
    ds.examples.into_iter().map(|e| e.code).collect()
}

fn d1_stored_embeddings() {
    println!("== D1: embeddings stored at registration vs recomputed per query ==");
    let model = model_by_name("unixcoder-code-search").unwrap();
    let corpus = corpus();
    let queries = ["check if a number is prime", "count the words", "running average of values"];

    // Stored: embed the corpus once (registration), then query.
    let t0 = Instant::now();
    let stored: Vec<_> = corpus.iter().map(|c| model.embed_code(c)).collect();
    let registration = t0.elapsed();
    let t0 = Instant::now();
    for q in &queries {
        let qe = model.embed_text(q);
        let _best = stored.iter().map(|e| cosine(&qe, e)).fold(f32::MIN, f32::max);
    }
    let stored_query = t0.elapsed() / queries.len() as u32;

    // Naive: recompute the corpus embedding on every query.
    let t0 = Instant::now();
    for q in &queries {
        let qe = model.embed_text(q);
        let _best = corpus.iter().map(|c| cosine(&qe, &model.embed_code(c))).fold(f32::MIN, f32::max);
    }
    let naive_query = t0.elapsed() / queries.len() as u32;

    println!("  one-time registration embedding of {} PEs: {registration:?}", corpus.len());
    println!("  per-query latency, stored embeddings:   {stored_query:?}");
    println!("  per-query latency, recomputed corpus:   {naive_query:?}");
    println!(
        "  speedup from storing: {:.0}x\n",
        naive_query.as_secs_f64() / stored_query.as_secs_f64().max(1e-9)
    );
}

fn d2_bi_vs_cross() {
    println!("== D2: bi-encoder vs cross-encoder (paper §2.4 trade-off) ==");
    let model = model_by_name("unixcoder-code-search").unwrap();
    let ds = gen_csn(150, 13);
    let corpus: Vec<String> = ds.examples.iter().map(|e| e.code.clone()).collect();
    let embedded: Vec<_> = corpus.iter().map(|c| model.embed_code(c)).collect();

    let mut bi_rank_sum = 0.0;
    let t0 = Instant::now();
    for (i, ex) in ds.examples.iter().enumerate() {
        let qe = model.embed_text(&ex.query);
        let ranked = rank_corpus(&qe, &embedded, embedded.len());
        let rank = ranked.iter().position(|(idx, _)| *idx == i).unwrap() + 1;
        bi_rank_sum += 1.0 / rank as f64;
    }
    let bi_time = t0.elapsed() / ds.examples.len() as u32;
    let bi_mrr = bi_rank_sum / ds.examples.len() as f64;

    let mut cross_rank_sum = 0.0;
    let t0 = Instant::now();
    for (i, ex) in ds.examples.iter().enumerate() {
        let ranked = cross_rank(&ex.query, &corpus);
        let rank = ranked.iter().position(|(idx, _)| *idx == i).unwrap() + 1;
        cross_rank_sum += 1.0 / rank as f64;
    }
    let cross_time = t0.elapsed() / ds.examples.len() as u32;
    let cross_mrr = cross_rank_sum / ds.examples.len() as f64;

    println!("  bi-encoder    MRR {:.3}  per-query {:?}", bi_mrr, bi_time);
    println!("  cross-encoder MRR {:.3}  per-query {:?}", cross_mrr, cross_time);
    println!(
        "  cross-encoder is {:.1}x slower per query (the reason Laminar chose bi-encoders)\n",
        cross_time.as_secs_f64() / bi_time.as_secs_f64().max(1e-9)
    );
}

/// Voluntary context switches this process has made so far, every thread
/// included (exited ones too): `getrusage(RUSAGE_SELF)`'s `ru_nvcsw`.
fn voluntary_context_switches() -> c_long {
    /// Linux's `struct rusage`: two `struct timeval`s (two `long`s each),
    /// then fourteen `long` counters, `ru_nvcsw` the thirteenth.
    #[repr(C)]
    struct Rusage {
        times: [c_long; 4],
        counters: [c_long; 14],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    /// `RUSAGE_SELF` in Linux's `<sys/resource.h>`.
    const RUSAGE_SELF: c_int = 0;
    let mut usage = Rusage { times: [0; 4], counters: [0; 14] };
    // SAFETY: `usage` is a live, writable value laid out as Linux's
    // `struct rusage`, and `getrusage` writes nothing but that struct
    // through the pointer.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.counters[12]
}

fn d4_mapping_choice() {
    println!("== D4: mapping choice on the IsPrime graph (Figure 1 semantics) ==");
    let graph = WorkflowGraph::from_script(laminar_workloads::isprime::SOURCE_SEQUENTIAL, "IsPrime").unwrap();
    let opts = RunOptions::iterations(4000).with_processes(5);
    let mappings = [MappingKind::Simple, MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis];
    // Each round runs every mapping once, starting one further along, so
    // no mapping always runs first; each figure is the median of its runs.
    const ROUNDS: usize = 11;
    let mut samples: Vec<(Vec<f64>, Vec<c_long>)> = vec![Default::default(); mappings.len()];
    let mut processed = 0;
    for round in 0..ROUNDS {
        for k in 0..mappings.len() {
            let m = (round + k) % mappings.len();
            let (switches, t0) = (voluntary_context_switches(), Instant::now());
            let r = mappings[m].execute(&graph, &opts).unwrap();
            samples[m].0.push(t0.elapsed().as_secs_f64() * 1000.0);
            samples[m].1.push(voluntary_context_switches() - switches);
            processed = r.stats.processed["IsPrime"];
        }
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let mut ranked = Vec::new();
    for (kind, (ms, switches)) in mappings.iter().zip(&mut samples) {
        let name = kind.as_str();
        let ms = median(ms);
        switches.sort();
        println!(
            "  {name:<7} {ms:>10.3} ms   {:>6} voluntary context switches",
            switches[switches.len() / 2]
        );
        ranked.push((ms, name));
    }
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let order: Vec<&str> = ranked.iter().map(|(_, name)| *name).collect();
    println!("  (medians of {ROUNDS} rounds, {processed} data processed by IsPrime per run)");
    println!("  measured order, fastest first: {}\n", order.join(" < "));
}

fn d5_warm_environments() {
    println!("== D5: cold vs warm engine environments (auto-import cache) ==");
    use laminar_engine::{ExecutionEngine, ExecutionRequest};
    let src = r#"
        pe A : producer {
            import astropy; import requests; import pandas;
            output output; process { emit(1); }
        }
        workflow W { nodes { a = A; } }
    "#;
    for warm in [false, true] {
        let mut engine = ExecutionEngine::new().keep_warm(warm);
        let mut first = None;
        let mut rest = std::time::Duration::ZERO;
        for i in 0..4 {
            let out = engine.run(&ExecutionRequest::simple("bench", src, 1)).unwrap();
            if i == 0 {
                first = Some(out.provision_time);
            } else {
                rest += out.provision_time;
            }
        }
        println!(
            "  {}: first-run provisioning {:?}, later runs avg {:?}",
            if warm { "warm" } else { "cold" },
            first.unwrap(),
            rest / 3
        );
    }
    println!();
}
