//! Probes: small fixed measurements of what the entry-depth ladder cannot
//! isolate (the registry's search modes, the WAL, the event log, the
//! journal, JSON, embeddings, the Multi mapping). Each runs only in the
//! traced run of the workload whose layer it prices; the other workloads
//! report 0 for its metrics.

use crate::corpus::{Corpus, Tenant, PASSWORD};
use crate::metrics::Metrics;
use crate::ops::{step_of, us, Done, HandleMixed, MixedPlan, Op, RegistryMixed, Step};
use crate::stack::{self, BEAT, RUNNER, SENSOR_WINDOWS};
use crate::workload::HEAVY_ITERATIONS;
use crate::{alloc, stats};
use laminar_dataflow::mapping::{Mapping, MultiMapping, SimpleMapping};
use laminar_dataflow::{Host, RecordingObserver, RunOptions, WorkflowGraph};
use laminar_engine::{EnginePool, ExecutionRequest, JournalStore};
use laminar_json::{jobj, Value};
use laminar_registry::Registry;
use laminar_server::{ApiRequest, LaminarServer};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub fn p50(values: impl Iterator<Item = f64>) -> f64 {
    stats::median(&values.collect::<Vec<_>>())
}

/// Median wall time of `reps` calls of `f`, microseconds.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    p50((0..reps).map(|_| {
        let t = Instant::now();
        f();
        us(t.elapsed())
    }))
}

// ---- registry_mixed -------------------------------------------------------

/// The registry's search modes and write path, called directly. Hands
/// the registry back for the ladder's innermost depth.
pub fn registry(registry: Registry, tenant: &Tenant, seed: u64, out: &mut Metrics) -> Registry {
    let mut op = RegistryMixed { registry, plan: MixedPlan::new(tenant, 200, seed) };
    alloc::set_enabled(true);
    let done: Vec<Done> = (0..2000).map(|i| op.run(i).expect("registry probe op")).collect();
    alloc::set_enabled(false);
    let of = |step: Step| -> Vec<&Done> { done.iter().filter(|d| d.step == Some(step)).collect() };
    let med = |step: Step, f: &dyn Fn(&Done) -> f64| p50(of(step).into_iter().map(f));
    let latency = |d: &Done| us(d.measured.latency);
    out.set("registry.search_semantic_us", med(Step::Semantic, &latency));
    out.set("registry.search_text_us", med(Step::Text, &latency));
    out.set("registry.search_code_us", med(Step::Code, &latency));
    out.set("registry.rank_semantic_us", med(Step::Semantic, &|d| d.facts.rank_us));
    out.set("registry.rank_code_us", med(Step::Code, &|d| d.facts.rank_us));
    out.set("registry.register_pe_us", med(Step::Write, &|d| d.facts.register_us));
    out.set("registry.remove_pe_us", med(Step::Write, &|d| latency(d) - d.facts.register_us));
    out.set(
        "registry.allocs_per_search",
        p50(done.iter().filter(|d| d.step != Some(Step::Write)).map(|d| d.measured.allocs as f64)),
    );
    out.set("registry.allocs_per_write", med(Step::Write, &|d| d.measured.allocs as f64));
    out.set("embed.query_text_us", med(Step::Semantic, &|d| d.facts.embed_us));
    out.set("embed.query_code_us", med(Step::Code, &|d| d.facts.embed_us));
    op.registry
}

/// Search latency with a second tenant writing, over search latency alone:
/// both sit on the server's one registry `RwLock`.
pub fn read_during_write(server: &Arc<LaminarServer>, tenants: &[Tenant], seed: u64, out: &mut Metrics) {
    let mut reader = HandleMixed { server: Arc::clone(server), plan: MixedPlan::new(&tenants[0], 210, seed) };
    let mut writer = HandleMixed { server: Arc::clone(server), plan: MixedPlan::new(&tenants[1], 211, seed) };
    // Ops 0, 2, 4, 6 of a cycle are the semantic searches; op 9 the write.
    let searches = |reader: &mut HandleMixed| {
        let indices = (0..400u64).flat_map(|round| [0, 2, 4, 6].map(|at| round * 10 + at));
        p50(indices.map(|i| {
            debug_assert_eq!(step_of(i), Step::Semantic);
            us(reader.run(i).expect("probe search").measured.latency)
        }))
    };
    let alone = searches(&mut reader);
    let stop = AtomicBool::new(false);
    let contended = std::thread::scope(|scope| {
        let writing = scope.spawn(|| {
            let mut round = 0u64;
            while !stop.load(Ordering::SeqCst) {
                writer.run(round * 10 + 9).expect("probe write pair");
                round += 1;
            }
        });
        let contended = searches(&mut reader);
        stop.store(true, Ordering::SeqCst);
        writing.join().expect("writer thread");
        contended
    });
    out.set("registry.read_during_write_ratio", contended / alone);
}

/// The durable registry, in the scratch directory `dir`: WAL append cost
/// per registration (against an in-memory registry fed the same shape of
/// PE, below the first snapshot) and the cost of one snapshot at one
/// tenant's size.
pub fn wal(dir: &Path, seed: u64, out: &mut Metrics) {
    let mut durable = Registry::open(dir).expect("open a durable registry");
    let mut memory = Registry::in_memory();
    for registry in [&mut durable, &mut memory] {
        registry.register_user(RUNNER, PASSWORD).expect("probe tenant");
    }
    // Different salts: the second registration of one source would hit
    // the compile cache the first one filled.
    let (a, b) = (Corpus::generate(seed, 20), Corpus::generate(seed, 21));
    let (mut durable_us, mut memory_us) = (Vec::new(), Vec::new());
    for (i, (pa, pb)) in a.tenants[0].pes.iter().zip(&b.tenants[0].pes).enumerate() {
        let t = Instant::now();
        durable.register_pe(RUNNER, &pa.source, Some(&pa.description)).expect("durable register");
        let took = us(t.elapsed());
        // A registration is two WAL ops and the store snapshots itself
        // every 256: the first hundred stay clear of it.
        if i < 100 {
            durable_us.push(took);
            let t = Instant::now();
            memory.register_pe(RUNNER, &pb.source, Some(&pb.description)).expect("in-memory register");
            memory_us.push(us(t.elapsed()));
        }
    }
    out.set("registry.wal_append_us", stats::median(&durable_us) - stats::median(&memory_us));
    out.set("registry.snapshot_ms", time_us(5, || durable.checkpoint().expect("snapshot")) / 1e3);
}

/// The two embeddings one registration computes.
pub fn embed(tenant: &Tenant, out: &mut Metrics) {
    let text = laminar_embed::models::model_by_name("unixcoder-code-search").expect("search model");
    let code = laminar_embed::models::model_by_name("ReACC-retriever-py").expect("completion model");
    let mut pes = tenant.pes.iter().cycle();
    out.set(
        "embed.pe_us",
        time_us(300, || {
            let pe = pes.next().expect("cycle");
            std::hint::black_box((text.embed_text(&pe.description), code.embed_code(&pe.source)));
        }),
    );
}

// ---- stream_push ------------------------------------------------------------

/// The pool's event log on a pool of its own: what an event weighs while
/// its log is retained, what streaming a job costs over not streaming
/// it, and what reading a page costs.
pub fn event_log(out: &mut Metrics) {
    let pool = EnginePool::start(stack::engine(), stack::POOL_WORKERS, stack::POOL_QUEUE);
    let request = |events| {
        ExecutionRequest::simple(RUNNER, BEAT.source, HEAVY_ITERATIONS)
            .with_workflow(BEAT.entry)
            .with_events(events)
    };
    let run = |events: bool| {
        let id = pool.submit(RUNNER, request(events)).expect("probe submit");
        pool.wait(RUNNER, id, Duration::from_secs(30)).expect("probe job");
        id
    };
    // Resident-set growth first, while the allocator has nothing to reuse.
    let jobs = 32;
    let rss0 = stats::status_mb_now("VmRSS");
    let ids: Vec<i64> = (0..jobs).map(|_| run(true)).collect();
    let rss1 = stats::status_mb_now("VmRSS");
    let events = ids
        .iter()
        .map(|id| pool.event_log_window(RUNNER, *id).map_or(0, |(first, end)| end - first))
        .sum::<u64>();
    out.set("engine.event_log.kb_per_event", (rss1 - rss0) * 1024.0 / events.max(1) as f64);

    let (mut streamed, mut batch) = (Vec::new(), Vec::new());
    for _ in 0..40 {
        let t = Instant::now();
        run(true);
        streamed.push(us(t.elapsed()));
        let t = Instant::now();
        run(false);
        batch.push(us(t.elapsed()));
    }
    out.set("engine.pool.stream_overhead_ratio", stats::median(&streamed) / stats::median(&batch));

    // Full pages of a sealed log.
    let mut page_us = Vec::new();
    for id in &ids {
        let mut since = 0;
        loop {
            let t = Instant::now();
            let page = pool.events_wait(RUNNER, *id, since, Duration::ZERO).expect("probe page");
            let took = us(t.elapsed());
            if page.events.len() == 512 {
                page_us.push(took);
            }
            since = page.next;
            if page.closed || page.events.is_empty() {
                break;
            }
        }
    }
    out.set("engine.event_log.page_us", stats::median(&page_us));
}

/// JSON cost of the fullest event page among one real op's `bodies`.
pub fn page(bodies: &[(ApiRequest, Value)], out: &mut Metrics) {
    let page = bodies
        .iter()
        .map(|(_, body)| body)
        .max_by_key(|body| body["events"].as_array().map_or(0, <[Value]>::len))
        .expect("a stream has pages");
    let text = laminar_json::to_string(page);
    out.set("json.page_bytes", text.len() as f64);
    out.set("json.page_ser_us", time_us(50, || drop(std::hint::black_box(laminar_json::to_string(page)))));
    out.set(
        "client.page_parse_us",
        time_us(50, || drop(std::hint::black_box(laminar_json::parse(&text).expect("page parses")))),
    );
}

// ---- enact_heavy ------------------------------------------------------------

fn sensor_graph(host: Arc<dyn Host + Send + Sync>) -> WorkflowGraph {
    WorkflowGraph::from_script_with_host(SENSOR_WINDOWS.source, SENSOR_WINDOWS.entry, host)
        .expect("workflow source")
}

/// Journaling one `enact_heavy` run's event stream in the scratch
/// directory `dir`: create, one CRC-framed append per event, close.
pub fn journal(dir: &Path, host: Arc<dyn Host + Send + Sync>, out: &mut Metrics) {
    let recorder = RecordingObserver::new();
    SimpleMapping
        .execute_observed(
            &sensor_graph(host),
            &RunOptions::iterations(HEAVY_ITERATIONS),
            Some(recorder.clone()),
        )
        .expect("recorded run");
    let events: Vec<Value> = recorder.take().into_iter().map(|(seq, _, event)| event.to_value(seq)).collect();
    let store = JournalStore::open(dir).expect("open a journal store");
    let meta = jobj! { "owner" => RUNNER, "events" => events.len() };
    let mut id = 0;
    let record_us = time_us(20, || {
        id += 1;
        let mut writer = store.create(id, &meta).expect("create journal");
        for event in &events {
            writer.record(event).expect("journal append");
        }
        drop(writer);
        store.remove(id);
    });
    out.set("engine.journal.record_us", record_us);
}

/// The `enact_heavy` graph on the Multi mapping with 3 processes:
/// reported, never gated — on 2 vCPUs it measures the scheduler
/// (ISSUE finding e).
pub fn multi(host: Arc<dyn Host + Send + Sync>, out: &mut Metrics) {
    let graph = sensor_graph(host);
    let options = RunOptions::iterations(HEAVY_ITERATIONS).with_processes(3);
    let enact_us =
        p50((0..8)
            .map(|_| us(MultiMapping.execute(&graph, &options).expect("multi run").stats.timings.enact)));
    out.set("dataflow.multi_enact_us", enact_us);
}

// ---- every workload -----------------------------------------------------------

/// JSON cost and size of this workload's own bodies — those of `ops`
/// real ops: every body their calls carried, serialised once by the
/// sender and parsed once by the receiver. Sizes are computed by
/// serialising the same values, not read off the wire: headers are not
/// counted.
pub fn json(bodies: &[(ApiRequest, Value)], ops: f64, out: &mut Metrics) {
    let values: Vec<&Value> =
        bodies.iter().flat_map(|(req, resp)| [&req.body, resp]).filter(|v| !v.is_null()).collect();
    let texts: Vec<String> = values.iter().map(|v| laminar_json::to_string(v)).collect();
    let ser =
        time_us(100, || values.iter().for_each(|v| drop(std::hint::black_box(laminar_json::to_string(v)))));
    let parse =
        time_us(100, || texts.iter().for_each(|t| drop(std::hint::black_box(laminar_json::parse(t)))));
    out.set("json.ser_us_per_op", ser / ops);
    out.set("json.parse_us_per_op", parse / ops);
    let req_bytes: usize = bodies
        .iter()
        .map(|(req, _)| if req.body.is_null() { 0 } else { laminar_json::to_string(&req.body).len() })
        .sum();
    let resp_bytes: usize = bodies.iter().map(|(_, resp)| laminar_json::to_string(resp).len()).sum();
    out.set("server.http.req_bytes_per_op", req_bytes as f64 / ops);
    out.set("server.http.resp_bytes_per_op", resp_bytes as f64 / ops);
}
