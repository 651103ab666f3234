//! The traced run (`--trace 1`): prices every layer from outside, with no
//! tracing in the program. Never used for end-to-end numbers.
//!
//! **Ladder.** The workload's seeded op sequence is replayed at
//! successive *entry depths* — each one public function deeper into the
//! stack — in interleaved blocks, so drift hits every depth alike. A
//! layer's self time is `median(D_k) - median(D_k+1)`; by construction
//! the self times plus the innermost depth telescope to `D0`. Allocation
//! counts per layer fall out the same way. A span is recorded around
//! every ladder call and every client → transport call beneath it.
//!
//! **Probes** (`probes.rs`) price what the ladder cannot isolate, each
//! under the one workload whose layer it belongs to.

use crate::corpus::Corpus;
use crate::metrics::{Metrics, LAYERS, PER_LAYER};
use crate::ops::{
    us, Call, ClientMixed, ClientRun, ClientStream, Done, EngineRun, EngineStream, HandleMixed, HandleRun,
    MappingRun, MappingStream, MixedPlan, Op, PoolRun, RegistryMixed, RunSpec, Tap,
};
use crate::probes::{self, p50, time_us};
use crate::stack::{self, BEAT, RUNNER};
use crate::workload::{self, login, Kind, HEAVY_ITERATIONS, STREAM_RETENTION};
use crate::{alloc, stats, Args};
use laminar_client::{InProcessTransport, LaminarClient, TcpTransport, Transport};
use laminar_dataflow::{Host, RunOptions, WorkflowGraph};
use laminar_engine::ExecutionRequest;
use laminar_json::{jobj, Value};
use laminar_registry::Registry;
use laminar_server::{ApiRequest, HttpServer, LaminarServer};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---- spans ------------------------------------------------------------------

struct Span {
    op_id: u64,
    name: String,
    /// Index of the span that caused this one; ladder calls are roots.
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn push(
        &mut self,
        op_id: u64,
        name: String,
        parent: Option<usize>,
        started: Instant,
        took: Duration,
    ) -> usize {
        let start_ns = started.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { op_id, name, parent, start_ns, end_ns: start_ns + took.as_nanos() as u64 });
        self.spans.len() - 1
    }
}

const PAGE: &str = "transport.page";
const SUBMIT: &str = "transport.submit";

/// Span name of a client → transport call, from its path (the pages of
/// one op are numbered by the caller).
fn call_kind(path: &str) -> &'static str {
    if path.contains("/events") {
        PAGE
    } else if path.ends_with("/submit") {
        SUBMIT
    } else if path.ends_with("/run") {
        "transport.run"
    } else if path.contains("/search/") {
        "transport.search"
    } else if path.ends_with("/pe/add") {
        "transport.pe_add"
    } else if path.contains("/pe/remove/") {
        "transport.pe_remove"
    } else {
        "transport.call"
    }
}

// ---- the two servers ----------------------------------------------------------

/// The traced run's system under test: one server behind real HTTP (the
/// outermost depth) and an identical one reachable in-process and by
/// `Arc` (every depth below).
struct Env {
    seed: u64,
    corpus: Corpus,
    http: HttpServer,
    inproc: InProcessTransport,
    server: Arc<LaminarServer>,
}

type Calls = Arc<Mutex<Vec<Call>>>;

impl Env {
    fn tcp(&self) -> Box<dyn Transport> {
        Box::new(TcpTransport::new(self.http.addr()))
    }

    fn local(&self) -> Box<dyn Transport> {
        Box::new(self.inproc.clone())
    }

    /// A logged-in client whose transport calls are recorded.
    fn tapped(&self, inner: Box<dyn Transport>, user: &str, keep_bodies: bool) -> (LaminarClient, Calls) {
        let (tap, calls) = Tap::new(inner, keep_bodies);
        let client = login(LaminarClient::with_transport(Box::new(tap)), user);
        calls.lock().expect("tap lock").clear();
        (client, calls)
    }

    fn host(&self) -> Arc<dyn Host + Send + Sync> {
        Arc::new(stack::engine().hosts().clone())
    }
}

// ---- the ladder ------------------------------------------------------------------

struct Depth {
    name: &'static str,
    /// The layer whose self time is this depth minus the next one.
    layer: &'static str,
    op: Box<dyn Op>,
    /// The tap on this depth's client, if it has one.
    calls: Option<Calls>,
    done: Vec<Done>,
    /// Allocator calls / bytes per op, from the counting pass.
    allocs: Vec<(f64, f64)>,
    /// Per timed op, the time spent inside client → transport calls.
    transport_us: Vec<f64>,
    /// Client → transport calls seen, over all timed ops.
    transport_calls: u64,
    /// Round-trip times of the `submit` and `events` calls among them.
    submit_us: Vec<f64>,
    page_us: Vec<f64>,
}

fn depth(name: &'static str, layer: &'static str, op: Box<dyn Op>, calls: Option<Calls>) -> Depth {
    Depth {
        name,
        layer,
        op,
        calls,
        done: Vec::new(),
        allocs: Vec::new(),
        transport_us: Vec::new(),
        transport_calls: 0,
        submit_us: Vec::new(),
        page_us: Vec::new(),
    }
}

struct Ladder {
    depths: Vec<Depth>,
    /// The outermost depth again, with no tap: run with span recording and
    /// allocation counting off, it gives `trace.overhead_ratio` its base.
    plain: Box<dyn Op>,
    plain_done: Vec<Done>,
    /// The request and response bodies of `captured_ops` real ops, for the
    /// JSON probe.
    bodies: Vec<(ApiRequest, Value)>,
    captured_ops: f64,
    /// The script an op of this workload parses.
    script: String,
    ops: u64,
    block: u64,
    warm: u64,
}

/// One op through a body-keeping client: the real wire bodies.
fn capture(
    env: &Env,
    transport: Box<dyn Transport>,
    user: &str,
    run: impl FnOnce(LaminarClient) -> Result<Done, String>,
) -> Vec<(ApiRequest, Value)> {
    let (client, calls) = env.tapped(transport, user, true);
    run(client).expect("the capture op succeeds");
    let mut calls = calls.lock().expect("tap lock");
    calls.drain(..).filter_map(|c| c.bodies).collect()
}

fn run_ladder(env: &Env, spec: RunSpec, smoke: bool) -> Ladder {
    let admin = login(LaminarClient::with_transport(env.local()), RUNNER);
    let (_, stored) = admin.get_workflow(spec.workflow.entry).expect("workflow is registered");
    let bodies = capture(env, env.local(), RUNNER, |client| ClientRun { client, spec: spec.clone() }.run(0));
    let request = spec.request(&stored);
    let (d0, c0) = env.tapped(env.tcp(), RUNNER, false);
    let (d1, c1) = env.tapped(env.local(), RUNNER, false);
    let graph = WorkflowGraph::from_script_with_host(&stored, spec.workflow.entry, env.host())
        .expect("stored source");
    let heavy = spec.iterations >= HEAVY_ITERATIONS;
    let depths = vec![
        depth("client_tcp", "server.http", Box::new(ClientRun { client: d0, spec: spec.clone() }), Some(c0)),
        depth(
            "client_in_process",
            "client",
            Box::new(ClientRun { client: d1, spec: spec.clone() }),
            Some(c1),
        ),
        depth(
            "server_handle",
            "server.route",
            Box::new(HandleRun {
                server: Arc::clone(&env.server),
                request: bodies[0].0.clone(),
                spec: spec.clone(),
            }),
            None,
        ),
        depth(
            "pool_run_sync",
            "engine.pool",
            Box::new(PoolRun {
                server: Arc::clone(&env.server),
                request: request.clone(),
                spec: spec.clone(),
            }),
            None,
        ),
        depth(
            "engine_run",
            "engine.run",
            Box::new(EngineRun { engine: stack::engine().fork(), request, spec: spec.clone() }),
            None,
        ),
        depth(
            "mapping_execute",
            "dataflow",
            Box::new(MappingRun {
                graph,
                options: RunOptions::iterations(spec.iterations),
                spec: spec.clone(),
            }),
            None,
        ),
    ];
    let plain = Box::new(ClientRun { client: login(LaminarClient::connect(env.http.addr()), RUNNER), spec });
    let (ops, block, warm) = if heavy { (200, 10, 10) } else { (2000, 100, 200) };
    Ladder {
        depths,
        plain,
        plain_done: Vec::new(),
        bodies,
        captured_ops: 1.0,
        script: stored,
        ops,
        block,
        warm,
    }
    .scaled(smoke)
}

/// `stream_push` has no depths between the TCP client and the engine.
/// Any reader faster than that client — the in-process client, `handle`
/// or the pool called directly — fetches its next page sooner, wakes on
/// almost every append, and so changes what the *producer* pays
/// (measured: 175 pages and 11.5 ms per job through the in-process
/// client, 17 ms reading the pool directly, against 4.5 pages and
/// 11.8 ms over TCP). Subtracting such depths prices the reader's pace,
/// not a layer. So the outermost depth minus the engine is reported in
/// two measured parts: `client` (span arithmetic: the op minus the time
/// inside its transport calls) and the unsplit rest, `delivery`.
fn stream_ladder(env: &Env, smoke: bool) -> Ladder {
    let n = HEAVY_ITERATIONS;
    let admin = login(LaminarClient::with_transport(env.local()), RUNNER);
    let (_, stored) = admin.get_workflow(BEAT.entry).expect("workflow is registered");
    // Over TCP: a faster reader would be handed smaller pages.
    let bodies = capture(env, env.tcp(), RUNNER, |client| ClientStream { client, iterations: n }.run(0));
    let request = ExecutionRequest::simple(RUNNER, &stored, n).with_workflow(BEAT.entry);
    let (d0, c0) = env.tapped(env.tcp(), RUNNER, false);
    let graph = WorkflowGraph::from_script_with_host(&stored, BEAT.entry, env.host()).expect("stored source");
    let depths = vec![
        depth("client_tcp", "delivery", Box::new(ClientStream { client: d0, iterations: n }), Some(c0)),
        depth(
            "engine_run_streaming",
            "engine.run",
            Box::new(EngineStream { engine: stack::engine().fork(), request, iterations: n }),
            None,
        ),
        depth(
            "mapping_execute_observed",
            "dataflow",
            Box::new(MappingStream { graph, options: RunOptions::iterations(n), iterations: n }),
            None,
        ),
    ];
    let plain = Box::new(ClientStream {
        client: login(LaminarClient::connect(env.http.addr()), RUNNER),
        iterations: n,
    });
    // The HTTP server's pool sees the traced and the plain series: half
    // the retention window each, and a margin, fills it (finding a).
    let warm = STREAM_RETENTION / 2 + 32;
    Ladder {
        depths,
        plain,
        plain_done: Vec::new(),
        bodies,
        captured_ops: 1.0,
        script: stored,
        ops: 400,
        block: 10,
        warm,
    }
    .scaled(smoke)
}

fn registry_ladder(env: &Env, registry: Registry, smoke: bool) -> Ladder {
    let tenant = &env.corpus.tenants[0];
    let plan = |salt| MixedPlan::new(tenant, salt, env.seed);
    // One whole cycle, so the captured bodies cover every step.
    let bodies = capture(env, env.local(), &tenant.user, |client| {
        let mut op = ClientMixed { client, plan: plan(100) };
        (0..10).map(|i| op.run(i)).last().expect("ten ops")
    });
    let (d0, c0) = env.tapped(env.local(), &tenant.user, false);
    let depths = vec![
        depth("client_in_process", "client", Box::new(ClientMixed { client: d0, plan: plan(101) }), Some(c0)),
        depth(
            "server_handle",
            "server.route",
            Box::new(HandleMixed { server: Arc::clone(&env.server), plan: plan(102) }),
            None,
        ),
        depth("registry_direct", "registry", Box::new(RegistryMixed { registry, plan: plan(103) }), None),
    ];
    let plain = Box::new(ClientMixed {
        client: login(LaminarClient::with_transport(env.local()), &tenant.user),
        plan: plan(104),
    });
    let script = tenant.pes[0].source.clone();
    Ladder {
        depths,
        plain,
        plain_done: Vec::new(),
        bodies,
        captured_ops: 10.0,
        script,
        ops: 4000,
        block: 200,
        warm: 400,
    }
    .scaled(smoke)
}

impl Depth {
    fn latencies_us(&self) -> Vec<f64> {
        self.done.iter().map(|d| us(d.measured.latency)).collect()
    }
}

impl Ladder {
    fn scaled(mut self, smoke: bool) -> Ladder {
        if smoke {
            self.ops = (self.ops / 20).max(self.block);
            self.warm = (self.warm / 20).max(2);
        }
        self
    }

    /// Warm every depth, replay the sequence in interleaved blocks with
    /// spans on and allocation counting off, then count allocations in a
    /// short pass of its own: on an op that allocates 300 000 times the
    /// counters alone cost 20 %, and counts repeat almost to the digit, so
    /// a few ops price them. Returns `(attempted, failed)`.
    fn run(&mut self, spans: &mut Spans) -> (u64, u64) {
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut fail = |depth: &str, i: u64, message: String| {
            if failed == 0 {
                eprintln!("first failed op: depth {depth} op {i}: {message}");
            }
            failed += 1;
        };
        alloc::set_enabled(false);
        for i in 0..self.warm {
            for d in &mut self.depths {
                if let Err(message) = d.op.run(i) {
                    fail(d.name, i, message);
                }
                if let Some(calls) = &d.calls {
                    calls.lock().expect("tap lock").clear();
                }
            }
            if let Err(message) = self.plain.run(i) {
                fail("plain", i, message);
            }
        }
        for block in 0..self.ops / self.block {
            let range = self.warm + block * self.block..self.warm + (block + 1) * self.block;
            // The untraced series leads the even blocks and closes the odd
            // ones: it and the traced outermost depth then follow a warm
            // and a cold predecessor equally often.
            let mut plain_block = |attempted: &mut u64, fail: &mut dyn FnMut(&str, u64, String)| {
                for i in range.clone() {
                    *attempted += 1;
                    match self.plain.run(i) {
                        Ok(done) => self.plain_done.push(done),
                        Err(message) => fail("plain", i, message),
                    }
                }
            };
            if block % 2 == 0 {
                plain_block(&mut attempted, &mut fail);
            }
            for (k, d) in self.depths.iter_mut().enumerate() {
                for i in range.clone() {
                    attempted += 1;
                    match d.op.run(i) {
                        Ok(done) => {
                            let op_id = (k as u64) << 32 | i;
                            let root = spans.push(
                                op_id,
                                d.name.to_string(),
                                None,
                                done.measured.started,
                                done.measured.latency,
                            );
                            if let Some(calls) = &d.calls {
                                let (mut page, mut inside) = (0, Duration::ZERO);
                                for call in calls.lock().expect("tap lock").drain(..) {
                                    d.transport_calls += 1;
                                    inside += call.elapsed;
                                    let kind = call_kind(&call.path);
                                    let name = if kind == PAGE {
                                        d.page_us.push(us(call.elapsed));
                                        page += 1;
                                        format!("{PAGE}[{}]", page - 1)
                                    } else {
                                        if kind == SUBMIT {
                                            d.submit_us.push(us(call.elapsed));
                                        }
                                        kind.to_string()
                                    };
                                    spans.push(op_id, name, Some(root), call.started, call.elapsed);
                                }
                                d.transport_us.push(us(inside));
                            }
                            d.done.push(done);
                        }
                        Err(message) => fail(d.name, i, message),
                    }
                }
            }
            if block % 2 == 1 {
                plain_block(&mut attempted, &mut fail);
            }
        }
        let counted = self.warm + self.ops..self.warm + self.ops + self.block.min(20);
        alloc::set_enabled(true);
        for d in &mut self.depths {
            for i in counted.clone() {
                attempted += 1;
                match d.op.run(i) {
                    Ok(done) => {
                        d.allocs.push((done.measured.allocs as f64, done.measured.alloc_bytes as f64))
                    }
                    Err(message) => fail(d.name, i, message),
                }
            }
        }
        alloc::set_enabled(false);
        (attempted, failed)
    }
}

fn fact_p50(done: &[Done], fact: impl Fn(&Done) -> f64) -> f64 {
    p50(done.iter().map(fact))
}

// ---- the run ----------------------------------------------------------------------------

/// A path next to the executable: inside the build output, so the run
/// writes nothing into the source tree or outside its checkout.
fn beside_exe(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark's own path");
    exe.parent().expect("the executable sits in a directory").join(name)
}

pub fn traced_run(args: &Args) -> u64 {
    let spec = args.spec;
    let mut out = Metrics::default();

    // Resident set per registered PE: first thing, while the allocator
    // has nothing to reuse.
    let corpus = Corpus::generate(args.seed, 0);
    let rss0 = stats::status_mb_now("VmRSS");
    let http = HttpServer::start(stack::build_server(&corpus)).expect("bind a loopback port");
    let pes = (crate::corpus::TENANTS * crate::corpus::PES_PER_TENANT) as f64;
    out.set("registry.kb_per_pe", (stats::status_mb_now("VmRSS") - rss0) * 1024.0 / pes);
    if spec.kind == Kind::StreamPush {
        probes::event_log(&mut out);
    }
    let inproc = InProcessTransport::new(stack::build_server(&corpus));
    let env = Env { seed: args.seed, http, server: inproc.server(), inproc, corpus };

    // Each probe under the workload whose layer it prices, the durable
    // ones in a scratch directory inside the build output.
    let tmp = beside_exe(&format!("bench_e2e_tmp_{}", std::process::id()));
    let mut ladder = match spec.kind {
        Kind::ServeSmall | Kind::EnactHeavy => {
            if spec.kind == Kind::EnactHeavy {
                probes::journal(&tmp, env.host(), &mut out);
                probes::multi(env.host(), &mut out);
            }
            let run = workload::run_spec(spec.kind).expect("run workloads have a run spec");
            run_ladder(&env, run, args.smoke)
        }
        Kind::StreamPush => stream_ladder(&env, args.smoke),
        Kind::RegistryMixed => {
            let tenants = &env.corpus.tenants;
            let registry =
                probes::registry(stack::build_registry(&env.corpus), &tenants[0], env.seed, &mut out);
            probes::read_during_write(&env.server, tenants, env.seed, &mut out);
            probes::wal(&tmp, env.seed, &mut out);
            probes::embed(&tenants[0], &mut out);
            registry_ladder(&env, registry, args.smoke)
        }
    };
    let _ = std::fs::remove_dir_all(&tmp);
    probes::json(&ladder.bodies, ladder.captured_ops, &mut out);
    if spec.kind == Kind::StreamPush {
        probes::page(&ladder.bodies, &mut out);
    }
    let script = ladder.script.clone();
    out.set(
        "script.parse_us",
        time_us(300, || {
            drop(std::hint::black_box(laminar_script::parse_script(&script).expect("script parses")))
        }),
    );

    let mut spans = Spans { epoch: Instant::now(), spans: Vec::new() };
    let cache0 = laminar_script::compile::cache_stats();
    let (attempted, failed) = ladder.run(&mut spans);
    let cache1 = laminar_script::compile::cache_stats();

    // Telescoping: a layer's self time is its depth minus the next one.
    let lat: Vec<f64> = ladder.depths.iter().map(|d| stats::median(&d.latencies_us())).collect();
    let allocs: Vec<f64> = ladder.depths.iter().map(|d| p50(d.allocs.iter().map(|a| a.0))).collect();
    let mut self_us = std::collections::BTreeMap::new();
    let mut self_allocs = std::collections::BTreeMap::new();
    for (k, d) in ladder.depths.iter().enumerate() {
        self_us.insert(d.layer, lat[k] - lat.get(k + 1).copied().unwrap_or(0.0));
        self_allocs.insert(d.layer, allocs[k] - allocs.get(k + 1).copied().unwrap_or(0.0));
    }
    let outer = &ladder.depths[0];
    if spec.kind == Kind::StreamPush {
        // The client's share of the delivery path, op by op: the op's
        // span minus what its transport-call spans cover.
        let client =
            p50(outer.latencies_us().iter().zip(&outer.transport_us).map(|(op, inside)| op - inside));
        self_us.insert("client", client);
        *self_us.entry("delivery").or_insert(0.0) -= client;
        let pages = outer.page_us.len().max(1) as f64;
        out.set("client.submit_rtt_us", stats::median(&outer.submit_us));
        out.set("client.page_rtt_us", stats::median(&outer.page_us));
        out.set("client.pages_per_op", pages / outer.done.len().max(1) as f64);
        out.set("client.events_per_page", outer.done.iter().map(|d| d.facts.events).sum::<f64>() / pages);
    }
    let d0 = lat[0];
    let d0_plain = p50(ladder.plain_done.iter().map(|d| us(d.measured.latency)));
    println!(
        "ladder for {} (seed {}): {} ops per depth in interleaved blocks of {}; a depth's time is its median",
        spec.name, args.seed, ladder.ops, ladder.block
    );
    for (k, d) in ladder.depths.iter().enumerate() {
        println!(
            "  D{k} {:<26} {:>10.1} us  allocs {:>8.0}  samples {}",
            d.name,
            lat[k],
            allocs[k],
            d.done.len()
        );
    }
    for layer in LAYERS {
        let t = self_us.get(layer).copied().unwrap_or(0.0);
        println!("  layer {:<14} self {:>10.1} us  {:>5.1} % of D0", layer, t, 100.0 * t / d0);
    }
    let sum: f64 = self_us.values().sum();
    println!("  self times sum to {sum:.1} us; D0 is {d0:.1} us (untraced {d0_plain:.1} us)");
    for layer in LAYERS {
        out.set(format!("{layer}.self_us"), self_us.get(layer).copied().unwrap_or(0.0));
        out.set(format!("{layer}.allocs_per_op"), self_allocs.get(layer).copied().unwrap_or(0.0));
    }
    out.set("trace.d0_us", d0);
    out.set("trace.overhead_ratio", d0 / d0_plain);
    out.set("alloc.count_per_op", allocs[0]);
    out.set("alloc.bytes_per_op", p50(outer.allocs.iter().map(|a| a.1)));

    // The outermost depth with tracing off: the timed op, one client.
    let plain_ms =
        stats::sorted(&ladder.plain_done.iter().map(|d| us(d.measured.latency) / 1e3).collect::<Vec<_>>());
    out.set("client.op_p90_ms", stats::percentile(&plain_ms, 90.0));
    out.set("client.op_p99_ms", stats::percentile(&plain_ms, 99.0));
    out.set("client.op_mean_ms", plain_ms.iter().sum::<f64>() / plain_ms.len().max(1) as f64);
    out.set("client.first_result_p50_ms", fact_p50(&ladder.plain_done, |d| us(d.first_result) / 1e3));
    let connections =
        if spec.tcp { outer.transport_calls as f64 / outer.done.len().max(1) as f64 } else { 0.0 };
    out.set("server.http.connections_per_op", connections);

    // Numbers the program publishes on its own result types, read at the
    // depth that returns them undiluted by the wire's millisecond fields.
    let at = |layer: &str| {
        ladder.depths.iter().find(|d| d.layer == layer).map(|d| d.done.as_slice()).unwrap_or(&[])
    };
    let (pool, engine, flow) = (at("engine.pool"), at("engine.run"), at("dataflow"));
    out.set("engine.pool.queue_wait_us", fact_p50(pool, |d| d.facts.queue_wait_us));
    out.set("script.compile_us", fact_p50(engine, |d| d.facts.compile_us));
    out.set("dataflow.plan_us", fact_p50(flow, |d| d.facts.plan_us));
    out.set("dataflow.enact_us", fact_p50(flow, |d| d.facts.enact_us));
    out.set("dataflow.collect_us", fact_p50(flow, |d| d.facts.collect_us));
    out.set("dataflow.first_output_us", fact_p50(flow, |d| d.facts.first_output_us));
    out.set("dataflow.items_per_op", fact_p50(flow, |d| d.facts.items));
    out.set("dataflow.events_per_op", fact_p50(flow, |d| d.facts.events));
    let enact_us = fact_p50(flow, |d| d.facts.enact_us);
    let items_per_s = if enact_us > 0.0 { fact_p50(flow, |d| d.facts.items) / enact_us * 1e6 } else { 0.0 };
    out.set("dataflow.enact_items_per_s", items_per_s);
    let (hits, misses) = (cache1.0 - cache0.0, cache1.1 - cache0.1);
    out.set("script.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);

    write_trace(args, &ladder, &spans, &lat, &allocs, &out);
    out.report(PER_LAYER, attempted, failed);
    failed
}

/// Spans and per-depth counts, kept in memory until now.
fn write_trace(args: &Args, ladder: &Ladder, spans: &Spans, lat: &[f64], allocs: &[f64], metrics: &Metrics) {
    let depths: Value = ladder
        .depths
        .iter()
        .enumerate()
        .map(|(k, d)| {
            jobj! {
                "depth" => k,
                "name" => d.name,
                "layer" => d.layer,
                "ops" => d.done.len(),
                "us" => lat[k],
                "allocs" => allocs[k],
                "alloc_bytes" => p50(d.allocs.iter().map(|a| a.1)),
                "transport_calls" => d.transport_calls as i64
            }
        })
        .collect();
    let span_values: Value = spans
        .spans
        .iter()
        .map(|s| {
            jobj! {
                "op_id" => s.op_id as i64,
                "name" => s.name.as_str(),
                "parent" => s.parent.map_or(Value::Null, Value::from),
                "start_ns" => s.start_ns as i64,
                "end_ns" => s.end_ns as i64
            }
        })
        .collect();
    let trace = jobj! {
        "workload" => args.spec.name,
        "seed" => args.seed as i64,
        "op_id" => "depth << 32 | op index; an op's child spans share it",
        "depths" => depths,
        "metrics" => metrics.to_value(PER_LAYER),
        "spans" => span_values
    };
    let path = beside_exe(&format!("trace-{}.json", args.spec.name));
    match std::fs::write(&path, laminar_json::to_string(&trace)) {
        Ok(()) => println!("trace written to {} ({} spans)", path.display(), spans.spans.len()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
