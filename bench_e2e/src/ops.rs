//! The four workloads' operations, each available at every *entry depth*
//! of the stack: the timed run drives the outermost one (what a user
//! calls), the traced run replays the same seeded sequence one public
//! function deeper each time so a layer's self time falls out by
//! subtraction. Every depth ends in the same reference check.
//!
//! An op stamps its own start and end around the call into the program,
//! so neither building the request nor checking the result is measured.

use crate::alloc;
use crate::corpus::{fresh_pe, PeSpec, Query, QueryPool, Rng, Tenant};
use crate::oracle::{self, Hit, RunView, SensorReference};
use crate::stack::{Workflow, BEAT, RUNNER};
use laminar_client::{web, LaminarClient, RunConfig, RunTarget, Transport};
use laminar_dataflow::mapping::{Mapping, RunResult, SimpleMapping};
use laminar_dataflow::{RunEvent, RunObserver, RunOptions, WorkflowGraph};
use laminar_engine::{ExecutionEngine, ExecutionOutput, ExecutionRequest};
use laminar_json::{jobj, Value};
use laminar_registry::service::EntityKey;
use laminar_registry::{QueryType, Registry, SearchOptions, SearchType};
use laminar_server::{ApiRequest, ApiResponse, LaminarServer, Method};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// An op slower than this is failed (ISSUE: "exceeds 30 s").
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Start stamp plus allocation counters; `stop` closes the measurement.
pub struct Meter {
    t0: Instant,
    a0: (u64, u64),
}

#[derive(Clone, Copy)]
pub struct Measured {
    pub started: Instant,
    pub latency: Duration,
    /// Allocator calls / bytes during the op, process-wide. Zero unless
    /// the tracing-only counting allocator is switched on.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Meter {
    pub fn start() -> Meter {
        Meter { a0: alloc::snapshot(), t0: Instant::now() }
    }

    pub fn stop(self) -> Measured {
        let latency = self.t0.elapsed();
        let a1 = alloc::snapshot();
        Measured { started: self.t0, latency, allocs: a1.0 - self.a0.0, alloc_bytes: a1.1 - self.a0.1 }
    }
}

/// Numbers the program already publishes on its public result types,
/// read (not re-measured) for the per-layer report. Microseconds unless
/// named otherwise; zero where a depth or op kind has none.
#[derive(Clone, Copy, Default)]
pub struct Facts {
    pub queue_wait_us: f64,
    pub plan_us: f64,
    pub enact_us: f64,
    pub collect_us: f64,
    pub compile_us: f64,
    pub first_output_us: f64,
    pub items: f64,
    pub events: f64,
    pub embed_us: f64,
    pub rank_us: f64,
    /// Write pairs: the `register_pe` half of the op.
    pub register_us: f64,
}

/// Which step of the `registry_mixed` cycle an op was.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    Semantic,
    Text,
    Code,
    Write,
}

pub struct Done {
    pub measured: Measured,
    /// Op start to the first result in the caller's hands. For the
    /// synchronous ops the first result *is* the response.
    pub first_result: Duration,
    pub facts: Facts,
    /// `registry_mixed` only.
    pub step: Option<Step>,
}

impl Done {
    fn sync(measured: Measured, facts: Facts) -> Done {
        Done { measured, first_result: measured.latency, facts, step: None }
    }
}

pub trait Op {
    /// Run op number `i` of the seeded sequence and check its result.
    fn run(&mut self, i: u64) -> Result<Done, String>;
}

// ---- run workloads: serve_small, enact_heavy -----------------------------

pub enum RunCheck {
    IsPrime,
    Sensor(SensorReference),
}

/// One synchronous run of a registered workflow.
#[derive(Clone)]
pub struct RunSpec {
    pub workflow: Workflow,
    pub iterations: i64,
    pub check: Arc<RunCheck>,
}

impl RunSpec {
    fn check(&self, view: &RunView) -> Result<(), String> {
        match &*self.check {
            RunCheck::IsPrime => oracle::check_isprime(self.iterations, view),
            RunCheck::Sensor(reference) => reference.check(view),
        }
    }

    fn check_output(&self, out: &ExecutionOutput) -> Result<(), String> {
        let windows = out.outputs.get("WindowStats.output").and_then(Value::as_array).unwrap_or(&[]);
        self.check(&RunView { printed: &out.printed, processed: &out.processed, windows })
    }

    fn check_result(&self, result: &RunResult) -> Result<(), String> {
        self.check(&RunView {
            printed: &result.printed,
            processed: &result.stats.processed,
            windows: result.port_values("WindowStats", "output"),
        })
    }

    /// The request the server's route builds for this run (stored
    /// source, workflow name), for the depths below the route.
    pub fn request(&self, stored_source: &str) -> ExecutionRequest {
        ExecutionRequest::simple(RUNNER, stored_source, self.iterations).with_workflow(self.workflow.entry)
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn output_facts(out: &ExecutionOutput) -> Facts {
    Facts {
        queue_wait_us: us(out.queue_wait),
        plan_us: us(out.stages.plan),
        enact_us: us(out.stages.enact),
        collect_us: us(out.stages.collect),
        compile_us: us(out.stages.compile),
        first_output_us: out.first_output.map_or(0.0, us),
        items: out.processed.values().sum::<u64>() as f64,
        events: out.events as f64,
        ..Facts::default()
    }
}

fn result_facts(result: &RunResult) -> Facts {
    let stats = &result.stats;
    Facts {
        plan_us: us(stats.timings.plan),
        enact_us: us(stats.timings.enact),
        collect_us: us(stats.timings.collect),
        compile_us: us(stats.timings.compile),
        first_output_us: stats.first_output.map_or(0.0, us),
        items: stats.processed.values().sum::<u64>() as f64,
        events: stats.events as f64,
        ..Facts::default()
    }
}

fn api_error(resp: &ApiResponse) -> String {
    format!("HTTP {}: {}", resp.status, laminar_json::to_string(&resp.body))
}

/// `LaminarClient::run_registered` — over TCP or in-process, as the
/// client's transport decides.
pub struct ClientRun {
    pub client: LaminarClient,
    pub spec: RunSpec,
}

impl Op for ClientRun {
    fn run(&mut self, _i: u64) -> Result<Done, String> {
        let meter = Meter::start();
        let out =
            self.client.run_registered(self.spec.workflow.entry, RunConfig::iterations(self.spec.iterations));
        let measured = meter.stop();
        let out = out.map_err(|e| e.to_string())?;
        self.spec.check_output(&out)?;
        Ok(Done::sync(measured, output_facts(&out)))
    }
}

/// `LaminarServer::handle` with the request the client sends.
pub struct HandleRun {
    pub server: Arc<LaminarServer>,
    pub request: ApiRequest,
    pub spec: RunSpec,
}

impl Op for HandleRun {
    fn run(&mut self, _i: u64) -> Result<Done, String> {
        let meter = Meter::start();
        let resp = self.server.handle(&self.request);
        let measured = meter.stop();
        if !resp.is_ok() {
            return Err(api_error(&resp));
        }
        let out = ExecutionOutput::from_value(&resp.body).ok_or("malformed execution output")?;
        self.spec.check_output(&out)?;
        Ok(Done::sync(measured, output_facts(&out)))
    }
}

/// `EnginePool::run_sync` with the request the route resolves.
pub struct PoolRun {
    pub server: Arc<LaminarServer>,
    pub request: ExecutionRequest,
    pub spec: RunSpec,
}

impl Op for PoolRun {
    fn run(&mut self, _i: u64) -> Result<Done, String> {
        let request = self.request.clone();
        let meter = Meter::start();
        let out = self.server.pool().run_sync(RUNNER, request);
        let measured = meter.stop();
        let out = out.map_err(|e| e.to_string())?;
        self.spec.check_output(&out)?;
        Ok(Done::sync(measured, output_facts(&out)))
    }
}

/// `ExecutionEngine::run` on a fork, as a pool worker calls it.
pub struct EngineRun {
    pub engine: ExecutionEngine,
    pub request: ExecutionRequest,
    pub spec: RunSpec,
}

impl Op for EngineRun {
    fn run(&mut self, _i: u64) -> Result<Done, String> {
        let meter = Meter::start();
        let out = self.engine.run(&self.request);
        let measured = meter.stop();
        let out = out.map_err(|e| e.to_string())?;
        self.spec.check_output(&out)?;
        Ok(Done::sync(measured, output_facts(&out)))
    }
}

/// `SimpleMapping.execute` on the pre-built graph: enactment proper.
pub struct MappingRun {
    pub graph: WorkflowGraph,
    pub options: RunOptions,
    pub spec: RunSpec,
}

impl Op for MappingRun {
    fn run(&mut self, _i: u64) -> Result<Done, String> {
        let meter = Meter::start();
        let result = SimpleMapping.execute(&self.graph, &self.options);
        let measured = meter.stop();
        let result = result.map_err(|e| e.to_string())?;
        self.spec.check_result(&result)?;
        Ok(Done::sync(measured, result_facts(&result)))
    }
}

// ---- stream_push ----------------------------------------------------------

fn stream_done(
    measured: Measured,
    first: Option<Duration>,
    check: impl FnOnce() -> Result<(), String>,
    facts: Facts,
) -> Result<Done, String> {
    check()?;
    let first_result = first.ok_or("stream carried no output event")?;
    Ok(Done { measured, first_result, facts, step: None })
}

/// `submit(events = true)` then drain `event_stream_push` to the seal.
pub struct ClientStream {
    pub client: LaminarClient,
    pub iterations: i64,
}

impl Op for ClientStream {
    fn run(&mut self, _i: u64) -> Result<Done, String> {
        let mut events = Vec::with_capacity(self.iterations as usize + 8);
        let mut first = None;
        let meter = Meter::start();
        let job = self
            .client
            .submit(
                RunTarget::Registered(BEAT.entry.to_string()),
                RunConfig::iterations(self.iterations).with_events(true),
            )
            .map_err(|e| e.to_string())?;
        for event in self.client.event_stream_push(job, OP_TIMEOUT) {
            let event = event.map_err(|e| e.to_string())?;
            if first.is_none() && event["type"].as_str() == Some("output") {
                first = Some(meter.t0.elapsed());
            }
            events.push(event);
        }
        // `events`: how many the wire carried, markers included.
        let facts = Facts { events: events.len() as f64, ..Facts::default() };
        stream_done(meter.stop(), first, || oracle::check_beat_wire(self.iterations, &events), facts)
    }
}

/// Observer for the depths below the pool: keeps the output values and
/// stamps the first one.
#[derive(Default)]
struct OutputTap {
    outputs: Mutex<Vec<i64>>,
    first: Mutex<Option<Instant>>,
}

impl RunObserver for OutputTap {
    fn on_event(&self, _seq: u64, event: &RunEvent) {
        if let RunEvent::Output { value, .. } = event {
            let mut outputs = self.outputs.lock().expect("observer lock");
            if outputs.is_empty() {
                *self.first.lock().expect("observer lock") = Some(Instant::now());
            }
            outputs.push(value.as_i64().unwrap_or(i64::MIN));
        }
    }
}

impl OutputTap {
    fn finish(&self, meter: Meter, iterations: i64, facts: Facts) -> Result<Done, String> {
        let first = self.first.lock().expect("observer lock").map(|at| at.duration_since(meter.t0));
        let outputs = self.outputs.lock().expect("observer lock");
        stream_done(meter.stop(), first, || oracle::check_beat_outputs(iterations, &outputs), facts)
    }
}

/// `ExecutionEngine::run_streaming` with a bare observer.
pub struct EngineStream {
    pub engine: ExecutionEngine,
    pub request: ExecutionRequest,
    pub iterations: i64,
}

impl Op for EngineStream {
    fn run(&mut self, _i: u64) -> Result<Done, String> {
        let tap = Arc::new(OutputTap::default());
        let meter = Meter::start();
        let out = self.engine.run_streaming(&self.request, Arc::clone(&tap) as Arc<dyn RunObserver>);
        let out = out.map_err(|e| e.to_string())?;
        tap.finish(meter, self.iterations, output_facts(&out))
    }
}

/// `SimpleMapping.execute_observed` on the pre-built graph.
pub struct MappingStream {
    pub graph: WorkflowGraph,
    pub options: RunOptions,
    pub iterations: i64,
}

impl Op for MappingStream {
    fn run(&mut self, _i: u64) -> Result<Done, String> {
        let tap = Arc::new(OutputTap::default());
        let meter = Meter::start();
        let result = SimpleMapping.execute_observed(
            &self.graph,
            &self.options,
            Some(Arc::clone(&tap) as Arc<dyn RunObserver>),
        );
        let result = result.map_err(|e| e.to_string())?;
        tap.finish(meter, self.iterations, result_facts(&result))
    }
}

// ---- registry_mixed ---------------------------------------------------------

/// 4 semantic, 3 text, 2 code-completion searches and 1 write pair,
/// spread so that no mode runs twice in a row.
pub const CYCLE: [Step; 10] = [
    Step::Semantic,
    Step::Text,
    Step::Semantic,
    Step::Code,
    Step::Semantic,
    Step::Text,
    Step::Semantic,
    Step::Code,
    Step::Text,
    Step::Write,
];

/// One client's seeded walk through the cycle. Building it again from
/// the same tenant and seed replays the same sequence at another depth.
pub struct MixedPlan {
    pub user: String,
    salt: usize,
    pool: QueryPool,
    rng: Rng,
    last_id: i64,
}

/// Which step of the cycle op `i` is.
pub fn step_of(i: u64) -> Step {
    CYCLE[(i % CYCLE.len() as u64) as usize]
}

impl MixedPlan {
    /// `salt` goes into the names of the PEs the write pairs register
    /// and nowhere else. Names are global in the registry, and the
    /// process-wide compile cache keys on the source, so every client —
    /// and every ladder depth replaying the same sequence — needs its own.
    pub fn new(tenant: &Tenant, salt: usize, seed: u64) -> MixedPlan {
        let mut rng = Rng::new(seed ^ 0x00C1_1E17);
        let pool = tenant.query_pool(&mut rng);
        MixedPlan { user: tenant.user.clone(), salt, pool, rng, last_id: 0 }
    }

    /// The query of search op `i`. Queries rotate: each round of the
    /// cycle starts one further into each pool.
    fn query(&self, i: u64) -> &Query {
        let step = step_of(i);
        let at = (i % CYCLE.len() as u64) as usize;
        let round = (i / CYCLE.len() as u64) as usize;
        let nth = CYCLE[..at].iter().filter(|s| **s == step).count();
        let per_round = CYCLE.iter().filter(|s| **s == step).count();
        let queries = match step {
            Step::Semantic => &self.pool.semantic,
            Step::Text => &self.pool.text,
            Step::Code | Step::Write => &self.pool.code,
        };
        &queries[(round * per_round + nth) % queries.len()]
    }

    /// The PE of write op `i`.
    fn fresh(&mut self, i: u64) -> PeSpec {
        fresh_pe(self.salt, i, &mut self.rng)
    }

    /// A write pair must hand out fresh, growing ids.
    fn check_id(&mut self, id: i64) -> Result<(), String> {
        if id <= self.last_id {
            return Err(format!("register_pe returned id {id} after {}", self.last_id));
        }
        self.last_id = id;
        Ok(())
    }
}

fn modes(step: Step) -> (SearchType, QueryType) {
    match step {
        Step::Text => (SearchType::Both, QueryType::Text),
        Step::Code => (SearchType::Pe, QueryType::Code),
        _ => (SearchType::Pe, QueryType::Text),
    }
}

fn wire_hits(body: &Value) -> impl Iterator<Item = Hit<'_>> {
    body["hits"].as_array().unwrap_or(&[]).iter().map(|h| Hit {
        name: h["name"].as_str().unwrap_or(""),
        description: h["description"].as_str().unwrap_or(""),
        score: h["score"].as_f64().unwrap_or(f64::NAN),
    })
}

fn search_facts(body: &Value) -> Facts {
    Facts {
        embed_us: body["embed_us"].as_i64().unwrap_or(0) as f64,
        rank_us: body["rank_us"].as_i64().unwrap_or(0) as f64,
        ..Facts::default()
    }
}

fn mixed_done(measured: Measured, facts: Facts, step: Step) -> Done {
    Done { measured, first_result: measured.latency, facts, step: Some(step) }
}

/// The client functions: `search_registry_detailed`, `register_pe`,
/// `remove_pe`.
pub struct ClientMixed {
    pub client: LaminarClient,
    pub plan: MixedPlan,
}

impl Op for ClientMixed {
    fn run(&mut self, i: u64) -> Result<Done, String> {
        let step = step_of(i);
        if step == Step::Write {
            let pe = self.plan.fresh(i);
            let meter = Meter::start();
            let id = self.client.register_pe(&pe.source, Some(&pe.description));
            let removed = id.is_ok().then(|| self.client.remove_pe(&pe.name));
            let measured = meter.stop();
            let id = id.map_err(|e| e.to_string())?;
            removed.expect("attempted after a successful register").map_err(|e| e.to_string())?;
            self.plan.check_id(id)?;
            return Ok(mixed_done(measured, Facts::default(), step));
        }
        let query = self.plan.query(i);
        let (search_type, query_type) = modes(step);
        let meter = Meter::start();
        let body = self.client.search_registry_detailed(
            &query.text,
            search_type.as_str(),
            query_type.as_str(),
            None,
        );
        let measured = meter.stop();
        let body = body.map_err(|e| e.to_string())?;
        oracle::check_hits(&query.expect, wire_hits(&body))?;
        Ok(mixed_done(measured, search_facts(&body), step))
    }
}

/// The same requests against `LaminarServer::handle`.
pub struct HandleMixed {
    pub server: Arc<LaminarServer>,
    pub plan: MixedPlan,
}

impl Op for HandleMixed {
    fn run(&mut self, i: u64) -> Result<Done, String> {
        let step = step_of(i);
        if step == Step::Write {
            let pe = self.plan.fresh(i);
            let user = &self.plan.user;
            let imports: Value = web::analyze_imports(&pe.source).into_iter().map(Value::Str).collect();
            let add = web::post(
                format!("/registry/{user}/pe/add"),
                jobj! {
                    "code" => web::serialize_code(&pe.source),
                    "imports" => imports,
                    "description" => pe.description.as_str()
                },
            );
            let remove = web::delete(format!("/registry/{user}/pe/remove/name/{}", pe.name));
            let meter = Meter::start();
            let added = self.server.handle(&add);
            let removed = added.is_ok().then(|| self.server.handle(&remove));
            let measured = meter.stop();
            let id = added.body["peId"].as_i64().ok_or_else(|| api_error(&added))?;
            let removed = removed.expect("attempted after a successful add");
            if removed.body["removed"].as_bool() != Some(true) {
                return Err(api_error(&removed));
            }
            self.plan.check_id(id)?;
            return Ok(mixed_done(measured, Facts::default(), step));
        }
        let query = self.plan.query(i);
        let (search_type, query_type) = modes(step);
        let request = ApiRequest::new(
            Method::Get,
            format!("/registry/{}/search/{}/type/{}", self.plan.user, query.text, search_type.as_str()),
            jobj! { "queryType" => query_type.as_str() },
        );
        let meter = Meter::start();
        let resp = self.server.handle(&request);
        let measured = meter.stop();
        if !resp.is_ok() {
            return Err(api_error(&resp));
        }
        oracle::check_hits(&query.expect, wire_hits(&resp.body))?;
        Ok(mixed_done(measured, search_facts(&resp.body), step))
    }
}

/// `Registry::search_with` / `register_pe` / `remove_pe`, no server.
pub struct RegistryMixed {
    pub registry: Registry,
    pub plan: MixedPlan,
}

impl Op for RegistryMixed {
    fn run(&mut self, i: u64) -> Result<Done, String> {
        let step = step_of(i);
        if step == Step::Write {
            let pe = self.plan.fresh(i);
            let user = &self.plan.user;
            let key = EntityKey::Name(pe.name.clone());
            let meter = Meter::start();
            let added = self.registry.register_pe(user, &pe.source, Some(&pe.description));
            let register_us = us(meter.t0.elapsed());
            let removed = added.is_ok().then(|| self.registry.remove_pe(user, &key));
            let measured = meter.stop();
            let id = added.map_err(|e| e.to_string())?.pe_id;
            removed.expect("attempted after a successful register").map_err(|e| e.to_string())?;
            self.plan.check_id(id)?;
            return Ok(mixed_done(measured, Facts { register_us, ..Facts::default() }, step));
        }
        let query = self.plan.query(i);
        let (search_type, query_type) = modes(step);
        let options = SearchOptions::default();
        let meter = Meter::start();
        let resp = self.registry.search_with(&self.plan.user, &query.text, search_type, query_type, &options);
        let measured = meter.stop();
        let resp = resp.map_err(|e| e.to_string())?;
        let hits =
            resp.hits.iter().map(|h| Hit { name: &h.name, description: &h.description, score: h.score });
        oracle::check_hits(&query.expect, hits)?;
        let facts =
            Facts { embed_us: resp.embed_us as f64, rank_us: resp.rank_us as f64, ..Facts::default() };
        Ok(mixed_done(measured, facts, step))
    }
}

// ---- transport tap -------------------------------------------------------------

/// One client → transport call, as [`Tap`] saw it.
pub struct Call {
    pub path: String,
    pub started: Instant,
    pub elapsed: Duration,
    /// The request and response, kept only by a body-keeping tap.
    pub bodies: Option<(ApiRequest, Value)>,
}

/// A `Transport` that forwards to another and records each call: the
/// traced run's child spans (`submit`, `page[i]`), call counts per op,
/// and the real request/response bodies the JSON probe re-serialises.
pub struct Tap {
    inner: Box<dyn Transport>,
    calls: Arc<Mutex<Vec<Call>>>,
    keep_bodies: bool,
}

impl Tap {
    pub fn new(inner: Box<dyn Transport>, keep_bodies: bool) -> (Tap, Arc<Mutex<Vec<Call>>>) {
        let calls = Arc::new(Mutex::new(Vec::new()));
        (Tap { inner, calls: Arc::clone(&calls), keep_bodies }, calls)
    }
}

impl Transport for Tap {
    fn call(&self, request: &ApiRequest) -> Result<ApiResponse, String> {
        let started = Instant::now();
        let response = self.inner.call(request);
        let elapsed = started.elapsed();
        let bodies = match &response {
            Ok(resp) if self.keep_bodies => Some((request.clone(), resp.body.clone())),
            _ => None,
        };
        self.calls.lock().expect("tap lock").push(Call {
            path: request.path.clone(),
            started,
            elapsed,
            bodies,
        });
        response
    }

    fn endpoint(&self) -> String {
        self.inner.endpoint()
    }
}
