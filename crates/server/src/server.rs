//! The Service layer: business logic behind every Table-3 endpoint.
//!
//! Concurrency layout (DESIGN.md §3.2): the registry sits behind one
//! `RwLock` — read endpoints (GETs, search, completion) run concurrently,
//! writes take the short exclusive path — while executions go to an
//! [`EnginePool`] whose workers run in parallel. `handle` takes `&self`,
//! so any number of connection handlers can route requests at once.

use crate::api::{ApiRequest, ApiResponse, Method};
use laminar_engine::{EnginePool, ExecutionEngine, ExecutionRequest, JobResult, PoolError, RunConfig};
use laminar_json::{jobj, parse, write_value, Value};
use laminar_registry::{EntityKey, QueryType, Registry, RegistryError, SearchOptions, SearchType};
use parking_lot::RwLock;

/// Default engine-pool sizing: enough workers to overlap provisioning
/// sleeps on small machines without oversubscribing big ones.
pub(crate) const DEFAULT_POOL_WORKERS: usize = 4;
/// Default admission-control bound on queued (not yet running) jobs.
pub(crate) const DEFAULT_QUEUE_CAPACITY: usize = 256;
/// The most instances a run may ask for: a parallel mapping runs one
/// thread per instance, so the bound keeps one request from exhausting
/// the server.
const MAX_PROCESSES: usize = 256;

/// What a route answers with. Every route builds the tree its callers
/// index into, except an event page: that one is sent far more often than
/// it is looked into, so its route writes the JSON text once, the HTTP
/// edge sends it as it is, and only [`LaminarServer::handle`] parses it.
pub(crate) enum Routed {
    Tree(ApiResponse),
    /// The body of a 200, as JSON text.
    Page(String),
}

/// The Laminar server: registry + engine worker pool behind the REST API.
pub struct LaminarServer {
    registry: RwLock<Registry>,
    pool: EnginePool,
}

impl LaminarServer {
    /// Server with an in-memory registry and an instant (test-speed)
    /// engine pool.
    pub fn in_memory() -> LaminarServer {
        LaminarServer::new(Registry::in_memory(), ExecutionEngine::instant())
    }

    /// Server from parts (durable registry, calibrated engine…) with the
    /// default pool sizing. The engine is the prototype every pool worker
    /// is forked from; hosts registered on it are shared by all workers.
    pub fn new(registry: Registry, engine: ExecutionEngine) -> LaminarServer {
        LaminarServer::with_pool(registry, engine, DEFAULT_POOL_WORKERS, DEFAULT_QUEUE_CAPACITY)
    }

    /// Server with explicit engine-pool sizing (worker count and queue
    /// admission bound).
    pub fn with_pool(
        registry: Registry,
        engine: ExecutionEngine,
        workers: usize,
        queue_capacity: usize,
    ) -> LaminarServer {
        LaminarServer {
            registry: RwLock::new(registry),
            pool: EnginePool::start(engine, workers, queue_capacity),
        }
    }

    /// Server whose engine pool journals checkpointed jobs under
    /// `journal_root`: interrupted jobs are auto-resumed on start and can
    /// be resumed explicitly via `POST .../job/{id}/resume`.
    pub fn with_durable_pool(
        registry: Registry,
        engine: ExecutionEngine,
        workers: usize,
        queue_capacity: usize,
        journal_root: &std::path::Path,
    ) -> Result<LaminarServer, laminar_engine::JournalError> {
        Ok(LaminarServer {
            registry: RwLock::new(registry),
            pool: EnginePool::start_durable(engine, workers, queue_capacity, journal_root)?,
        })
    }

    /// The engine worker pool (introspection, tests).
    pub fn pool(&self) -> &EnginePool {
        &self.pool
    }

    /// Controller entry point: route a request (paper §3.2.1).
    pub fn handle(&self, req: &ApiRequest) -> ApiResponse {
        match self.route(req) {
            Routed::Tree(response) => response,
            // In-process callers and the TCP ones see the same bytes by
            // construction: this is the text the edge would have sent.
            Routed::Page(text) => ApiResponse::ok(parse(&text).expect("an event page is written as JSON")),
        }
    }

    /// [`LaminarServer::handle`] with the body in the form its route made
    /// it — the HTTP edge's entry.
    pub(crate) fn route(&self, req: &ApiRequest) -> Routed {
        let segments = req.segments();
        let result = match (req.method, segments.as_slice()) {
            // ---- User controller -----------------------------------------
            (Method::Get, ["auth", "all"]) => self.users_all(),
            (Method::Post, ["auth", "register"]) => self.auth_register(&req.body),
            (Method::Post, ["auth", "login"]) => self.auth_login(&req.body),

            // ---- PE controller -------------------------------------------
            (Method::Post, ["registry", user, "pe", "add"]) => self.pe_add(user, &req.body),
            (Method::Get, ["registry", user, "pe", "all"]) => self.pe_all(user),
            (Method::Get, ["registry", user, "pe", "id", id]) => self.pe_get(user, &EntityKey::parse(id)),
            (Method::Get, ["registry", user, "pe", "name", name]) => {
                self.pe_get(user, &EntityKey::Name(name.to_string()))
            }
            (Method::Delete, ["registry", user, "pe", "remove", "id", id]) => {
                self.pe_remove(user, &EntityKey::parse(id))
            }
            (Method::Delete, ["registry", user, "pe", "remove", "name", name]) => {
                self.pe_remove(user, &EntityKey::Name(name.to_string()))
            }

            // ---- Workflow controller ---------------------------------------
            (Method::Post, ["registry", user, "workflow", "add"]) => self.workflow_add(user, &req.body),
            (Method::Get, ["registry", user, "workflow", "all"]) => self.workflow_all(user),
            (Method::Get, ["registry", user, "workflow", "id", id]) => {
                self.workflow_get(user, &EntityKey::parse(id))
            }
            (Method::Get, ["registry", user, "workflow", "name", name]) => {
                self.workflow_get(user, &EntityKey::Name(name.to_string()))
            }
            (Method::Get, ["registry", user, "workflow", "pes", "id", id]) => {
                self.workflow_pes(user, &EntityKey::parse(id))
            }
            (Method::Get, ["registry", user, "workflow", "pes", "name", name]) => {
                self.workflow_pes(user, &EntityKey::Name(name.to_string()))
            }
            (Method::Delete, ["registry", user, "workflow", "remove", "id", id]) => {
                self.workflow_remove(user, &EntityKey::parse(id))
            }
            (Method::Delete, ["registry", user, "workflow", "remove", "name", name]) => {
                self.workflow_remove(user, &EntityKey::Name(name.to_string()))
            }
            (Method::Put, ["registry", user, "workflow", wid, "pe", pid]) => {
                self.workflow_link_pe(user, wid, pid)
            }

            // ---- Registry controller ----------------------------------------
            (Method::Get, ["registry", "stats"]) => Ok(self.registry.read().stats()),
            (Method::Get, ["registry", user, "all"]) => self.registry_all(user),
            // The query is free text and may itself hold `/`: it is every
            // segment between `search` and the final `type/{stype}` pair.
            // Runs of `/` and a leading or trailing one collapse, since
            // `segments()` drops empty segments.
            (Method::Get, ["registry", user, "search", query @ .., "type", stype]) if !query.is_empty() => {
                self.registry_search(user, &query.join("/"), stype, &req.body)
            }

            // ---- Execution controller ----------------------------------------
            (Method::Get, ["execution", "pool", "stats"]) => Ok(self.pool.stats().to_value()),
            (Method::Post, ["execution", user, "run"]) => self.execution_run(user, &req.body),
            (Method::Post, ["execution", user, "submit"]) => self.execution_submit(user, &req.body),
            (Method::Get, ["execution", user, "job", id, "status"]) => self.job_status(user, id),
            (Method::Get, ["execution", user, "job", id, "result"]) => self.job_result(user, id),
            (Method::Delete, ["execution", user, "job", id]) => self.job_cancel(user, id),
            (Method::Post, ["execution", user, "job", id, "resume"]) => self.job_resume(user, id),
            // `tail` is "events" or "events?since=<seq>&wait_ms=<ms>" —
            // the query stays inside the percent-decoded final segment.
            (Method::Get, ["execution", user, "job", id, tail]) if is_events_segment(tail) => {
                match self.job_events(user, id, tail) {
                    Ok(page) => return Routed::Page(page),
                    Err(e) => Err(e),
                }
            }

            _ => return Routed::Tree(ApiResponse::not_found(&req.path)),
        };
        Routed::Tree(match result {
            Ok(body) => ApiResponse::ok(body),
            Err(e) => ApiResponse::error(&e),
        })
    }

    // ---- user handlers -------------------------------------------------------

    fn users_all(&self) -> Result<Value, RegistryError> {
        Ok(Value::Array(self.registry.read().all_user_names().into_iter().map(Value::Str).collect()))
    }

    fn auth_register(&self, body: &Value) -> Result<Value, RegistryError> {
        let name = str_field(body, "userName")?;
        let password = str_field(body, "password")?;
        let user = self.registry.write().register_user(&name, &password)?;
        let mut v = Value::Null;
        v.set("userId", user.user_id).set("userName", user.user_name.as_str());
        Ok(v)
    }

    fn auth_login(&self, body: &Value) -> Result<Value, RegistryError> {
        let name = str_field(body, "userName")?;
        let password = str_field(body, "password")?;
        self.registry.read().login(&name, &password)?;
        let mut v = Value::Null;
        v.set("userName", name.as_str());
        Ok(v)
    }

    // ---- PE handlers ------------------------------------------------------------

    fn pe_add(&self, user: &str, body: &Value) -> Result<Value, RegistryError> {
        let code = str_field(body, "code")?;
        let description = body["description"].as_str();
        // The client ships code base64-pickled (paper §3.4.2); accept raw
        // source too for convenience.
        let source = laminar_registry::decode_code(&code).unwrap_or(code);
        let pe = self.registry.write().register_pe(user, &source, description)?;
        Ok(pe_summary(&pe))
    }

    fn pe_all(&self, user: &str) -> Result<Value, RegistryError> {
        Ok(self.registry.read().all_pes(user)?.iter().map(pe_summary).collect())
    }

    fn pe_get(&self, user: &str, key: &EntityKey) -> Result<Value, RegistryError> {
        let pe = self.registry.read().get_pe(user, key)?;
        let mut v = pe_summary(&pe);
        v.set("peCode", pe.pe_code.as_str())
            .set("peImports", Value::Array(pe.pe_imports.iter().map(|i| Value::Str(i.clone())).collect()));
        Ok(v)
    }

    fn pe_remove(&self, user: &str, key: &EntityKey) -> Result<Value, RegistryError> {
        self.registry.write().remove_pe(user, key)?;
        let mut v = Value::Null;
        v.set("removed", true);
        Ok(v)
    }

    // ---- workflow handlers ----------------------------------------------------------

    fn workflow_add(&self, user: &str, body: &Value) -> Result<Value, RegistryError> {
        let code = str_field(body, "code")?;
        let entry = str_field(body, "entryPoint")?;
        let description = body["description"].as_str();
        let source = laminar_registry::decode_code(&code).unwrap_or(code);
        let wf = self.registry.write().register_workflow(user, &source, &entry, description)?;
        Ok(wf_summary(&wf))
    }

    fn workflow_all(&self, user: &str) -> Result<Value, RegistryError> {
        Ok(self.registry.read().all_workflows(user)?.iter().map(wf_summary).collect())
    }

    fn workflow_get(&self, user: &str, key: &EntityKey) -> Result<Value, RegistryError> {
        let wf = self.registry.read().get_workflow(user, key)?;
        let mut v = wf_summary(&wf);
        v.set("workflowCode", wf.workflow_code.as_str());
        Ok(v)
    }

    fn workflow_pes(&self, user: &str, key: &EntityKey) -> Result<Value, RegistryError> {
        Ok(self.registry.read().pes_by_workflow(user, key)?.iter().map(pe_summary).collect())
    }

    fn workflow_remove(&self, user: &str, key: &EntityKey) -> Result<Value, RegistryError> {
        self.registry.write().remove_workflow(user, key)?;
        let mut v = Value::Null;
        v.set("removed", true);
        Ok(v)
    }

    fn workflow_link_pe(&self, user: &str, wid: &str, pid: &str) -> Result<Value, RegistryError> {
        let wid: i64 = wid.parse().map_err(|_| RegistryError::Invalid {
            field: "workflowId",
            message: "must be an integer".into(),
        })?;
        let pid: i64 = pid
            .parse()
            .map_err(|_| RegistryError::Invalid { field: "peId", message: "must be an integer".into() })?;
        self.registry.write().add_pe_to_workflow(user, wid, pid)?;
        let mut v = Value::Null;
        v.set("linked", true);
        Ok(v)
    }

    // ---- registry handlers -------------------------------------------------------------

    fn registry_all(&self, user: &str) -> Result<Value, RegistryError> {
        self.registry.read().dump(user)
    }

    fn registry_search(
        &self,
        user: &str,
        search: &str,
        stype: &str,
        body: &Value,
    ) -> Result<Value, RegistryError> {
        let search_type = SearchType::parse(stype).ok_or(RegistryError::Invalid {
            field: "type",
            message: format!("unknown search type '{stype}'"),
        })?;
        let query_type = match body["queryType"].as_str() {
            Some(q) => QueryType::parse(q).ok_or(RegistryError::Invalid {
                field: "queryType",
                message: format!("unknown query type '{q}'"),
            })?,
            None => QueryType::Text,
        };
        let mut opts = SearchOptions::default();
        if !body["limit"].is_null() {
            let limit = body["limit"].as_i64().filter(|l| (1..=10_000).contains(l)).ok_or(
                RegistryError::Invalid { field: "limit", message: "must be an integer in 1..=10000".into() },
            )?;
            opts.limit = limit as usize;
        }
        let started = std::time::Instant::now();
        let resp = self.registry.read().search_with(user, search, search_type, query_type, &opts)?;
        let search_us = started.elapsed().as_micros() as i64;
        let hits: Value = resp
            .hits
            .into_iter()
            .map(|h| {
                // Keys in byte order, so each insert appends.
                jobj! {
                    "auto" => h.auto_described,
                    "description" => h.description,
                    "id" => h.id,
                    "kind" => h.kind,
                    "name" => h.name,
                    "score" => h.score,
                }
            })
            .collect();
        let mut out = Value::Null;
        out.set("hits", hits)
            .set("search_us", search_us)
            .set("embed_us", resp.embed_us as i64)
            .set("rank_us", resp.rank_us as i64);
        Ok(out)
    }

    // ---- execution handlers -------------------------------------------------------------

    /// Resolve the request body into an [`ExecutionRequest`], fetching the
    /// prepared script when the body names a registered workflow. Takes only
    /// a short registry *read* lock — the enactment itself never holds any
    /// registry lock, so reads and other executions proceed concurrently.
    fn resolve_request(&self, user: &str, body: &Value) -> Result<ExecutionRequest, RegistryError> {
        let malformed =
            || RegistryError::Invalid { field: "request", message: "malformed execution request".into() };
        let run = RunConfig::from_envelope(body).ok_or_else(malformed)?;
        if run.processes > MAX_PROCESSES {
            return Err(RegistryError::Invalid {
                field: "processes",
                message: format!("must be at most {MAX_PROCESSES}"),
            });
        }
        // `workflow` may name a registered workflow instead of shipping
        // source — the serverless retrieve-then-run path (paper §5.2). Its
        // script was prepared at registration; the run prepares nothing.
        if body["source"].is_null() {
            let key = EntityKey::from_value(&body["workflow"]).ok_or(RegistryError::Invalid {
                field: "workflow",
                message: "request needs either 'source' or a registered 'workflow' id/name".into(),
            })?;
            let (name, script) = self.registry.read().workflow_to_run(user, &key)?;
            return Ok(ExecutionRequest::with_script(user, script, &name, run));
        }
        // An inline source is prepared here, where it enters: one the
        // parser or compiler refuses is this request's 400, not a job that
        // fails on a worker.
        let source = body["source"].as_str().ok_or_else(malformed)?;
        let mut req = ExecutionRequest::new(user, source, run);
        if let Err(rejected) = &req.script {
            return Err(RegistryError::Invalid { field: "source", message: rejected.error.to_string() });
        }
        req.workflow = body["workflow"].as_str().map(str::to_string);
        Ok(req)
    }

    fn pool_error(&self, e: PoolError) -> RegistryError {
        match e {
            // Both 429 shapes carry a concrete backoff: the rate limiter
            // knows when the tenant's next token lands, and a full queue
            // hints from live depth × observed mean runtime.
            PoolError::QueueFull { .. } => RegistryError::Throttled {
                message: e.to_string(),
                retry_after_ms: self.pool.queue_retry_hint_ms(),
            },
            PoolError::RateLimited { retry_after_ms } => {
                RegistryError::Throttled { message: e.to_string(), retry_after_ms }
            }
            PoolError::ShutDown => RegistryError::Busy(e.to_string()),
            PoolError::Failed(m) => RegistryError::Invalid { field: "execution", message: m },
            // Distinct from Failed: a cancelled sync run answers the 409
            // "Cancelled" envelope, never the generic 400 failure shape.
            PoolError::Cancelled(_) => RegistryError::Cancelled(e.to_string()),
            PoolError::Unknown(id) => RegistryError::NotFound { entity: "Job", key: id.to_string() },
        }
    }

    /// The synchronous endpoint: a thin wrapper over submit + wait.
    /// Unbounded (run-until-cancelled) inputs are rejected here: a run
    /// with no finish line can only be consumed through the async
    /// submit/events path and stopped via `DELETE .../job/{id}`.
    fn execution_run(&self, user: &str, body: &Value) -> Result<Value, RegistryError> {
        let req = self.resolve_request(user, body)?;
        if matches!(req.run.input, laminar_engine::RunInput::Unbounded { .. }) {
            return Err(RegistryError::Invalid {
                field: "input",
                message: "unbounded input never completes; use POST .../submit and stop it with \
                          DELETE .../job/{id}"
                    .into(),
            });
        }
        let output = self.pool.run_sync(user, req).map_err(|e| self.pool_error(e))?;
        Ok(output.to_value())
    }

    /// The asynchronous submit: returns a job id immediately (or 429 when
    /// admission control rejects the job).
    fn execution_submit(&self, user: &str, body: &Value) -> Result<Value, RegistryError> {
        let req = self.resolve_request(user, body)?;
        let id = self.pool.submit(user, req).map_err(|e| self.pool_error(e))?;
        let mut v = Value::Null;
        v.set("jobId", id).set("status", "queued");
        Ok(v)
    }

    fn parse_job_id(id: &str) -> Result<i64, RegistryError> {
        id.parse()
            .map_err(|_| RegistryError::Invalid { field: "jobId", message: "must be an integer".into() })
    }

    /// Poll a job's lifecycle phase and metrics.
    fn job_status(&self, user: &str, id: &str) -> Result<Value, RegistryError> {
        let id = Self::parse_job_id(id)?;
        let info = self
            .pool
            .status(user, id)
            .ok_or(RegistryError::NotFound { entity: "Job", key: id.to_string() })?;
        Ok(info.to_value())
    }

    /// Read a page of a job's sequenced event log, as the JSON text of the
    /// response body. Cursor protocol:
    /// `?since=<seq>` names the first wanted sequence number (default 0);
    /// the response's `next` is the cursor for the next
    /// poll, `first` the oldest retained seq (truncation detection), and
    /// `closed` flags a complete stream (its last event is the
    /// `done`/`failed` marker). When eviction overtook the cursor but a
    /// checkpoint survived, `retained_epoch` names the epoch whose marker
    /// the page restarts at — engine-side recovery for checkpointed jobs.
    /// Touches only the pool — never the registry lock — so event polling
    /// overlaps every other endpoint.
    ///
    /// This is the one encoder of a page: the pool hands over the events
    /// as text and the envelope is written around them, keys in the
    /// sorted order a `Value` object would serialize them in.
    fn job_events(&self, user: &str, id: &str, tail: &str) -> Result<String, RegistryError> {
        let id = Self::parse_job_id(id)?;
        let since = events_query(tail, "since")?;
        // Long-poll: `wait_ms` parks the handler on the job log's condvar
        // until something lands past the cursor, the stream seals, or the
        // wait elapses. 0 (the default) is a plain poll; the cap keeps a
        // parked connection thread bounded.
        let wait_ms = events_query(tail, "wait_ms")?;
        let wait = std::time::Duration::from_millis(wait_ms.min(LONG_POLL_MAX_WAIT_MS));
        let page = self
            .pool
            .events_text_wait(user, id, since, wait)
            .ok_or(RegistryError::NotFound { entity: "Job", key: id.to_string() })?;
        let mut text = String::with_capacity(page.events.len() + 128);
        text.push_str(if page.closed { "{\"closed\":true" } else { "{\"closed\":false" });
        text.push_str(",\"events\":");
        text.push_str(&page.events);
        let mut int = |key: &str, n: i64| {
            text.push_str(key);
            write_value(&mut text, &Value::Int(n));
        };
        int(",\"first\":", page.first as i64);
        int(",\"jobId\":", id);
        int(",\"next\":", page.next as i64);
        if let Some(epoch) = page.retained_epoch {
            int(",\"retained_epoch\":", epoch as i64);
        }
        text.push('}');
        Ok(text)
    }

    /// Poll a job's result. While the job is pending this returns the
    /// status envelope (no `outputs` key); once done it returns the
    /// execution output with the job metrics merged in; a failed job
    /// surfaces the standard execution error envelope; a cancelled job
    /// answers its status envelope (`status: "cancelled"`, 200 — not an
    /// error: consume what it produced through `/events`).
    fn job_result(&self, user: &str, id: &str) -> Result<Value, RegistryError> {
        let id = Self::parse_job_id(id)?;
        let result = self
            .pool
            .result(user, id)
            .ok_or(RegistryError::NotFound { entity: "Job", key: id.to_string() })?;
        match result {
            JobResult::Pending(info) | JobResult::Cancelled(info) => Ok(info.to_value()),
            JobResult::Done(output, info) => {
                let mut v = output.to_value();
                v.set("jobId", info.id).set("status", "done");
                Ok(v)
            }
            JobResult::Failed(message, _) => Err(RegistryError::Invalid { field: "execution", message }),
        }
    }

    /// `DELETE /execution/{user}/job/{id}`: request cooperative
    /// cancellation. Idempotent — cancelling a queued job terminates it
    /// on the spot, cancelling a running job fires its token (the
    /// enactment stops at its next invocation boundary; poll `status`),
    /// and cancelling a finished job is a 200 no-op reporting the
    /// current phase. Unknown or foreign jobs answer 404.
    fn job_cancel(&self, user: &str, id: &str) -> Result<Value, RegistryError> {
        let id = Self::parse_job_id(id)?;
        let info = self
            .pool
            .cancel(user, id)
            .ok_or(RegistryError::NotFound { entity: "Job", key: id.to_string() })?;
        let mut v = Value::Null;
        v.set("jobId", id).set("status", info.phase.as_str());
        Ok(v)
    }

    /// `POST /execution/{user}/job/{id}/resume`: re-enqueue an interrupted
    /// checkpointed job from its journal, under its original id. Answers
    /// 404 when the pool has no journal, the job was never journaled (or
    /// completed and was cleaned up), or the owner does not match; 400
    /// when the job is live (queued/running/done) in this pool.
    fn job_resume(&self, user: &str, id: &str) -> Result<Value, RegistryError> {
        let id = Self::parse_job_id(id)?;
        let id = self.pool.resume_job(user, id).map_err(|e| self.pool_error(e))?;
        let mut v = Value::Null;
        v.set("jobId", id).set("status", "queued");
        Ok(v)
    }
}

/// Whether a final path segment addresses the events endpoint
/// (`events` or `events?<query>`).
fn is_events_segment(tail: &str) -> bool {
    tail == "events" || tail.strip_prefix("events?").is_some()
}

/// Ceiling on `wait_ms` long-poll parks: the connection's handler thread
/// is held for the duration — a parked reader counts against the HTTP
/// edge's connection cap like any other live connection — so the server
/// bounds it regardless of what the client asked for.
pub(crate) const LONG_POLL_MAX_WAIT_MS: u64 = 30_000;

/// Parse `<key>=<n>` out of an `events?...` segment: 0 when no query
/// carries the key, the 400 envelope when it is present but not a
/// non-negative integer.
fn events_query(tail: &str, key: &'static str) -> Result<u64, RegistryError> {
    let query = tail.strip_prefix("events?").unwrap_or("");
    match query.split('&').find_map(|pair| pair.strip_prefix(key)?.strip_prefix('=')) {
        Some(raw) => raw.parse().map_err(|_| RegistryError::Invalid {
            field: key,
            message: "must be a non-negative integer".into(),
        }),
        None => Ok(0),
    }
}

fn str_field(body: &Value, field: &'static str) -> Result<String, RegistryError> {
    body[field]
        .as_str()
        .map(str::to_string)
        .ok_or(RegistryError::Invalid { field, message: "missing or not a string".into() })
}

fn pe_summary(pe: &laminar_registry::PeEntity) -> Value {
    let mut v = Value::Null;
    v.set("peId", pe.pe_id)
        .set("peName", pe.pe_name.as_str())
        .set("description", pe.description.as_str())
        .set("auto", pe.description_generated);
    v
}

fn wf_summary(wf: &laminar_registry::WorkflowEntity) -> Value {
    let mut v = Value::Null;
    v.set("workflowId", wf.workflow_id)
        .set("workflowName", wf.workflow_name.as_str())
        .set("entryPoint", wf.entry_point.as_str())
        .set("description", wf.description.as_str());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    const WF_SRC: &str = r#"
        pe Seq : producer { output output; process { emit(iteration + 1); } }
        pe IsPrime : iterative {
            input num; output output;
            process {
                let i = 2;
                let prime = num > 1;
                while i * i <= num { if num % i == 0 { prime = false; break; } i = i + 1; }
                if prime { emit(num); }
            }
        }
        pe PrintPrime : consumer { input num; process { print("the num", num, "is prime"); } }
        workflow IsPrimeFlow {
            doc "Workflow that prints random prime numbers";
            nodes { s = Seq; i = IsPrime; p = PrintPrime; }
            connect s.output -> i.num;
            connect i.output -> p.num;
        }
    "#;

    fn server_with_user() -> LaminarServer {
        let s = LaminarServer::in_memory();
        let r = s.handle(&ApiRequest::new(
            Method::Post,
            "/auth/register",
            jobj! { "userName" => "zz46", "password" => "password" },
        ));
        assert!(r.is_ok(), "{r:?}");
        s
    }

    fn get(s: &LaminarServer, path: &str) -> ApiResponse {
        s.handle(&ApiRequest::new(Method::Get, path, Value::Null))
    }

    #[test]
    fn auth_flow() {
        let s = server_with_user();
        let r = s.handle(&ApiRequest::new(
            Method::Post,
            "/auth/login",
            jobj! { "userName" => "zz46", "password" => "password" },
        ));
        assert!(r.is_ok());
        assert_eq!(r.body["userName"].as_str(), Some("zz46"));
        // Wrong password → standardized 401 envelope (paper §3.2.5).
        let r = s.handle(&ApiRequest::new(
            Method::Post,
            "/auth/login",
            jobj! { "userName" => "zz46", "password" => "wrong" },
        ));
        assert_eq!(r.status, 401);
        assert_eq!(r.body["error"]["code"].as_str(), Some("Unauthorized"));
        assert_eq!(r.body["error"]["status"].as_i64(), Some(401));
        // User list.
        let r = get(&s, "/auth/all");
        assert_eq!(r.body[0].as_str(), Some("zz46"));
    }

    #[test]
    fn pe_endpoints() {
        let s = server_with_user();
        let src = "pe NumberProducer : producer { output output; process { emit(randint(1, 1000)); } }";
        let r = s.handle(&ApiRequest::new(
            Method::Post,
            "/registry/zz46/pe/add",
            jobj! { "code" => src, "description" => "Random numbers producer" },
        ));
        assert!(r.is_ok(), "{r:?}");
        let id = r.body["peId"].as_i64().unwrap();
        assert!(get(&s, &format!("/registry/zz46/pe/id/{id}")).is_ok());
        let by_name = get(&s, "/registry/zz46/pe/name/NumberProducer");
        assert_eq!(by_name.body["peId"].as_i64(), Some(id));
        assert!(by_name.body["peCode"].as_str().is_some());
        let all = get(&s, "/registry/zz46/pe/all");
        assert_eq!(all.body.as_array().unwrap().len(), 1);
        let rm = s.handle(&ApiRequest::new(
            Method::Delete,
            "/registry/zz46/pe/remove/name/NumberProducer",
            Value::Null,
        ));
        assert!(rm.is_ok());
        assert_eq!(get(&s, &format!("/registry/zz46/pe/id/{id}")).status, 404);
    }

    #[test]
    fn workflow_endpoints() {
        let s = server_with_user();
        let r = s.handle(&ApiRequest::new(
            Method::Post,
            "/registry/zz46/workflow/add",
            jobj! { "code" => WF_SRC, "entryPoint" => "isPrime" },
        ));
        assert!(r.is_ok(), "{r:?}");
        let wid = r.body["workflowId"].as_i64().unwrap();
        let pes = get(&s, &format!("/registry/zz46/workflow/pes/id/{wid}"));
        assert_eq!(pes.body.as_array().unwrap().len(), 3);
        let by_name = get(&s, "/registry/zz46/workflow/name/isPrime");
        assert_eq!(by_name.body["workflowId"].as_i64(), Some(wid));
        // PUT link: attach an extra PE.
        let extra = s.handle(&ApiRequest::new(
            Method::Post,
            "/registry/zz46/pe/add",
            jobj! { "code" => "pe Extra : producer { output o; process { emit(1); } }" },
        ));
        let pid = extra.body["peId"].as_i64().unwrap();
        let link = s.handle(&ApiRequest::new(
            Method::Put,
            format!("/registry/zz46/workflow/{wid}/pe/{pid}"),
            Value::Null,
        ));
        assert!(link.is_ok(), "{link:?}");
        let pes = get(&s, &format!("/registry/zz46/workflow/pes/id/{wid}"));
        assert_eq!(pes.body.as_array().unwrap().len(), 4);
    }

    #[test]
    fn search_endpoint_figure6() {
        let s = server_with_user();
        s.handle(&ApiRequest::new(
            Method::Post,
            "/registry/zz46/workflow/add",
            jobj! { "code" => WF_SRC, "entryPoint" => "isPrime" },
        ));
        let r =
            s.handle(&ApiRequest::new(Method::Get, "/registry/zz46/search/prime/type/workflow", Value::Null));
        assert!(r.is_ok());
        assert_eq!(r.body["hits"][0]["name"].as_str(), Some("isPrime"));
        assert!(r.body["search_us"].as_i64().is_some(), "timing on the wire: {:?}", r.body);
        assert!(r.body["rank_us"].as_i64().is_some());
        // Unknown search type → 400; bad limit → 400.
        let r = s.handle(&ApiRequest::new(Method::Get, "/registry/zz46/search/x/type/weird", Value::Null));
        assert_eq!(r.status, 400);
        let r = s.handle(&ApiRequest::new(
            Method::Get,
            "/registry/zz46/search/prime/type/workflow",
            jobj! { "limit" => 0 },
        ));
        assert_eq!(r.status, 400);
    }

    #[test]
    fn search_limit_caps_hits_and_stats_count_searches() {
        let s = server_with_user();
        for i in 0..4 {
            s.handle(&ApiRequest::new(
                Method::Post,
                "/registry/zz46/pe/add",
                jobj! { "code" => format!(
                    "pe Counter{i} : iterative {{ input x; output output; process {{ emit(x + {i}); }} }}"
                ), "description" => format!("counter variant {i}") },
            ));
        }
        let r = s.handle(&ApiRequest::new(
            Method::Get,
            "/registry/zz46/search/counter/type/both",
            jobj! { "limit" => 2 },
        ));
        assert!(r.is_ok());
        assert_eq!(r.body["hits"].as_array().unwrap().len(), 2);
        assert_eq!(
            laminar_json::to_string(&r.body["hits"]),
            r#"[{"auto":false,"description":"counter variant 0","id":1,"kind":"pe","name":"Counter0","score":1.0},{"auto":false,"description":"counter variant 1","id":2,"kind":"pe","name":"Counter1","score":1.0}]"#,
            "the hits' wire bytes"
        );
        let stats = s.handle(&ApiRequest::new(Method::Get, "/registry/stats", Value::Null));
        assert!(stats.is_ok());
        assert_eq!(stats.body["pes"].as_i64(), Some(4));
        assert_eq!(stats.body["searches"].as_i64(), Some(1));
        assert!(stats.body["index"]["vectors"].as_i64().unwrap() >= 8);
    }

    #[test]
    fn execution_with_inline_source() {
        let s = server_with_user();
        let r = s.handle(&ApiRequest::new(
            Method::Post,
            "/execution/zz46/run",
            jobj! { "source" => WF_SRC, "input" => 10, "mapping" => "SIMPLE" },
        ));
        assert!(r.is_ok(), "{r:?}");
        let printed = r.body["printed"].as_array().unwrap();
        assert_eq!(printed.len(), 4, "primes ≤ 10");
    }

    #[test]
    fn execution_of_registered_workflow_by_name() {
        // The full serverless loop: register once, run by name (paper §5).
        let s = server_with_user();
        s.handle(&ApiRequest::new(
            Method::Post,
            "/registry/zz46/workflow/add",
            jobj! { "code" => WF_SRC, "entryPoint" => "isPrime" },
        ));
        let r = s.handle(&ApiRequest::new(
            Method::Post,
            "/execution/zz46/run",
            jobj! { "workflow" => "isPrime", "input" => 20, "mapping" => "MULTI", "processes" => 5 },
        ));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body["printed"].as_array().unwrap().len(), 8);
        // The response reports the enactment's stage breakdown (Table 5's
        // overhead structure) alongside the coarse engine timings.
        assert!(r.body["enact_us"].as_i64().unwrap_or(-1) > 0, "body: {:?}", r.body);
        assert!(r.body["plan_us"].as_i64().unwrap_or(-1) >= 0);
        assert!(r.body["collect_us"].as_i64().unwrap_or(-1) >= 0);
        // Unknown workflow name → 404 envelope.
        let r = s.handle(&ApiRequest::new(
            Method::Post,
            "/execution/zz46/run",
            jobj! { "workflow" => "ghost", "input" => 1 },
        ));
        assert_eq!(r.status, 404);
    }

    #[test]
    fn unknown_route_and_bad_body() {
        let s = server_with_user();
        assert_eq!(get(&s, "/registry/zz46/nonsense").status, 404);
        let r = s.handle(&ApiRequest::new(Method::Post, "/auth/register", Value::Null));
        assert_eq!(r.status, 400);
        assert_eq!(r.body["error"]["code"].as_str(), Some("Invalid"));
    }

    #[test]
    fn cross_user_isolation_via_api() {
        let s = server_with_user();
        s.handle(&ApiRequest::new(
            Method::Post,
            "/auth/register",
            jobj! { "userName" => "other", "password" => "password" },
        ));
        s.handle(&ApiRequest::new(
            Method::Post,
            "/registry/zz46/pe/add",
            jobj! { "code" => "pe Mine : producer { output o; process { emit(1); } }" },
        ));
        let r = get(&s, "/registry/other/pe/name/Mine");
        assert_eq!(r.status, 404, "other users cannot see zz46's PEs");
    }

    #[test]
    fn async_submit_poll_result() {
        let s = server_with_user();
        let r = s.handle(&ApiRequest::new(
            Method::Post,
            "/execution/zz46/submit",
            jobj! { "source" => WF_SRC, "input" => 10, "mapping" => "SIMPLE" },
        ));
        assert!(r.is_ok(), "{r:?}");
        let id = r.body["jobId"].as_i64().unwrap();
        assert!(id > 0);
        // Poll until done.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        loop {
            let st = get(&s, &format!("/execution/zz46/job/{id}/status"));
            assert!(st.is_ok(), "{st:?}");
            match st.body["status"].as_str().unwrap() {
                "done" => break,
                "failed" => panic!("job failed: {st:?}"),
                _ => assert!(std::time::Instant::now() < deadline, "job never finished"),
            }
        }
        let res = get(&s, &format!("/execution/zz46/job/{id}/result"));
        assert!(res.is_ok(), "{res:?}");
        assert_eq!(res.body["status"].as_str(), Some("done"));
        assert_eq!(res.body["printed"].as_array().unwrap().len(), 4, "primes <= 10");
        // The async result matches the synchronous endpoint's.
        let sync = s.handle(&ApiRequest::new(
            Method::Post,
            "/execution/zz46/run",
            jobj! { "source" => WF_SRC, "input" => 10, "mapping" => "SIMPLE" },
        ));
        assert_eq!(sync.body["printed"], res.body["printed"]);
    }

    #[test]
    fn async_job_errors_and_isolation() {
        let s = server_with_user();
        // Unknown job id → 404.
        assert_eq!(get(&s, "/execution/zz46/job/999/status").status, 404);
        assert_eq!(get(&s, "/execution/zz46/job/999/result").status, 404);
        // Non-integer id → 400.
        assert_eq!(get(&s, "/execution/zz46/job/abc/status").status, 400);
        // A failing script surfaces through the result endpoint as 400.
        let r = s.handle(&ApiRequest::new(
            Method::Post,
            "/execution/zz46/submit",
            jobj! { "source" => "pe A : producer { output o; process { emit(1); } } pe B : producer { output o; process { emit(2); } }" },
        ));
        let id = r.body["jobId"].as_i64().unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        loop {
            let st = get(&s, &format!("/execution/zz46/job/{id}/status"));
            if st.body["status"].as_str() == Some("failed") {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "job never failed");
        }
        assert_eq!(get(&s, &format!("/execution/zz46/job/{id}/result")).status, 400);
        // Another tenant cannot observe the job.
        s.handle(&ApiRequest::new(
            Method::Post,
            "/auth/register",
            jobj! { "userName" => "other", "password" => "password" },
        ));
        assert_eq!(get(&s, &format!("/execution/other/job/{id}/status")).status, 404);
    }

    #[test]
    fn admission_control_returns_429() {
        // One slow worker, queue bound 1: the third submission is refused.
        let s = LaminarServer::with_pool(
            Registry::in_memory(),
            ExecutionEngine::instant().with_provision_scale(1000),
            1,
            1,
        );
        s.handle(&ApiRequest::new(
            Method::Post,
            "/auth/register",
            jobj! { "userName" => "zz46", "password" => "password" },
        ));
        let submit = || {
            s.handle(&ApiRequest::new(
                Method::Post,
                "/execution/zz46/submit",
                jobj! { "source" => WF_SRC, "input" => 1 },
            ))
        };
        let first = submit();
        assert!(first.is_ok(), "{first:?}");
        // Wait until the worker picked the first job so the queue bound
        // applies to the jobs behind it.
        let id = first.body["jobId"].as_i64().unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while get(&s, &format!("/execution/zz46/job/{id}/status")).body["status"].as_str() == Some("queued") {
            assert!(std::time::Instant::now() < deadline, "job never picked");
            std::thread::yield_now();
        }
        assert!(submit().is_ok());
        let rejected = submit();
        assert_eq!(rejected.status, 429, "{rejected:?}");
        assert_eq!(rejected.body["error"]["code"].as_str(), Some("Busy"));
        assert!(
            rejected.body["error"]["retryAfterMs"].as_i64().unwrap() >= 1,
            "queue-full 429 must advise a backoff: {rejected:?}"
        );
        let stats = get(&s, "/execution/pool/stats");
        assert_eq!(stats.body["rejected"].as_i64(), Some(1));
    }

    #[test]
    fn rate_limited_submit_returns_429_with_retry_hint() {
        let s = server_with_user();
        s.pool().set_tenant_rate(1.0, 1.0);
        let submit = || {
            s.handle(&ApiRequest::new(
                Method::Post,
                "/execution/zz46/submit",
                jobj! { "source" => WF_SRC, "input" => 1 },
            ))
        };
        assert!(submit().is_ok());
        let limited = submit();
        assert_eq!(limited.status, 429, "{limited:?}");
        assert_eq!(limited.body["error"]["code"].as_str(), Some("Busy"));
        let hint = limited.body["error"]["retryAfterMs"].as_i64().unwrap();
        assert!((1..=1_001).contains(&hint), "hint within one token period: {hint}");
        assert!(limited.body["error"]["message"].as_str().unwrap().contains("rate limit"));
        let stats = get(&s, "/execution/pool/stats");
        assert_eq!(stats.body["rate_limited"].as_i64(), Some(1));
        assert_eq!(stats.body["rejected"].as_i64(), Some(0));
    }

    #[test]
    fn events_endpoint_streams_and_pages() {
        let s = server_with_user();
        let r = s.handle(&ApiRequest::new(
            Method::Post,
            "/execution/zz46/submit",
            jobj! {
                "source" => WF_SRC, "input" => 10, "mapping" => "SIMPLE",
                "options" => jobj! { "events" => true }
            },
        ));
        assert!(r.is_ok(), "{r:?}");
        let id = r.body["jobId"].as_i64().unwrap();
        // Poll the event stream by cursor until it closes.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let mut since: i64 = 0;
        let mut types: Vec<String> = Vec::new();
        loop {
            let page = get(&s, &format!("/execution/zz46/job/{id}/events?since={since}"));
            assert!(page.is_ok(), "{page:?}");
            assert_eq!(page.body["jobId"].as_i64(), Some(id));
            for e in page.body["events"].as_array().unwrap() {
                assert!(e["seq"].as_i64().unwrap() >= since);
                types.push(e["type"].as_str().unwrap().to_string());
            }
            since = page.body["next"].as_i64().unwrap();
            if page.body["closed"].as_bool() == Some(true) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "stream never closed");
        }
        assert_eq!(types.first().map(String::as_str), Some("plan"));
        assert_eq!(types.last().map(String::as_str), Some("done"));
        assert_eq!(types.iter().filter(|t| *t == "print").count(), 4, "primes <= 10 printed live");
        assert!(types.contains(&"finished".to_string()));
        // The print events match the batch result exactly.
        let res = get(&s, &format!("/execution/zz46/job/{id}/result"));
        assert_eq!(res.body["printed"].as_array().unwrap().len(), 4);
        assert!(res.body["events"].as_i64().unwrap() > 0, "wire output reports the stream size");
    }

    #[test]
    fn events_endpoint_errors() {
        let s = server_with_user();
        // Unknown job → 404; bad id → 400; bad cursor → 400.
        assert_eq!(get(&s, "/execution/zz46/job/999/events").status, 404);
        assert_eq!(get(&s, "/execution/zz46/job/abc/events").status, 400);
        let r = s.handle(&ApiRequest::new(
            Method::Post,
            "/execution/zz46/submit",
            jobj! { "source" => WF_SRC, "input" => 1 },
        ));
        let id = r.body["jobId"].as_i64().unwrap();
        assert_eq!(get(&s, &format!("/execution/zz46/job/{id}/events?since=banana")).status, 400);
        // A job submitted without events=true still closes with a marker.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        loop {
            let page = get(&s, &format!("/execution/zz46/job/{id}/events"));
            assert!(page.is_ok(), "{page:?}");
            if page.body["closed"].as_bool() == Some(true) {
                let events = page.body["events"].as_array().unwrap();
                assert_eq!(events.len(), 1);
                assert_eq!(events[0]["type"].as_str(), Some("done"));
                break;
            }
            assert!(std::time::Instant::now() < deadline, "job never finished");
        }
        // Cross-tenant: another user cannot read the stream.
        s.handle(&ApiRequest::new(
            Method::Post,
            "/auth/register",
            jobj! { "userName" => "other", "password" => "password" },
        ));
        assert_eq!(get(&s, &format!("/execution/other/job/{id}/events")).status, 404);
    }

    fn delete(s: &LaminarServer, path: &str) -> ApiResponse {
        s.handle(&ApiRequest::new(Method::Delete, path, Value::Null))
    }

    #[test]
    fn events_long_poll_waits_for_data_but_never_on_a_closed_stream() {
        // Slow provisioning: the long-poll provably arrives before the
        // job has produced anything, parks, and wakes with real events
        // instead of an empty page.
        let s = LaminarServer::with_pool(
            Registry::in_memory(),
            ExecutionEngine::instant().with_provision_scale(100),
            1,
            4,
        );
        s.handle(&ApiRequest::new(
            Method::Post,
            "/auth/register",
            jobj! { "userName" => "zz46", "password" => "password" },
        ));
        let r = s.handle(&ApiRequest::new(
            Method::Post,
            "/execution/zz46/submit",
            jobj! { "source" => WF_SRC, "input" => 5, "options" => jobj! { "events" => true } },
        ));
        let id = r.body["jobId"].as_i64().unwrap();
        let page = get(&s, &format!("/execution/zz46/job/{id}/events?since=0&wait_ms=20000"));
        assert!(page.is_ok(), "{page:?}");
        assert!(
            !page.body["events"].as_array().unwrap().is_empty(),
            "push mode returns data, not an empty poll page: {page:?}"
        );
        // Drain to the end; on the sealed stream a long-poll answers
        // immediately instead of burning the full wait.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let mut since = page.body["next"].as_i64().unwrap();
        loop {
            let page = get(&s, &format!("/execution/zz46/job/{id}/events?since={since}&wait_ms=1000"));
            since = page.body["next"].as_i64().unwrap();
            if page.body["closed"].as_bool() == Some(true) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "stream never closed");
        }
        let t0 = std::time::Instant::now();
        let sealed = get(&s, &format!("/execution/zz46/job/{id}/events?since={since}&wait_ms=20000"));
        assert!(t0.elapsed() < std::time::Duration::from_secs(5), "{:?}", t0.elapsed());
        assert_eq!(sealed.body["closed"].as_bool(), Some(true));
        // Malformed wait_ms → the standard 400 envelope.
        let bad = get(&s, &format!("/execution/zz46/job/{id}/events?wait_ms=soon"));
        assert_eq!(bad.status, 400);
        assert_eq!(bad.body["error"]["parameter"].as_str(), Some("wait_ms"));
    }

    #[test]
    fn cancel_endpoint_on_queued_running_and_finished_jobs() {
        // --- finished: DELETE is an idempotent 200 no-op ----------------
        let s = server_with_user();
        let r = s.handle(&ApiRequest::new(
            Method::Post,
            "/execution/zz46/submit",
            jobj! { "source" => WF_SRC, "input" => 5 },
        ));
        let done_id = r.body["jobId"].as_i64().unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while get(&s, &format!("/execution/zz46/job/{done_id}/status")).body["status"].as_str()
            != Some("done")
        {
            assert!(std::time::Instant::now() < deadline, "job never finished");
        }
        let r = delete(&s, &format!("/execution/zz46/job/{done_id}"));
        assert_eq!(r.status, 200, "{r:?}");
        assert_eq!(r.body["status"].as_str(), Some("done"), "late cancel does not rewrite history");
        assert_eq!(delete(&s, &format!("/execution/zz46/job/{done_id}")).status, 200, "idempotent");

        // --- unknown/foreign/bad ids ------------------------------------
        assert_eq!(delete(&s, "/execution/zz46/job/999").status, 404);
        assert_eq!(delete(&s, "/execution/zz46/job/abc").status, 400);
        s.handle(&ApiRequest::new(
            Method::Post,
            "/auth/register",
            jobj! { "userName" => "other", "password" => "password" },
        ));
        assert_eq!(delete(&s, &format!("/execution/other/job/{done_id}")).status, 404);

        // --- queued: cancelled on the spot, never runs ------------------
        let slow = LaminarServer::with_pool(
            Registry::in_memory(),
            ExecutionEngine::instant().with_provision_scale(1000),
            1,
            4,
        );
        slow.handle(&ApiRequest::new(
            Method::Post,
            "/auth/register",
            jobj! { "userName" => "zz46", "password" => "password" },
        ));
        let submit = |events: bool| {
            slow.handle(&ApiRequest::new(
                Method::Post,
                "/execution/zz46/submit",
                jobj! { "source" => WF_SRC, "input" => 1, "options" => jobj! { "events" => events } },
            ))
        };
        let first = submit(false).body["jobId"].as_i64().unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while get(&slow, &format!("/execution/zz46/job/{first}/status")).body["status"].as_str()
            == Some("queued")
        {
            assert!(std::time::Instant::now() < deadline, "first job never picked");
            std::thread::yield_now();
        }
        let queued = submit(true).body["jobId"].as_i64().unwrap();
        let r = delete(&slow, &format!("/execution/zz46/job/{queued}"));
        assert_eq!(r.status, 200, "{r:?}");
        assert_eq!(r.body["status"].as_str(), Some("cancelled"));
        // Result endpoint answers the status envelope, 200 (not an error).
        let res = get(&slow, &format!("/execution/zz46/job/{queued}/result"));
        assert_eq!(res.status, 200);
        assert_eq!(res.body["status"].as_str(), Some("cancelled"));
        // The sealed stream is just the cancelled marker.
        let page = get(&slow, &format!("/execution/zz46/job/{queued}/events"));
        assert_eq!(page.body["closed"].as_bool(), Some(true));
        let events = page.body["events"].as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0]["type"].as_str(), Some("cancelled"));
        let stats = get(&slow, "/execution/pool/stats");
        assert_eq!(stats.body["cancelled"].as_i64(), Some(1));
    }

    #[test]
    fn cancel_endpoint_stops_a_running_unbounded_job() {
        streams_until_cancelled(
            r#"
            pe Gen : producer { output o; process { emit(iteration); } }
            workflow Forever { nodes { g = Gen; } }
        "#,
        );
    }

    /// A lone PE is a one-node graph on the same runtime, so its events
    /// are live too: an `output` is delivered while the job is running.
    #[test]
    fn a_lone_pe_job_delivers_outputs_before_it_finishes() {
        streams_until_cancelled("pe Gen : producer { output o; process { emit(iteration); } }");
    }

    /// Submit `src` unbounded with `events = true`: outputs stream while
    /// the job runs, and it runs until cancelled.
    fn streams_until_cancelled(src: &str) {
        let s = server_with_user();
        let r = s.handle(&ApiRequest::new(
            Method::Post,
            "/execution/zz46/submit",
            jobj! {
                "source" => src,
                "input" => jobj! { "mode" => "unbounded", "pace_us" => 300 },
                "options" => jobj! { "events" => true }
            },
        ));
        assert!(r.is_ok(), "{r:?}");
        let id = r.body["jobId"].as_i64().unwrap();
        // Wait until outputs stream, proving it is genuinely running.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        loop {
            let page = get(&s, &format!("/execution/zz46/job/{id}/events"));
            let has_output =
                page.body["events"].as_array().unwrap().iter().any(|e| e["type"].as_str() == Some("output"));
            if has_output {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "unbounded job never produced");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let st = get(&s, &format!("/execution/zz46/job/{id}/status"));
        assert_eq!(st.body["status"].as_str(), Some("running"), "outputs arrived before the job ended");
        let r = delete(&s, &format!("/execution/zz46/job/{id}"));
        assert_eq!(r.status, 200, "{r:?}");
        // Cooperative: the job commits `cancelled` at its next boundary.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        loop {
            let st = get(&s, &format!("/execution/zz46/job/{id}/status"));
            match st.body["status"].as_str() {
                Some("cancelled") => break,
                Some("running") => {
                    assert!(std::time::Instant::now() < deadline, "cancel never landed")
                }
                other => panic!("unexpected phase {other:?}"),
            }
        }
        // The stream is sealed by exactly one cancelled marker and the
        // events before it are a clean prefix (no done/finished).
        let mut since = 0i64;
        let mut types: Vec<String> = Vec::new();
        loop {
            let page = get(&s, &format!("/execution/zz46/job/{id}/events?since={since}"));
            for e in page.body["events"].as_array().unwrap() {
                types.push(e["type"].as_str().unwrap().to_string());
            }
            since = page.body["next"].as_i64().unwrap();
            if page.body["closed"].as_bool() == Some(true) {
                break;
            }
        }
        assert_eq!(types.last().map(String::as_str), Some("cancelled"));
        assert_eq!(types.iter().filter(|t| *t == "cancelled").count(), 1);
        assert!(types.iter().filter(|t| *t == "output").count() >= 1);
        assert!(!types.contains(&"done".to_string()));
        assert!(!types.contains(&"finished".to_string()));
    }

    #[test]
    fn cancelled_pool_error_maps_to_the_409_cancelled_envelope() {
        // A cancelled sync run must not wear the generic 400 failure
        // shape — callers distinguish "stopped on request" from errors.
        let s = LaminarServer::in_memory();
        let e = s.pool_error(PoolError::Cancelled(7));
        assert_eq!(e.code(), 409);
        assert_eq!(e.kind(), "Cancelled");
        let v = e.to_value();
        assert_eq!(v["error"]["code"].as_str(), Some("Cancelled"));
        assert!(v["error"]["message"].as_str().unwrap().contains("7"));
        // Failures keep their 400 shape.
        let f = s.pool_error(PoolError::Failed("boom".into()));
        assert_eq!(f.code(), 400);
        assert_eq!(f.kind(), "Invalid");
        // Both 429 shapes advise a backoff.
        let q = s.pool_error(PoolError::QueueFull { capacity: 1 });
        assert_eq!(q.code(), 429);
        assert!(q.retry_after_ms().unwrap() >= 25);
        let r = s.pool_error(PoolError::RateLimited { retry_after_ms: 77 });
        assert_eq!(r.retry_after_ms(), Some(77));
    }

    #[test]
    fn sync_run_rejects_unbounded_input() {
        let s = server_with_user();
        let src = "pe Gen : producer { output o; process { emit(iteration); } }";
        let r = s.handle(&ApiRequest::new(
            Method::Post,
            "/execution/zz46/run",
            jobj! { "source" => src, "input" => jobj! { "mode" => "unbounded", "pace_us" => 100 } },
        ));
        assert_eq!(r.status, 400, "{r:?}");
        assert!(r.body["error"]["message"].as_str().unwrap().contains("submit"), "{r:?}");
    }

    #[test]
    fn pool_stats_endpoint() {
        let s = server_with_user();
        s.handle(&ApiRequest::new(
            Method::Post,
            "/execution/zz46/run",
            jobj! { "source" => WF_SRC, "input" => 5 },
        ));
        let stats = get(&s, "/execution/pool/stats");
        assert!(stats.is_ok(), "{stats:?}");
        assert_eq!(stats.body["workers"].as_i64(), Some(DEFAULT_POOL_WORKERS as i64));
        assert!(stats.body["submitted"].as_i64().unwrap() >= 1);
        assert!(stats.body["completed"].as_i64().unwrap() >= 1);
    }

    #[test]
    fn resume_endpoint_answers_404_without_a_journal() {
        let s = server_with_user();
        let r = s.handle(&ApiRequest::new(Method::Post, "/execution/zz46/job/1/resume", Value::Null));
        assert_eq!(r.status, 404, "{r:?}");
        let bad = s.handle(&ApiRequest::new(Method::Post, "/execution/zz46/job/x/resume", Value::Null));
        assert_eq!(bad.status, 400);
    }

    #[test]
    fn resume_endpoint_recovers_a_killed_checkpointed_job() {
        let dir = std::env::temp_dir().join(format!("laminar-server-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s =
            LaminarServer::with_durable_pool(Registry::in_memory(), ExecutionEngine::instant(), 2, 16, &dir)
                .unwrap();
        // Fault plans never cross the wire: arm the kill by submitting
        // directly to the pool, then drive recovery through the API.
        let req = ExecutionRequest::new("zz46", WF_SRC, RunConfig::iterations(9).with_checkpoints(3))
            .with_workflow("IsPrimeFlow")
            .with_faults(laminar_engine::FaultPlan::parse("kill_at_epoch=1"));
        let id = s.pool().submit("zz46", req).unwrap();
        match s.pool().wait("zz46", id, std::time::Duration::from_secs(20)).unwrap() {
            laminar_engine::JobResult::Failed(..) => {}
            other => panic!("expected the injected kill, got {other:?}"),
        }
        // A foreign tenant cannot resume the job.
        let foreign =
            s.handle(&ApiRequest::new(Method::Post, format!("/execution/eve/job/{id}/resume"), Value::Null));
        assert_eq!(foreign.status, 404);
        let r =
            s.handle(&ApiRequest::new(Method::Post, format!("/execution/zz46/job/{id}/resume"), Value::Null));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body["jobId"].as_i64(), Some(id));
        assert_eq!(r.body["status"].as_str(), Some("queued"));
        // The resumed run completes and matches a plain enactment.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let result = loop {
            let r = get(&s, &format!("/execution/zz46/job/{id}/result"));
            assert!(r.is_ok(), "{r:?}");
            if r.body["status"].as_str() == Some("done") {
                break r;
            }
            assert!(std::time::Instant::now() < deadline, "resumed job never finished");
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        let direct = ExecutionEngine::instant()
            .run(&ExecutionRequest::simple("zz46", WF_SRC, 9).with_workflow("IsPrimeFlow"))
            .unwrap();
        assert_eq!(result.body["printed"].as_array().unwrap().len(), direct.printed.len(), "{result:?}");
        // A done job's journal is gone; a second resume finds nothing.
        let again =
            s.handle(&ApiRequest::new(Method::Post, format!("/execution/zz46/job/{id}/resume"), Value::Null));
        assert_eq!(again.status, 404, "a done job's journal is cleaned up: {again:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
