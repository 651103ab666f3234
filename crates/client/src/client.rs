//! The client layer: the thirteen user-facing functions of paper §3.4.1.
//!
//! A run's settings are a [`RunConfig`], the engine's own type re-exported
//! here. `run` and `submit` send the target key (`workflow` or `source`)
//! plus what [`RunConfig::write_envelope`] writes: the codec the server
//! decodes the body with and the journal stores a job's request by. The
//! event stream and `wait_job` read a job's log through one page fetch,
//! which long-polls and waits out a throttled (429) page.

use crate::web::{self, InProcessTransport, TcpTransport, Transport};
use laminar_engine::ExecutionOutput;
use laminar_json::Value;
use laminar_server::{ApiResponse, LaminarServer};
use std::time::{Duration, Instant};

/// Client-side error: either a transport failure or a structured server
/// error envelope (paper §3.2.5).
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The transport failed (connection refused, protocol error…).
    Transport(String),
    /// The server answered with an error envelope.
    Api {
        /// HTTP-style status.
        status: u16,
        /// Error type tag (the envelope's machine-readable `code`).
        kind: String,
        /// Human-readable message.
        message: String,
        /// The server's own backoff advice (`retryAfterMs`), present on
        /// 429s: how long to wait before a retry could succeed.
        retry_after_ms: Option<u64>,
    },
    /// The awaited job was cancelled (via [`LaminarClient::cancel_job`],
    /// another client, or server shutdown) — distinct from a failure:
    /// the job's event log holds the valid prefix it produced.
    Cancelled {
        /// The cancelled job's id.
        job: i64,
    },
    /// **Non-fatal**: the server's bounded event log evicted events past
    /// the stream's cursor, but the retained window holds an epoch
    /// checkpoint, so [`LaminarClient::event_stream`] resumed from it.
    /// The epoch's `state` summarizes everything evicted before it;
    /// iteration continues with the events after the marker.
    Resumed {
        /// The streamed job's id.
        job: i64,
        /// The epoch checkpoint the stream resumed from.
        at_epoch: i64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(m) => write!(f, "transport error: {m}"),
            ClientError::Api { status, kind, message, .. } => {
                write!(f, "server error {status} ({kind}): {message}")
            }
            ClientError::Cancelled { job } => write!(f, "job {job} was cancelled"),
            ClientError::Resumed { job, at_epoch } => {
                write!(f, "job {job} event stream resumed from epoch {at_epoch} after eviction")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// What to run: a registered workflow (by name or id) or inline source.
#[derive(Debug, Clone)]
pub enum RunTarget {
    /// A registered workflow's entry point or id.
    Registered(String),
    /// Inline LamScript source (like passing a `WorkflowGraph` object).
    Source(String),
}

/// Execution configuration for [`LaminarClient::run`] — the paper's
/// `run(workflow, input, process, args, resources)` without the workflow.
/// The engine's own type, so the POST body is written by the codec the
/// server reads it with ([`RunConfig::write_envelope`]).
pub use laminar_engine::RunConfig;

/// One page of a job's event stream (`/events` response) — the same
/// shape the pool serves, reused so the cursor protocol has one
/// definition.
pub use laminar_engine::EventPage;

/// The Laminar client.
pub struct LaminarClient {
    transport: Box<dyn Transport>,
    user: Option<String>,
}

impl LaminarClient {
    /// Client bound to an in-process server (local deployment).
    pub fn in_process(server: LaminarServer) -> LaminarClient {
        LaminarClient { transport: Box::new(InProcessTransport::new(server)), user: None }
    }

    /// Client bound to a shared in-process transport.
    pub fn with_transport(transport: Box<dyn Transport>) -> LaminarClient {
        LaminarClient { transport, user: None }
    }

    /// Client talking HTTP to a remote server.
    pub fn connect(addr: std::net::SocketAddr) -> LaminarClient {
        LaminarClient { transport: Box::new(TcpTransport::new(addr)), user: None }
    }

    fn call(&self, request: &laminar_server::ApiRequest) -> Result<Value, ClientError> {
        // GETs are idempotent reads (status, events, stats, registry
        // lookups): a transient connection failure is retried with the
        // client's standard 2→50 ms backoff, at most 3 attempts. POSTs,
        // PUTs and DELETEs are never retried — a request that mutates
        // state may have been applied before the connection dropped.
        let attempts = if request.method == laminar_server::Method::Get { 3 } else { 1 };
        let mut delay = Duration::from_millis(2);
        let mut resp: Result<ApiResponse, String>;
        let mut attempt = 0;
        loop {
            resp = self.transport.call(request);
            attempt += 1;
            if resp.is_ok() || attempt >= attempts {
                break;
            }
            std::thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_millis(50));
        }
        let resp = resp.map_err(ClientError::Transport)?;
        if resp.is_ok() {
            Ok(resp.body)
        } else {
            // The v1 envelope nests the detail under "error":
            // {"error":{"code","status","message","retryAfterMs"?}}.
            let detail = &resp.body["error"];
            Err(ClientError::Api {
                status: resp.status,
                kind: detail["code"].as_str().unwrap_or("Unknown").to_string(),
                message: detail["message"].as_str().unwrap_or("").to_string(),
                retry_after_ms: detail["retryAfterMs"].as_i64().filter(|ms| *ms >= 0).map(|ms| ms as u64),
            })
        }
    }

    fn current_user(&self) -> Result<&str, ClientError> {
        self.user.as_deref().ok_or(ClientError::Api {
            status: 401,
            kind: "Unauthorized".into(),
            message: "call login() first".into(),
            retry_after_ms: None,
        })
    }

    // ---- 1 & 2: register / login -------------------------------------------

    /// `client.register("zz46", "password")` (fn 1).
    pub fn register(&mut self, user_name: &str, password: &str) -> Result<(), ClientError> {
        let mut body = Value::Null;
        body.set("userName", user_name).set("password", password);
        self.call(&web::post("/auth/register", body))?;
        Ok(())
    }

    /// `client.login("zz46", "password")` (fn 2). Checks the credentials
    /// and remembers the user name, which every later call sends as its
    /// `{user}` path segment.
    pub fn login(&mut self, user_name: &str, password: &str) -> Result<(), ClientError> {
        let mut body = Value::Null;
        body.set("userName", user_name).set("password", password);
        self.call(&web::post("/auth/login", body))?;
        self.user = Some(user_name.to_string());
        Ok(())
    }

    // ---- 3 & 4: registration --------------------------------------------------

    /// `client.register_PE(NumberProducer, "Random numbers producer")`
    /// (fn 3). `source` is LamScript defining the PE; code is shipped
    /// serialized (lampickle+base64), like cloudpickle in the paper.
    pub fn register_pe(&mut self, source: &str, description: Option<&str>) -> Result<i64, ClientError> {
        let user = self.current_user()?.to_string();
        let mut body = Value::Null;
        body.set("code", web::serialize_code(source))
            .set("imports", Value::Array(web::analyze_imports(source).into_iter().map(Value::Str).collect()));
        if let Some(d) = description {
            body.set("description", d);
        }
        let resp = self.call(&web::post(format!("/registry/{user}/pe/add"), body))?;
        Ok(resp["peId"].as_i64().unwrap_or(0))
    }

    /// `client.register_Workflow(graph, "isPrime", "…")` (fn 4).
    pub fn register_workflow(
        &mut self,
        source: &str,
        workflow_name: &str,
        description: Option<&str>,
    ) -> Result<i64, ClientError> {
        let user = self.current_user()?.to_string();
        let mut body = Value::Null;
        body.set("code", web::serialize_code(source)).set("entryPoint", workflow_name);
        if let Some(d) = description {
            body.set("description", d);
        }
        let resp = self.call(&web::post(format!("/registry/{user}/workflow/add"), body))?;
        Ok(resp["workflowId"].as_i64().unwrap_or(0))
    }

    // ---- 5 & 6: removal ----------------------------------------------------------

    /// `client.remove_PE("NumberProducer")` (fn 5) — name or id.
    pub fn remove_pe(&mut self, pe: &str) -> Result<(), ClientError> {
        let user = self.current_user()?.to_string();
        let path = match pe.parse::<i64>() {
            Ok(id) => format!("/registry/{user}/pe/remove/id/{id}"),
            Err(_) => format!("/registry/{user}/pe/remove/name/{pe}"),
        };
        self.call(&web::delete(path))?;
        Ok(())
    }

    /// `client.remove_Workflow("IsPrime")` (fn 6) — name or id.
    pub fn remove_workflow(&mut self, workflow: &str) -> Result<(), ClientError> {
        let user = self.current_user()?.to_string();
        let path = match workflow.parse::<i64>() {
            Ok(id) => format!("/registry/{user}/workflow/remove/id/{id}"),
            Err(_) => format!("/registry/{user}/workflow/remove/name/{workflow}"),
        };
        self.call(&web::delete(path))?;
        Ok(())
    }

    // ---- 7, 8, 9: retrieval ---------------------------------------------------------

    /// `pe1 = client.get_PE("NumberProducer")` (fn 7). Returns the decoded
    /// LamScript source, ready for composing into new workflows.
    pub fn get_pe(&self, pe: &str) -> Result<(Value, String), ClientError> {
        let user = self.current_user()?.to_string();
        let path = match pe.parse::<i64>() {
            Ok(id) => format!("/registry/{user}/pe/id/{id}"),
            Err(_) => format!("/registry/{user}/pe/name/{pe}"),
        };
        let meta = self.call(&web::get(path))?;
        let source = meta["peCode"]
            .as_str()
            .and_then(laminar_registry::decode_code)
            .ok_or(ClientError::Transport("server returned undecodable PE code".into()))?;
        Ok((meta, source))
    }

    /// `graph = client.get_Workflow("IsPrime")` (fn 8).
    pub fn get_workflow(&self, workflow: &str) -> Result<(Value, String), ClientError> {
        let user = self.current_user()?.to_string();
        let path = match workflow.parse::<i64>() {
            Ok(id) => format!("/registry/{user}/workflow/id/{id}"),
            Err(_) => format!("/registry/{user}/workflow/name/{workflow}"),
        };
        let meta = self.call(&web::get(path))?;
        let source = meta["workflowCode"]
            .as_str()
            .and_then(laminar_registry::decode_code)
            .ok_or(ClientError::Transport("server returned undecodable workflow code".into()))?;
        Ok((meta, source))
    }

    /// `pes = client.get_PEs_By_Workflow("IsPrime")` (fn 9).
    pub fn get_pes_by_workflow(&self, workflow: &str) -> Result<Vec<Value>, ClientError> {
        let user = self.current_user()?.to_string();
        let path = match workflow.parse::<i64>() {
            Ok(id) => format!("/registry/{user}/workflow/pes/id/{id}"),
            Err(_) => format!("/registry/{user}/workflow/pes/name/{workflow}"),
        };
        let resp = self.call(&web::get(path))?;
        Ok(resp.as_array().unwrap_or(&[]).to_vec())
    }

    // ---- 10: search ------------------------------------------------------------------

    /// `client.search_Registry("isPrime", "workflow", "text")` (fn 10).
    pub fn search_registry(
        &self,
        search: &str,
        search_type: &str,
        query_type: &str,
    ) -> Result<Vec<Value>, ClientError> {
        let resp = self.search_registry_detailed(search, search_type, query_type, None)?;
        Ok(resp["hits"].as_array().unwrap_or(&[]).to_vec())
    }

    /// Search returning the full response envelope — the hits plus the
    /// server's timing split (`search_us` total, `embed_us`, `rank_us`) —
    /// with an optional hit limit.
    pub fn search_registry_detailed(
        &self,
        search: &str,
        search_type: &str,
        query_type: &str,
        limit: Option<usize>,
    ) -> Result<Value, ClientError> {
        let user = self.current_user()?.to_string();
        let mut body = Value::Null;
        body.set("queryType", query_type);
        if let Some(limit) = limit {
            body.set("limit", limit as i64);
        }
        self.call(&laminar_server::ApiRequest::new(
            laminar_server::Method::Get,
            format!("/registry/{user}/search/{search}/type/{search_type}"),
            body,
        ))
    }

    /// Registry-wide counters (`GET /registry/stats` — entity counts,
    /// searches served, search-index shape).
    pub fn registry_stats(&self) -> Result<Value, ClientError> {
        self.call(&web::get("/registry/stats"))
    }

    // ---- 11 & 12: describe / get_Registry ------------------------------------------------

    /// `client.describe(IsPrime)` (fn 11): fetches and formats name and
    /// description.
    pub fn describe(&self, name_or_id: &str) -> Result<String, ClientError> {
        if let Ok((meta, _)) = self.get_pe(name_or_id) {
            return Ok(format!(
                "PE {} (id {}): {}",
                meta["peName"].as_str().unwrap_or("?"),
                meta["peId"].as_i64().unwrap_or(0),
                meta["description"].as_str().unwrap_or("")
            ));
        }
        let (meta, _) = self.get_workflow(name_or_id)?;
        Ok(format!(
            "Workflow {} (id {}, entry '{}'): {}",
            meta["workflowName"].as_str().unwrap_or("?"),
            meta["workflowId"].as_i64().unwrap_or(0),
            meta["entryPoint"].as_str().unwrap_or("?"),
            meta["description"].as_str().unwrap_or("")
        ))
    }

    /// `registry = client.get_Registry()` (fn 12).
    pub fn get_registry(&self) -> Result<Value, ClientError> {
        let user = self.current_user()?.to_string();
        self.call(&web::get(format!("/registry/{user}/all")))
    }

    // ---- 13: run -----------------------------------------------------------------------

    fn run_body(target: RunTarget, config: &RunConfig) -> Value {
        let mut body = Value::Null;
        match target {
            RunTarget::Registered(key) => body.set("workflow", key),
            RunTarget::Source(src) => body.set("source", src),
        };
        config.write_envelope(&mut body);
        body
    }

    /// `client.run("IsPrime", input=5, process=MULTI, args={'num':5})`
    /// (fn 13). Accepts a registered workflow name/id or inline source.
    pub fn run(&mut self, target: RunTarget, config: RunConfig) -> Result<ExecutionOutput, ClientError> {
        let user = self.current_user()?.to_string();
        let body = Self::run_body(target, &config);
        let resp = self.call(&web::post(format!("/execution/{user}/run"), body))?;
        ExecutionOutput::from_value(&resp)
            .ok_or(ClientError::Transport("server returned a malformed execution output".into()))
    }

    /// Convenience: run inline source.
    pub fn run_source(&mut self, source: &str, config: RunConfig) -> Result<ExecutionOutput, ClientError> {
        self.run(RunTarget::Source(source.to_string()), config)
    }

    /// Convenience: run a registered workflow by name/id.
    pub fn run_registered(
        &mut self,
        workflow: &str,
        config: RunConfig,
    ) -> Result<ExecutionOutput, ClientError> {
        self.run(RunTarget::Registered(workflow.to_string()), config)
    }

    // ---- async job API ------------------------------------------------------------------

    /// Submit an execution without waiting: returns a job id for polling.
    /// A saturated server answers 429 (`ClientError::Api { status: 429 }`)
    /// — back off and retry.
    pub fn submit(&mut self, target: RunTarget, config: RunConfig) -> Result<i64, ClientError> {
        let user = self.current_user()?.to_string();
        let body = Self::run_body(target, &config);
        let resp = self.call(&web::post(format!("/execution/{user}/submit"), body))?;
        resp["jobId"].as_i64().ok_or(ClientError::Transport("server returned no job id".into()))
    }

    /// Poll a job's lifecycle phase and metrics (`status`, `queue_us`,
    /// `run_us`, `engine`).
    pub fn job_status(&self, job_id: i64) -> Result<Value, ClientError> {
        let user = self.current_user()?.to_string();
        self.call(&web::get(format!("/execution/{user}/job/{job_id}/status")))
    }

    /// Poll a job's result: `Ok(Some(output))` once done, `Ok(None)` while
    /// queued or running, `Err` for unknown ids, failed executions, or
    /// cancelled jobs ([`ClientError::Cancelled`]).
    pub(crate) fn job_result(&self, job_id: i64) -> Result<Option<ExecutionOutput>, ClientError> {
        let user = self.current_user()?.to_string();
        let resp = self.call(&web::get(format!("/execution/{user}/job/{job_id}/result")))?;
        match resp["status"].as_str() {
            Some("done") => ExecutionOutput::from_value(&resp)
                .map(Some)
                .ok_or(ClientError::Transport("server returned a malformed execution output".into())),
            Some("cancelled") => Err(ClientError::Cancelled { job: job_id }),
            _ => Ok(None),
        }
    }

    /// Request cooperative cancellation of a job
    /// (`DELETE /execution/{user}/job/{id}`). Idempotent: 200 with the
    /// job's current status whether it was queued (terminated on the
    /// spot), running (stops at its next invocation boundary — watch the
    /// event stream for the `cancelled` marker), or already finished
    /// (no-op). Unknown jobs surface the 404 envelope.
    pub fn cancel_job(&self, job_id: i64) -> Result<Value, ClientError> {
        let user = self.current_user()?.to_string();
        self.call(&web::delete(format!("/execution/{user}/job/{job_id}")))
    }

    /// Resume an interrupted checkpointed job from its server-side journal
    /// (`POST /execution/{user}/job/{id}/resume`). Only meaningful against
    /// a durable server: the job is re-enqueued under its original id,
    /// restarting from its last complete epoch. Answers 404 when the job
    /// was never journaled, completed (journal cleaned up), or belongs to
    /// someone else.
    pub fn resume_job(&self, job_id: i64) -> Result<i64, ClientError> {
        let user = self.current_user()?.to_string();
        let resp = self.call(&web::post(format!("/execution/{user}/job/{job_id}/resume"), Value::Null))?;
        resp["jobId"].as_i64().ok_or(ClientError::Transport("server returned no job id".into()))
    }

    /// The engine pool's aggregate counters
    /// (`GET /execution/pool/stats` — workers, queue depth, submitted /
    /// completed / failed / cancelled / rejected totals).
    pub fn pool_stats(&self) -> Result<Value, ClientError> {
        self.call(&web::get("/execution/pool/stats"))
    }

    /// Wait until a job finishes or `timeout` passes:
    /// [`LaminarClient::wait_job_with_progress`] with nobody watching. On a
    /// job submitted with [`RunConfig::with_events`] that means fetching
    /// and dropping every page of its log; when only the result of such a
    /// job matters, poll its result (`GET .../job/{id}/result`) instead.
    pub fn wait_job(&self, job_id: i64, timeout: Duration) -> Result<ExecutionOutput, ClientError> {
        self.wait_job_with_progress(job_id, timeout, |_| {})
    }

    // ---- event stream -------------------------------------------------------------------

    /// Read one page of a job's event stream starting at cursor `since`
    /// (`GET /execution/{user}/job/{id}/events?since=<seq>`).
    pub fn job_events(&self, job_id: i64, since: u64) -> Result<EventPage, ClientError> {
        self.job_events_wait(job_id, since, Duration::ZERO)
    }

    /// Read one page of a job's event stream, long-polling: when no event
    /// past `since` exists yet, the server parks the request up to `wait`
    /// (it caps the park at its own limit, 30 s) and answers the moment
    /// one arrives — or immediately if the stream is already sealed
    /// (`GET …/events?since=<seq>&wait_ms=<ms>`). `wait` of zero is a
    /// plain poll, byte-identical to [`LaminarClient::job_events`].
    pub fn job_events_wait(&self, job_id: i64, since: u64, wait: Duration) -> Result<EventPage, ClientError> {
        let user = self.current_user()?.to_string();
        let mut path = format!("/execution/{user}/job/{job_id}/events?since={since}");
        let wait_ms = wait.as_millis() as u64;
        if wait_ms > 0 {
            path.push_str(&format!("&wait_ms={wait_ms}"));
        }
        // The page is taken apart, not copied: the events the caller gets
        // are the trees the transport parsed. A page without one of its
        // cursor fields is refused whole — read as a default, a missing
        // `next` would send the stream back to `since=0`, again and again.
        let mut resp = self.call(&web::get(path))?;
        let malformed = || ClientError::Transport("server returned a malformed event page".into());
        let cursor = |field: &str| resp[field].as_i64().and_then(|n| u64::try_from(n).ok());
        let next = cursor("next").ok_or_else(malformed)?;
        let first = cursor("first").ok_or_else(malformed)?;
        let closed = resp["closed"].as_bool().ok_or_else(malformed)?;
        let retained_epoch = resp["retained_epoch"].as_i64().map(|e| e.max(0) as u64);
        match resp.as_object_mut().and_then(|page| page.remove("events")) {
            Some(Value::Array(events)) => Ok(EventPage { events, next, first, closed, retained_epoch }),
            _ => Err(malformed()),
        }
    }

    /// Iterate a job's events as they arrive. Each page request long-polls
    /// ([`LaminarClient::job_events_wait`]), so events are delivered the
    /// moment the server appends them, with no client-side sleep between
    /// pages. A throttled page (429) is not fatal: the stream pauses for the
    /// server's `retryAfterMs` advice and asks again. The iterator ends when
    /// the stream closes (the last item is the `done`/`failed`/`cancelled`
    /// marker) or `timeout` passes with the stream still open (final item: a
    /// transport error). A transport error is also surfaced when the
    /// server's bounded log evicted events past the cursor (truncation) —
    /// the stream would otherwise silently diverge from the batch result.
    pub fn event_stream(&self, job_id: i64, timeout: Duration) -> JobEventStream<'_> {
        JobEventStream {
            client: self,
            pages: Pages::new(job_id, timeout),
            buffered: std::collections::VecDeque::new(),
            closed: false,
            failed: false,
        }
    }

    /// [`LaminarClient::event_stream`] under the name it had while a
    /// polling stream existed beside it. Kept only because the frozen
    /// benchmark (`bench_e2e`) calls it; the next benchmark PR renames the
    /// call and deletes this.
    #[doc(hidden)]
    pub fn event_stream_push(&self, job_id: i64, timeout: Duration) -> JobEventStream<'_> {
        self.event_stream(job_id, timeout)
    }

    /// Wait until a job finishes or `timeout` passes, invoking `on_event`
    /// for every event of its stream as it arrives (progress reporting).
    /// Requires the job to have been submitted with
    /// [`RunConfig::with_events`] for event granularity — without it the
    /// callback only sees the terminal marker. The wait follows the job's
    /// event log to its seal through the same page reads as
    /// [`LaminarClient::event_stream`] (long-poll, a 429 waited out for the
    /// server's advice) and then reads the result once. Any other error on
    /// a page (unknown job, a transport failure) ends the wait with that
    /// error, as an error from `job/result` always ended `wait_job`; the
    /// job itself is unaffected and can be waited on again. Progress is
    /// best-effort: once the bounded log has evicted events this wait never
    /// read, the callbacks stop — a stream with a hole in it is not
    /// reported — but the result is still awaited and returned.
    pub fn wait_job_with_progress(
        &self,
        job_id: i64,
        timeout: Duration,
        mut on_event: impl FnMut(&Value),
    ) -> Result<ExecutionOutput, ClientError> {
        let (mut pages, mut truncated) = (Pages::new(job_id, timeout), false);
        loop {
            let (since, page) = pages.next(self)?;
            truncated |= since < page.first && page.retained_epoch.is_none();
            if !truncated {
                page.events.iter().for_each(&mut on_event);
            }
            if page.closed {
                break;
            }
        }
        // The server commits a job's terminal phase and seals its log under
        // one lock, so a sealed log means the result is there.
        self.job_result(job_id)?
            .ok_or(ClientError::Transport(format!("job {job_id} sealed its event log without a result")))
    }
}

/// How long one page request of the event stream may park server-side
/// before it is re-issued (the server answers sooner the moment an event
/// lands, and caps the park at its own limit).
const PAGE_WAIT: Duration = Duration::from_secs(10);

/// A job's event log read page after page from seq 0 within a deadline:
/// the one read loop under [`LaminarClient::event_stream`] and
/// [`LaminarClient::wait_job_with_progress`].
struct Pages {
    job_id: i64,
    cursor: u64,
    timeout: Duration,
    deadline: Instant,
    asked: bool,
}

impl Pages {
    fn new(job_id: i64, timeout: Duration) -> Pages {
        Pages { job_id, cursor: 0, timeout, deadline: Instant::now() + timeout, asked: false }
    }

    /// The next page, with the cursor it was read from (a cursor below the
    /// page's `first` means the log evicted events before they were read).
    /// Each request long-polls within what is left of the deadline. A
    /// throttled one (429) is asked again after the server's `retryAfterMs`
    /// advice (50 ms without one), so a saturated server sets the pace. The
    /// first call always asks; a later one past the deadline is a transport
    /// error.
    fn next(&mut self, client: &LaminarClient) -> Result<(u64, EventPage), ClientError> {
        loop {
            let budget = self.deadline.saturating_duration_since(Instant::now());
            if self.asked && budget.is_zero() {
                let (job, timeout) = (self.job_id, self.timeout);
                return Err(ClientError::Transport(format!(
                    "job {job} event stream still open after {timeout:?}"
                )));
            }
            self.asked = true;
            match client.job_events_wait(self.job_id, self.cursor, PAGE_WAIT.min(budget)) {
                Ok(page) => return Ok((std::mem::replace(&mut self.cursor, page.next), page)),
                Err(ClientError::Api { status: 429, retry_after_ms, .. }) => {
                    let advised = Duration::from_millis(retry_after_ms.unwrap_or(50).max(1));
                    std::thread::sleep(advised.min(budget));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Blocking iterator over a job's event stream — see
/// [`LaminarClient::event_stream`].
pub struct JobEventStream<'a> {
    client: &'a LaminarClient,
    pages: Pages,
    buffered: std::collections::VecDeque<Value>,
    closed: bool,
    failed: bool,
}

impl JobEventStream<'_> {
    /// The job this stream follows.
    pub(crate) fn job_id(&self) -> i64 {
        self.pages.job_id
    }

    /// Request cancellation of the job being streamed — the idiomatic way
    /// to end an unbounded run from its consumer loop:
    ///
    /// ```ignore
    /// let mut stream = client.event_stream(job, timeout);
    /// while let Some(event) = stream.next() {
    ///     if enough(&event?) { stream.cancel()?; }
    ///     // keep iterating: the stream drains the prefix and ends at
    ///     // the `cancelled` marker.
    /// }
    /// ```
    pub fn cancel(&self) -> Result<Value, ClientError> {
        self.client.cancel_job(self.job_id())
    }
}

impl Iterator for JobEventStream<'_> {
    type Item = Result<Value, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(event) = self.buffered.pop_front() {
                return Some(Ok(event));
            }
            if self.closed || self.failed {
                return None;
            }
            let (since, page) = match self.pages.next(self.client) {
                Ok(read) => read,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            };
            // The server's log is bounded: a cursor below `first` means
            // events were evicted before we read them. For a checkpointed
            // job the page restarts at a retained epoch marker and
            // `retained_epoch` names it: re-anchor the fold there (non-fatal,
            // iteration continues). Without one the gap is unrecoverable:
            // surface it instead of silently yielding a divergent stream.
            let evicted = since < page.first;
            if evicted && page.retained_epoch.is_none() {
                self.failed = true;
                return Some(Err(ClientError::Transport(format!(
                    "job {} event log truncated: events {}..{} were evicted before they were \
                     read (poll faster, checkpoint the run, or fold from the job result)",
                    self.job_id(),
                    since,
                    page.first
                ))));
            }
            self.closed = page.closed;
            self.buffered.extend(page.events);
            if let (true, Some(epoch)) = (evicted, page.retained_epoch) {
                return Some(Err(ClientError::Resumed { job: self.job_id(), at_epoch: epoch as i64 }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_dataflow::MappingKind;

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

    fn logged_in_client() -> LaminarClient {
        let mut c = LaminarClient::in_process(LaminarServer::in_memory());
        c.register("zz46", "password").unwrap();
        c.login("zz46", "password").unwrap();
        c
    }

    #[test]
    fn register_login_required() {
        let c = LaminarClient::in_process(LaminarServer::in_memory());
        assert!(matches!(c.get_registry(), Err(ClientError::Api { status: 401, .. })));
    }

    #[test]
    fn bad_login_surfaces_envelope() {
        let mut c = LaminarClient::in_process(LaminarServer::in_memory());
        c.register("zz46", "password").unwrap();
        let err = c.login("zz46", "nope").unwrap_err();
        assert!(matches!(err, ClientError::Api { status: 401, .. }));
    }

    #[test]
    fn full_pe_lifecycle() {
        let mut c = logged_in_client();
        let id = c
            .register_pe(
                "pe NumberProducer : producer { output output; process { emit(randint(1, 1000)); } }",
                Some("Random numbers producer"),
            )
            .unwrap();
        assert!(id > 0);
        let (meta, source) = c.get_pe("NumberProducer").unwrap();
        assert_eq!(meta["description"].as_str(), Some("Random numbers producer"));
        assert!(source.contains("pe NumberProducer"));
        let described = c.describe("NumberProducer").unwrap();
        assert!(described.contains("Random numbers producer"));
        c.remove_pe("NumberProducer").unwrap();
        assert!(c.get_pe("NumberProducer").is_err());
    }

    #[test]
    fn workflow_lifecycle_and_run() {
        let mut c = logged_in_client();
        let wid = c
            .register_workflow(WF_SRC, "isPrime", Some("Workflow that prints random prime numbers"))
            .unwrap();
        assert!(wid > 0);
        let pes = c.get_pes_by_workflow("isPrime").unwrap();
        assert_eq!(pes.len(), 3);
        let (_, source) = c.get_workflow("isPrime").unwrap();
        assert!(source.contains("workflow IsPrimeFlow"));

        // The Listing-4 execution: Multi mapping, 5 iterations, 5 procs.
        let out = c
            .run_registered("isPrime", RunConfig::iterations(20).with_mapping(MappingKind::Multi, 5))
            .unwrap();
        assert_eq!(out.printed.len(), 8);
        // Stage timings reach the client intact.
        assert!(out.stages.enact > std::time::Duration::ZERO);
        assert!(out.overhead_report().contains("plan"));

        c.remove_workflow("isPrime").unwrap();
        assert!(c.get_workflow("isPrime").is_err());
    }

    #[test]
    fn search_registry_three_modes() {
        let mut c = logged_in_client();
        c.register_workflow(WF_SRC, "isPrime", Some("Workflow that prints random prime numbers")).unwrap();
        // Figure 6: text search for workflows.
        let hits = c.search_registry("prime", "workflow", "text").unwrap();
        assert_eq!(hits[0]["name"].as_str(), Some("isPrime"));
        // Figure 7: semantic PE search.
        let hits = c.search_registry("A PE that checks if a number is prime", "pe", "text").unwrap();
        assert_eq!(hits[0]["name"].as_str(), Some("IsPrime"), "hits: {hits:?}");
        // Figure 8: code completion.
        let hits = c.search_registry("emit(iteration + 1)", "pe", "code").unwrap();
        assert!(!hits.is_empty());
        for h in &hits {
            assert!(h["score"].as_f64().is_some());
        }
        // The detailed variant exposes the timing split and honors limit.
        let detailed = c.search_registry_detailed("prime", "pe", "text", Some(1)).unwrap();
        assert_eq!(detailed["hits"].as_array().unwrap().len(), 1);
        assert!(detailed["search_us"].as_i64().is_some());
        assert!(detailed["embed_us"].as_i64().is_some());
        // And the registry counted every search above.
        let stats = c.registry_stats().unwrap();
        assert_eq!(stats["searches"].as_i64(), Some(4));
    }

    #[test]
    fn get_registry_dump() {
        let mut c = logged_in_client();
        c.register_workflow(WF_SRC, "isPrime", None).unwrap();
        let dump = c.get_registry().unwrap();
        assert!(dump["pes"].as_array().unwrap().len() >= 3);
        assert_eq!(dump["workflows"][0]["entryPoint"].as_str(), Some("isPrime"));
    }

    #[test]
    fn run_with_explicit_data() {
        let mut c = logged_in_client();
        let src = "pe Double : iterative { input x; output output; process { emit(x * 2); } }";
        let out = c.run_source(src, RunConfig::data(vec![Value::Int(4), Value::Int(6)])).unwrap();
        let vals = out.port_values("Double", "output");
        assert_eq!(vals.iter().filter_map(Value::as_i64).collect::<Vec<_>>(), vec![8, 12]);
    }

    #[test]
    fn async_submit_and_wait() {
        let mut c = logged_in_client();
        c.register_workflow(WF_SRC, "isPrime", None).unwrap();
        let id = c.submit(RunTarget::Registered("isPrime".into()), RunConfig::iterations(10)).unwrap();
        assert!(id > 0);
        let out = c.wait_job(id, std::time::Duration::from_secs(20)).unwrap();
        assert_eq!(out.printed.len(), 4);
        // Status keeps answering after completion, with metrics.
        let status = c.job_status(id).unwrap();
        assert_eq!(status["status"].as_str(), Some("done"));
        assert!(status["run_us"].as_i64().unwrap() >= 0);
        assert!(status["engine"].as_i64().is_some());
        // The async result equals the synchronous run.
        let sync = c.run_registered("isPrime", RunConfig::iterations(10)).unwrap();
        assert_eq!(sync.printed, out.printed);
        assert_eq!(sync.processed, out.processed);
    }

    #[test]
    fn async_job_errors_surface() {
        let mut c = logged_in_client();
        assert!(matches!(c.job_status(42), Err(ClientError::Api { status: 404, .. })));
        assert!(matches!(c.job_result(42), Err(ClientError::Api { status: 404, .. })));
        // A failing execution surfaces through job_result as a 400.
        let id = c
            .submit(RunTarget::Source("pe A : producer { output o; process { emit(1); } } pe B : producer { output o; process { emit(2); } }".into()), RunConfig::iterations(1))
            .unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        loop {
            match c.job_result(id) {
                Err(ClientError::Api { status: 400, .. }) => break,
                Ok(None) => assert!(std::time::Instant::now() < deadline, "job never failed"),
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn event_stream_iterates_to_done_marker() {
        let mut c = logged_in_client();
        c.register_workflow(WF_SRC, "isPrime", None).unwrap();
        let id = c
            .submit(RunTarget::Registered("isPrime".into()), RunConfig::iterations(10).with_events(true))
            .unwrap();
        let events: Vec<Value> =
            c.event_stream(id, std::time::Duration::from_secs(20)).collect::<Result<_, _>>().unwrap();
        let types: Vec<&str> = events.iter().filter_map(|e| e["type"].as_str()).collect();
        assert_eq!(types.first(), Some(&"plan"));
        assert_eq!(types.last(), Some(&"done"));
        // The streamed prints equal the batch result's, in order.
        let streamed: Vec<&str> = events
            .iter()
            .filter(|e| e["type"].as_str() == Some("print"))
            .filter_map(|e| e["line"].as_str())
            .collect();
        let out = c.wait_job(id, std::time::Duration::from_secs(5)).unwrap();
        assert_eq!(streamed, out.printed.iter().map(String::as_str).collect::<Vec<_>>());
        // Sequence numbers strictly increase across pages.
        let seqs: Vec<i64> = events.iter().filter_map(|e| e["seq"].as_i64()).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "seqs: {seqs:?}");
    }

    #[test]
    fn wait_job_with_progress_reports_events_and_result() {
        let mut c = logged_in_client();
        c.register_workflow(WF_SRC, "isPrime", None).unwrap();
        let id = c
            .submit(RunTarget::Registered("isPrime".into()), RunConfig::iterations(20).with_events(true))
            .unwrap();
        let mut outputs_seen = 0usize;
        let mut finished_seen = false;
        let out = c
            .wait_job_with_progress(id, std::time::Duration::from_secs(20), |e| match e["type"].as_str() {
                Some("output") => outputs_seen += 1,
                Some("finished") => finished_seen = true,
                _ => {}
            })
            .unwrap();
        assert!(finished_seen, "the finished event reached the progress callback");
        assert_eq!(outputs_seen, 0, "IsPrime's terminal consumer prints; no terminal ports");
        assert_eq!(out.printed.len(), 8, "primes <= 20");
        assert!(out.events > 0, "output reports its stream size");
    }

    #[test]
    fn event_stream_detects_server_side_truncation() {
        // A run whose stream exceeds the server's bounded per-job log
        // (8192 events): reading from cursor 0 after eviction must error
        // loudly instead of silently yielding a beheaded stream.
        let mut c = logged_in_client();
        let src = r#"
            pe Gen : producer { output output; process { emit(iteration); } }
            workflow Flood { nodes { g = Gen; } }
        "#;
        let id =
            c.submit(RunTarget::Source(src.into()), RunConfig::iterations(9000).with_events(true)).unwrap();
        c.wait_job(id, std::time::Duration::from_secs(60)).unwrap();
        let mut stream = c.event_stream(id, std::time::Duration::from_secs(5));
        match stream.next() {
            Some(Err(ClientError::Transport(m))) => assert!(m.contains("truncated"), "{m}"),
            other => panic!("expected truncation error, got {other:?}"),
        }
        assert!(stream.next().is_none(), "stream ends after the truncation error");
        // Resuming from the oldest retained seq still works.
        let page = c.job_events(id, 0).unwrap();
        assert!(page.first > 0, "the log really did evict");
        let resumed = c.job_events(id, page.first).unwrap();
        assert_eq!(resumed.events.first().unwrap()["seq"].as_i64(), Some(page.first as i64));
    }

    #[test]
    fn wait_job_with_progress_survives_stream_truncation() {
        // When the bounded log evicted events, the progress stream is
        // lost but the completed job's result must still come back.
        let mut c = logged_in_client();
        let src = r#"
            pe Gen : producer { output output; process { emit(iteration); } }
            workflow Flood { nodes { g = Gen; } }
        "#;
        let id =
            c.submit(RunTarget::Source(src.into()), RunConfig::iterations(9000).with_events(true)).unwrap();
        c.wait_job(id, std::time::Duration::from_secs(60)).unwrap();
        let mut events_seen = 0usize;
        let out = c
            .wait_job_with_progress(id, std::time::Duration::from_secs(30), |_| events_seen += 1)
            .expect("result survives the truncated stream");
        assert_eq!(events_seen, 0, "stream was truncated before the first page");
        assert_eq!(out.port_values("Gen", "output").len(), 9000);
    }

    #[test]
    fn unbounded_job_cancelled_from_the_event_stream() {
        // The long-running serving loop: submit an unbounded source,
        // consume its live stream, stop it from the consumer side, and
        // observe the `cancelled` seal + the Cancelled wait outcome.
        let mut c = logged_in_client();
        let src = r#"
            pe Gen : producer { output output; process { emit(iteration); } }
            workflow Forever { nodes { g = Gen; } }
        "#;
        let id = c
            .submit(
                RunTarget::Source(src.into()),
                RunConfig::unbounded(std::time::Duration::from_micros(300)),
            )
            .unwrap();
        let mut stream = c.event_stream(id, std::time::Duration::from_secs(30));
        let mut outputs = 0usize;
        let mut types: Vec<String> = Vec::new();
        while let Some(event) = stream.next() {
            let event = event.unwrap();
            let ty = event["type"].as_str().unwrap().to_string();
            if ty == "output" {
                outputs += 1;
                if outputs == 5 {
                    let r = stream.cancel().unwrap();
                    assert!(matches!(r["status"].as_str(), Some("running") | Some("cancelled")));
                }
            }
            types.push(ty);
        }
        assert!(outputs >= 5, "streamed real data before the cancel: {outputs}");
        assert_eq!(types.last().map(String::as_str), Some("cancelled"), "stream sealed");
        assert_eq!(types.iter().filter(|t| *t == "cancelled").count(), 1);
        assert!(!types.contains(&"done".to_string()), "cancel is not completion");
        // Waiting on a cancelled job reports Cancelled, not a timeout.
        match c.wait_job(id, std::time::Duration::from_secs(10)) {
            Err(ClientError::Cancelled { job }) => assert_eq!(job, id),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // Idempotent from the client too.
        assert_eq!(c.cancel_job(id).unwrap()["status"].as_str(), Some("cancelled"));
        // Unknown jobs keep 404 semantics.
        assert!(matches!(c.cancel_job(424242), Err(ClientError::Api { status: 404, .. })));
    }

    #[test]
    fn wait_job_ends_at_once_on_a_page_error_that_is_not_a_throttle() {
        let c = logged_in_client();
        let (t0, mut seen) = (std::time::Instant::now(), 0);
        let r = c.wait_job_with_progress(4242, std::time::Duration::from_secs(30), |_| seen += 1);
        assert!(matches!(r, Err(ClientError::Api { status: 404, .. })), "{r:?}");
        assert_eq!(seen, 0);
        assert!(t0.elapsed() < std::time::Duration::from_secs(10), "did not wait out the budget");
    }

    #[test]
    fn event_stream_for_unknown_job_errors_once() {
        let c = logged_in_client();
        let items: Vec<Result<Value, ClientError>> =
            c.event_stream(4242, std::time::Duration::from_secs(1)).collect();
        assert_eq!(items.len(), 1);
        assert!(matches!(items[0], Err(ClientError::Api { status: 404, .. })));
    }

    #[test]
    fn checkpointed_submit_streams_epoch_markers_and_matches_batch() {
        let mut c = logged_in_client();
        c.register_workflow(WF_SRC, "isPrime", None).unwrap();
        let id = c
            .submit(
                RunTarget::Registered("isPrime".into()),
                RunConfig::iterations(20).with_checkpoints(6).with_events(true),
            )
            .unwrap();
        let events: Vec<Value> =
            c.event_stream(id, std::time::Duration::from_secs(20)).collect::<Result<_, _>>().unwrap();
        let epochs: Vec<i64> = events
            .iter()
            .filter(|e| e["type"].as_str() == Some("epoch"))
            .filter_map(|e| e["epoch"].as_i64())
            .collect();
        assert_eq!(epochs, vec![1, 2, 3], "20 iterations at interval 6 cross three full chunks");
        for e in events.iter().filter(|e| e["type"].as_str() == Some("epoch")) {
            assert!(e["state"].as_array().is_some(), "epoch carries the instance snapshots: {e:?}");
        }
        // Checkpointing never changes what the run computes.
        let out = c.wait_job(id, std::time::Duration::from_secs(5)).unwrap();
        let plain = c.run_registered("isPrime", RunConfig::iterations(20)).unwrap();
        assert_eq!(out.printed, plain.printed);
    }

    #[test]
    fn event_stream_resumes_from_an_epoch_after_eviction() {
        // Same eviction as event_stream_detects_server_side_truncation,
        // but the run is checkpointed: the retained window holds epoch
        // markers, so the stream recovers with a non-fatal Resumed notice
        // and continues from the earliest retained epoch.
        let mut c = logged_in_client();
        let src = r#"
            pe Gen : producer { output output; process { emit(iteration); } }
            workflow Flood { nodes { g = Gen; } }
        "#;
        let id = c
            .submit(
                RunTarget::Source(src.into()),
                RunConfig::iterations(9000).with_checkpoints(500).with_events(true),
            )
            .unwrap();
        c.wait_job(id, std::time::Duration::from_secs(60)).unwrap();
        let mut stream = c.event_stream(id, std::time::Duration::from_secs(10));
        let (job, at_epoch) = match stream.next() {
            Some(Err(ClientError::Resumed { job, at_epoch })) => (job, at_epoch),
            other => panic!("expected the Resumed notice, got {other:?}"),
        };
        assert_eq!(job, id);
        assert!(at_epoch >= 1, "resumed from a real epoch, got {at_epoch}");
        // The stream continues: first an epoch marker (the resume point),
        // then the tail of the run through the done marker.
        let rest: Vec<Value> = stream.collect::<Result<_, _>>().expect("no further errors");
        assert_eq!(rest.first().unwrap()["type"].as_str(), Some("epoch"));
        assert_eq!(rest.first().unwrap()["epoch"].as_i64(), Some(at_epoch));
        assert_eq!(rest.last().unwrap()["type"].as_str(), Some("done"));
        // The recovered suffix is gap-free.
        let seqs: Vec<i64> = rest.iter().filter_map(|e| e["seq"].as_i64()).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "contiguous after resume");
    }

    /// A transport that fails the next `fail_next` calls before reaching
    /// the wrapped in-process server — the transient-connection-error
    /// model for the retry tests.
    struct FlakyTransport {
        inner: InProcessTransport,
        fail_next: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        calls: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl crate::web::Transport for FlakyTransport {
        fn call(&self, request: &laminar_server::ApiRequest) -> Result<ApiResponse, String> {
            use std::sync::atomic::Ordering;
            self.calls.fetch_add(1, Ordering::SeqCst);
            let remaining = self.fail_next.load(Ordering::SeqCst);
            if remaining > 0 {
                self.fail_next.store(remaining - 1, Ordering::SeqCst);
                return Err("connection reset by peer".into());
            }
            self.inner.call(request)
        }

        fn endpoint(&self) -> String {
            "flaky".to_string()
        }
    }

    #[test]
    fn idempotent_gets_are_retried_but_mutations_fail_fast() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let fail_next = Arc::new(AtomicUsize::new(0));
        let calls = Arc::new(AtomicUsize::new(0));
        let transport = FlakyTransport {
            inner: InProcessTransport::new(LaminarServer::in_memory()),
            fail_next: Arc::clone(&fail_next),
            calls: Arc::clone(&calls),
        };
        let mut c = LaminarClient::with_transport(Box::new(transport));
        c.register("zz46", "password").unwrap();
        c.login("zz46", "password").unwrap();

        // A GET rides out two transient failures (attempt 3 succeeds).
        fail_next.store(2, Ordering::SeqCst);
        let before = calls.load(Ordering::SeqCst);
        let stats = c.pool_stats().expect("third attempt reaches the server");
        assert!(stats["workers"].as_i64().unwrap() > 0);
        assert_eq!(calls.load(Ordering::SeqCst) - before, 3);

        // Three consecutive failures exhaust the retry budget.
        fail_next.store(3, Ordering::SeqCst);
        let before = calls.load(Ordering::SeqCst);
        assert!(matches!(c.job_status(1), Err(ClientError::Transport(_))));
        assert_eq!(calls.load(Ordering::SeqCst) - before, 3, "max 3 attempts");

        // A POST is never retried: it may have been applied server-side
        // before the connection dropped.
        fail_next.store(1, Ordering::SeqCst);
        let before = calls.load(Ordering::SeqCst);
        assert!(matches!(
            c.register_pe("pe X : producer { output o; process { emit(1); } }", None),
            Err(ClientError::Transport(_))
        ));
        assert_eq!(calls.load(Ordering::SeqCst) - before, 1, "mutations get exactly one attempt");
    }

    #[test]
    fn resume_job_for_unknown_job_is_404() {
        let c = logged_in_client();
        assert!(matches!(c.resume_job(777), Err(ClientError::Api { status: 404, .. })));
    }

    #[test]
    fn rate_limited_submit_surfaces_typed_429_with_retry_hint() {
        let server = LaminarServer::in_memory();
        server.pool().set_tenant_rate(1.0, 1.0);
        let mut c = LaminarClient::in_process(server);
        c.register("zz46", "password").unwrap();
        c.login("zz46", "password").unwrap();
        c.register_workflow(WF_SRC, "isPrime", None).unwrap();
        // The burst token admits the first submit; the second is throttled
        // with a typed hint — no string matching required.
        let id = c.submit(RunTarget::Registered("isPrime".into()), RunConfig::iterations(2)).unwrap();
        match c.submit(RunTarget::Registered("isPrime".into()), RunConfig::iterations(2)) {
            Err(ClientError::Api { status: 429, kind, retry_after_ms: Some(ms), .. }) => {
                assert_eq!(kind, "Busy");
                assert!((1..=1001).contains(&ms), "refill of a 1/s bucket is under a second: {ms}");
            }
            other => panic!("expected a typed 429 with a retry hint, got {other:?}"),
        }
        c.wait_job(id, std::time::Duration::from_secs(20)).unwrap();
    }

    /// A transport that answers the next `throttle_next` event-page GETs
    /// with a v1 429 envelope before delegating — the saturated-server
    /// model for the backoff test.
    struct ThrottlingTransport {
        inner: InProcessTransport,
        throttle_next: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        retry_after_ms: i64,
    }

    impl crate::web::Transport for ThrottlingTransport {
        fn call(&self, request: &laminar_server::ApiRequest) -> Result<ApiResponse, String> {
            use std::sync::atomic::Ordering;
            let remaining = self.throttle_next.load(Ordering::SeqCst);
            if remaining > 0 && request.path.contains("/events") {
                self.throttle_next.store(remaining - 1, Ordering::SeqCst);
                let mut detail = Value::Null;
                detail
                    .set("code", "Busy")
                    .set("status", 429i64)
                    .set("message", "server busy")
                    .set("retryAfterMs", self.retry_after_ms);
                let mut body = Value::Null;
                body.set("error", detail);
                return Ok(ApiResponse { status: 429, body });
            }
            self.inner.call(request)
        }

        fn endpoint(&self) -> String {
            "throttling".to_string()
        }
    }

    #[test]
    fn wait_job_honors_the_server_retry_hint_on_429() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let throttle_next = Arc::new(AtomicUsize::new(0));
        let transport = ThrottlingTransport {
            inner: InProcessTransport::new(LaminarServer::in_memory()),
            throttle_next: Arc::clone(&throttle_next),
            retry_after_ms: 40,
        };
        let mut c = LaminarClient::with_transport(Box::new(transport));
        c.register("zz46", "password").unwrap();
        c.login("zz46", "password").unwrap();
        c.register_workflow(WF_SRC, "isPrime", None).unwrap();
        let id = c.submit(RunTarget::Registered("isPrime".into()), RunConfig::iterations(10)).unwrap();
        // Two throttled pages: wait_job must ride them out, pacing itself
        // by the server's 40 ms advice instead of failing or hammering.
        throttle_next.store(2, Ordering::SeqCst);
        let t0 = std::time::Instant::now();
        let out = c.wait_job(id, std::time::Duration::from_secs(20)).unwrap();
        assert_eq!(out.printed.len(), 4);
        assert!(t0.elapsed() >= std::time::Duration::from_millis(80), "slept 2×40 ms: {:?}", t0.elapsed());
        assert_eq!(throttle_next.load(Ordering::SeqCst), 0, "both throttled responses were consumed");
        // The event stream reads its pages the same way: the same two
        // throttled pages pause it, and it still ends at the marker.
        throttle_next.store(2, Ordering::SeqCst);
        let t0 = std::time::Instant::now();
        let events: Vec<Value> =
            c.event_stream(id, std::time::Duration::from_secs(20)).collect::<Result<_, _>>().unwrap();
        assert_eq!(events.last().unwrap()["type"].as_str(), Some("done"));
        assert!(t0.elapsed() >= std::time::Duration::from_millis(80), "slept 2×40 ms: {:?}", t0.elapsed());
        assert_eq!(throttle_next.load(Ordering::SeqCst), 0, "both throttled responses were consumed");
    }

    /// A transport in front of a real server that strips one field from
    /// every event page — the page a broken or foreign server would send.
    struct PageManglingTransport {
        inner: InProcessTransport,
        strip: &'static str,
    }

    impl crate::web::Transport for PageManglingTransport {
        fn call(&self, request: &laminar_server::ApiRequest) -> Result<ApiResponse, String> {
            let mut response = self.inner.call(request)?;
            if request.path.contains("/events") {
                response.body.as_object_mut().expect("a page is an object").remove(self.strip);
            }
            Ok(response)
        }

        fn endpoint(&self) -> String {
            "page-mangling".to_string()
        }
    }

    #[test]
    fn a_page_missing_a_cursor_field_ends_the_stream_with_one_error() {
        for strip in ["next", "first", "closed", "events"] {
            let transport =
                PageManglingTransport { inner: InProcessTransport::new(LaminarServer::in_memory()), strip };
            let mut c = LaminarClient::with_transport(Box::new(transport));
            c.register("zz46", "password").unwrap();
            c.login("zz46", "password").unwrap();
            let id = c
                .submit(RunTarget::Source(WF_SRC.into()), RunConfig::iterations(3).with_events(true))
                .unwrap();
            // Read as defaults, a page with events and no `next` sent the
            // stream back to `since=0`: the first page over and over, until
            // the deadline.
            let items: Vec<_> = c.event_stream(id, std::time::Duration::from_millis(300)).collect();
            match items.as_slice() {
                [Err(ClientError::Transport(message))] => {
                    assert!(message.contains("malformed event page"), "{strip}: {message}")
                }
                other => panic!("{strip}: expected the one error, got {} items: {other:?}", other.len()),
            }
        }
        // A field of the wrong type or sign is as malformed as a missing one.
        struct Fixed(Value);
        impl crate::web::Transport for Fixed {
            fn call(&self, _: &laminar_server::ApiRequest) -> Result<ApiResponse, String> {
                Ok(ApiResponse::ok(self.0.clone()))
            }
            fn endpoint(&self) -> String {
                "fixed".to_string()
            }
        }
        for (field, bad) in
            [("next", Value::Int(-1)), ("first", Value::Str("0".into())), ("closed", Value::Int(1))]
        {
            let mut page =
                laminar_json::parse(r#"{"closed":false,"events":[],"first":0,"jobId":1,"next":0}"#).unwrap();
            page.set(field, bad);
            let mut c = LaminarClient::with_transport(Box::new(Fixed(page)));
            c.user = Some("zz46".into());
            assert!(matches!(c.job_events(1, 0), Err(ClientError::Transport(_))), "{field}");
        }
    }

    #[test]
    fn push_event_stream_matches_polling_over_tcp() {
        // The long-poll `&wait_ms=` query rides inside the percent-encoded
        // segment over real HTTP, and the pushed stream yields exactly the
        // pages a `wait = 0` poll of the sealed log reads back.
        let http = laminar_server::HttpServer::start(LaminarServer::in_memory()).unwrap();
        let mut c = LaminarClient::connect(http.addr());
        c.register("push-tcp", "password").unwrap();
        c.login("push-tcp", "password").unwrap();
        c.register_workflow(WF_SRC, "isPrime", None).unwrap();
        let id = c
            .submit(RunTarget::Registered("isPrime".into()), RunConfig::iterations(20).with_events(true))
            .unwrap();
        let pushed: Vec<Value> =
            c.event_stream(id, std::time::Duration::from_secs(20)).collect::<Result<_, _>>().unwrap();
        assert_eq!(pushed.last().unwrap()["type"].as_str(), Some("done"));
        let mut polled: Vec<Value> = Vec::new();
        loop {
            let page = c.job_events(id, polled.len() as u64).unwrap();
            polled.extend(page.events);
            if page.closed {
                break;
            }
        }
        assert_eq!(pushed, polled);
        let seqs: Vec<i64> = pushed.iter().filter_map(|e| e["seq"].as_i64()).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "gap-free push stream: {seqs:?}");
        http.stop();
    }

    /// The POST bodies of the three constructors with every builder set,
    /// byte for byte: the client's part of the submit wire.
    #[test]
    fn run_bodies_are_these_bytes() {
        let all = |c: RunConfig| {
            c.with_mapping(MappingKind::Mpi, 3)
                .with_resource("a.txt", b"hi\n".to_vec())
                .with_resource("b.bin", vec![0, 255, 7])
                .with_events(true)
                .with_checkpoints(4)
        };
        let src = "pe X : producer { output o; process { emit(1); } }";
        let data = vec![Value::Int(1), Value::Str("x".into()), Value::Float(0.5)];
        let pace = std::time::Duration::from_micros(750);
        let cases = [
            (
                RunTarget::Registered("wf".into()),
                all(RunConfig::iterations(7)),
                r#"{"input":7,"mapping":"MPI","options":{"checkpointEvery":4,"events":true},"processes":3,"resources":[{"data":"aGkK","name":"a.txt"},{"data":"AP8H","name":"b.bin"}],"workflow":"wf"}"#,
            ),
            (
                RunTarget::Source(src.into()),
                all(RunConfig::data(data)),
                r#"{"input":[1,"x",0.5],"mapping":"MPI","options":{"checkpointEvery":4,"events":true},"processes":3,"resources":[{"data":"aGkK","name":"a.txt"},{"data":"AP8H","name":"b.bin"}],"source":"pe X : producer { output o; process { emit(1); } }"}"#,
            ),
            (
                RunTarget::Registered("17".into()),
                all(RunConfig::unbounded(pace)).with_events(false),
                r#"{"input":{"mode":"unbounded","pace_us":750},"mapping":"MPI","options":{"checkpointEvery":4,"events":false},"processes":3,"resources":[{"data":"aGkK","name":"a.txt"},{"data":"AP8H","name":"b.bin"}],"workflow":"17"}"#,
            ),
            (
                RunTarget::Registered("wf".into()),
                RunConfig::iterations(3),
                r#"{"input":3,"mapping":"SIMPLE","options":{"events":false},"processes":1,"resources":[],"workflow":"wf"}"#,
            ),
            (
                RunTarget::Registered("wf".into()),
                RunConfig::unbounded(pace),
                r#"{"input":{"mode":"unbounded","pace_us":750},"mapping":"SIMPLE","options":{"events":true},"processes":1,"resources":[],"workflow":"wf"}"#,
            ),
        ];
        for (target, config, expected) in cases {
            assert_eq!(laminar_json::to_string(&LaminarClient::run_body(target, &config)), expected);
        }
    }

    #[test]
    fn async_over_tcp() {
        let http = laminar_server::HttpServer::start(LaminarServer::in_memory()).unwrap();
        let mut c = LaminarClient::connect(http.addr());
        c.register("async-tcp", "password").unwrap();
        c.login("async-tcp", "password").unwrap();
        c.register_workflow(WF_SRC, "isPrime", None).unwrap();
        let id = c
            .submit(RunTarget::Registered("isPrime".into()), RunConfig::iterations(20).with_events(true))
            .unwrap();
        let out = c.wait_job(id, std::time::Duration::from_secs(20)).unwrap();
        assert_eq!(out.printed.len(), 8);
        // The event cursor protocol works over real HTTP too (the
        // `?since=` query rides inside the percent-encoded segment).
        let events: Vec<Value> =
            c.event_stream(id, std::time::Duration::from_secs(10)).collect::<Result<_, _>>().unwrap();
        assert_eq!(events.last().unwrap()["type"].as_str(), Some("done"));
        assert_eq!(events.iter().filter(|e| e["type"].as_str() == Some("print")).count(), 8);
        let page = c.job_events(id, 2).unwrap();
        assert_eq!(page.events.first().unwrap()["seq"].as_i64(), Some(2));
        http.stop();
    }

    #[test]
    fn over_tcp_everything_still_works() {
        let http = laminar_server::HttpServer::start(LaminarServer::in_memory()).unwrap();
        let mut c = LaminarClient::connect(http.addr());
        c.register("remote", "password").unwrap();
        c.login("remote", "password").unwrap();
        c.register_workflow(WF_SRC, "isPrime", None).unwrap();
        let out = c.run_registered("isPrime", RunConfig::iterations(10)).unwrap();
        assert_eq!(out.printed.len(), 4);
        // Search with spaces travels over HTTP percent-encoded.
        let hits = c.search_registry("prints random prime", "workflow", "text").unwrap();
        assert_eq!(hits.len(), 1);
        http.stop();
    }

    #[test]
    fn a_search_query_holding_a_slash_is_a_search_on_both_transports() {
        let http = laminar_server::HttpServer::start(LaminarServer::in_memory()).unwrap();
        let clients = [
            ("in-process", LaminarClient::in_process(LaminarServer::in_memory())),
            ("tcp", LaminarClient::connect(http.addr())),
        ];
        for (transport, mut c) in clients {
            c.register("slash", "password").unwrap();
            c.login("slash", "password").unwrap();
            c.register_pe(
                "pe Halve : iterative { input x; output output; process { emit(x / 2); } }",
                Some("halves every input/output value"),
            )
            .unwrap();
            c.register_pe(
                "pe Shout : iterative { input text; output output; process { emit(text + \"!\"); } }",
                Some("appends an exclamation mark to a line of text"),
            )
            .unwrap();
            for (query, search_type, query_type) in
                [("emit(x / 2)", "pe", "code"), ("input/output", "both", "text")]
            {
                let hits = c
                    .search_registry(query, search_type, query_type)
                    .unwrap_or_else(|e| panic!("{transport}: {query:?} failed: {e:?}"));
                assert_eq!(
                    hits[0]["name"].as_str(),
                    Some("Halve"),
                    "{transport}: {query:?} answered {hits:?}"
                );
            }
        }
        http.stop();
    }

    #[test]
    fn a_run_asking_for_more_than_256_processes_is_a_400_on_both_transports() {
        let http = laminar_server::HttpServer::start(LaminarServer::in_memory()).unwrap();
        let clients = [
            ("in-process", LaminarClient::in_process(LaminarServer::in_memory())),
            ("tcp", LaminarClient::connect(http.addr())),
        ];
        let src = "pe Say : producer { output output; process { print(iteration); } }";
        for (transport, mut c) in clients {
            c.register("procs", "password").unwrap();
            c.login("procs", "password").unwrap();
            // Refused before anything is planned, on the sync and the async
            // path alike.
            let too_many = RunConfig::iterations(3).with_mapping(MappingKind::Multi, 257);
            let refused = [
                c.run_source(src, too_many.clone()).map(|_| ()),
                c.submit(RunTarget::Source(src.into()), too_many).map(|_| ()),
            ];
            for r in refused {
                match r {
                    Err(ClientError::Api { status: 400, message, .. }) => {
                        assert!(message.contains("processes"), "{transport}: {message}")
                    }
                    other => panic!("{transport}: expected a 400, got {other:?}"),
                }
            }
            // The bound itself runs.
            let out =
                c.run_source(src, RunConfig::iterations(3).with_mapping(MappingKind::Multi, 256)).unwrap();
            assert_eq!(out.printed, ["0", "1", "2"], "{transport}");
        }
        http.stop();
    }
}
