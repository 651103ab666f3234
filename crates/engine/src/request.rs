//! The execution request: everything `/execution/{user}/run` carries
//! (paper §3.3 — workflows, PEs, runtime configs, arguments, imports and
//! mappings).

use laminar_dataflow::mapping::RunInput;
use laminar_dataflow::MappingKind;
use laminar_json::Value;
use laminar_script::{prepare, Prepared, ScriptError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A source text [`prepare`] refused, kept with the reason: the request
/// that carries it still serialises, and running it fails with `error`.
#[derive(Debug, Clone)]
pub struct RejectedSource {
    /// The text as it was given.
    pub text: String,
    /// Why it does not parse or compile.
    pub error: ScriptError,
}

/// Per-submission options: the v1 API's single carrier for event
/// streaming, checkpointing and the fair queue's scheduling hints
/// (`priority`, `deadline_ms`). Mirrors the registry's
/// `SearchOptions` pattern: one struct threaded end to end — client
/// `RunConfig`, wire body, [`ExecutionRequest`] — instead of a growing
/// list of positional/boolean parameters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Log the run's live event stream for the `/events` endpoint. Off by
    /// default: batch jobs skip per-event wire conversion.
    pub events: bool,
    /// Checkpoint interval in source iterations: `n > 0` makes the
    /// enactment emit an epoch snapshot every `n` iterations, journaled
    /// per-job when the pool has a journal store. `0` (default) disables
    /// checkpointing.
    pub checkpoint_every: usize,
    /// Intra-tenant scheduling priority: within the submitting tenant's
    /// lane, higher-priority jobs run first (FIFO among equals). The
    /// cross-tenant order is governed by the pool's fair scheduler, so
    /// priority never lets one tenant cut another's line. Default 0.
    pub priority: i64,
    /// Queue-wait deadline in milliseconds: a job still waiting when the
    /// deadline passes is failed fast (`deadline exceeded`) instead of
    /// running uselessly late. `None` (default) waits indefinitely.
    pub deadline_ms: Option<u64>,
}

impl SubmitOptions {
    /// Serialize as the nested `options` object of the v1 wire form.
    pub fn to_value(&self) -> Value {
        let mut v = Value::Null;
        v.set("events", self.events);
        if self.checkpoint_every > 0 {
            v.set("checkpointEvery", self.checkpoint_every);
        }
        if self.priority != 0 {
            v.set("priority", self.priority);
        }
        if let Some(d) = self.deadline_ms {
            v.set("deadlineMs", d as i64);
        }
        v
    }

    /// Parse submission options out of a request envelope: its nested
    /// `options` object (absent fields, or no object at all, take the
    /// defaults).
    pub fn from_request_value(v: &Value) -> SubmitOptions {
        let opts = &v["options"];
        SubmitOptions {
            events: opts["events"].as_bool().unwrap_or(false),
            checkpoint_every: opts["checkpointEvery"].as_i64().unwrap_or(0).max(0) as usize,
            priority: opts["priority"].as_i64().unwrap_or(0),
            deadline_ms: opts["deadlineMs"].as_i64().filter(|d| *d >= 0).map(|d| d as u64),
        }
    }
}

/// A serverless execution request.
#[derive(Debug, Clone)]
pub struct ExecutionRequest {
    /// Requesting user.
    pub user: String,
    /// The script defining the PEs and the workflow to run, prepared once
    /// where the request was built — by [`Self::simple`] /
    /// [`Self::from_value`] from source text, or handed over already
    /// prepared by the registry ([`Self::with_script`]). However often the
    /// request then runs, nothing is parsed or compiled again.
    pub script: Result<Arc<Prepared>, RejectedSource>,
    /// Time [`Self::script`] took to prepare *for this request*: zero when
    /// the registry handed it over. Reported as the run's `compile_us`.
    pub prepare_time: Duration,
    /// Workflow name inside the script; `None` runs the first workflow
    /// present, or the single PE — as a one-node graph — if the script
    /// defines exactly one PE and no workflow (the FaaS-style use of
    /// §3.4.1).
    pub workflow: Option<String>,
    /// Mapping to enact with.
    pub mapping: MappingKind,
    /// Producer drive: iterations or explicit data.
    pub input: RunInput,
    /// Process count for parallel mappings (`args={'num': N}`).
    pub processes: usize,
    /// Named resources to stage (`resources=True` + resources dir).
    pub resources: Vec<(String, Vec<u8>)>,
    /// Submission options: event streaming, checkpointing and scheduling
    /// hints, carried as one struct (see [`SubmitOptions`]).
    pub options: SubmitOptions,
    /// Resume point injected by [`crate::EnginePool`]'s resume path.
    /// Never crosses the wire: clients POST `/resume` and the pool
    /// reconstructs this from the job's journal.
    pub resume: Option<laminar_dataflow::mapping::ResumePoint>,
    /// Fault plan for the chaos harness. Never crosses the wire (a remote
    /// request cannot ask the engine to kill itself) and is read from
    /// nowhere else: in-process tests set it directly, and `None` runs
    /// with no faults.
    pub faults: Option<laminar_dataflow::FaultPlan>,
}

impl ExecutionRequest {
    /// Minimal request: run `source` with the Simple mapping for `n`
    /// iterations. The source is prepared here; one that is refused fails
    /// the run, not this call.
    pub fn simple(user: &str, source: &str, iterations: i64) -> ExecutionRequest {
        let t0 = Instant::now();
        let script = prepare(source).map_err(|error| RejectedSource { text: source.to_string(), error });
        let mut req = Self::around(user, script);
        req.prepare_time = t0.elapsed();
        req.input = RunInput::Iterations(iterations);
        req
    }

    /// The defaults around a script: Simple mapping, one process, no input.
    fn around(user: &str, script: Result<Arc<Prepared>, RejectedSource>) -> ExecutionRequest {
        ExecutionRequest {
            user: user.to_string(),
            script,
            prepare_time: Duration::ZERO,
            workflow: None,
            mapping: MappingKind::Simple,
            input: RunInput::Iterations(0),
            processes: 1,
            resources: Vec::new(),
            options: SubmitOptions::default(),
            resume: None,
            faults: None,
        }
    }

    /// Switch the mapping.
    pub fn with_mapping(mut self, mapping: MappingKind, processes: usize) -> Self {
        self.mapping = mapping;
        self.processes = processes;
        self
    }

    /// Name the workflow to run.
    pub fn with_workflow(mut self, name: &str) -> Self {
        self.workflow = Some(name.to_string());
        self
    }

    /// Feed explicit data instead of iteration counts.
    pub fn with_data(mut self, data: Vec<Value>) -> Self {
        self.input = RunInput::Data(data);
        self
    }

    /// Run the producers unbounded (until the job is cancelled), pacing
    /// each source instance by `pace` between iterations. Generator
    /// callbacks do not cross the wire: server-side unbounded runs drive
    /// producers by iteration count or host calls.
    pub fn with_unbounded(mut self, pace: std::time::Duration) -> Self {
        self.input = RunInput::Unbounded { generator: None, pace };
        self
    }

    /// Stage a resource.
    pub fn with_resource(mut self, name: &str, bytes: Vec<u8>) -> Self {
        self.resources.push((name.to_string(), bytes));
        self
    }

    /// Request a live event stream (the `/events` endpoint's source).
    pub fn with_events(mut self, stream: bool) -> Self {
        self.options.events = stream;
        self
    }

    /// Checkpoint the enactment every `n` source iterations (0 = off).
    pub fn with_checkpoints(mut self, n: usize) -> Self {
        self.options.checkpoint_every = n;
        self
    }

    /// Intra-tenant scheduling priority (higher runs first in the
    /// tenant's lane).
    pub fn with_priority(mut self, priority: i64) -> Self {
        self.options.priority = priority;
        self
    }

    /// Queue-wait deadline: fail the job fast if no worker picks it
    /// within `ms` milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.options.deadline_ms = Some(ms);
        self
    }

    /// Arm an in-process fault plan (chaos tests only — see the field doc).
    pub fn with_faults(mut self, faults: laminar_dataflow::FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The source text of [`Self::script`].
    pub fn source(&self) -> &str {
        match &self.script {
            Ok(prepared) => prepared.text(),
            Err(rejected) => &rejected.text,
        }
    }

    /// Serialize to the JSON envelope the wire protocol uses.
    pub fn to_value(&self) -> Value {
        let mut v = Value::Null;
        v.set("user", self.user.as_str())
            .set("source", self.source())
            .set("workflow", self.workflow.clone())
            .set("mapping", self.mapping.as_str())
            .set("processes", self.processes)
            .set("options", self.options.to_value());
        match &self.input {
            RunInput::Iterations(n) => {
                v.set("input", *n);
            }
            RunInput::Data(d) => {
                v.set("input", Value::Array(d.clone()));
            }
            RunInput::Unbounded { pace, .. } => {
                let mut u = Value::Null;
                u.set("mode", "unbounded").set("pace_us", pace.as_micros() as i64);
                v.set("input", u);
            }
        }
        let resources: Value = self
            .resources
            .iter()
            .map(|(name, bytes)| {
                let mut r = Value::Null;
                r.set("name", name.as_str()).set("data", laminar_codec::base64::encode(bytes));
                r
            })
            .collect();
        v.set("resources", resources);
        v
    }

    /// Parse the JSON envelope, preparing its `source` (a journaled request
    /// resumes this way). Defaults mirror the client: SIMPLE mapping,
    /// 5 iterations, 5 processes.
    pub fn from_value(v: &Value) -> Option<ExecutionRequest> {
        let mut req = Self::simple(v["user"].as_str().unwrap_or("anonymous"), v["source"].as_str()?, 0);
        req.workflow = v["workflow"].as_str().map(str::to_string);
        req.with_envelope(v)
    }

    /// A request for `user` to run an already-prepared `script` — the
    /// registered-workflow path — with everything else (mapping, input,
    /// processes, resources, options) read from the envelope `v`.
    pub fn with_script(user: &str, script: Arc<Prepared>, workflow: &str, v: &Value) -> Option<Self> {
        let mut req = Self::around(user, Ok(script));
        req.workflow = Some(workflow.to_string());
        req.with_envelope(v)
    }

    /// Fill in what an envelope says besides who runs which script.
    fn with_envelope(mut self, v: &Value) -> Option<ExecutionRequest> {
        let input = match &v["input"] {
            Value::Int(n) => RunInput::Iterations(*n),
            Value::Array(a) => RunInput::Data(a.clone()),
            Value::Null => RunInput::Iterations(5),
            obj @ Value::Object(_) if obj["mode"].as_str() == Some("unbounded") => RunInput::Unbounded {
                generator: None,
                pace: Duration::from_micros(obj["pace_us"].as_i64().unwrap_or(0).max(0) as u64),
            },
            _ => return None,
        };
        let mut resources = Vec::new();
        for r in v["resources"].as_array().unwrap_or(&[]) {
            let name = r["name"].as_str()?;
            let bytes = laminar_codec::base64::decode(r["data"].as_str()?).ok()?;
            resources.push((name.to_string(), bytes));
        }
        self.mapping = MappingKind::parse(v["mapping"].as_str().unwrap_or("SIMPLE"))?;
        self.input = input;
        self.processes = v["processes"].as_i64().unwrap_or(5).max(1) as usize;
        self.resources = resources;
        self.options = SubmitOptions::from_request_value(v);
        Some(self)
    }

    /// Approximate wire size in bytes (drives the WAN transfer model).
    pub fn wire_size(&self) -> usize {
        laminar_json::to_string(&self.to_value()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_via_value() {
        let req = ExecutionRequest::simple("zz46", "pe X : producer { output o; process { emit(1); } }", 7)
            .with_mapping(MappingKind::Multi, 5)
            .with_workflow("main")
            .with_resource("coords.txt", b"1 2".to_vec());
        let v = req.to_value();
        let back = ExecutionRequest::from_value(&v).unwrap();
        assert_eq!(back.user, "zz46");
        assert_eq!(back.workflow.as_deref(), Some("main"));
        assert_eq!(back.mapping, MappingKind::Multi);
        assert_eq!(back.processes, 5);
        assert!(matches!(back.input, RunInput::Iterations(7)));
        assert_eq!(back.resources[0].0, "coords.txt");
        assert_eq!(back.resources[0].1, b"1 2");
    }

    #[test]
    fn data_input_round_trip() {
        let req =
            ExecutionRequest::simple("u", "src", 0).with_data(vec![Value::Int(1), Value::Str("x".into())]);
        let back = ExecutionRequest::from_value(&req.to_value()).unwrap();
        match back.input {
            RunInput::Data(d) => assert_eq!(d.len(), 2),
            other => panic!("expected data input, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_input_round_trip() {
        let req = ExecutionRequest::simple("u", "src", 0)
            .with_unbounded(std::time::Duration::from_micros(750))
            .with_events(true);
        let back = ExecutionRequest::from_value(&req.to_value()).unwrap();
        match back.input {
            RunInput::Unbounded { pace, generator } => {
                assert_eq!(pace, std::time::Duration::from_micros(750));
                assert!(generator.is_none(), "generators never cross the wire");
            }
            other => panic!("expected unbounded input, got {other:?}"),
        }
        assert!(back.options.events);
        // An object input without the unbounded mode tag is malformed.
        let mut v = req.to_value();
        v.set("input", laminar_json::jobj! { "mode" => "mystery" });
        assert!(ExecutionRequest::from_value(&v).is_none());
    }

    #[test]
    fn checkpoint_interval_round_trips_but_resume_never_crosses_the_wire() {
        let req = ExecutionRequest::simple("u", "src", 5).with_checkpoints(32);
        let v = req.to_value();
        let back = ExecutionRequest::from_value(&v).unwrap();
        assert_eq!(back.options.checkpoint_every, 32);
        assert!(back.resume.is_none());
        // Absent field defaults to off.
        let plain =
            ExecutionRequest::from_value(&ExecutionRequest::simple("u", "src", 5).to_value()).unwrap();
        assert_eq!(plain.options.checkpoint_every, 0);
    }

    #[test]
    fn submit_options_round_trip() {
        let req = ExecutionRequest::simple("u", "src", 5)
            .with_events(true)
            .with_checkpoints(16)
            .with_priority(3)
            .with_deadline_ms(2500);
        let back = ExecutionRequest::from_value(&req.to_value()).unwrap();
        assert_eq!(back.options, req.options);
        assert_eq!(back.options.priority, 3);
        assert_eq!(back.options.deadline_ms, Some(2500));
    }

    #[test]
    fn defaults_applied() {
        let mut v = Value::Null;
        v.set("source", "pe X : producer { output o; process { emit(1); } }");
        let req = ExecutionRequest::from_value(&v).unwrap();
        assert_eq!(req.mapping, MappingKind::Simple);
        assert_eq!(req.processes, 5);
        assert!(matches!(req.input, RunInput::Iterations(5)));
        assert_eq!(req.user, "anonymous");
        assert_eq!(req.options, SubmitOptions::default(), "no options object, no options");
    }

    #[test]
    fn invalid_envelopes_rejected() {
        assert!(ExecutionRequest::from_value(&Value::Null).is_none());
        let mut v = Value::Null;
        v.set("source", "x").set("mapping", "SPARK");
        assert!(ExecutionRequest::from_value(&v).is_none());
    }

    #[test]
    fn wire_size_is_positive_and_grows() {
        let small = ExecutionRequest::simple("u", "short", 1);
        let big = ExecutionRequest::simple("u", &"long ".repeat(1000), 1);
        assert!(big.wire_size() > small.wire_size());
    }
}
