//! The execution request: everything `/execution/{user}/run` carries
//! (paper §3.3 — workflows, PEs, runtime configs, arguments, imports and
//! mappings).
//!
//! The paper's client call `run(workflow, input, process, args,
//! resources)` (§3.4.1) splits in two here. Who runs which script is the
//! [`ExecutionRequest`]'s; how to run it is one [`RunConfig`], the type the
//! client builds (`laminar_client::RunConfig` is this one) and the engine
//! reads. [`RunConfig::write_envelope`] and [`RunConfig::from_envelope`]
//! are the one codec of its JSON form: the client's POST body, the server's
//! decode and the journal's job meta all go through them.

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
    pub(crate) text: String,
    /// Why it does not parse or compile.
    pub error: ScriptError,
}

/// How to run a workflow: the paper's `run(workflow, input, process, args,
/// resources)` without the workflow. Built from one of the three
/// constructors ([`Self::iterations`], [`Self::data`], [`Self::unbounded`])
/// and the builders; every constructor starts from the Simple mapping, one
/// process, no resources and the default options.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Producer drive: iterations, explicit data, or unbounded.
    pub input: RunInput,
    /// Mapping (`process=` parameter; SIMPLE is inferred when omitted).
    pub mapping: MappingKind,
    /// Process count for parallel mappings (`args={'num': N}`).
    pub processes: usize,
    /// Named resources to stage, as (name, bytes) (`resources=True` +
    /// resources dir). The bytes are shared: the run's host reads this
    /// allocation, not a copy of it.
    pub resources: Vec<(String, Arc<[u8]>)>,
    /// Log the run's live event stream for the `/events` endpoint. Off by
    /// default except for [`Self::unbounded`]: batch jobs skip per-event
    /// wire conversion.
    pub events: bool,
    /// Checkpoint interval in source iterations: `n > 0` makes the
    /// enactment emit an epoch snapshot every `n` iterations, journaled
    /// per-job when the pool has a journal store. `0` (default) disables
    /// checkpointing.
    pub checkpoint_every: usize,
}

impl RunConfig {
    /// Run for `n` iterations.
    pub fn iterations(n: i64) -> RunConfig {
        RunConfig::driven_by(RunInput::Iterations(n))
    }

    /// Feed explicit data, one producer invocation per datum.
    pub fn data(values: Vec<Value>) -> RunConfig {
        RunConfig::driven_by(RunInput::Data(values))
    }

    /// Run unbounded (until the job is cancelled), pacing each source
    /// instance by `pace` between iterations. Only the async submit path
    /// takes it — the sync `run` endpoint rejects inputs that never
    /// complete — so this also turns on the event stream, the one place an
    /// unbounded run's results can be consumed.
    pub fn unbounded(pace: Duration) -> RunConfig {
        RunConfig { events: true, ..RunConfig::driven_by(RunInput::Unbounded { pace }) }
    }

    fn driven_by(input: RunInput) -> RunConfig {
        RunConfig {
            input,
            mapping: MappingKind::Simple,
            processes: 1,
            resources: Vec::new(),
            events: false,
            checkpoint_every: 0,
        }
    }

    /// Choose the mapping and process count.
    pub fn with_mapping(mut self, mapping: MappingKind, processes: usize) -> RunConfig {
        self.mapping = mapping;
        self.processes = processes;
        self
    }

    /// Stage a resource file.
    pub fn with_resource(mut self, name: &str, bytes: Vec<u8>) -> RunConfig {
        self.resources.push((name.to_string(), bytes.into()));
        self
    }

    /// Request a live event stream for the job (the `/events` endpoint's
    /// source).
    pub fn with_events(mut self, stream: bool) -> RunConfig {
        self.events = stream;
        self
    }

    /// Checkpoint the enactment every `n` source iterations (0 = off).
    pub fn with_checkpoints(mut self, n: usize) -> RunConfig {
        self.checkpoint_every = n;
        self
    }

    /// Write this configuration into the request envelope `v`: `input`,
    /// `mapping`, `processes`, `resources` (base64 data) and the nested
    /// `options` object (`events`, then `checkpointEvery` when it is not
    /// 0).
    pub fn write_envelope(&self, v: &mut Value) {
        let input = match &self.input {
            RunInput::Iterations(n) => Value::Int(*n),
            RunInput::Data(d) => Value::Array(d.clone()),
            RunInput::Unbounded { pace } => {
                let mut u = Value::Null;
                u.set("mode", "unbounded").set("pace_us", pace.as_micros() as i64);
                u
            }
        };
        let resources: Value = self
            .resources
            .iter()
            .map(|(name, bytes)| {
                let mut r = Value::Null;
                r.set("name", name.as_str()).set("data", laminar_codec::base64_encode(bytes));
                r
            })
            .collect();
        let mut options = Value::Null;
        options.set("events", self.events);
        if self.checkpoint_every > 0 {
            options.set("checkpointEvery", self.checkpoint_every);
        }
        v.set("input", input)
            .set("mapping", self.mapping.as_str())
            .set("processes", self.processes)
            .set("resources", resources)
            .set("options", options);
    }

    /// Read the configuration out of a request envelope. An absent field
    /// takes the envelope's default, which is not a constructor's: `input`
    /// 5 iterations, `mapping` SIMPLE, `processes` 5 (0 reads as 1), no
    /// resources, and each option its default (no `options` object at all
    /// is every default). An option key this codec does not read is
    /// ignored, so a journal meta written with options since removed
    /// decodes, and resumes, as if it had none. `None` when a field is
    /// malformed: an unknown mapping, an object input without the
    /// unbounded mode tag, or a resource without a name or with bad
    /// base64.
    pub fn from_envelope(v: &Value) -> Option<RunConfig> {
        let input = match &v["input"] {
            Value::Int(n) => RunInput::Iterations(*n),
            Value::Array(a) => RunInput::Data(a.clone()),
            Value::Null => RunInput::Iterations(5),
            obj @ Value::Object(_) if obj["mode"].as_str() == Some("unbounded") => RunInput::Unbounded {
                pace: Duration::from_micros(obj["pace_us"].as_i64().unwrap_or(0).max(0) as u64),
            },
            _ => return None,
        };
        let mut resources = Vec::new();
        for r in v["resources"].as_array().unwrap_or(&[]) {
            let name = r["name"].as_str()?;
            let bytes = laminar_codec::base64_decode(r["data"].as_str()?).ok()?;
            resources.push((name.to_string(), bytes.into()));
        }
        let opts = &v["options"];
        Some(RunConfig {
            input,
            mapping: MappingKind::parse(v["mapping"].as_str().unwrap_or("SIMPLE"))?,
            processes: v["processes"].as_i64().unwrap_or(5).max(1) as usize,
            resources,
            events: opts["events"].as_bool().unwrap_or(false),
            checkpoint_every: opts["checkpointEvery"].as_i64().unwrap_or(0).max(0) as usize,
        })
    }
}

/// A serverless execution request.
#[derive(Debug, Clone)]
pub struct ExecutionRequest {
    /// Requesting user.
    pub(crate) user: String,
    /// The script defining the PEs and the workflow to run, prepared once
    /// where the request was built — by [`Self::new`] / `Self::from_value`
    /// from source text, or handed over already prepared by the registry
    /// ([`Self::with_script`]). However often the request then runs,
    /// nothing is parsed or compiled again.
    pub script: Result<Arc<Prepared>, RejectedSource>,
    /// Time [`Self::script`] took to prepare *for this request*: zero when
    /// the registry handed it over. Reported as the run's `compile_us`.
    pub(crate) prepare_time: Duration,
    /// Workflow name inside the script; `None` runs the first workflow
    /// present, or the single PE — as a one-node graph — if the script
    /// defines exactly one PE and no workflow (the FaaS-style use of
    /// §3.4.1).
    pub workflow: Option<String>,
    /// How to run it: mapping, processes, input, resources and options.
    pub run: RunConfig,
    /// Resume point injected by [`crate::EnginePool`]'s resume path.
    /// Never crosses the wire: clients POST `/resume` and the pool
    /// reconstructs this from the job's journal.
    pub(crate) resume: Option<laminar_dataflow::mapping::ResumePoint>,
    /// Fault plan for the chaos harness. Never crosses the wire (a remote
    /// request cannot ask the engine to kill itself) and is read from
    /// nowhere else: in-process tests set it directly, and `None` runs
    /// with no faults.
    pub(crate) faults: Option<laminar_dataflow::FaultPlan>,
}

impl ExecutionRequest {
    /// A request for `user` to run `source` as `run` says. The source is
    /// prepared here; one that is refused fails the run, not this call.
    pub fn new(user: &str, source: &str, run: RunConfig) -> ExecutionRequest {
        let t0 = Instant::now();
        let script = prepare(source).map_err(|error| RejectedSource { text: source.to_string(), error });
        ExecutionRequest {
            user: user.to_string(),
            script,
            prepare_time: t0.elapsed(),
            workflow: None,
            run,
            resume: None,
            faults: None,
        }
    }

    /// Minimal request: run `source` with the Simple mapping for `n`
    /// iterations.
    pub fn simple(user: &str, source: &str, iterations: i64) -> ExecutionRequest {
        Self::new(user, source, RunConfig::iterations(iterations))
    }

    /// Name the workflow to run.
    pub fn with_workflow(mut self, name: &str) -> Self {
        self.workflow = Some(name.to_string());
        self
    }

    /// [`RunConfig::with_events`] on [`Self::run`]. Kept only because the
    /// frozen benchmark (`bench_e2e`) calls it; the next benchmark PR
    /// builds its request with [`Self::new`] and deletes this.
    #[doc(hidden)]
    pub fn with_events(mut self, stream: bool) -> Self {
        self.run.events = stream;
        self
    }

    /// Arm an in-process fault plan (chaos tests only — see the field doc).
    pub fn with_faults(mut self, faults: laminar_dataflow::FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The source text of [`Self::script`].
    pub(crate) fn source(&self) -> &str {
        match &self.script {
            Ok(prepared) => prepared.text(),
            Err(rejected) => &rejected.text,
        }
    }

    /// Serialize to the JSON envelope the wire protocol uses.
    pub(crate) fn to_value(&self) -> Value {
        let mut v = Value::Null;
        v.set("user", self.user.as_str()).set("source", self.source()).set("workflow", self.workflow.clone());
        self.run.write_envelope(&mut v);
        v
    }

    /// Parse the JSON envelope, preparing its `source` (a journaled request
    /// resumes this way). `source` is required; an absent `user` is
    /// `anonymous`, an absent `workflow` runs the script's first, and the
    /// run configuration takes [`RunConfig::from_envelope`]'s defaults.
    pub(crate) fn from_value(v: &Value) -> Option<ExecutionRequest> {
        let source = v["source"].as_str()?;
        let run = RunConfig::from_envelope(v)?;
        let mut req = Self::new(v["user"].as_str().unwrap_or("anonymous"), source, run);
        req.workflow = v["workflow"].as_str().map(str::to_string);
        Some(req)
    }

    /// A request for `user` to run an already-prepared `script` — the
    /// registered-workflow path — as `run` says.
    pub fn with_script(user: &str, script: Arc<Prepared>, workflow: &str, run: RunConfig) -> Self {
        ExecutionRequest {
            user: user.to_string(),
            script: Ok(script),
            prepare_time: Duration::ZERO,
            workflow: Some(workflow.to_string()),
            run,
            resume: None,
            faults: None,
        }
    }

    /// Approximate wire size in bytes (drives the WAN transfer model).
    pub(crate) fn wire_size(&self) -> usize {
        laminar_json::to_string(&self.to_value()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_via_value() {
        let req = ExecutionRequest::new(
            "zz46",
            "pe X : producer { output o; process { emit(1); } }",
            RunConfig::iterations(7)
                .with_mapping(MappingKind::Multi, 5)
                .with_resource("coords.txt", b"1 2".to_vec()),
        )
        .with_workflow("main");
        let v = req.to_value();
        let back = ExecutionRequest::from_value(&v).unwrap();
        assert_eq!(back.user, "zz46");
        assert_eq!(back.workflow.as_deref(), Some("main"));
        assert_eq!(back.run.mapping, MappingKind::Multi);
        assert_eq!(back.run.processes, 5);
        assert!(matches!(back.run.input, RunInput::Iterations(7)));
        assert_eq!(back.run.resources[0].0, "coords.txt");
        assert_eq!(*back.run.resources[0].1, *b"1 2");
    }

    #[test]
    fn data_input_round_trip() {
        let req =
            ExecutionRequest::new("u", "src", RunConfig::data(vec![Value::Int(1), Value::Str("x".into())]));
        let back = ExecutionRequest::from_value(&req.to_value()).unwrap();
        match back.run.input {
            RunInput::Data(d) => assert_eq!(d.len(), 2),
            other => panic!("expected data input, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_input_round_trip() {
        let req = ExecutionRequest::new("u", "src", RunConfig::unbounded(Duration::from_micros(750)));
        let back = ExecutionRequest::from_value(&req.to_value()).unwrap();
        match back.run.input {
            RunInput::Unbounded { pace } => assert_eq!(pace, std::time::Duration::from_micros(750)),
            other => panic!("expected unbounded input, got {other:?}"),
        }
        assert!(back.run.events);
        // An object input without the unbounded mode tag is malformed.
        let mut v = req.to_value();
        v.set("input", laminar_json::jobj! { "mode" => "mystery" });
        assert!(ExecutionRequest::from_value(&v).is_none());
    }

    #[test]
    fn checkpoint_interval_round_trips_but_resume_never_crosses_the_wire() {
        let req = ExecutionRequest::new("u", "src", RunConfig::iterations(5).with_checkpoints(32));
        let v = req.to_value();
        let back = ExecutionRequest::from_value(&v).unwrap();
        assert_eq!(back.run.checkpoint_every, 32);
        assert!(back.resume.is_none());
        // Absent field defaults to off.
        let plain =
            ExecutionRequest::from_value(&ExecutionRequest::simple("u", "src", 5).to_value()).unwrap();
        assert_eq!(plain.run.checkpoint_every, 0);
    }

    #[test]
    fn submit_options_round_trip() {
        let req = ExecutionRequest::new(
            "u",
            "src",
            RunConfig::iterations(5).with_events(true).with_checkpoints(16),
        );
        let back = ExecutionRequest::from_value(&req.to_value()).unwrap();
        assert_eq!(back.run, req.run);
    }

    /// A journal meta written before `priority` and `deadlineMs` were
    /// dropped still carries them in `options`: the keys are ignored, so
    /// the job decodes to the configuration it was submitted with and
    /// resumes.
    #[test]
    fn dropped_option_keys_decode_as_absent() {
        let envelope = |options: &str| {
            let text =
                format!(r#"{{"input":5,"mapping":"MPI","options":{options},"processes":3,"resources":[]}}"#);
            RunConfig::from_envelope(&laminar_json::parse(&text).unwrap())
        };
        let journaled = envelope(r#"{"checkpointEvery":16,"deadlineMs":2500,"events":true,"priority":3}"#);
        let without = envelope(r#"{"checkpointEvery":16,"events":true}"#);
        assert_eq!(journaled, without);
        let run =
            RunConfig::iterations(5).with_mapping(MappingKind::Mpi, 3).with_events(true).with_checkpoints(16);
        assert_eq!(journaled, Some(run));
    }

    #[test]
    fn defaults_applied() {
        let mut v = Value::Null;
        v.set("source", "pe X : producer { output o; process { emit(1); } }");
        let req = ExecutionRequest::from_value(&v).unwrap();
        assert_eq!(req.run.mapping, MappingKind::Simple);
        assert_eq!(req.run.processes, 5);
        assert!(matches!(req.run.input, RunInput::Iterations(5)));
        assert_eq!(req.user, "anonymous");
        let run = &req.run;
        assert_eq!((run.events, run.checkpoint_every), (false, 0), "no options object, no options");
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
