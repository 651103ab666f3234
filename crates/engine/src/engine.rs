//! The execution engine proper.

use crate::env::EnvironmentManager;
use crate::hosts::HostRegistry;
use crate::netmodel::NetModel;
use crate::request::ExecutionRequest;
use laminar_dataflow::mapping::{RunOptions, RunResult};
use laminar_dataflow::{
    CancelToken, DataflowError, RunEvent, RunObserver, ScriptPeFactory, StageTimings, WorkflowGraph,
};
use laminar_json::Value;
use laminar_script::{analysis, parse_script, VecSink};
use std::sync::Arc;
use std::time::{Duration, Instant};

use laminar_dataflow::pe::{Pe, PeFactory as _};

/// Outcome of a serverless execution, returned to the client
/// (paper Figure 9 shows `printed` forwarded verbatim).
#[derive(Debug, Clone, Default)]
pub struct ExecutionOutput {
    /// Terminal port emissions, keyed `"<pe>.<port>"`.
    pub outputs: laminar_json::Map,
    /// Captured stdout of the workflow.
    pub printed: Vec<String>,
    /// Libraries installed for this run.
    pub installed: Vec<String>,
    /// Environment provisioning time (setup + installs).
    pub provision_time: Duration,
    /// Pure enactment time.
    pub execute_time: Duration,
    /// End-to-end engine time (provision + stage + execute + teardown).
    pub total_time: Duration,
    /// Breakdown of `execute_time` into the enactment runtime's
    /// plan/enact/collect stages (the overhead structure Table 5 measures).
    pub stages: StageTimings,
    /// Per-PE processed counts.
    pub processed: std::collections::BTreeMap<String, u64>,
    /// Per-PE emitted counts (with `processed` and `enact_us`, the numbers
    /// behind the perf reports' throughput columns).
    pub emitted: std::collections::BTreeMap<String, u64>,
    /// Time the request sat in the engine pool's queue before a worker
    /// picked it (zero when run directly on an engine).
    pub queue_wait: Duration,
    /// Which pool worker ran the job (None when run directly).
    pub worker: Option<usize>,
    /// Events the enactment's stream carried (plan/lifecycle/output/print).
    pub events: u64,
    /// Time from enact start to the first terminal-port output, when the
    /// event stream was real-time (Simple runs and streamed executions).
    pub first_output: Option<Duration>,
}

impl ExecutionOutput {
    /// Serialize for the wire.
    pub fn to_value(&self) -> Value {
        let mut v = Value::Null;
        v.set("outputs", Value::Object(self.outputs.clone()))
            .set("printed", Value::Array(self.printed.iter().map(|p| Value::Str(p.clone())).collect()))
            .set("installed", Value::Array(self.installed.iter().map(|p| Value::Str(p.clone())).collect()))
            .set("provision_ms", self.provision_time.as_millis() as i64)
            .set("execute_ms", self.execute_time.as_millis() as i64)
            .set("total_ms", self.total_time.as_millis() as i64)
            // Stage timings travel in microseconds: plan/collect are often
            // sub-millisecond and would vanish at ms resolution.
            .set("plan_us", self.stages.plan.as_micros() as i64)
            .set("enact_us", self.stages.enact.as_micros() as i64)
            .set("collect_us", self.stages.collect.as_micros() as i64)
            .set("compile_us", self.stages.compile.as_micros() as i64)
            .set(
                "processed",
                self.processed.iter().map(|(k, n)| (k.clone(), Value::Int(*n as i64))).collect::<Value>(),
            )
            .set(
                "emitted",
                self.emitted.iter().map(|(k, n)| (k.clone(), Value::Int(*n as i64))).collect::<Value>(),
            )
            .set("queue_us", self.queue_wait.as_micros() as i64)
            .set("events", self.events as i64);
        if let Some(d) = self.first_output {
            v.set("first_output_us", d.as_micros() as i64);
        }
        if let Some(w) = self.worker {
            v.set("engine", w as i64);
        }
        v
    }

    /// Parse from the wire.
    pub fn from_value(v: &Value) -> Option<ExecutionOutput> {
        let mut out = ExecutionOutput {
            outputs: v["outputs"].as_object()?.clone(),
            printed: v["printed"].as_array()?.iter().filter_map(|p| p.as_str().map(str::to_string)).collect(),
            installed: v["installed"]
                .as_array()
                .unwrap_or(&[])
                .iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect(),
            provision_time: Duration::from_millis(v["provision_ms"].as_i64().unwrap_or(0).max(0) as u64),
            execute_time: Duration::from_millis(v["execute_ms"].as_i64().unwrap_or(0).max(0) as u64),
            total_time: Duration::from_millis(v["total_ms"].as_i64().unwrap_or(0).max(0) as u64),
            stages: StageTimings {
                plan: Duration::from_micros(v["plan_us"].as_i64().unwrap_or(0).max(0) as u64),
                enact: Duration::from_micros(v["enact_us"].as_i64().unwrap_or(0).max(0) as u64),
                collect: Duration::from_micros(v["collect_us"].as_i64().unwrap_or(0).max(0) as u64),
                compile: Duration::from_micros(v["compile_us"].as_i64().unwrap_or(0).max(0) as u64),
            },
            processed: Default::default(),
            emitted: Default::default(),
            queue_wait: Duration::from_micros(v["queue_us"].as_i64().unwrap_or(0).max(0) as u64),
            worker: v["engine"].as_i64().map(|w| w.max(0) as usize),
            events: v["events"].as_i64().unwrap_or(0).max(0) as u64,
            first_output: v["first_output_us"].as_i64().map(|d| Duration::from_micros(d.max(0) as u64)),
        };
        if let Some(m) = v["processed"].as_object() {
            for (k, n) in m {
                out.processed.insert(k.clone(), n.as_i64().unwrap_or(0).max(0) as u64);
            }
        }
        if let Some(m) = v["emitted"].as_object() {
            for (k, n) in m {
                out.emitted.insert(k.clone(), n.as_i64().unwrap_or(0).max(0) as u64);
            }
        }
        Some(out)
    }

    /// Total data processed per second of pure enactment — the headline
    /// number the `BENCH_*.json` perf trajectory tracks.
    pub fn enact_throughput(&self) -> f64 {
        let total: u64 = self.processed.values().sum();
        total as f64 / self.stages.enact.as_secs_f64().max(1e-9)
    }

    /// Values emitted on a terminal port.
    pub fn port_values(&self, pe: &str, port: &str) -> Vec<Value> {
        self.outputs
            .get(&format!("{pe}.{port}"))
            .and_then(|v| v.as_array().map(<[Value]>::to_vec))
            .unwrap_or_default()
    }

    /// One-line rendering of where the time went (Table 5's overhead
    /// structure), for clients and the bench binaries.
    pub fn overhead_report(&self) -> String {
        let queue = if self.queue_wait.is_zero() {
            String::new()
        } else {
            format!("queue {:.1?} | ", self.queue_wait)
        };
        format!(
            "{queue}provision {:.1?} | plan {:.1?} | enact {:.1?} | collect {:.1?} | total {:.1?}",
            self.provision_time, self.stages.plan, self.stages.enact, self.stages.collect, self.total_time
        )
    }
}

/// The serverless execution engine (paper §3.3). One engine handles
/// requests sequentially — the paper's deployment runs one engine per
/// container, scaling by adding engines.
pub struct ExecutionEngine {
    env: EnvironmentManager,
    hosts: HostRegistry,
    net: NetModel,
    runs: u64,
}

impl Default for ExecutionEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecutionEngine {
    /// A local engine (no network model, cold environments).
    pub fn new() -> ExecutionEngine {
        ExecutionEngine {
            env: EnvironmentManager::new(),
            hosts: HostRegistry::new(),
            net: NetModel::local(),
            runs: 0,
        }
    }

    /// An engine with free provisioning (unit tests).
    pub fn instant() -> ExecutionEngine {
        ExecutionEngine {
            env: EnvironmentManager::new().instant(),
            hosts: HostRegistry::new(),
            net: NetModel::local(),
            runs: 0,
        }
    }

    /// Attach a network model (remote deployments).
    pub fn with_net(mut self, net: NetModel) -> Self {
        self.net = net;
        self
    }

    /// Keep the library cache warm across runs.
    pub fn keep_warm(mut self, warm: bool) -> Self {
        self.env.keep_warm = warm;
        self
    }

    /// Calibrate the simulated provisioning cost (µs per cost unit;
    /// 0 = instant). Environment setup is [`crate::env::ENV_SETUP_UNITS`]
    /// units, so e.g. `1000` makes every cold run pay ~400ms.
    pub fn with_provision_scale(mut self, us_per_unit: u64) -> Self {
        self.env.time_scale_us = us_per_unit;
        self
    }

    /// A sibling engine for pooled serving: shares the registered module
    /// hosts (one simulated service fleet per deployment) but owns its
    /// environment caches and staged resources, so concurrent runs stay
    /// isolated from each other.
    pub fn fork(&self) -> ExecutionEngine {
        ExecutionEngine { env: self.env.fork(), hosts: self.hosts.fork(), net: self.net, runs: 0 }
    }

    /// The host registry — workloads register simulated services here.
    pub fn hosts(&self) -> &HostRegistry {
        &self.hosts
    }

    /// Number of runs served.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Handle one execution request end-to-end.
    pub fn run(&mut self, req: &ExecutionRequest) -> Result<ExecutionOutput, DataflowError> {
        self.run_controlled(req, None, &CancelToken::new())
    }

    /// Handle one execution request end-to-end, streaming the enactment's
    /// [`RunEvent`]s to `observer` as they happen (instance lifecycle,
    /// terminal-port outputs, prints, counters, final stats). The returned
    /// output is the fold over that same stream.
    pub fn run_streaming(
        &mut self,
        req: &ExecutionRequest,
        observer: Arc<dyn RunObserver>,
    ) -> Result<ExecutionOutput, DataflowError> {
        self.run_controlled(req, Some(observer), &CancelToken::new())
    }

    /// The fully-controlled entry point: an optional live event observer
    /// plus a cooperative [`CancelToken`] the enactment checks between PE
    /// invocations. Cancellation surfaces as
    /// [`DataflowError::Cancelled`]; the events emitted up to that point
    /// (observer-visible, sealed by [`RunEvent::Cancelled`]) are a valid
    /// prefix of the run's stream. Unbounded requests
    /// ([`ExecutionRequest::with_unbounded`]) terminate *only* through
    /// the token.
    pub fn run_controlled(
        &mut self,
        req: &ExecutionRequest,
        observer: Option<Arc<dyn RunObserver>>,
        cancel: &CancelToken,
    ) -> Result<ExecutionOutput, DataflowError> {
        let t0 = Instant::now();
        self.runs += 1;

        // 0. Network: the request crosses the link to the engine.
        self.net.charge(|| req.wire_size());

        // 1. Parse and analyze imports (the findimports pass runs client-
        //    side in the paper; the engine re-derives the list defensively).
        let script = parse_script(&req.source)
            .map_err(|e| DataflowError::PeFailed { pe: "<request>".into(), error: e })?;
        let imports = analysis::imports(&script);

        // 2. Provision the environment and install libraries.
        let report = self.env.provision(&imports);
        let provision_time = report.setup_time + report.install_time;

        // 3. Stage resources.
        for (name, bytes) in &req.resources {
            self.hosts.stage_resource(name, bytes.clone());
        }

        // 4. Build the graph. Initial-PE detection is automatic: the graph
        //    computes its roots during validation (paper §3.3).
        let host: Arc<dyn laminar_script::Host + Send + Sync> = Arc::new(self.hosts.clone());
        let exec_t0 = Instant::now();
        let result = self.enact(req, &script, host, observer, cancel);
        // Cancelled or failed runs must not leak staged state into the
        // worker's next job: tear down before propagating the error.
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                self.hosts.clear_resources();
                self.env.teardown();
                return Err(e);
            }
        };
        let execute_time = exec_t0.elapsed();

        // 5. Ephemeral teardown.
        self.hosts.clear_resources();
        self.env.teardown();

        // 6. Network: the response returns to the client.
        let mut output = ExecutionOutput {
            printed: result.printed,
            installed: report.installed,
            provision_time,
            execute_time,
            total_time: Duration::ZERO,
            stages: result.stats.timings,
            processed: result.stats.processed,
            emitted: result.stats.emitted,
            events: result.stats.events,
            first_output: result.stats.first_output,
            ..Default::default()
        };
        for ((pe, port), values) in result.outputs {
            output.outputs.insert(format!("{pe}.{port}"), Value::Array(values));
        }
        self.net.charge(|| laminar_json::to_string(&output.to_value()).len());
        output.total_time = t0.elapsed();
        Ok(output)
    }

    fn enact(
        &self,
        req: &ExecutionRequest,
        script: &laminar_script::Script,
        host: Arc<dyn laminar_script::Host + Send + Sync>,
        observer: Option<Arc<dyn RunObserver>>,
        cancel: &CancelToken,
    ) -> Result<RunResult, DataflowError> {
        let workflow_names: Vec<String> = script.workflows().map(|w| w.name.clone()).collect();
        let pe_names: Vec<String> = script.pes().map(|p| p.name.clone()).collect();

        let target_workflow = match (&req.workflow, workflow_names.len()) {
            (Some(name), _) => Some(name.clone()),
            (None, 0) => None,
            (None, _) => Some(workflow_names[0].clone()),
        };

        let mut options = RunOptions::iterations(0).with_processes(req.processes).with_cancel(cancel.clone());
        options.input = req.input.clone();
        options.checkpoint_every = req.options.checkpoint_every;
        // Fault injection never crosses the wire, so no remote request can
        // ask the engine to kill itself: in-process chaos tests set
        // `req.faults`; deployments arm `LAMINAR_FAULTS` in the environment.
        options.faults = req.faults.clone().unwrap_or_else(laminar_dataflow::FaultPlan::from_env);
        options.resume = req.resume.clone();

        if let Some(wf) = target_workflow {
            let graph = WorkflowGraph::from_parsed(script, &wf, host)?;
            let mapping = req.mapping.build();
            mapping.execute_observed(&graph, &options, observer)
        } else if pe_names.len() == 1 {
            // FaaS-style single-PE execution (paper §3.4.1).
            let result = self.run_single_pe(script, &pe_names[0], host, &options)?;
            if let Some(observer) = observer {
                replay_result_as_events(&result, &observer);
            }
            Ok(result)
        } else {
            Err(DataflowError::Options(
                "request has no workflow and more than one PE; name the workflow to run".into(),
            ))
        }
    }

    /// Run one PE like a traditional FaaS function: drive it with the
    /// input and collect everything it emits.
    fn run_single_pe(
        &self,
        script: &laminar_script::Script,
        pe_name: &str,
        host: Arc<dyn laminar_script::Host + Send + Sync>,
        options: &RunOptions,
    ) -> Result<RunResult, DataflowError> {
        if options.is_unbounded() {
            // The FaaS path buffers everything and replays it at
            // completion — an unbounded run would never surface a single
            // result. Only workflow enactments stream.
            return Err(DataflowError::Options(
                "unbounded input requires a workflow enactment; a single-PE (FaaS) run only returns \
                 results at completion"
                    .into(),
            ));
        }
        let factory = ScriptPeFactory::from_parsed(script, pe_name, host)?;
        let meta = factory.meta().clone();
        let mut pe: Box<dyn Pe> = factory.instantiate();
        let mut sink = VecSink::default();
        pe.setup(0, 1, &mut sink)?;
        let is_producer = meta.inputs.is_empty();
        let default_in = meta.inputs.first().map(|p| p.name.clone()).unwrap_or_else(|| "input".into());
        let mut invoked = 0usize;
        // Same cooperative contract as the dataflow runtime: the token is
        // checked between invocations, so DELETE stops a long bounded
        // FaaS run at a clean boundary. (Unbounded input was rejected
        // above — this loop always has a limit.)
        let limit = options.bounded_invocations().expect("unbounded rejected above");
        while invoked < limit {
            if options.cancel.is_cancelled() {
                return Err(DataflowError::Cancelled);
            }
            let i = invoked;
            let datum = options.datum_for(i);
            let input = match (&datum, is_producer) {
                (Some(v), _) => Some((default_in.as_str(), v.clone())),
                (None, true) => None,
                (None, false) => Some((default_in.as_str(), Value::Int(i as i64))),
            };
            pe.process(input, i as i64, &mut sink)?;
            invoked += 1;
        }
        let mut result = RunResult::default();
        for (port, value) in sink.emitted {
            result.outputs.entry((meta.name.clone(), port.to_string())).or_default().push(value);
        }
        result.printed = sink.printed;
        result.stats.processed.insert(meta.name.clone(), invoked as u64);
        result.stats.instances.insert(meta.name.clone(), 1);
        // The stream a replay of this result synthesizes: plan + started +
        // one event per output/print + instance-finished.
        result.stats.events = 3 + result.total_outputs() as u64 + result.printed.len() as u64;
        Ok(result)
    }
}

/// Synthesize the event stream of a completed single-PE (FaaS) run. The
/// FaaS path has no enactment runtime to stream from, so its events reach
/// the observer at completion, in result order — same contract
/// (`fold(events) == result`), degenerate granularity.
fn replay_result_as_events(result: &RunResult, observer: &Arc<dyn RunObserver>) {
    let mut seq = 0u64;
    let mut emit = |ev: RunEvent| {
        observer.on_event(seq, &ev);
        seq += 1;
    };
    let pes: Vec<(Arc<str>, usize)> =
        result.stats.instances.iter().map(|(k, &n)| (Arc::from(k.as_str()), n)).collect();
    let pe: Arc<str> = pes.first().map(|(p, _)| Arc::clone(p)).unwrap_or_else(|| Arc::from("pe"));
    emit(RunEvent::PlanReady { pes });
    emit(RunEvent::InstanceStarted { pe: Arc::clone(&pe), instance: 0 });
    for ((pe_name, port), values) in &result.outputs {
        for value in values {
            emit(RunEvent::Output {
                pe: Arc::from(pe_name.as_str()),
                instance: 0,
                port: Arc::from(port.as_str()),
                value: value.clone(),
            });
        }
    }
    for line in &result.printed {
        emit(RunEvent::Print { pe: Arc::clone(&pe), instance: 0, line: line.clone() });
    }
    let processed = result.stats.processed.values().sum();
    emit(RunEvent::InstanceFinished { pe, instance: 0, processed, emitted: result.total_outputs() as u64 });
    emit(RunEvent::Finished { stats: result.stats.clone() });
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
            nodes { s = Seq; i = IsPrime; p = PrintPrime; }
            connect s.output -> i.num;
            connect i.output -> p.num;
        }
    "#;

    #[test]
    fn full_workflow_run_captures_prints() {
        let mut engine = ExecutionEngine::instant();
        let req = ExecutionRequest::simple("zz46", WF_SRC, 10);
        let out = engine.run(&req).unwrap();
        assert_eq!(
            out.printed,
            vec!["the num 2 is prime", "the num 3 is prime", "the num 5 is prime", "the num 7 is prime",]
        );
        assert_eq!(out.processed["Seq"], 10);
        assert_eq!(engine.runs(), 1);
    }

    #[test]
    fn multi_mapping_run() {
        let mut engine = ExecutionEngine::instant();
        let req = ExecutionRequest::simple("zz46", WF_SRC, 20).with_mapping(MappingKind::Multi, 5);
        let out = engine.run(&req).unwrap();
        assert_eq!(out.printed.len(), 8, "primes up to 20");
        assert_eq!(out.processed["IsPrime"], 20);
    }

    #[test]
    fn imports_installed_then_forgotten_cold() {
        let src = r#"
            pe A : producer { import astropy; output output; process { emit(1); } }
            workflow W { nodes { a = A; } }
        "#;
        let mut engine = ExecutionEngine::instant();
        let out1 = engine.run(&ExecutionRequest::simple("u", src, 1)).unwrap();
        assert_eq!(out1.installed, vec!["astropy"]);
        // Cold engine: the next run reinstalls.
        let out2 = engine.run(&ExecutionRequest::simple("u", src, 1)).unwrap();
        assert_eq!(out2.installed, vec!["astropy"]);
        // Warm engine: cached.
        let mut warm = ExecutionEngine::instant().keep_warm(true);
        warm.run(&ExecutionRequest::simple("u", src, 1)).unwrap();
        let out3 = warm.run(&ExecutionRequest::simple("u", src, 1)).unwrap();
        assert!(out3.installed.is_empty());
    }

    #[test]
    fn single_pe_faas_producer() {
        let src = "pe Gen : producer { output output; process { emit(iteration * iteration); } }";
        let mut engine = ExecutionEngine::instant();
        let out = engine.run(&ExecutionRequest::simple("u", src, 4)).unwrap();
        let vals = out.port_values("Gen", "output");
        assert_eq!(vals.iter().filter_map(Value::as_i64).collect::<Vec<_>>(), vec![0, 1, 4, 9]);
    }

    #[test]
    fn single_pe_faas_with_data() {
        let src = r#"pe Double : iterative { input x; output output; process { emit(x * 2); } }"#;
        let mut engine = ExecutionEngine::instant();
        let req = ExecutionRequest::simple("u", src, 0).with_data(vec![Value::Int(5), Value::Int(9)]);
        let out = engine.run(&req).unwrap();
        let vals = out.port_values("Double", "output");
        assert_eq!(vals.iter().filter_map(Value::as_i64).collect::<Vec<_>>(), vec![10, 18]);
    }

    #[test]
    fn resources_staged_and_cleared() {
        let src = r#"
            pe Reader : producer {
                output output;
                process {
                    let lines = resources.lines("coords.txt");
                    for l in lines { emit(l); }
                }
            }
            workflow R { nodes { r = Reader; } }
        "#;
        let mut engine = ExecutionEngine::instant();
        let req = ExecutionRequest::simple("u", src, 1).with_resource("coords.txt", b"a b\nc d\n".to_vec());
        let out = engine.run(&req).unwrap();
        assert_eq!(out.port_values("Reader", "output").len(), 2);
        // Ephemerality: resources are gone after the run.
        assert!(engine.hosts().resource_names().is_empty());
        // A second run without the resource fails inside the PE.
        let bare = ExecutionRequest::simple("u", src, 1);
        assert!(engine.run(&bare).is_err());
    }

    #[test]
    fn single_pe_unbounded_rejected_and_workflow_unbounded_cancels() {
        // FaaS path: unbounded input is a structural error.
        let src = "pe Gen : producer { output output; process { emit(iteration); } }";
        let mut engine = ExecutionEngine::instant();
        let req = ExecutionRequest::simple("u", src, 0).with_unbounded(Duration::from_micros(100));
        let err = engine.run(&req).unwrap_err();
        assert!(matches!(err, DataflowError::Options(_)), "{err}");

        // Workflow path: runs until the token fires, then reports
        // Cancelled (not a failure).
        let token = CancelToken::new();
        let wf = r#"
            pe Gen : producer { output output; process { emit(iteration); } }
            workflow Forever { nodes { g = Gen; } }
        "#;
        let req = ExecutionRequest::simple("u", wf, 0).with_unbounded(Duration::from_micros(100));
        let handle = {
            let token = token.clone();
            std::thread::spawn(move || ExecutionEngine::instant().run_controlled(&req, None, &token))
        };
        std::thread::sleep(Duration::from_millis(20));
        token.cancel();
        let result = handle.join().unwrap();
        assert_eq!(result.unwrap_err(), DataflowError::Cancelled);
    }

    #[test]
    fn ambiguous_request_rejected() {
        let src = r#"
            pe A : producer { output output; process { emit(1); } }
            pe B : producer { output output; process { emit(2); } }
        "#;
        let mut engine = ExecutionEngine::instant();
        let err = engine.run(&ExecutionRequest::simple("u", src, 1)).unwrap_err();
        assert!(matches!(err, DataflowError::Options(_)));
    }

    #[test]
    fn output_round_trips_via_value() {
        let mut engine = ExecutionEngine::instant();
        let out = engine.run(&ExecutionRequest::simple("u", WF_SRC, 5)).unwrap();
        let back = ExecutionOutput::from_value(&out.to_value()).unwrap();
        assert_eq!(back.printed, out.printed);
        assert_eq!(back.processed, out.processed);
        assert_eq!(back.emitted, out.emitted);
        assert!(back.emitted["IsPrime"] > 0, "emitted counts travel the wire");
        assert!(out.enact_throughput() > 0.0);
        // Stage timings survive the wire at microsecond resolution.
        assert!(back.stages.enact <= out.stages.enact);
        assert!(out.stages.enact - back.stages.enact < Duration::from_micros(1));
    }

    #[test]
    fn workflow_run_reports_stage_timings() {
        let mut engine = ExecutionEngine::instant();
        let out = engine.run(&ExecutionRequest::simple("u", WF_SRC, 10)).unwrap();
        assert!(out.stages.enact > Duration::ZERO, "enact stage not timed");
        assert!(
            out.stages.plan + out.stages.enact + out.stages.collect <= out.execute_time,
            "stages {:?} exceed execute_time {:?}",
            out.stages,
            out.execute_time
        );
        assert!(out.overhead_report().contains("enact"));
    }

    #[test]
    fn remote_engine_pays_the_wan() {
        let mut local = ExecutionEngine::instant();
        let mut remote = ExecutionEngine::instant()
            .with_net(NetModel { one_way_latency: Duration::from_millis(10), bytes_per_ms: 0 });
        let req = ExecutionRequest::simple("u", WF_SRC, 1);
        let t_local = local.run(&req).unwrap().total_time;
        let t_remote = remote.run(&req).unwrap().total_time;
        assert!(t_remote >= t_local + Duration::from_millis(15), "{t_remote:?} vs {t_local:?}");
    }
}
