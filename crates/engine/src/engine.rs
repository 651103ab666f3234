//! The execution engine proper.

use crate::env::EnvironmentManager;
use crate::hosts::HostRegistry;
use crate::netmodel::NetModel;
use crate::request::ExecutionRequest;
use laminar_dataflow::mapping::{Mapping, RunOptions, RunResult};
use laminar_dataflow::{
    CancelToken, DataflowError, RunObserver, ScriptPeFactory, StageTimings, WorkflowGraph,
};
use laminar_json::Value;
use laminar_script::{imports, Prepared};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// Time from enact start to the first terminal-port output (`None`
    /// when the run emitted none).
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
                out.processed.insert(k.as_str().to_owned(), n.as_i64().unwrap_or(0).max(0) as u64);
            }
        }
        if let Some(m) = v["emitted"].as_object() {
            for (k, n) in m {
                out.emitted.insert(k.as_str().to_owned(), n.as_i64().unwrap_or(0).max(0) as u64);
            }
        }
        Some(out)
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
}

impl Default for ExecutionEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecutionEngine {
    /// A local engine (no network model, cold environments).
    pub fn new() -> ExecutionEngine {
        ExecutionEngine { env: EnvironmentManager::new(), hosts: HostRegistry::new(), net: NetModel::local() }
    }

    /// An engine with free provisioning (unit tests).
    pub fn instant() -> ExecutionEngine {
        ExecutionEngine {
            env: EnvironmentManager::new().instant(),
            hosts: HostRegistry::new(),
            net: NetModel::local(),
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
    /// 0 = instant). Environment setup is 400 units (`ENV_SETUP_UNITS`),
    /// so e.g. `1000` makes every cold run pay ~400ms.
    pub fn with_provision_scale(mut self, us_per_unit: u64) -> Self {
        self.env.time_scale_us = us_per_unit;
        self
    }

    /// A sibling engine for pooled serving: shares the registered module
    /// hosts (one simulated service fleet per deployment) but owns its
    /// environment caches, so concurrent runs stay isolated from each
    /// other. Staged resources belong to each run's own host.
    pub fn fork(&self) -> ExecutionEngine {
        ExecutionEngine { env: self.env.fork(), hosts: self.hosts.clone(), net: self.net }
    }

    /// The host registry — workloads register simulated services here.
    pub fn hosts(&self) -> &HostRegistry {
        &self.hosts
    }

    /// Handle one execution request end-to-end.
    pub fn run(&mut self, req: &ExecutionRequest) -> Result<ExecutionOutput, DataflowError> {
        self.run_controlled(req, None, &CancelToken::new())
    }

    /// Handle one execution request end-to-end, streaming the enactment's
    /// [`laminar_dataflow::RunEvent`]s to `observer` as they happen
    /// (instance lifecycle, terminal-port outputs, prints, counters, final
    /// stats). The returned output is the fold over that same stream.
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
    /// ([`crate::RunConfig::unbounded`]) terminate *only* through
    /// the token.
    pub(crate) fn run_controlled(
        &mut self,
        req: &ExecutionRequest,
        observer: Option<Arc<dyn RunObserver>>,
        cancel: &CancelToken,
    ) -> Result<ExecutionOutput, DataflowError> {
        let t0 = Instant::now();

        // 0. Network: the request crosses the link to the engine.
        self.net.charge(|| req.wire_size());

        // 1. The script arrives prepared; a source `prepare` refused fails
        //    here. Analyze imports (the findimports pass runs client-side in
        //    the paper; the engine re-derives the list defensively).
        let prepared = req.script.as_ref().map_err(|rejected| DataflowError::PeFailed {
            pe: "<request>".into(),
            error: rejected.error.clone(),
        })?;
        let imports = imports(prepared.script());

        // 2. Provision the environment and install libraries.
        let report = self.env.provision(&imports);
        let provision_time = report.setup_time + report.install_time;

        // 3. Stage resources: the run's own host carries them, beside the
        //    module hosts registered now, and goes with the run.
        let host = Arc::new(self.hosts.for_run(&req.run.resources));

        // 4. Build the graph. Initial-PE detection is automatic: the graph
        //    computes its roots during validation (paper §3.3).
        let exec_t0 = Instant::now();
        let result = self.enact(req, prepared, host, observer, cancel);
        let execute_time = exec_t0.elapsed();

        // 5. Ephemeral teardown, whatever the outcome: a cancelled or
        //    failed run leaves no environment to the worker's next job.
        self.env.teardown();
        let result = result?;

        // 6. Network: the response returns to the client.
        let mut output = ExecutionOutput {
            printed: result.printed,
            installed: report.installed,
            provision_time,
            execute_time,
            total_time: Duration::ZERO,
            stages: StageTimings { compile: req.prepare_time, ..result.stats.timings },
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
        prepared: &Prepared,
        host: Arc<dyn laminar_script::Host + Send + Sync>,
        observer: Option<Arc<dyn RunObserver>>,
        cancel: &CancelToken,
    ) -> Result<RunResult, DataflowError> {
        let script = prepared.script();
        let mut options =
            RunOptions::iterations(0).with_processes(req.run.processes).with_cancel(cancel.clone());
        options.input = req.run.input.clone();
        options.checkpoint_every = req.run.checkpoint_every;
        // Fault injection never crosses the wire, so no remote request can
        // ask the engine to kill itself: only in-process chaos tests set
        // `req.faults`.
        options.faults = req.faults.clone().unwrap_or_default();
        options.resume = req.resume.clone();

        let named = req.workflow.as_deref().or_else(|| script.workflows().next().map(|w| w.name.as_str()));
        let graph = match named {
            Some(wf) => WorkflowGraph::from_prepared(prepared, wf, host)?,
            None => {
                // FaaS-style use (paper §3.4.1): a lone PE is a one-node
                // graph, a function of the run's input.
                let mut pes = script.pes();
                let (Some(pe), None) = (pes.next(), pes.next()) else {
                    return Err(DataflowError::Options(
                        "request has no workflow and more than one PE; name the workflow to run".into(),
                    ));
                };
                let mut graph = WorkflowGraph::new(&pe.name);
                graph.add(Arc::new(ScriptPeFactory::from_prepared(prepared, &pe.name, host)?));
                graph
            }
        };
        req.run.mapping.execute_observed(&graph, &options, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RunConfig;
    use laminar_dataflow::mapping::RunInput;
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
    }

    #[test]
    fn multi_mapping_run() {
        let mut engine = ExecutionEngine::instant();
        let req = ExecutionRequest::new(
            "zz46",
            WF_SRC,
            RunConfig::iterations(20).with_mapping(MappingKind::Multi, 5),
        );
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
        let req = ExecutionRequest::new("u", src, RunConfig::data(vec![Value::Int(5), Value::Int(9)]));
        let out = engine.run(&req).unwrap();
        let vals = out.port_values("Double", "output");
        assert_eq!(vals.iter().filter_map(Value::as_i64).collect::<Vec<_>>(), vec![10, 18]);
    }

    /// A lone PE runs as a one-node graph. These expectations were first
    /// checked against the private FaaS loop this path replaced
    /// (`run_single_pe`), on every mapping, before that loop was deleted:
    /// the datum arrives on the first declared input, a PE with inputs and
    /// no data is fed the iteration index, and a failure is the PE's own.
    #[test]
    fn a_lone_pe_is_a_function_of_the_runs_input_on_every_mapping() {
        let gen = "pe Gen : producer { output output; process { print(\"it\", iteration); emit(iteration * iteration); } }";
        let double = "pe Double : iterative { input x; output output; process { emit(x * 2); } }";
        let split = "pe Split : generic { input reading; output low; output high; init { state.n = 0; } \
            process { state.n = state.n + 1; if input < 2 { emit(\"low\", [state.n, input]); } else { emit(\"high\", reading); } } }";
        let show = "pe Show : consumer { input v; process { print(\"got\", v, iteration); } }";
        let boom = "pe Boom : iterative { input x; output output; process { emit(1 / (2 - iteration)); } }";
        let iterations = RunInput::Iterations(4);
        let data = RunInput::Data(vec![Value::Int(5), Value::Int(1), Value::Str("x".into())]);
        // (source, input) -> outputs as JSON, printed lines, invocations.
        type Expected = Result<(&'static str, &'static [&'static str], u64), &'static str>;
        let cases: [(&str, &RunInput, Expected); 10] = [
            (gen, &iterations, Ok((r#"{"Gen.output":[0,1,4,9]}"#, &["it 0", "it 1", "it 2", "it 3"], 4))),
            (gen, &data, Ok((r#"{"Gen.output":[0,1,4]}"#, &["it 0", "it 1", "it 2"], 3))),
            (double, &iterations, Ok((r#"{"Double.output":[0,2,4,6]}"#, &[], 4))),
            (double, &data, Ok((r#"{"Double.output":[10,2,"xx"]}"#, &[], 3))),
            (split, &iterations, Ok((r#"{"Split.high":[2,3],"Split.low":[[1,0],[2,1]]}"#, &[], 4))),
            (split, &data, Err("type error at line 1, column 0: cannot compare string and int")),
            (show, &iterations, Ok(("{}", &["got 0 0", "got 1 1", "got 2 2", "got 3 3"], 4))),
            (show, &data, Ok(("{}", &["got 5 0", "got 1 1", "got x 2"], 3))),
            (boom, &iterations, Err("division by zero at line 1, column 0: integer division by zero")),
            (boom, &data, Err("division by zero at line 1, column 0: integer division by zero")),
        ];
        for (src, input, expected) in cases {
            for (mapping, processes) in [
                (MappingKind::Simple, 1),
                (MappingKind::Multi, 3),
                (MappingKind::Mpi, 3),
                (MappingKind::Redis, 3),
            ] {
                let mut req = ExecutionRequest::new(
                    "u",
                    src,
                    RunConfig::iterations(0).with_mapping(mapping, processes),
                );
                req.run.input = input.clone();
                let got = ExecutionEngine::instant().run(&req);
                let what = format!("{src} {input:?} {mapping:?}");
                match expected {
                    Ok((outputs, printed, invocations)) => {
                        let out = got.unwrap_or_else(|e| panic!("{what}: {e}"));
                        assert_eq!(laminar_json::to_string(&Value::Object(out.outputs)), outputs, "{what}");
                        assert_eq!(out.printed, printed, "{what}");
                        assert_eq!(out.processed.values().sum::<u64>(), invocations, "{what}");
                    }
                    Err(message) => {
                        let DataflowError::PeFailed { error, .. } = got.expect_err(&what) else {
                            panic!("{what}: not a PE failure")
                        };
                        assert_eq!(error.to_string(), message, "{what}");
                    }
                }
            }
        }
    }

    /// The lone PE's stream is the runtime's own, not a reconstruction:
    /// folding what the observer saw gives the result, and `events` counts
    /// it.
    #[test]
    fn a_lone_pes_event_stream_folds_to_its_result() {
        let src = "pe Gen : producer { output output; init { print(\"up\"); } process { emit(iteration); } }";
        let recorder = laminar_dataflow::RecordingObserver::new();
        let out = ExecutionEngine::instant()
            .run_streaming(&ExecutionRequest::simple("u", src, 3), recorder.clone())
            .unwrap();
        let events: Vec<_> = recorder.take().into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(events.len() as u64, out.events + 1, "every event but the terminal `Finished` is counted");
        let folded = laminar_dataflow::fold_events(events);
        assert_eq!(folded.printed, out.printed);
        assert_eq!(
            folded.outputs[&("Gen".to_string(), "output".to_string())],
            out.port_values("Gen", "output")
        );
        assert_eq!(out.port_values("Gen", "output"), [Value::Int(0), Value::Int(1), Value::Int(2)]);
        assert_eq!(out.printed, ["up"]);
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
        let req = ExecutionRequest::new(
            "u",
            src,
            RunConfig::iterations(1).with_resource("coords.txt", b"a b\nc d\n".to_vec()),
        );
        let out = engine.run(&req).unwrap();
        assert_eq!(out.port_values("Reader", "output").len(), 2);
        // Ephemerality: a second run without the resource fails inside the
        // PE.
        let bare = ExecutionRequest::simple("u", src, 1);
        let err = engine.run(&bare).unwrap_err().to_string();
        assert!(err.contains("resource 'coords.txt' was not staged (available: [])"), "{err}");
    }

    #[test]
    fn single_pe_unbounded_rejected_and_workflow_unbounded_cancels() {
        // Nothing is rejected any more: a lone producer and a one-node
        // workflow both run unbounded, stream while they run, and end
        // `Cancelled` (not a failure) when the token fires.
        let lone = "pe Gen : producer { output output; process { emit(iteration); } }";
        let wf = r#"
            pe Gen : producer { output output; process { emit(iteration); } }
            workflow Forever { nodes { g = Gen; } }
        "#;
        for src in [lone, wf] {
            let token = CancelToken::new();
            let recorder = laminar_dataflow::RecordingObserver::new();
            let req = ExecutionRequest::new(
                "u",
                src,
                RunConfig::unbounded(Duration::from_micros(100)).with_events(false),
            );
            let handle = {
                let (token, recorder) = (token.clone(), recorder.clone());
                std::thread::spawn(move || {
                    ExecutionEngine::instant().run_controlled(&req, Some(recorder), &token)
                })
            };
            // Outputs reach the observer while the run is still going.
            let mut outputs = 0;
            while outputs < 3 {
                assert!(!handle.is_finished(), "an unbounded run ended on its own");
                let page = recorder.take();
                outputs += page
                    .iter()
                    .filter(|(_, _, e)| matches!(e, laminar_dataflow::RunEvent::Output { .. }))
                    .count();
                std::thread::sleep(Duration::from_millis(1));
            }
            token.cancel();
            assert_eq!(handle.join().unwrap().unwrap_err(), DataflowError::Cancelled);
        }
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
