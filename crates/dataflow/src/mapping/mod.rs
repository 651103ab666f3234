//! Enactment back-ends ("mappings" in dispel4py terminology).
//!
//! All mappings execute the same abstract graph with identical semantics;
//! they differ in the transport between PE instances:
//!
//! | Mapping  | Paper equivalent        | Transport                          |
//! |----------|-------------------------|------------------------------------|
//! | [`SimpleMapping`] | Simple (sequential) | in-process FIFO queue        |
//! | [`MultiMapping`]  | Multi(processing)   | threads + a mesh of bounded inboxes, one per instance |
//! | [`MpiMapping`]    | MPI                 | the same mesh, lampickle byte frames |
//! | [`RedisMapping`]  | Redis               | the same mesh, MPI's frames: each inbox is an instance's work queue |
//!
//! The orchestration they share — planning, source driving, routing, EOS
//! propagation, output/stats collection — lives in the crate's private
//! `Runtime`. A parallel mapping is a `Transport` plus the function that
//! wires one per planned instance (see the `runtime` module's docs).

mod cancel;
mod events;
mod mpi;
mod multi;
mod redis;
mod runtime;
mod simple;
mod worker;

pub use cancel::CancelToken;
pub use events::{fold_events, RecordingObserver, RunEvent, RunObserver};
pub use mpi::MpiMapping;
pub use multi::MultiMapping;
pub use redis::RedisMapping;
pub use simple::SimpleMapping;

use crate::error::DataflowError;
use crate::graph::WorkflowGraph;
use laminar_json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Which mapping to use — the client's `process=` parameter accepts these
/// names (paper §3.4.1: SIMPLE, MULTI, MPI, REDIS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingKind {
    /// Sequential in-process execution.
    Simple,
    /// Shared-memory parallel execution.
    Multi,
    /// Message-passing execution: serialized frames between ranks.
    Mpi,
    /// Queue execution: one work queue per instance.
    Redis,
}

impl MappingKind {
    /// Parse the client-facing name (case-insensitive).
    pub fn parse(s: &str) -> Option<MappingKind> {
        Some(match s.to_ascii_uppercase().as_str() {
            "SIMPLE" => MappingKind::Simple,
            "MULTI" => MappingKind::Multi,
            "MPI" => MappingKind::Mpi,
            "REDIS" => MappingKind::Redis,
            _ => return None,
        })
    }

    /// The client-facing name.
    pub fn as_str(&self) -> &'static str {
        match self {
            MappingKind::Simple => "SIMPLE",
            MappingKind::Multi => "MULTI",
            MappingKind::Mpi => "MPI",
            MappingKind::Redis => "REDIS",
        }
    }

    /// Instantiate the mapping back-end.
    pub fn build(&self) -> Box<dyn Mapping> {
        match self {
            MappingKind::Simple => Box::new(SimpleMapping),
            MappingKind::Multi => Box::new(MultiMapping),
            MappingKind::Mpi => Box::new(MpiMapping),
            MappingKind::Redis => Box::new(RedisMapping::default()),
        }
    }
}

impl std::fmt::Display for MappingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What drives the root producers.
#[derive(Debug, Clone, PartialEq)]
pub enum RunInput {
    /// Run each producer for `n` iterations (the paper's `input=5`).
    Iterations(i64),
    /// Feed this explicit datum list (the paper's
    /// `input=[{"input": "resources/coordinates.txt"}]` form). Each datum
    /// becomes one producer invocation, bound to `input`.
    Data(Vec<Value>),
    /// Run producers until the run's [`CancelToken`] fires — the
    /// long-running streaming mode. Each source paces itself by sleeping
    /// `pace` between its own iterations and is driven by bare iteration
    /// count exactly like [`RunInput::Iterations`].
    Unbounded {
        /// Sleep between a source instance's iterations (zero = as fast
        /// as the PE runs).
        pace: Duration,
    },
}

/// Options for one enactment.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Producer drive.
    pub input: RunInput,
    /// Requested process count for parallel mappings (the `args={'num': N}`
    /// parameter). Ignored by Simple.
    pub processes: usize,
    /// Cooperative stop signal, checked between PE invocations. Defaults
    /// to a fresh token nobody cancels; [`RunInput::Unbounded`] runs end
    /// *only* through it.
    pub(crate) cancel: CancelToken,
    /// Checkpoint interval in source iterations. `0` (the default)
    /// disables checkpointing; `n > 0` makes the runtime enact in
    /// *rounds* of `n` iterations, draining to quiescence between rounds
    /// and emitting a [`RunEvent::Epoch`] snapshot of every instance's
    /// durable state at each boundary (see the `runtime` module's docs).
    pub checkpoint_every: usize,
    /// Deterministic fault schedule for the chaos suites (empty in
    /// production).
    pub faults: crate::fault::FaultPlan,
    /// Resume from a checkpoint: rebuild instances from `snapshots`, skip
    /// the source iterations the checkpoint covers, and fold the replayed
    /// event prefix into the result. Produced by the engine's journal.
    pub resume: Option<ResumePoint>,
}

/// Where a resumed run picks up: the last complete epoch's snapshot plus
/// the events that preceded it (see [`RunOptions::resume`]).
#[derive(Debug, Clone)]
pub struct ResumePoint {
    /// The epoch being resumed from (`iterations_done = epoch *
    /// checkpoint_every`).
    pub epoch: u64,
    /// Per-instance snapshots in dense plan order — the `state` payload
    /// of the epoch's [`RunEvent::Epoch`].
    pub snapshots: Value,
    /// The journaled event prefix up to and including that epoch, folded
    /// into the resumed result (`EventSink::preload`).
    pub events: Vec<RunEvent>,
}

impl Default for RunOptions {
    /// The paper's showcase configuration: drive producers for 5 iterations
    /// (`input=5`, Listing 4) over 5 processes — the Figure 1 deployment,
    /// which [`crate::planner::ConcretePlan::distribute`] spreads as one
    /// producer instance plus two instances for each downstream PE.
    fn default() -> RunOptions {
        RunOptions {
            input: RunInput::Iterations(5),
            processes: 5,
            cancel: CancelToken::new(),
            checkpoint_every: 0,
            faults: crate::fault::FaultPlan::default(),
            resume: None,
        }
    }
}

impl RunOptions {
    /// Run producers for `n` iterations with the default process count (5,
    /// matching the paper's showcase configuration).
    pub fn iterations(n: i64) -> RunOptions {
        RunOptions { input: RunInput::Iterations(n), ..RunOptions::default() }
    }

    /// Feed explicit data to the producers.
    pub fn data(values: Vec<Value>) -> RunOptions {
        RunOptions { input: RunInput::Data(values), ..RunOptions::default() }
    }

    /// Run producers until `cancel` fires (see [`RunInput::Unbounded`]),
    /// pacing each source instance by `pace` between iterations.
    pub fn unbounded(pace: Duration, cancel: CancelToken) -> RunOptions {
        RunOptions { input: RunInput::Unbounded { pace }, cancel, ..RunOptions::default() }
    }

    /// Set the process count.
    pub fn with_processes(mut self, n: usize) -> RunOptions {
        self.processes = n;
        self
    }

    /// Attach the cancellation token the runtime checks between PE
    /// invocations.
    pub fn with_cancel(mut self, cancel: CancelToken) -> RunOptions {
        self.cancel = cancel;
        self
    }

    /// Checkpoint every `n` source iterations (`0` disables — the
    /// default). See [`RunOptions::checkpoint_every`].
    pub fn with_checkpoints(mut self, n: usize) -> RunOptions {
        self.checkpoint_every = n;
        self
    }

    /// Attach a deterministic fault schedule (chaos tests).
    pub fn with_faults(mut self, faults: crate::fault::FaultPlan) -> RunOptions {
        self.faults = faults;
        self
    }

    /// Resume from a checkpoint (see [`ResumePoint`]).
    pub fn with_resume(mut self, resume: ResumePoint) -> RunOptions {
        self.resume = Some(resume);
        self
    }

    /// Number of producer invocations this input implies
    /// (`usize::MAX` for [`RunInput::Unbounded`] — use
    /// `bounded_invocations` in loops).
    pub fn invocations(&self) -> usize {
        self.bounded_invocations().unwrap_or(usize::MAX)
    }

    /// The invocation bound, `None` when the run is unbounded
    /// (run-until-cancelled).
    pub(crate) fn bounded_invocations(&self) -> Option<usize> {
        match &self.input {
            RunInput::Iterations(n) => Some((*n).max(0) as usize),
            RunInput::Data(d) => Some(d.len()),
            RunInput::Unbounded { .. } => None,
        }
    }

    /// Per-source-instance inter-iteration sleep (zero for bounded runs).
    pub(crate) fn pace(&self) -> Duration {
        match &self.input {
            RunInput::Unbounded { pace } => *pace,
            _ => Duration::ZERO,
        }
    }

    /// Datum for iteration `i` (None for pure iteration drive).
    pub(crate) fn datum_for(&self, i: usize) -> Option<Value> {
        match &self.input {
            RunInput::Data(d) => d.get(i).cloned(),
            RunInput::Iterations(_) | RunInput::Unbounded { .. } => None,
        }
    }
}

/// Wall-clock time spent in each stage of the shared enactment pipeline
/// (the overhead structure the paper's Table 5 measures: what surrounds
/// pure execution).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Plan construction: concrete plan, PE instantiation, transport setup.
    pub plan: Duration,
    /// Pure enactment: driving sources and streaming data to completion.
    pub enact: Duration,
    /// Result collection: folding worker outcomes into a [`RunResult`].
    pub collect: Duration,
    /// Time the request spent in `laminar_script::prepare` (parse +
    /// compile), reported alongside — not inside — the per-run stages
    /// above. The engine stamps it from the request: zero for a registered
    /// workflow, which was prepared at registration, and for a run driven
    /// straight off a graph.
    pub compile: Duration,
}

/// Per-run statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Data processed per PE (by name).
    pub processed: BTreeMap<String, u64>,
    /// Data emitted per PE (by name).
    pub emitted: BTreeMap<String, u64>,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Instances used per PE (by name).
    pub instances: BTreeMap<String, usize>,
    /// Per-stage breakdown of `elapsed`.
    pub timings: StageTimings,
    /// Events the enactment's stream carried (excluding the terminal
    /// [`events::RunEvent::Finished`]).
    pub events: u64,
    /// Time from enact start to the first terminal-port output, on every
    /// mapping, observed or not. `None` when nothing was emitted.
    pub first_output: Option<Duration>,
}

/// The outcome of an enactment.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Values emitted on terminal ports, keyed by `(pe_name, port)`.
    pub outputs: BTreeMap<(String, String), Vec<Value>>,
    /// Captured `print` lines from all instances (the engine forwards these
    /// to the client — paper Figure 9).
    pub printed: Vec<String>,
    /// Statistics.
    pub stats: RunStats,
}

impl RunResult {
    /// Values emitted on a terminal port (empty slice if none).
    pub fn port_values(&self, pe_name: &str, port: &str) -> &[Value] {
        self.outputs.get(&(pe_name.to_string(), port.to_string())).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total terminal output count.
    pub fn total_outputs(&self) -> usize {
        self.outputs.values().map(Vec::len).sum()
    }
}

/// An enactment back-end.
pub trait Mapping {
    /// Which kind this is.
    fn kind(&self) -> MappingKind;

    /// Execute the graph to completion, streaming [`RunEvent`]s to
    /// `observer` as they happen. The returned batch result is the fold
    /// over that same stream ([`fold_events`]), so observers and callers
    /// always agree.
    fn execute_observed(
        &self,
        graph: &WorkflowGraph,
        options: &RunOptions,
        observer: Option<Arc<dyn RunObserver>>,
    ) -> Result<RunResult, DataflowError>;

    /// Execute the graph to completion (batch: no observer).
    fn execute(&self, graph: &WorkflowGraph, options: &RunOptions) -> Result<RunResult, DataflowError> {
        self.execute_observed(graph, options, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_kind_parse_round_trip() {
        for k in [MappingKind::Simple, MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
            assert_eq!(MappingKind::parse(k.as_str()), Some(k));
            assert_eq!(MappingKind::parse(&k.as_str().to_lowercase()), Some(k));
        }
        assert_eq!(MappingKind::parse("SPARK"), None);
    }

    #[test]
    fn run_options_invocations() {
        assert_eq!(RunOptions::iterations(5).invocations(), 5);
        assert_eq!(RunOptions::iterations(-1).invocations(), 0);
        let d = RunOptions::data(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(d.invocations(), 2);
        assert_eq!(d.datum_for(1), Some(Value::Int(2)));
        assert_eq!(d.datum_for(9), None);
        assert_eq!(RunOptions::iterations(3).datum_for(0), None);
    }

    #[test]
    fn unbounded_options_shape() {
        let token = CancelToken::new();
        let o = RunOptions::unbounded(Duration::from_millis(1), token.clone());
        assert_eq!(o.bounded_invocations(), None);
        assert_eq!(o.invocations(), usize::MAX);
        assert_eq!(o.pace(), Duration::from_millis(1));
        assert_eq!(o.datum_for(3), None, "iteration-driven");
        token.cancel();
        assert!(o.cancel.is_cancelled(), "options share the caller's token");
        assert!(format!("{:?}", o.input).contains("Unbounded"));
        // Bounded runs have no pace.
        let b = RunOptions::iterations(3);
        assert_eq!(b.pace(), Duration::ZERO);
        assert_eq!(b.datum_for(0), None);
        assert_eq!(b.bounded_invocations(), Some(3));
    }

    #[test]
    fn default_matches_paper_showcase() {
        let d = RunOptions::default();
        assert!(matches!(d.input, RunInput::Iterations(5)), "paper Listing 4: input=5");
        assert_eq!(d.processes, 5, "paper Figure 1: five processes");
        assert_eq!(d.invocations(), 5);
        // The named constructors share the same defaults.
        assert_eq!(RunOptions::iterations(9).processes, 5);
    }

    #[test]
    fn build_constructs_each_kind() {
        for k in [MappingKind::Simple, MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
            assert_eq!(k.build().kind(), k);
        }
    }
}
