//! Building the system under test: the seeded registry, the engine and
//! the server, through public constructors only. One call of
//! [`build_server`] is what `setup_s` times (plus transport start and
//! client logins, added by the caller).

use crate::corpus::Corpus;
use laminar_engine::ExecutionEngine;
use laminar_registry::Registry;
use laminar_server::LaminarServer;
use laminar_workloads::{isprime, streaming, sustained};
use std::sync::Arc;

/// The tenant that owns the three workflows and runs them.
pub const RUNNER: &str = "bench0";
/// Sensors in the `enact_heavy` fleet.
pub const SENSORS: usize = 16;
/// Pool sizing shared by every workload: one worker per vCPU.
pub const POOL_WORKERS: usize = 2;
pub const POOL_QUEUE: usize = 64;

/// A workflow registered under [`RUNNER`].
#[derive(Clone, Copy)]
pub struct Workflow {
    pub entry: &'static str,
    pub source: &'static str,
}

pub const ISPRIME: Workflow = Workflow { entry: "IsPrime", source: isprime::SOURCE_SEQUENTIAL };
pub const SENSOR_WINDOWS: Workflow = Workflow { entry: "SensorWindows", source: streaming::SOURCE };
pub const BEAT: Workflow = Workflow { entry: sustained::WORKFLOW, source: sustained::SOURCE };

/// Register the corpus and the three workflows into `registry`.
pub fn fill_registry(registry: &mut Registry, corpus: &Corpus) {
    corpus.register_into(registry);
    for wf in [ISPRIME, SENSOR_WINDOWS, BEAT] {
        registry.register_workflow(RUNNER, wf.source, wf.entry, None).expect("register workflow");
    }
}

pub fn build_registry(corpus: &Corpus) -> Registry {
    let mut registry = Registry::in_memory();
    fill_registry(&mut registry, corpus);
    registry
}

/// `ExecutionEngine::instant()` (no simulated provisioning: every
/// millisecond measured is program work) with the zero-latency sensor
/// fleet that `SensorWindows` polls.
pub fn engine() -> ExecutionEngine {
    let engine = ExecutionEngine::instant();
    engine.hosts().register("sensor", Arc::new(streaming::SensorFleet::instant(SENSORS)));
    engine
}

pub fn build_server(corpus: &Corpus) -> LaminarServer {
    LaminarServer::with_pool(build_registry(corpus), engine(), POOL_WORKERS, POOL_QUEUE)
}
