//! # laminar-engine
//!
//! The serverless core of Laminar (paper §3.3): a single entry point that
//! receives a workflow (code + configuration), provisions an ephemeral
//! environment, installs the declared library dependencies, stages any
//! additional resources, detects the initial PE, enacts the workflow with
//! the requested mapping, and returns the captured output to the caller —
//! then tears the environment down.
//!
//! Hardware substitution (DESIGN.md): the conda environment and pip
//! installs are modelled by the engine's environment manager with calibrated
//! deterministic costs, and remote engines add the [`NetModel`]
//! WAN delay — together these reproduce the overhead structure that
//! Table 5 measures.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod admission;
mod engine;
mod env;
mod event_log;
mod fair_queue;
mod hosts;
mod jobs;
mod journal;
mod netmodel;
mod pool;
mod request;
mod worker;

pub use engine::{ExecutionEngine, ExecutionOutput};
pub use hosts::HostRegistry;
pub use journal::{JournalError, JournalStore, JournalWriter, ResumeData};
pub use netmodel::NetModel;
pub use pool::{EnginePool, EventPage, JobInfo, JobPhase, JobResult, PoolError, PoolStats};
pub use request::{ExecutionRequest, RejectedSource, RunConfig};

pub use laminar_dataflow::{CancelToken, FaultPlan, RunInput};
