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
//! installs are modelled by [`env::EnvironmentManager`] with calibrated
//! deterministic costs, and remote engines add the [`netmodel::NetModel`]
//! WAN delay — together these reproduce the overhead structure that
//! Table 5 measures.

mod admission;
pub mod engine;
pub mod env;
mod event_log;
mod fair_queue;
pub mod hosts;
mod jobs;
pub mod journal;
pub mod netmodel;
pub mod pool;
pub mod request;
mod worker;

pub use engine::{ExecutionEngine, ExecutionOutput};
pub use env::{EnvironmentManager, InstallReport};
pub use hosts::HostRegistry;
pub use journal::{JournalError, JournalStore, ResumeData};
pub use netmodel::NetModel;
pub use pool::{EnginePool, EventPage, JobInfo, JobPhase, JobResult, PoolError, PoolStats};
pub use request::{ExecutionRequest, RejectedSource, RunConfig};

pub use laminar_dataflow::{CancelToken, FaultPlan, RunInput};
