//! # Laminar
//!
//! A Rust reproduction of **"Laminar: A New Serverless Stream-based
//! Framework with Semantic Code Search and Code Completion"**
//! (Zahra, Li, Filgueira — WORKS 2023).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`json`] | laminar-json | JSON value model / parser / printer |
//! | [`codec`] | laminar-codec | base64, CRC32, lampickle framing |
//! | [`script`] | laminar-script | LamScript language (PE code as data) |
//! | [`dataflow`] | laminar-dataflow | PEs, graphs, the four mappings |
//! | [`embed`] | laminar-embed | embedding models, summarizer (the evaluation's generators and metrics are in laminar-bench) |
//! | [`registry`] | laminar-registry | entities, storage, searches |
//! | [`engine`] | laminar-engine | serverless execution engine |
//! | [`server`] | laminar-server | REST API + HTTP front-end |
//! | [`client`] | laminar-client | the 13 client functions |
//! | [`core`] | laminar-core | deployment presets |
//! | [`workloads`] | laminar-workloads | IsPrime, WordCount, Astrophysics |
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the reproduction
//! methodology.

#![forbid(unsafe_code)]

pub use laminar_client as client;
pub use laminar_codec as codec;
pub use laminar_core as core;
pub use laminar_dataflow as dataflow;
pub use laminar_embed as embed;
pub use laminar_engine as engine;
pub use laminar_json as json;
pub use laminar_registry as registry;
pub use laminar_script as script;
pub use laminar_server as server;
pub use laminar_workloads as workloads;

/// Convenience prelude for examples and downstream users.
pub mod prelude {
    pub use laminar_client::{ClientError, LaminarClient, RunConfig, RunTarget};
    pub use laminar_core::{Deployment, LaminarSystem};
    pub use laminar_dataflow::{mapping::Mapping, MappingKind, RunOptions, WorkflowGraph};
    pub use laminar_json::{jarr, jobj, Value};
    pub use laminar_server::LaminarServer;
}
