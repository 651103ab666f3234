//! # laminar-dataflow
//!
//! The parallel stream-based dataflow engine underneath Laminar — a Rust
//! reproduction of the dispel4py library the paper builds on (§2.1).
//!
//! ## Concepts (one-to-one with the paper)
//!
//! * **Processing Element ([`Pe`])** — the computational unit. Four
//!   archetypes: producer, iterative, consumer, generic. PEs can be
//!   *native* (Rust closures/structs) or *scripted* ([`ScriptPeFactory`] wrapping
//!   LamScript source — the serverless path).
//! * **Instance** — one runtime copy of a PE. Parallel mappings run several
//!   instances per PE.
//! * **Connection** — a directed edge between an output port and an input
//!   port, carrying a [`Grouping`].
//! * **Grouping** — how data is routed among destination instances:
//!   shuffle (round-robin), group-by (MapReduce-style key routing),
//!   one-to-all (broadcast), all-to-one.
//! * **Abstract workflow ([`WorkflowGraph`])** — what the user describes.
//! * **Concrete workflow ([`planner::ConcretePlan`])** — instances +
//!   routing, built automatically at enactment.
//! * **Mapping** — the enactment backend: [`mapping::SimpleMapping`]
//!   (sequential), [`mapping::MultiMapping`] (threads + bounded inboxes),
//!   [`mapping::MpiMapping`] (serialized frames between ranks over the
//!   same inboxes), [`mapping::RedisMapping`] (the same inboxes as work
//!   queues, carrying MPI's frames).
//!
//! ## Quick start
//!
//! ```
//! use laminar_dataflow::{WorkflowGraph, ScriptPeFactory, mapping::{Mapping, SimpleMapping}, RunOptions};
//!
//! let src = r#"
//!     pe Producer : producer { output output; process { emit(iteration); } }
//!     pe Double : iterative { input x; output output; process { emit(x * 2); } }
//! "#;
//! let mut graph = WorkflowGraph::new("doubler");
//! let p = graph.add_script_pe(src, "Producer").unwrap();
//! let d = graph.add_script_pe(src, "Double").unwrap();
//! graph.connect(p, "output", d, "x").unwrap();
//!
//! let result = SimpleMapping.execute(&graph, &RunOptions::iterations(5)).unwrap();
//! let doubled: Vec<i64> = result.port_values("Double", "output")
//!     .iter().map(|v| v.as_i64().unwrap()).collect();
//! assert_eq!(doubled, vec![0, 2, 4, 6, 8]);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod error;
mod fault;
mod graph;
pub mod mapping;
mod pe;
mod planner;
mod ports;
mod routing;

pub use error::{panic_message, DataflowError};
pub use fault::FaultPlan;
pub use graph::{Connection, NodeId, WorkflowGraph};
pub use mapping::{
    fold_events, CancelToken, MappingKind, RecordingObserver, ResumePoint, RunEvent, RunInput, RunObserver,
    RunOptions, RunResult, RunStats, StageTimings,
};
pub use pe::{
    consumer_fn, iterative_fn, producer_fn, NativePeFactory, Pe, PeFactory, PeMeta, ScriptPeFactory,
};
pub use planner::ConcretePlan;
pub use routing::Grouping;

pub use laminar_script::{Host, NullHost, Sink};
