//! # laminar-client
//!
//! The user-facing Laminar client (paper §3.4), structured in the paper's
//! two layers:
//!
//! * the **client layer** ([`client::LaminarClient`]) — the thirteen
//!   documented functions (`register`, `login`, `register_PE`,
//!   `register_Workflow`, `remove_PE`, `remove_Workflow`, `get_PE`,
//!   `get_Workflow`, `get_PEs_By_Workflow`, `search_Registry`, `describe`,
//!   `get_Registry`, `run`);
//! * the **web_client layer** ([`web`]) — serialization (lampickle +
//!   base64), import analysis, JSON envelopes, and the transport that
//!   carries them: in-process ([`web::InProcessTransport`]) or HTTP/TCP
//!   ([`web::TcpTransport`]).
//!
//! ```
//! use laminar_client::{LaminarClient, RunConfig};
//! use laminar_server::LaminarServer;
//!
//! let mut client = LaminarClient::in_process(LaminarServer::in_memory());
//! client.register("zz46", "password").unwrap();
//! client.login("zz46", "password").unwrap();
//!
//! let src = "pe Gen : producer { output output; process { emit(iteration); } }";
//! client.register_pe(src, Some("Emits the iteration counter")).unwrap();
//! let out = client.run_source(src, RunConfig::iterations(3)).unwrap();
//! assert_eq!(out.port_values("Gen", "output").len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod client;
pub mod web;

pub use client::{ClientError, EventPage, JobEventStream, LaminarClient, RunConfig, RunTarget};
pub use web::{InProcessTransport, TcpTransport, Transport};
