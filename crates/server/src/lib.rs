//! # laminar-server
//!
//! The Laminar server (paper §3.2): a layered architecture with
//!
//! * a **Controller layer** ([`api`]) that parses requests, routes them
//!   across the Table-3 endpoint set and shapes JSON responses;
//! * a **Service layer** ([`server::LaminarServer`]) holding the business
//!   logic, delegating persistence to the registry's DAO layer and
//!   execution to the engine;
//! * standardized **error envelopes** (§3.2.5) via
//!   [`laminar_registry::RegistryError::to_value`];
//! * an **HTTP/1.1-subset TCP front-end** ([`http`]) with persistent
//!   connections, a connection cap and a deadline on every socket wait, so
//!   remote clients exercise real sockets, plus an in-process path for
//!   local deployments.

pub mod api;
pub mod http;
pub mod server;

pub use api::{ApiRequest, ApiResponse, Method};
pub use http::{percent_decode, percent_encode, HttpServer};
pub use server::LaminarServer;
