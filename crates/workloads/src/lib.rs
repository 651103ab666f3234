//! # laminar-workloads
//!
//! The computational showcases of paper §5 plus supporting substrates:
//!
//! * [`isprime`] — the IsPrime workflow of Figure 1 / Listing 3;
//! * [`wordcount`] — the stateful group-by MapReduce-style PE of Listing 2,
//!   grown into a full workflow;
//! * [`astro`] — the Internal Extinction astrophysics workflow (§5.2):
//!   a synthetic galaxy catalog, a simulated Virtual Observatory service
//!   with configurable latency, and a from-scratch VOTable XML
//!   writer/parser standing in for astropy;
//! * [`streaming`] — a long-running source-driven sensor scenario
//!   (windowed aggregation + live alerts) exercising the enactment event
//!   stream: first results surface long before the run completes;
//! * [`sustained`] — the many-tenants serving pulse of the
//!   `sustained_load` bench: tiny jobs, full event-stream structure.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod astro;
pub mod isprime;
pub mod streaming;
pub mod sustained;
mod votable;
pub mod wordcount;
