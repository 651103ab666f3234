//! # laminar-oracle
//!
//! The reference implementations the differential suites check the product
//! against; product crates name this crate only under `[dev-dependencies]`.
//! [`Interp`] is the tree-walking interpreter the compiled
//! [`laminar_script::Vm`] must match, [`add_pe`] puts a PE on it into a
//! workflow graph, [`scan`] is the linear scan the search index must
//! answer identically to, and [`event_tree`] builds the wire form of a run
//! event as a tree for `RunEvent::write_json` to match byte for byte.

mod event;
mod interp;
mod pe;
pub mod scan;

pub use event::event_tree;
pub use interp::Interp;
pub use pe::{add_pe, AddPe, InterpPeFactory};
