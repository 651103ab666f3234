//! # laminar-codec
//!
//! Serialization substrate for Laminar.
//!
//! The paper's client pickles PE/workflow code with `cloudpickle`, wraps the
//! byte string in base64 for registry storage, and ships it over the wire.
//! This crate provides the equivalent building blocks, written from scratch:
//!
//! * [`base64`] — RFC 4648 standard-alphabet encode/decode.
//! * [`crc32`] — CRC-32 (IEEE) integrity checksums on payload frames.
//! * [`varint`] — LEB128 unsigned varints for compact length prefixes.
//! * [`pickle`] — "lampickle", a tag-length-value binary codec for
//!   [`laminar_json::Value`] trees with a framed, checksummed envelope.
//!
//! ```
//! use laminar_json::jobj;
//! use laminar_codec::pickle;
//!
//! let v = jobj! { "pe" => "NumberProducer", "iters" => 5 };
//! let frame = pickle::dumps(&v);
//! assert_eq!(pickle::loads(&frame).unwrap(), v);
//!
//! // Registry storage form: base64 text, like the paper's `peCode` column.
//! let text = laminar_codec::base64::encode(&frame);
//! assert_eq!(laminar_codec::base64::decode(&text).unwrap(), frame);
//! ```

#![forbid(unsafe_code)]

pub mod base64;
pub mod crc32;
pub mod pickle;
pub mod varint;

pub use pickle::{dumps, loads, CodecError};
