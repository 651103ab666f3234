//! # laminar-codec
//!
//! Serialization substrate for Laminar.
//!
//! The paper's client pickles PE/workflow code with `cloudpickle`, wraps the
//! byte string in base64 for registry storage, and ships it over the wire.
//! This crate provides the equivalent building blocks, written from scratch:
//!
//! * [`base64_encode`]/[`base64_decode`] — RFC 4648 standard-alphabet base64.
//! * [`checksum`] — CRC-32 (IEEE) integrity checksums on payload frames.
//! * [`dumps`]/[`loads`] — "lampickle", a tag-length-value binary codec for
//!   [`laminar_json::Value`] trees with a framed, checksummed envelope
//!   (LEB128 varint length prefixes); [`dumps_b64`]/[`loads_b64`] are its
//!   base64 text form.
//!
//! ```
//! use laminar_json::jobj;
//!
//! let v = jobj! { "pe" => "NumberProducer", "iters" => 5 };
//! let frame = laminar_codec::dumps(&v);
//! assert_eq!(laminar_codec::loads(&frame).unwrap(), v);
//!
//! // Registry storage form: base64 text, like the paper's `peCode` column.
//! let text = laminar_codec::base64_encode(&frame);
//! assert_eq!(laminar_codec::base64_decode(&text).unwrap(), frame);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod base64;
mod crc32;
mod pickle;
mod varint;

pub use base64::{decode as base64_decode, encode as base64_encode, Base64Error};
pub use crc32::checksum;
pub use pickle::{dumps, dumps_b64, loads, loads_b64, CodecError};
