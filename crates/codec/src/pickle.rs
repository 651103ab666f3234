//! "lampickle": the binary value codec Laminar ships code and data with.
//!
//! Role-equivalent to cloudpickle in the paper: the client serializes PE
//! specs, workflow graphs and runtime arguments into a self-describing byte
//! frame; the registry stores the frame (base64-encoded); the execution
//! engine deserializes and runs it.
//!
//! ## Frame layout
//!
//! ```text
//! +-------+---------+------------------+-------------------+----------+
//! | magic | version | payload len (LE) | payload (TLV tree)| CRC32 LE |
//! | "LPK" |  u8 =1  |  u32             |                   | of payload|
//! +-------+---------+------------------+-------------------+----------+
//! ```
//!
//! Payload encoding is tag + varint lengths, one byte tag per node.

use crate::crc32;
use crate::varint;
use laminar_json::{Map, Value};

/// Frame magic bytes.
pub(crate) const MAGIC: &[u8; 3] = b"LPK";
/// Current frame version.
pub(crate) const VERSION: u8 = 1;

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_INT: u8 = 0x03;
const TAG_FLOAT: u8 = 0x04;
const TAG_STR: u8 = 0x05;
const TAG_ARRAY: u8 = 0x06;
const TAG_OBJECT: u8 = 0x07;

/// Errors produced by [`loads`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Frame shorter than the fixed header.
    Truncated,
    /// Magic bytes did not match the frame magic (`LPK`).
    BadMagic,
    /// Unknown frame version.
    BadVersion(u8),
    /// Payload length field disagrees with the actual frame size.
    LengthMismatch { declared: usize, actual: usize },
    /// CRC check failed: the payload was corrupted in transit/storage.
    ChecksumMismatch { expected: u32, actual: u32 },
    /// Unknown node tag inside the payload.
    BadTag(u8),
    /// A varint or node body ran past the end of the payload.
    UnexpectedEof,
    /// String node contained invalid UTF-8.
    InvalidUtf8,
    /// Nesting exceeded the decode depth bound.
    TooDeep,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            CodecError::LengthMismatch { declared, actual } => {
                write!(f, "length mismatch: declared {declared}, actual {actual}")
            }
            CodecError::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch: expected {expected:08x}, got {actual:08x}")
            }
            CodecError::BadTag(t) => write!(f, "unknown node tag 0x{t:02x}"),
            CodecError::UnexpectedEof => write!(f, "unexpected end of payload"),
            CodecError::InvalidUtf8 => write!(f, "invalid UTF-8 in string node"),
            CodecError::TooDeep => write!(f, "payload nesting too deep"),
        }
    }
}

impl std::error::Error for CodecError {}

const MAX_DECODE_DEPTH: usize = 512;

/// Serialize a value tree into a framed, checksummed byte vector.
pub fn dumps(v: &Value) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    encode_node(&mut payload, v);
    let mut frame = Vec::with_capacity(payload.len() + 12);
    frame.extend_from_slice(MAGIC);
    frame.push(VERSION);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&crc32::checksum(&payload).to_le_bytes());
    frame
}

/// Deserialize a frame produced by [`dumps`], verifying magic, version,
/// length and CRC.
pub fn loads(frame: &[u8]) -> Result<Value, CodecError> {
    if frame.len() < 12 {
        return Err(CodecError::Truncated);
    }
    if &frame[..3] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    if frame[3] != VERSION {
        return Err(CodecError::BadVersion(frame[3]));
    }
    let declared = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]) as usize;
    let actual = frame.len() - 12;
    if declared != actual {
        return Err(CodecError::LengthMismatch { declared, actual });
    }
    let payload = &frame[8..8 + declared];
    let crc_bytes = &frame[8 + declared..];
    let expected = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    let got = crc32::checksum(payload);
    if expected != got {
        return Err(CodecError::ChecksumMismatch { expected, actual: got });
    }
    let mut pos = 0;
    let v = decode_node(payload, &mut pos, 0)?;
    if pos != payload.len() {
        return Err(CodecError::LengthMismatch { declared: pos, actual: payload.len() });
    }
    Ok(v)
}

fn encode_node(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            // ZigZag so negative ints stay small.
            let z = ((*i << 1) ^ (*i >> 63)) as u64;
            varint::write_u64(out, z);
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            varint::write_u64(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(a) => {
            out.push(TAG_ARRAY);
            varint::write_u64(out, a.len() as u64);
            for e in a {
                encode_node(out, e);
            }
        }
        Value::Object(m) => {
            out.push(TAG_OBJECT);
            varint::write_u64(out, m.len() as u64);
            for (k, e) in m {
                varint::write_u64(out, k.len() as u64);
                out.extend_from_slice(k.as_bytes());
                encode_node(out, e);
            }
        }
    }
}

fn read_varint(payload: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let (v, n) = varint::read_u64(&payload[*pos..]).ok_or(CodecError::UnexpectedEof)?;
    *pos += n;
    Ok(v)
}

fn read_bytes<'a>(payload: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8], CodecError> {
    if *pos + len > payload.len() {
        return Err(CodecError::UnexpectedEof);
    }
    let s = &payload[*pos..*pos + len];
    *pos += len;
    Ok(s)
}

fn decode_node(payload: &[u8], pos: &mut usize, depth: usize) -> Result<Value, CodecError> {
    if depth > MAX_DECODE_DEPTH {
        return Err(CodecError::TooDeep);
    }
    let tag = *payload.get(*pos).ok_or(CodecError::UnexpectedEof)?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_INT => {
            let z = read_varint(payload, pos)?;
            let i = ((z >> 1) as i64) ^ -((z & 1) as i64);
            Ok(Value::Int(i))
        }
        TAG_FLOAT => {
            let b = read_bytes(payload, pos, 8)?;
            let bits = u64::from_le_bytes(b.try_into().expect("8-byte slice"));
            Ok(Value::Float(f64::from_bits(bits)))
        }
        TAG_STR => {
            let len = read_varint(payload, pos)? as usize;
            let b = read_bytes(payload, pos, len)?;
            Ok(Value::Str(String::from_utf8(b.to_vec()).map_err(|_| CodecError::InvalidUtf8)?))
        }
        TAG_ARRAY => {
            let len = read_varint(payload, pos)? as usize;
            // Guard against length bombs: each element needs ≥1 byte.
            if len > payload.len() - *pos {
                return Err(CodecError::UnexpectedEof);
            }
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                out.push(decode_node(payload, pos, depth + 1)?);
            }
            Ok(Value::Array(out))
        }
        TAG_OBJECT => {
            let len = read_varint(payload, pos)? as usize;
            if len > payload.len() - *pos {
                return Err(CodecError::UnexpectedEof);
            }
            let mut m = Map::new();
            for _ in 0..len {
                let klen = read_varint(payload, pos)? as usize;
                let kb = read_bytes(payload, pos, klen)?;
                let key = String::from_utf8(kb.to_vec()).map_err(|_| CodecError::InvalidUtf8)?;
                let val = decode_node(payload, pos, depth + 1)?;
                m.insert(key, val);
            }
            Ok(Value::Object(m))
        }
        t => Err(CodecError::BadTag(t)),
    }
}

/// Convenience: serialize and base64-encode in one step — the exact form the
/// registry's `peCode`/`workflowCode` columns store.
pub fn dumps_b64(v: &Value) -> String {
    crate::base64::encode(&dumps(v))
}

/// Inverse of [`dumps_b64`].
pub fn loads_b64(text: &str) -> Result<Value, CodecError> {
    let bytes = crate::base64::decode(text).map_err(|_| CodecError::Truncated)?;
    loads(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_json::{jarr, jobj};

    fn sample() -> Value {
        jobj! {
            "name" => "IsPrime",
            "ports" => jarr!["input", "output"],
            "stateful" => false,
            "iters" => -42,
            "rate" => 0.125,
            "nested" => jobj! { "deep" => jarr![Value::Null, true] },
        }
    }

    #[test]
    fn round_trip() {
        let v = sample();
        assert_eq!(loads(&dumps(&v)).unwrap(), v);
    }

    #[test]
    fn b64_round_trip() {
        let v = sample();
        let text = dumps_b64(&v);
        assert!(text.bytes().all(|b| b.is_ascii_alphanumeric() || b"+/=".contains(&b)));
        assert_eq!(loads_b64(&text).unwrap(), v);
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut frame = dumps(&sample());
        let mid = frame.len() / 2;
        frame[mid] ^= 0xFF;
        match loads(&frame) {
            Err(CodecError::ChecksumMismatch { .. }) | Err(CodecError::UnexpectedEof) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let mut frame = dumps(&Value::Null);
        frame[0] = b'X';
        assert_eq!(loads(&frame), Err(CodecError::BadMagic));
        let mut frame = dumps(&Value::Null);
        frame[3] = 9;
        assert_eq!(loads(&frame), Err(CodecError::BadVersion(9)));
    }

    #[test]
    fn truncated_frame() {
        let frame = dumps(&sample());
        assert!(loads(&frame[..5]).is_err());
        assert!(loads(&frame[..frame.len() - 1]).is_err());
        assert_eq!(loads(&[]), Err(CodecError::Truncated));
    }

    #[test]
    fn negative_ints_zigzag() {
        for i in [-1i64, -1000, i64::MIN, i64::MAX, 0, 1] {
            let v = Value::Int(i);
            assert_eq!(loads(&dumps(&v)).unwrap(), v, "int {i}");
        }
    }

    #[test]
    fn special_floats_survive() {
        for f in [0.0, -0.0, f64::MAX, f64::MIN_POSITIVE] {
            let v = Value::Float(f);
            let back = loads(&dumps(&v)).unwrap();
            match back {
                Value::Float(g) => assert_eq!(g.to_bits(), f.to_bits()),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn length_bomb_rejected() {
        // Handcraft a payload claiming a 2^40-element array.
        let mut payload = vec![TAG_ARRAY];
        varint::write_u64(&mut payload, 1 << 40);
        let mut frame = Vec::new();
        frame.extend_from_slice(MAGIC);
        frame.push(VERSION);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&crc32::checksum(&payload).to_le_bytes());
        assert_eq!(loads(&frame), Err(CodecError::UnexpectedEof));
    }
}
