//! Property tests: lampickle and base64 are inverses; decoders never panic.

use laminar_codec::{base64_decode, base64_encode, dumps, dumps_b64, loads, loads_b64};
use laminar_json::{Map, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        prop::num::f64::NORMAL.prop_map(Value::Float),
        "\\PC{0,16}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(4, 48, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
            prop::collection::btree_map("[a-z]{1,5}", inner, 0..5)
                .prop_map(|m| Value::Object(m.into_iter().collect::<Map>())),
        ]
    })
}

proptest! {
    /// loads ∘ dumps = id for arbitrary value trees.
    #[test]
    fn pickle_round_trip(v in arb_value()) {
        prop_assert_eq!(loads(&dumps(&v)).unwrap(), v);
    }

    /// The b64 storage form also round-trips.
    #[test]
    fn pickle_b64_round_trip(v in arb_value()) {
        prop_assert_eq!(loads_b64(&dumps_b64(&v)).unwrap(), v);
    }

    /// decode ∘ encode = id on arbitrary byte strings.
    #[test]
    fn base64_round_trip(data in prop::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(base64_decode(&base64_encode(&data)).unwrap(), data);
    }

    /// Encoded length matches the closed form ceil(n/3)*4.
    #[test]
    fn base64_length(data in prop::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(base64_encode(&data).len(), data.len().div_ceil(3) * 4);
    }

    /// The frame decoder never panics on arbitrary bytes.
    #[test]
    fn loads_never_panics(data in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = loads(&data);
    }

    /// Flipping any single payload byte is detected (CRC or structural error).
    #[test]
    fn single_flip_detected(v in arb_value(), flip in any::<u8>(), pos_seed in any::<usize>()) {
        let mut frame = dumps(&v);
        if frame.len() > 12 {
            let payload_span = frame.len() - 12;
            let pos = 8 + pos_seed % payload_span;
            if flip != 0 {
                frame[pos] ^= flip;
                prop_assert!(loads(&frame).is_err());
            }
        }
    }

    /// Any strict prefix of a frame is an error, never a partial value —
    /// the strict-frame rule the transports rely on, now mirrored at the
    /// HTTP boundary.
    #[test]
    fn truncated_frame_is_error(v in arb_value(), cut_seed in any::<usize>()) {
        let frame = dumps(&v);
        let cut = cut_seed % frame.len().max(1);
        prop_assert!(loads(&frame[..cut]).is_err(), "prefix of {cut}/{} decoded", frame.len());
    }

    /// The b64 storage form rejects truncation too (losing whole 4-char
    /// blocks keeps the text valid base64, so the frame CRC must catch it).
    #[test]
    fn truncated_b64_frame_is_error(v in arb_value(), blocks in 1usize..4) {
        let text = dumps_b64(&v);
        let keep = text.len().saturating_sub(blocks * 4);
        prop_assert!(loads_b64(&text[..keep]).is_err());
    }

    /// Corrupting one character of the b64 storage form is detected
    /// (either invalid base64 or a CRC/structural failure after decode).
    #[test]
    fn corrupt_b64_char_is_error(v in arb_value(), pos_seed in any::<usize>(), repl in 0usize..64) {
        let alphabet = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
        let mut text = dumps_b64(&v).into_bytes();
        let pos = pos_seed % text.len();
        let replacement = alphabet[repl];
        if text[pos] != replacement {
            text[pos] = replacement;
            let text = String::from_utf8(text).unwrap();
            prop_assert!(loads_b64(&text).is_err(), "corrupt b64 at {pos} decoded");
        }
    }
}

mod regressions {
    use super::*;
    use laminar_json::jobj;

    /// The corrupt-frame shapes PR 2 made the transports reject; the codec
    /// itself must return errors (never defaults) for every one of them.
    #[test]
    fn corrupt_frame_shapes_are_errors() {
        let good = dumps(&jobj! { "port" => "input", "value" => 42 });
        // Empty and sub-header frames.
        assert!(loads(&[]).is_err());
        assert!(loads(&good[..4]).is_err());
        // Header only, payload missing.
        assert!(loads(&good[..8]).is_err());
        // CRC trailer cut off.
        assert!(loads(&good[..good.len() - 4]).is_err());
        // Declared length larger than the buffer.
        let mut oversize = good.clone();
        oversize[0] ^= 0x40;
        assert!(loads(&oversize).is_err());
        // Trailing garbage after a valid frame.
        let mut padded = good.clone();
        padded.extend_from_slice(b"junk");
        assert!(loads(&padded).is_err());
        // Zeroed CRC.
        let mut bad_crc = good.clone();
        let n = bad_crc.len();
        bad_crc[n - 4..].fill(0);
        assert!(loads(&bad_crc).is_err());
    }

    #[test]
    fn corrupt_base64_inputs_are_errors() {
        assert!(base64_decode("ab!c").is_err(), "invalid alphabet byte");
        assert!(base64_decode("abcde").is_err(), "length not a multiple of 4");
        assert!(base64_decode("ab=c").is_err(), "padding in the middle");
        assert!(base64_decode("a===").is_err(), "over-padding");
        // And the b64 pickle wrapper surfaces them as codec errors.
        assert!(loads_b64("!!!!").is_err());
        assert!(loads_b64("").is_err());
    }
}
