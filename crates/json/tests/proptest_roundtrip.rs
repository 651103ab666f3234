//! Property-based tests: serialization round-trips and parser robustness.

use laminar_json::{parse, to_string, to_string_pretty, Map, Value};
use proptest::prelude::*;

/// Strategy producing arbitrary JSON values with bounded depth/size.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN/inf are unrepresentable in JSON.
        prop::num::f64::NORMAL.prop_map(Value::Float),
        "[ -~]{0,24}".prop_map(Value::Str),
        "\\PC{0,8}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            prop::collection::btree_map("[a-z]{1,6}", inner, 0..6)
                .prop_map(|m| Value::Object(m.into_iter().collect::<Map>())),
        ]
    })
}

proptest! {
    /// parse ∘ to_string = id
    #[test]
    fn compact_round_trip(v in arb_value()) {
        let s = to_string(&v);
        let back = parse(&s).unwrap();
        prop_assert_eq!(back, v);
    }

    /// parse ∘ to_string_pretty = id
    #[test]
    fn pretty_round_trip(v in arb_value()) {
        let s = to_string_pretty(&v);
        let back = parse(&s).unwrap();
        prop_assert_eq!(back, v);
    }

    /// stable_hash agrees with equality on round-tripped values.
    #[test]
    fn stable_hash_consistent(v in arb_value()) {
        let back = parse(&to_string(&v)).unwrap();
        prop_assert_eq!(back.stable_hash(), v.stable_hash());
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics(s in "\\PC{0,64}") {
        let _ = parse(&s);
    }
}
