//! # laminar-json
//!
//! JSON value model, parser and serializer for the Laminar framework.
//!
//! Laminar uses JSON both as its client/server wire format (the paper's
//! Controller layer exchanges JSON envelopes) and as the dynamic datum type
//! flowing between Processing Elements. This crate is a from-scratch
//! substrate: no external JSON dependency is used.
//!
//! ## Quick start
//!
//! ```
//! use laminar_json::{Value, parse};
//!
//! let v = parse(r#"{"name": "IsPrime", "ports": ["input", "output"]}"#).unwrap();
//! assert_eq!(v["name"].as_str(), Some("IsPrime"));
//! assert_eq!(v["ports"][1].as_str(), Some("output"));
//!
//! let round = parse(&v.to_string()).unwrap();
//! assert_eq!(round, v);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod error;
mod map;
mod parse;
mod ser;
mod value;

pub use error::{JsonError, Result};
pub use map::{IntoIter, Iter, Key, Map};
pub use parse::parse;
pub use ser::{to_string, to_string_pretty, write_string, write_value};
pub use value::{SharedValue, Value};

/// Construct a [`Value::Object`] from `key => value` pairs.
///
/// ```
/// use laminar_json::{jobj, Value};
/// let v = jobj! { "id" => 7, "name" => "NumberProducer" };
/// assert_eq!(v["id"].as_i64(), Some(7));
/// ```
#[macro_export]
macro_rules! jobj {
    () => { $crate::Value::Object($crate::Map::new()) };
    ( $( $k:expr => $v:expr ),+ $(,)? ) => {
        // One pass: the pairs are checked for key order once, and sorted
        // (the later of equal keys winning) only when out of order.
        $crate::Value::Object(
            [$( ($crate::Key::from($k), $crate::Value::from($v)) ),+]
                .into_iter()
                .collect::<$crate::Map>(),
        )
    };
}

/// Construct a [`Value::Array`] from elements convertible to [`Value`].
///
/// ```
/// use laminar_json::{jarr, Value};
/// let v = jarr![1, "two", 3.0];
/// assert_eq!(v[1].as_str(), Some("two"));
/// ```
#[macro_export]
macro_rules! jarr {
    () => { $crate::Value::Array(::std::vec::Vec::new()) };
    ( $( $v:expr ),+ $(,)? ) => {
        $crate::Value::Array(::std::vec![ $( $crate::Value::from($v) ),+ ])
    };
}

#[cfg(test)]
mod macro_tests {
    use crate::Value;

    #[test]
    fn jobj_builds_object() {
        let v = jobj! { "a" => 1, "b" => "x", "nested" => jarr![true, Value::Null] };
        assert_eq!(v["a"].as_i64(), Some(1));
        assert_eq!(v["b"].as_str(), Some("x"));
        assert_eq!(v["nested"][0].as_bool(), Some(true));
        assert!(v["nested"][1].is_null());
    }

    #[test]
    fn jobj_equals_the_inserted_object_whatever_the_key_order() {
        let built = jobj! { "b" => 1, "a" => "x", "c" => 2.5, "a" => "later", "b" => Value::Null };
        let mut m = crate::Map::new();
        for (k, v) in [("b", Value::from(1)), ("a", "x".into()), ("c", 2.5.into()), ("a", "later".into())] {
            m.insert(k, v);
        }
        m.insert("b", Value::Null);
        assert_eq!(built, Value::Object(m));
        assert_eq!(built.to_string(), r#"{"a":"later","b":null,"c":2.5}"#);
        assert_eq!(jobj! { "k" => 1, "k" => 2 }, jobj! { "k" => 2 });
    }

    #[test]
    fn empty_macros() {
        assert_eq!(jobj! {}, Value::Object(crate::Map::new()));
        assert_eq!(jarr![], Value::Array(vec![]));
    }
}
