//! The dynamic [`Value`] type: Laminar's datum model.
//!
//! Every unit of data that crosses a PE port, a client/server boundary or a
//! registry column is a `Value`. The representation mirrors JSON with one
//! extension used internally by the dataflow layer: integers and floats are
//! kept distinct so that group-by keys hash stably.

use crate::map::Map;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// A reference-counted [`Value`]: the cheap clone path for large arrays,
/// objects and strings. Cloning a `SharedValue` bumps a refcount instead of
/// deep-copying the tree, which is what lets the dataflow layer broadcast
/// one payload to many destination instances without per-destination
/// copies. Use [`Value::into_shared`] / [`Value::unshare`] to cross between
/// the owned and shared worlds.
pub type SharedValue = Arc<Value>;

/// A dynamically-typed JSON value.
#[derive(Clone, Default, PartialEq)]
pub enum Value {
    /// `null`
    #[default]
    Null,
    /// `true` / `false`
    Bool(bool),
    /// 64-bit signed integer. JSON numbers without a fraction or exponent
    /// that fit in `i64` parse to this variant.
    Int(i64),
    /// Double-precision float. Never NaN after parsing (NaN is rejected).
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered list.
    Array(Vec<Value>),
    /// Key → value mapping with deterministic key order.
    Object(Map),
}

impl Value {
    /// `true` if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrow as `bool` if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow as `i64` if this is an `Int` (floats are *not* coerced).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: `Int` and `Float` both convert to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Borrow as `&str` if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as a slice if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as a map if this is an `Object`.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable object access.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Array element lookup; `None` for non-arrays or out-of-range.
    pub(crate) fn at(&self, idx: usize) -> Option<&Value> {
        self.as_array().and_then(|a| a.get(idx))
    }

    /// Insert into an object, converting `self` to an object if `Null`.
    ///
    /// Returns `&mut self` for chaining. Panics if `self` is a non-object,
    /// non-null value — that is always a logic error in envelope-building
    /// code.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        if self.is_null() {
            *self = Value::Object(Map::new());
        }
        match self {
            Value::Object(m) => {
                m.insert(key, value.into());
            }
            other => panic!("Value::set on non-object {}", other.type_name()),
        }
        self
    }

    /// Human-readable type tag used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Deep size in datum units: scalars count 1, containers count their
    /// recursive element total plus 1. Used by the engine's transfer-cost
    /// model.
    pub fn weight(&self) -> usize {
        match self {
            Value::Array(a) => 1 + a.iter().map(Value::weight).sum::<usize>(),
            Value::Object(m) => 1 + m.values().map(Value::weight).sum::<usize>(),
            _ => 1,
        }
    }

    /// Stable 64-bit hash of the value, used for group-by routing.
    ///
    /// FNV-1a over a canonical byte walk. Stable across processes and runs
    /// (unlike `std` hashing) so that Redis-mapping workers on different
    /// "nodes" route identically.
    pub fn stable_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(PRIME);
            }
        }
        fn walk(v: &Value, h: &mut u64) {
            match v {
                Value::Null => mix(h, b"n"),
                Value::Bool(b) => mix(h, if *b { b"t" } else { b"f" }),
                Value::Int(i) => {
                    mix(h, b"i");
                    mix(h, &i.to_le_bytes());
                }
                Value::Float(f) => {
                    mix(h, b"d");
                    // Canonicalize -0.0 so that 0.0 and -0.0 route together.
                    let f = if *f == 0.0 { 0.0 } else { *f };
                    mix(h, &f.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    mix(h, b"s");
                    mix(h, s.as_bytes());
                }
                Value::Array(a) => {
                    mix(h, b"a");
                    mix(h, &(a.len() as u64).to_le_bytes());
                    for e in a {
                        walk(e, h);
                    }
                }
                Value::Object(m) => {
                    mix(h, b"o");
                    mix(h, &(m.len() as u64).to_le_bytes());
                    for (k, e) in m {
                        mix(h, k.as_bytes());
                        walk(e, h);
                    }
                }
            }
        }
        let mut h = OFFSET;
        walk(self, &mut h);
        h
    }

    /// Move the value behind a refcount so further clones are O(1)
    /// regardless of payload size.
    pub fn into_shared(self) -> SharedValue {
        Arc::new(self)
    }

    /// Recover an owned value from a [`SharedValue`]: zero-copy when this is
    /// the last reference (the steady-state single-destination case), one
    /// deep clone otherwise (broadcast fan-out).
    pub fn unshare(shared: SharedValue) -> Value {
        Arc::try_unwrap(shared).unwrap_or_else(|arc| (*arc).clone())
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Debug output is the compact JSON form; invaluable in test failures.
        write!(f, "{}", crate::ser::to_string(self))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::ser::to_string(self))
    }
}

static NULL: Value = Value::Null;

impl Index<&str> for Value {
    type Output = Value;
    /// Missing keys index to `Null` rather than panicking; mirrors the
    /// permissive lookups the Python client performs on JSON responses.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        self.at(idx).unwrap_or(&NULL)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<&String> for Value {
    fn from(s: &String) -> Self {
        Value::Str(s.clone())
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}
impl From<Map> for Value {
    fn from(m: Map) -> Self {
        Value::Object(m)
    }
}
impl From<Value> for String {
    fn from(v: Value) -> Self {
        crate::ser::to_string(&v)
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Value::Array(iter.into_iter().collect())
    }
}

impl FromIterator<(String, Value)> for Value {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Value::Object(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let v = Value::Int(42);
        assert_eq!(v.as_i64(), Some(42));
        assert_eq!(v.as_f64(), Some(42.0));
        assert_eq!(v.as_str(), None);
        assert_eq!(v.type_name(), "int");
        assert!(Value::Null.is_null());
    }

    #[test]
    fn index_missing_is_null() {
        let v = crate::jobj! { "a" => 1 };
        assert!(v["missing"].is_null());
        assert!(v["a"]["deeper"].is_null());
        assert!(v[99].is_null());
    }

    #[test]
    fn set_builds_objects() {
        let mut v = Value::Null;
        v.set("x", 1).set("y", "two");
        assert_eq!(v["x"].as_i64(), Some(1));
        assert_eq!(v["y"].as_str(), Some("two"));
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn set_on_scalar_panics() {
        let mut v = Value::Int(3);
        v.set("x", 1);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from(7usize), Value::Int(7));
        assert_eq!(Value::from(1.5), Value::Float(1.5));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(vec![1, 2]), crate::jarr![1, 2]);
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(3i64)), Value::Int(3));
    }

    #[test]
    fn weight_counts_recursively() {
        let v = crate::jarr![1, crate::jarr![2, 3], "s"];
        // outer(1) + 1 + inner(1 + 2) + "s"(1)
        assert_eq!(v.weight(), 6);
    }

    #[test]
    fn stable_hash_is_stable_and_discriminates() {
        let a = crate::jobj! { "k" => "alpha" };
        let b = crate::jobj! { "k" => "beta" };
        assert_eq!(a.stable_hash(), a.clone().stable_hash());
        assert_ne!(a.stable_hash(), b.stable_hash());
        // int/float/string tag separation
        assert_ne!(Value::Int(1).stable_hash(), Value::Float(1.0).stable_hash());
        assert_ne!(Value::Str("1".into()).stable_hash(), Value::Int(1).stable_hash());
        // negative zero canonicalization
        assert_eq!(Value::Float(0.0).stable_hash(), Value::Float(-0.0).stable_hash());
    }

    #[test]
    fn collect_iterators() {
        let arr: Value = (0..3).map(Value::Int).collect();
        assert_eq!(arr, crate::jarr![0i64, 1i64, 2i64]);
        let obj: Value = vec![("a".to_string(), Value::Int(1))].into_iter().collect();
        assert_eq!(obj["a"].as_i64(), Some(1));
    }
}
