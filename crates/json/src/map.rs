//! [`Map`], the JSON object, and [`Key`], its key.
//!
//! Most objects Laminar builds are small: a streamed event has six keys, a
//! search hit or an envelope a handful. Such a map is one sorted `Vec` of
//! entries whose short keys live inline, so parsing an event object costs
//! one allocation for the entries instead of one per key plus a B-tree
//! leaf. A map that grows past [`Map::FLAT_MAX`] entries (a PE's state, a
//! large group-by table) moves into a `BTreeMap`, so an insert stays
//! O(log n) however large it gets.
//!
//! Either way the entries iterate in ascending byte order of their keys.
//! That order is what makes serialization deterministic: the wire, the
//! journal, the WAL and [`Value::stable_hash`](crate::Value::stable_hash)
//! all walk it.

use crate::value::Value;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{btree_map, BTreeMap};
use std::fmt;
use std::ops::Deref;

/// The longest key held inline, in bytes.
const INLINE: usize = 16;

/// An object key: text of up to 16 bytes inline, a longer one boxed.
///
/// Keys order as their UTF-8 bytes, which is `str`'s order. Two inline
/// keys are equal when their zero-padded bytes, read as one 128-bit word,
/// and their lengths are; they order as that word read big-endian (two
/// `u64`s) and then their length. Neither needs a byte loop.
#[derive(Clone)]
pub struct Key(KeyRepr);

#[derive(Clone)]
enum KeyRepr {
    /// The text, zero-padded.
    Inline {
        len: u8,
        bytes: [u8; INLINE],
    },
    Boxed(Box<str>),
}

impl Key {
    /// The key's text.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            KeyRepr::Inline { len, bytes } => std::str::from_utf8(&bytes[..*len as usize])
                .expect("an inline key holds the text it was made from"),
            KeyRepr::Boxed(s) => s,
        }
    }

    #[inline]
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            KeyRepr::Inline { len, bytes } => &bytes[..*len as usize],
            KeyRepr::Boxed(s) => s.as_bytes(),
        }
    }

    /// This key as the form a lookup compares in.
    #[inline]
    fn probe(&self) -> Probe<'_> {
        match &self.0 {
            KeyRepr::Inline { len, bytes } => {
                Probe { bytes: &bytes[..*len as usize], word: Some(u128::from_le_bytes(*bytes)) }
            }
            KeyRepr::Boxed(s) => Probe { bytes: s.as_bytes(), word: None },
        }
    }

    /// Whether this is the key being looked up.
    #[inline]
    fn eq_probe(&self, probe: &Probe<'_>) -> bool {
        match (&self.0, probe.word) {
            (KeyRepr::Inline { len, bytes }, Some(word)) => {
                u128::from_le_bytes(*bytes) == word && *len as usize == probe.bytes.len()
            }
            _ => self.as_bytes() == probe.bytes,
        }
    }

    /// The order against a key being looked up.
    #[inline]
    fn cmp_probe(&self, probe: &Probe<'_>) -> Ordering {
        match (&self.0, probe.word) {
            (KeyRepr::Inline { len, bytes }, Some(word)) => {
                (u128::from_be_bytes(*bytes), *len as usize).cmp(&(word.swap_bytes(), probe.bytes.len()))
            }
            _ => self.as_bytes().cmp(probe.bytes),
        }
    }
}

/// Up to 16 bytes, zero-padded.
#[inline]
fn padded(b: &[u8]) -> [u8; INLINE] {
    let mut bytes = [0; INLINE];
    bytes[..b.len()].copy_from_slice(b);
    bytes
}

impl From<&str> for Key {
    #[inline]
    fn from(s: &str) -> Key {
        if s.len() <= INLINE {
            Key(KeyRepr::Inline { len: s.len() as u8, bytes: padded(s.as_bytes()) })
        } else {
            Key(KeyRepr::Boxed(s.into()))
        }
    }
}

impl From<String> for Key {
    #[inline]
    fn from(s: String) -> Key {
        if s.len() <= INLINE {
            Key::from(s.as_str())
        } else {
            Key(KeyRepr::Boxed(s.into_boxed_str()))
        }
    }
}

impl From<Key> for String {
    fn from(k: Key) -> String {
        match k.0 {
            KeyRepr::Inline { .. } => k.as_str().to_owned(),
            KeyRepr::Boxed(s) => s.into(),
        }
    }
}

impl Deref for Key {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

/// The tree side looks keys up by their bytes: `[u8]`'s order is `Key`'s.
impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Key) -> bool {
        self.eq_probe(&other.probe())
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Key) -> Ordering {
        self.cmp_probe(&other.probe())
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A key being looked up, in the form an inline key compares in, built
/// once before the search rather than at every step of it.
struct Probe<'a> {
    bytes: &'a [u8],
    /// For a text of up to 16 bytes, its [`padded`] bytes as one
    /// little-endian word.
    word: Option<u128>,
}

impl<'a> Probe<'a> {
    #[inline]
    fn new(text: &'a str) -> Probe<'a> {
        let bytes = text.as_bytes();
        Probe { bytes, word: (bytes.len() <= INLINE).then(|| u128::from_le_bytes(padded(bytes))) }
    }
}

/// A JSON object: keys in ascending byte order, each once.
///
/// It keeps `BTreeMap`'s method names. Up to [`Map::FLAT_MAX`] entries it is
/// one sorted `Vec`; beyond them a `BTreeMap`, which it stays until
/// [`clear`](Map::clear)ed. Which side holds the entries never shows:
/// iteration, equality and every serialized byte are the same.
#[derive(Clone, Default)]
pub struct Map(Repr);

#[derive(Clone)]
enum Repr {
    Flat(Vec<(Key, Value)>),
    /// Boxed so that a `Map` is three words (the `Vec`'s) and a `Value`
    /// four: an unboxed tree would make every `Value` a word larger.
    #[expect(clippy::box_collection, reason = "the box keeps `Map` the size of the `Vec`")]
    Tree(Box<BTreeMap<Key, Value>>),
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Flat(Vec::new())
    }
}

/// The flat side's index of `probe`. The entries are scanned for an
/// equal key, as a `BTreeMap` scans each of its nodes: each compare is one
/// word and a length, and none waits on the one before it, as each step
/// of a bisection does.
#[inline]
fn position(entries: &[(Key, Value)], probe: &Probe<'_>) -> Option<usize> {
    entries.iter().position(|(k, _)| k.eq_probe(probe))
}

/// Where a key that is not among `entries` goes, to keep them sorted.
fn place(entries: &[(Key, Value)], probe: &Probe<'_>) -> usize {
    entries.partition_point(|(k, _)| k.cmp_probe(probe) == Ordering::Less)
}

impl Map {
    /// The most entries the flat side holds; inserting into a full flat
    /// map moves it into the tree. A flat lookup scans every entry before
    /// the one it finds, and a new key moves every entry after its place;
    /// the tree walks a few nodes of at most 11. Near this size the two
    /// cost the same: on a 2-vCPU x86-64 container, with 9-byte keys, a
    /// lookup took 20 ns flat and 38 in the tree at 16 entries, 59 and 60
    /// at 64, and 83 and 67 at 80; building a map in random key order took
    /// 92 and 97 ns an entry at 32, and 121 and 109 at 64.
    pub const FLAT_MAX: usize = 64;

    /// An empty map; allocates nothing.
    pub const fn new() -> Map {
        Map(Repr::Flat(Vec::new()))
    }

    /// A map of `entries`, in any order; of two equal keys the later wins.
    pub(crate) fn from_entries(mut entries: Vec<(Key, Value)>) -> Map {
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            // A stable sort keeps equal keys in their input order; the run's
            // first slot takes the last value.
            entries.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(&mut later.1, &mut kept.1);
                }
                same
            });
        }
        if entries.len() > Map::FLAT_MAX {
            Map(Repr::Tree(Box::new(entries.into_iter().collect())))
        } else {
            Map(Repr::Flat(entries))
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Flat(v) => v.len(),
            Repr::Tree(t) => t.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove every entry; the map is flat again.
    pub fn clear(&mut self) {
        *self = Map::new();
    }

    #[inline]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match &self.0 {
            Repr::Flat(v) => position(v, &Probe::new(key)).map(|i| &v[i].1),
            Repr::Tree(t) => t.get(key.as_bytes()),
        }
    }

    #[inline]
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match &mut self.0 {
            Repr::Flat(v) => position(v, &Probe::new(key)).map(|i| &mut v[i].1),
            Repr::Tree(t) => t.get_mut(key.as_bytes()),
        }
    }

    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Set `key` to `value`; the value it had, if any.
    pub fn insert(&mut self, key: impl Into<Key>, value: Value) -> Option<Value> {
        let key = key.into();
        if let Repr::Flat(v) = &mut self.0 {
            let probe = key.probe();
            if let Some(i) = position(v, &probe) {
                return Some(std::mem::replace(&mut v[i].1, value));
            }
            if v.len() < Map::FLAT_MAX {
                let i = place(v, &probe);
                v.insert(i, (key, value));
                return None;
            }
            self.grow();
        }
        match &mut self.0 {
            Repr::Tree(t) => t.insert(key, value),
            Repr::Flat(_) => unreachable!("a full flat map has grown into a tree"),
        }
    }

    /// Move a full flat map into the tree.
    #[cold]
    fn grow(&mut self) {
        if let Repr::Flat(v) = &mut self.0 {
            let entries = std::mem::take(v);
            self.0 = Repr::Tree(Box::new(entries.into_iter().collect()));
        }
    }

    /// Take `key` out; the value it had, if any.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        match &mut self.0 {
            Repr::Flat(v) => position(v, &Probe::new(key)).map(|i| v.remove(i).1),
            Repr::Tree(t) => t.remove(key.as_bytes()),
        }
    }

    /// The value at `key`, inserting `default()` first if there is none.
    /// A key that is there costs one scan, and a key is built only when
    /// one is inserted.
    pub fn get_or_insert_with(&mut self, key: &str, default: impl FnOnce() -> Value) -> &mut Value {
        let probe = Probe::new(key);
        if let Repr::Flat(v) = &self.0 {
            if v.len() >= Map::FLAT_MAX && position(v, &probe).is_none() {
                self.grow();
            }
        }
        match &mut self.0 {
            Repr::Flat(v) => {
                let i = match position(v, &probe) {
                    Some(i) => i,
                    None => {
                        let i = place(v, &probe);
                        v.insert(i, (Key::from(key), default()));
                        i
                    }
                };
                &mut v[i].1
            }
            Repr::Tree(t) => {
                if !t.contains_key(key.as_bytes()) {
                    t.insert(Key::from(key), default());
                }
                t.get_mut(key.as_bytes()).expect("present")
            }
        }
    }

    /// Keep only the entries `f` returns `true` for.
    pub fn retain(&mut self, mut f: impl FnMut(&Key, &mut Value) -> bool) {
        match &mut self.0 {
            Repr::Flat(v) => v.retain_mut(|(k, e)| f(k, e)),
            Repr::Tree(t) => t.retain(|k, e| f(k, e)),
        }
    }

    #[inline]
    pub fn iter(&self) -> Iter<'_> {
        Iter(match &self.0 {
            Repr::Flat(v) => IterRepr::Flat(v.iter()),
            Repr::Tree(t) => IterRepr::Tree(t.iter()),
        })
    }

    pub fn keys(&self) -> impl ExactSizeIterator<Item = &Key> {
        self.iter().map(|(k, _)| k)
    }

    pub fn values(&self) -> impl ExactSizeIterator<Item = &Value> {
        self.iter().map(|(_, v)| v)
    }

    pub fn into_keys(self) -> impl ExactSizeIterator<Item = Key> {
        self.into_iter().map(|(k, _)| k)
    }
}

impl PartialEq for Map {
    fn eq(&self, other: &Map) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Into<Key>> FromIterator<(K, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Map {
        Map::from_entries(iter.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl<K: Into<Key>> Extend<(K, Value)> for Map {
    fn extend<I: IntoIterator<Item = (K, Value)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

/// The entries of a [`Map`], in key order.
pub struct Iter<'a>(IterRepr<'a>);

enum IterRepr<'a> {
    Flat(std::slice::Iter<'a, (Key, Value)>),
    Tree(btree_map::Iter<'a, Key, Value>),
}

/// The entries of a [`Map`], in key order, by value.
pub struct IntoIter(IntoIterRepr);

enum IntoIterRepr {
    Flat(std::vec::IntoIter<(Key, Value)>),
    Tree(btree_map::IntoIter<Key, Value>),
}

/// The iterator traits for one of the two, over its flat side mapped
/// to `(key, value)` pairs and its tree side as it stands.
macro_rules! both_sides {
    ($iter:ty, $repr:ident, $item:ty, $pair:pat => $out:expr) => {
        impl<'a> Iterator for $iter {
            type Item = $item;
            #[inline]
            fn next(&mut self) -> Option<$item> {
                match &mut self.0 {
                    $repr::Flat(it) => it.next().map(|$pair| $out),
                    $repr::Tree(it) => it.next(),
                }
            }
            fn size_hint(&self) -> (usize, Option<usize>) {
                match &self.0 {
                    $repr::Flat(it) => it.size_hint(),
                    $repr::Tree(it) => it.size_hint(),
                }
            }
        }

        impl<'a> ExactSizeIterator for $iter {}
    };
}

both_sides!(Iter<'a>, IterRepr, (&'a Key, &'a Value), (k, v) => (k, v));
both_sides!(IntoIter, IntoIterRepr, (Key, Value), pair => pair);

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a Key, &'a Value);
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl IntoIterator for Map {
    type Item = (Key, Value);
    type IntoIter = IntoIter;
    fn into_iter(self) -> IntoIter {
        IntoIter(match self.0 {
            Repr::Flat(v) => IntoIterRepr::Flat(v.into_iter()),
            Repr::Tree(t) => IntoIterRepr::Tree(t.into_iter()),
        })
    }
}

// A `Value` stays four words: a `Map` is no bigger than the `Vec` it holds.
const _: () = assert!(size_of::<Map>() == size_of::<Vec<(Key, Value)>>());
const _: () = assert!(size_of::<Key>() == 24);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_boxed_keys_order_and_match_as_their_bytes() {
        // Every length from 0 to 17, and texts
        // that differ only past a prefix, by a NUL, or by their length.
        let long = "abcdefghijklmnopq";
        let mut texts: Vec<&str> = (0..=long.len()).map(|n| &long[..n]).collect();
        texts.extend([
            "\0",
            "a\0",
            "abd",
            "b",
            "é",
            "aaaaaaaaaaaaaaaa",
            "aaaaaaaaaaaaaaaa\0",
            "aaaaaaaaaaaaaaab",
        ]);
        for a in &texts {
            for b in &texts {
                let (ka, kb) = (Key::from(*a), Key::from(*b));
                assert_eq!(ka.cmp(&kb), a.cmp(b), "{a:?} against {b:?}");
                assert_eq!(ka.cmp_probe(&Probe::new(b)), a.cmp(b), "{a:?} against probe {b:?}");
                assert_eq!(ka.eq_probe(&Probe::new(b)), a == b, "{a:?} against probe {b:?}");
            }
        }
    }

    #[test]
    fn a_key_reads_back_its_text() {
        for text in ["", "seq", "sixteen bytes!!!", "seventeen bytes!!", "∆😀"] {
            assert_eq!(Key::from(text).as_str(), text);
            assert_eq!(String::from(Key::from(text.to_string())), text);
        }
    }
}
