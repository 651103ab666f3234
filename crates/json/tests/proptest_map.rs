//! Differential property suite: `Map` against a `BTreeMap<String, Value>`
//! oracle. Random sequences of every mutation grow maps past
//! `Map::FLAT_MAX` (the flat side moving into the tree) and shrink them
//! back below it, over keys of 0, 15, 16 and 17 bytes (either side of the
//! inline limit), multi-byte UTF-8 and embedded NULs. After every step the
//! two hold the same entries in the same iteration order.

use laminar_json::{parse, write_string, Map, Value};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

type Oracle = BTreeMap<String, Value>;

/// The keys every case draws from: the edge cases, then 400 more, so
/// that a map can hold three times `FLAT_MAX`.
fn pool() -> Vec<String> {
    let mut keys: Vec<String> = [
        "",
        "\0",
        "a\0b",
        "a",
        "é",
        "日本語のキー",
        "😀😀😀😀",
        "ééééééééé",
        "xxxxxxxxxxxxxxx",
        "xxxxxxxxxxxxxxxx",
        "xxxxxxxxxxxxxxxxx",
        "xxxxxxxxxxxxxxx\0",
        "xxxxxxxxxxxxxxxx\0",
    ]
    .map(String::from)
    .to_vec();
    for i in 0..400 {
        keys.push(match i % 4 {
            0 => format!("k{i}"),
            1 => format!("{i:015}"),
            2 => format!("{i:016}"),
            _ => format!("{i:017}"),
        });
    }
    keys
}

#[derive(Clone, Debug)]
enum Op {
    Insert(usize, i64),
    Remove(usize),
    Get(usize),
    GetMut(usize, i64),
    GetOrInsert(usize, i64),
    Retain(i64),
    Extend(Vec<(usize, i64)>),
    FromIter(Vec<(usize, i64)>),
    Clear,
}

fn arb_key() -> BoxedStrategy<usize> {
    (0..pool().len()).boxed()
}

fn arb_pairs(max: usize) -> BoxedStrategy<Vec<(usize, i64)>> {
    vec((arb_key(), 0..1000i64), 0..max)
}

/// One step: `grow` weighs inserts, otherwise removals.
fn arb_op(grow: bool) -> BoxedStrategy<Op> {
    let insert = (arb_key(), 0..1000i64).prop_map(|(k, v)| Op::Insert(k, v));
    let remove = arb_key().prop_map(Op::Remove);
    let others = prop_oneof![
        arb_key().prop_map(Op::Get),
        (arb_key(), 0..1000i64).prop_map(|(k, v)| Op::GetMut(k, v)),
        (arb_key(), 0..1000i64).prop_map(|(k, v)| Op::GetOrInsert(k, v)),
        (2..5i64).prop_map(Op::Retain),
        arb_pairs(60).prop_map(Op::Extend),
        arb_pairs(300).prop_map(Op::FromIter),
        Just(Op::Clear),
    ];
    if grow {
        prop_oneof![insert.clone(), insert.clone(), insert.clone(), insert, remove, others]
    } else {
        prop_oneof![remove.clone(), remove.clone(), remove.clone(), remove, insert, others]
    }
}

/// A run: a growing stretch, a shrinking one, and a growing one again.
fn arb_ops() -> BoxedStrategy<Vec<Op>> {
    (vec(arb_op(true), 0..400), vec(arb_op(false), 0..400), vec(arb_op(true), 0..200))
        .prop_map(|(a, b, c)| a.into_iter().chain(b).chain(c).collect())
        .boxed()
}

/// Apply `op` to both; the answers must agree.
fn step(map: &mut Map, oracle: &mut Oracle, keys: &[String], op: &Op) {
    let key = |i: &usize| keys[*i].as_str();
    match op {
        Op::Insert(k, v) => {
            assert_eq!(map.insert(key(k), Value::Int(*v)), oracle.insert(key(k).into(), Value::Int(*v)));
        }
        Op::Remove(k) => assert_eq!(map.remove(key(k)), oracle.remove(key(k))),
        Op::Get(k) => {
            assert_eq!(map.get(key(k)), oracle.get(key(k)));
            assert_eq!(map.contains_key(key(k)), oracle.contains_key(key(k)));
        }
        Op::GetMut(k, v) => match (map.get_mut(key(k)), oracle.get_mut(key(k))) {
            (Some(a), Some(b)) => {
                *a = Value::Int(*v);
                *b = Value::Int(*v);
            }
            (a, b) => assert_eq!(a, b),
        },
        Op::GetOrInsert(k, v) => {
            let a = map.get_or_insert_with(key(k), || Value::Int(*v)).clone();
            assert_eq!(&a, oracle.entry(key(k).into()).or_insert(Value::Int(*v)));
        }
        Op::Retain(m) => {
            let keep = |v: &Value| v.as_i64().unwrap() % m != 0;
            map.retain(|_, v| keep(v));
            oracle.retain(|_, v| keep(v));
        }
        Op::Extend(pairs) => {
            map.extend(pairs.iter().map(|(k, v)| (key(k), Value::Int(*v))));
            oracle.extend(pairs.iter().map(|(k, v)| (key(k).to_string(), Value::Int(*v))));
        }
        Op::FromIter(pairs) => {
            *map = pairs.iter().map(|(k, v)| (key(k), Value::Int(*v))).collect();
            *oracle = pairs.iter().map(|(k, v)| (key(k).to_string(), Value::Int(*v))).collect();
        }
        Op::Clear => {
            map.clear();
            oracle.clear();
        }
    }
}

/// The same entries, in the same order.
fn assert_same(map: &Map, oracle: &Oracle) {
    assert_eq!(map.len(), oracle.len());
    assert_eq!(map.is_empty(), oracle.is_empty());
    assert!(map.iter().map(|(k, v)| (k.as_str(), v)).eq(oracle.iter().map(|(k, v)| (k.as_str(), v))));
    assert_eq!(map.iter().len(), oracle.len());
}

/// A JSON object of `pairs` in the order given, duplicates kept.
fn object_text(pairs: &[(String, Value)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(&mut out, k);
        out.push(':');
        out.push_str(&v.to_string());
    }
    out.push('}');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every mutation agrees with the oracle, across the flat/tree switch
    /// both ways.
    #[test]
    fn map_matches_a_btreemap(ops in arb_ops()) {
        let keys = pool();
        let (mut map, mut oracle) = (Map::new(), Oracle::new());
        for op in &ops {
            step(&mut map, &mut oracle, &keys, op);
            assert_same(&map, &oracle);
        }
        assert_eq!(map.clone(), map);
        assert!(map.into_iter().map(|(k, v)| (String::from(k), v)).eq(oracle));
    }

    /// A parsed object is the oracle's map of its pairs, read in order:
    /// keys sorted, the last of two equal keys winning.
    #[test]
    fn parse_sorts_keys_and_the_last_duplicate_wins(pairs in arb_pairs(400)) {
        let keys = pool();
        let pairs: Vec<(String, Value)> = pairs.into_iter().map(|(k, v)| (keys[k].clone(), Value::Int(v))).collect();
        let oracle: Oracle = pairs.iter().cloned().collect();
        let parsed = parse(&object_text(&pairs)).unwrap();
        assert_same(parsed.as_object().unwrap(), &oracle);
    }
}

/// The runs `map_matches_a_btreemap` draws (the same seed) mostly cross
/// `FLAT_MAX` both ways, so that suite tests the switch and not one side.
#[test]
fn the_runs_cross_the_switch_both_ways() {
    let keys = pool();
    let mut rng = proptest::test_runner::TestRng::deterministic("map_matches_a_btreemap");
    let (mut up, mut down) = (0, 0);
    for _ in 0..48 {
        let ops = arb_ops().sample(&mut rng);
        let (mut map, mut oracle) = (Map::new(), Oracle::new());
        let mut above = false;
        let mut crossed_down = false;
        for op in &ops {
            step(&mut map, &mut oracle, &keys, op);
            above |= map.len() > Map::FLAT_MAX;
            crossed_down |= above && map.len() < Map::FLAT_MAX;
        }
        up += usize::from(above);
        down += usize::from(crossed_down);
    }
    assert!(up >= 24 && down >= 12, "{up} of 48 runs grew past FLAT_MAX, {down} shrank back below it");
}
