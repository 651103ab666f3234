//! An insert into a large `Map` stays O(log n): past `Map::FLAT_MAX` the
//! entries live in a B-tree. Building a map of 2^17 keys in random order
//! must take near 2^17·17 / (2^14·14) ≈ 9.7 times as long as building one
//! of 2^14; a map that stayed one sorted `Vec`, each insert moving half of
//! it, would take about 64 times as long. Its own binary: it times.

use laminar_json::{Map, Value};
use std::time::{Duration, Instant};

/// `n` (a power of two) distinct keys of 11 bytes, in an order an odd
/// multiplier scatters.
fn keys(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("key{:08}", i.wrapping_mul(2_654_435_761) % n)).collect()
}

/// The fastest of three builds.
fn build(keys: &[String]) -> Duration {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut map = Map::new();
            for k in keys {
                map.insert(k.as_str(), Value::Null);
            }
            assert_eq!(map.len(), keys.len());
            t.elapsed()
        })
        .min()
        .unwrap()
}

#[test]
fn random_order_inserts_scale_as_n_log_n() {
    let (small, large) = (keys(1 << 14), keys(1 << 17));
    build(&small);
    let ratio = build(&large).as_secs_f64() / build(&small).as_secs_f64();
    assert!(ratio < 24.0, "2^17 inserts took {ratio:.1} times as long as 2^14 (n log n: 9.7, n^2: 64)");
}
