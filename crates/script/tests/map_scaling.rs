//! A script's map write `m[k] = v` stays O(log n) as the map grows: the
//! VM writes through `Map::get_or_insert_with`, which moves a map past
//! `Map::FLAT_MAX` entries into a B-tree. Filling a map with 2^17 keys in
//! random order must take near 2^17·17 / (2^14·14) ≈ 9.7 times as long as
//! 2^14; one sorted `Vec`, each insert moving half of it, would take about
//! 64 times as long. Its own binary: it times.

use laminar_json::Value;
use laminar_script::{compile_script, parse_script, NullHost, VecSink, Vm};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SOURCE: &str = "pe Fill : generic { input keys; output output; \
    process { let m = {}; for k in keys { m[k] = 1; } emit(len(m)); } }";

/// `n` (a power of two) distinct keys of 11 bytes, in an order an odd
/// multiplier scatters.
fn keys(n: usize) -> Value {
    (0..n).map(|i| Value::Str(format!("key{:08}", i.wrapping_mul(2_654_435_761) % n))).collect()
}

/// The fastest of three runs of the loop over `keys`.
fn fill(keys: &Value) -> Duration {
    let program = Arc::new(compile_script(&parse_script(SOURCE).unwrap()).unwrap());
    let mut vm = Vm::new(program, Arc::new(NullHost)).with_fuel(u64::MAX);
    (0..3)
        .map(|_| {
            let mut sink = VecSink::default();
            let t = Instant::now();
            vm.run_process("Fill", Some(keys.clone()), None, 0, &mut Value::Null, &mut sink).unwrap();
            let elapsed = t.elapsed();
            assert_eq!(sink.port_values()[0].1, Value::Int(keys.as_array().unwrap().len() as i64));
            elapsed
        })
        .min()
        .unwrap()
}

#[test]
fn a_scripts_map_writes_scale_as_n_log_n() {
    let (small, large) = (keys(1 << 14), keys(1 << 17));
    fill(&small);
    let ratio = fill(&large).as_secs_f64() / fill(&small).as_secs_f64();
    assert!(ratio < 24.0, "2^17 writes took {ratio:.1} times as long as 2^14 (n log n: 9.7, n^2: 64)");
}
