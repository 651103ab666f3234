//! Fuzzed round-trip coverage for the execution wire format.
//!
//! `ExecutionOutput::to_value`/`from_value` is the envelope every result
//! crosses the server boundary in, and this PR grew it (event count,
//! first-output latency). The properties below generate arbitrary outputs
//! at wire granularity (durations in whole ms/µs — what the format can
//! represent) and require a lossless round-trip, plus tolerance for
//! foreign/missing fields. A request's run configuration gets the same
//! treatment through its one codec, `RunConfig::{write_envelope,
//! from_envelope}`.

use laminar_dataflow::{MappingKind, RunInput, StageTimings};
use laminar_engine::{ExecutionOutput, RunConfig};
use laminar_json::Value;
use proptest::prelude::*;
use std::time::Duration;

/// A wire-representable leaf value for output ports.
fn leaf_value(tag: i64, n: i64) -> Value {
    match tag.rem_euclid(4) {
        0 => Value::Int(n),
        1 => Value::Str(format!("v{n}")),
        2 => Value::Bool(n % 2 == 0),
        _ => Value::Float(n as f64 / 8.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every field of the (grown) wire struct survives
    /// `to_value → from_value` exactly.
    #[test]
    fn execution_output_round_trips(
        ports in prop::collection::btree_map("[a-zA-Z]{1,6}[.][a-z]{1,6}", (0..4i64, 0..50i64), 0..5),
        printed in prop::collection::vec("[ -~]{0,18}", 0..5),
        installed in prop::collection::vec("[a-z]{1,10}", 0..4),
        provision_ms in 0..5000i64,
        execute_ms in 0..5000i64,
        total_ms in 0..10000i64,
        plan_us in 0..2_000_000i64,
        enact_us in 0..2_000_000i64,
        collect_us in 0..2_000_000i64,
        compile_us in 0..2_000_000i64,
        queue_us in 0..2_000_000i64,
        counters in prop::collection::btree_map("[A-Z][a-z]{0,7}", (0..100000i64, 0..100000i64), 0..5),
        events in 0..1_000_000i64,
        first_output_us in -1..2_000_000i64,
        worker in -1..8i64,
    ) {
        let mut out = ExecutionOutput {
            printed,
            installed,
            provision_time: Duration::from_millis(provision_ms as u64),
            execute_time: Duration::from_millis(execute_ms as u64),
            total_time: Duration::from_millis(total_ms as u64),
            stages: StageTimings {
                plan: Duration::from_micros(plan_us as u64),
                enact: Duration::from_micros(enact_us as u64),
                collect: Duration::from_micros(collect_us as u64),
                compile: Duration::from_micros(compile_us as u64),
            },
            queue_wait: Duration::from_micros(queue_us as u64),
            events: events as u64,
            // -1 encodes "no first output" in the generator; the wire
            // encodes None by omission.
            first_output: (first_output_us >= 0).then(|| Duration::from_micros(first_output_us as u64)),
            worker: (worker >= 0).then_some(worker as usize),
            ..Default::default()
        };
        for (port, (tag, n)) in &ports {
            let values: Vec<Value> = (0..(n % 4) + 1).map(|i| leaf_value(*tag, n + i)).collect();
            out.outputs.insert(port.clone(), Value::Array(values));
        }
        for (pe, (p, e)) in &counters {
            out.processed.insert(pe.clone(), *p as u64);
            out.emitted.insert(pe.clone(), *e as u64);
        }

        let wire = out.to_value();
        let back = ExecutionOutput::from_value(&wire).expect("round trip parses");
        prop_assert_eq!(&back.outputs, &out.outputs);
        prop_assert_eq!(&back.printed, &out.printed);
        prop_assert_eq!(&back.installed, &out.installed);
        prop_assert_eq!(back.provision_time, out.provision_time);
        prop_assert_eq!(back.execute_time, out.execute_time);
        prop_assert_eq!(back.total_time, out.total_time);
        prop_assert_eq!(back.stages, out.stages);
        prop_assert_eq!(back.queue_wait, out.queue_wait);
        prop_assert_eq!(&back.processed, &out.processed);
        prop_assert_eq!(&back.emitted, &out.emitted);
        prop_assert_eq!(back.events, out.events);
        prop_assert_eq!(back.first_output, out.first_output);
        prop_assert_eq!(back.worker, out.worker);

        // Serializing the parsed struct is a fixed point.
        let again = back.to_value();
        prop_assert_eq!(laminar_json::to_string(&again), laminar_json::to_string(&wire));
    }

    /// Foreign fields are ignored and absent optional fields default —
    /// older/newer peers interoperate.
    #[test]
    fn from_value_tolerates_unknown_and_missing_fields(extra in "[a-z]{1,8}", n in 0..1000i64) {
        let out = ExecutionOutput { printed: vec!["x".into()], ..Default::default() };
        let mut wire = out.to_value();
        wire.set(&extra, n);
        let back = ExecutionOutput::from_value(&wire).expect("unknown fields ignored");
        prop_assert_eq!(&back.printed, &out.printed);

        // A pre-PR4 peer sends neither `events` nor `first_output_us`.
        let mut old = out.to_value();
        if let Some(m) = old.as_object_mut() {
            m.remove("events");
            m.remove("first_output_us");
        }
        let back = ExecutionOutput::from_value(&old).expect("old envelopes still parse");
        prop_assert_eq!(back.events, 0);
        prop_assert_eq!(back.first_output, None);
    }

    /// Every run configuration the envelope can carry survives
    /// `write_envelope → from_envelope` exactly: the three input kinds,
    /// every mapping, resources of any bytes and every option. What it can
    /// carry: a process count of at least 1 (0 reads as 1) and a pace in
    /// whole µs.
    #[test]
    fn run_config_round_trips(
        kind in 0..3i64,
        n in any::<i64>(),
        data in prop::collection::vec((0..4i64, any::<i64>()), 0..5),
        pace_us in 0..100_000_000u64,
        mapping in prop::sample::select(vec![
            MappingKind::Simple, MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis,
        ]),
        processes in 1..=4096usize,
        resources in prop::collection::vec(("[ -~]{0,12}", prop::collection::vec(any::<u8>(), 0..40)), 0..4),
        events in any::<bool>(),
        checkpoint_every in 0..100_000usize,
    ) {
        let input = match kind {
            0 => RunInput::Iterations(n),
            1 => RunInput::Data(data.iter().map(|(tag, n)| leaf_value(*tag, *n)).collect()),
            _ => RunInput::Unbounded { pace: Duration::from_micros(pace_us) },
        };
        let resources = resources.into_iter().map(|(name, bytes)| (name, bytes.into())).collect();
        let config = RunConfig { input, mapping, processes, resources, events, checkpoint_every };
        let mut wire = Value::Null;
        config.write_envelope(&mut wire);
        prop_assert_eq!(RunConfig::from_envelope(&wire), Some(config.clone()));

        // Through the text too: parsing the JSON and writing it again is a
        // fixed point.
        let text = laminar_json::to_string(&wire);
        let back = RunConfig::from_envelope(&laminar_json::parse(&text).unwrap()).expect("text parses");
        let mut again = Value::Null;
        back.write_envelope(&mut again);
        prop_assert_eq!(laminar_json::to_string(&again), text);
    }
}
