//! `RunEvent::write_json` against its reference: for every variant, over
//! names and lines that need every kind of escape and payloads of every
//! `Value` shape, the text it appends is byte for byte what serializing
//! the oracle's hand-built tree (`laminar_oracle::event_tree`) gives, and
//! `RunEvent::to_value` is that tree. The `/events` route and the journal
//! ship the text; `event_wire.rs` and `journal_format.rs` pin its bytes.

use laminar_dataflow::{RunEvent, RunStats, StageTimings};
use laminar_json::{to_string, Map, Value};
use laminar_oracle::event_tree;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Quotes, backslashes, every control character, ASCII and non-ASCII.
const TEXT: &str = "[\u{0}-\u{1f}\"\\a-z é∆😀]{0,12}";

fn arb_name() -> impl Strategy<Value = Arc<str>> {
    TEXT.prop_map(Arc::<str>::from)
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        Just(Value::Int(i64::MIN)),
        prop::num::f64::NORMAL.prop_map(Value::Float),
        (-1000i64..1000).prop_map(|n| Value::Float(n as f64)),
        TEXT.prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 32, 5, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
            prop::collection::btree_map(TEXT, inner, 0..5)
                .prop_map(|m| Value::Object(m.into_iter().collect::<Map>())),
        ]
    })
}

fn arb_micros() -> impl Strategy<Value = Duration> {
    prop_oneof![Just(Duration::ZERO), any::<u32>().prop_map(|us| Duration::from_micros(us as u64))]
}

fn arb_event() -> impl Strategy<Value = RunEvent> {
    let count = || any::<u64>();
    let instance = || 0usize..64;
    prop_oneof![
        // Few distinct names, so a plan repeats one now and then.
        prop::collection::vec((prop_oneof![arb_name(), "[ab]".prop_map(Arc::<str>::from)], instance()), 0..5)
            .prop_map(|pes| RunEvent::PlanReady { pes }),
        (arb_name(), instance()).prop_map(|(pe, instance)| RunEvent::InstanceStarted { pe, instance }),
        (arb_name(), instance(), arb_name(), arb_value())
            .prop_map(|(pe, instance, port, value)| RunEvent::Output { pe, instance, port, value }),
        (arb_name(), instance(), TEXT).prop_map(|(pe, instance, line)| RunEvent::Print {
            pe,
            instance,
            line
        }),
        (arb_name(), instance(), count(), count()).prop_map(|(pe, instance, processed, emitted)| {
            RunEvent::InstanceFinished { pe, instance, processed, emitted }
        }),
        (count(), arb_value()).prop_map(|(id, state)| RunEvent::Epoch { id, state }),
        (
            arb_micros(),
            arb_micros(),
            arb_micros(),
            arb_micros(),
            arb_micros(),
            count(),
            any::<bool>(),
            arb_micros()
        )
            .prop_map(|(elapsed, plan, enact, collect, compile, events, has_first, first)| {
                RunEvent::Finished {
                    stats: Box::new(RunStats {
                        elapsed,
                        timings: StageTimings { plan, enact, collect, compile },
                        events,
                        first_output: has_first.then_some(first),
                        ..Default::default()
                    }),
                }
            }),
        Just(RunEvent::Cancelled),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn written_text_is_the_serialized_tree(event in arb_event(), seq in any::<u64>()) {
        // Appended after what the caller already wrote, as on a page.
        let mut text = String::from("[");
        event.write_json(seq, &mut text);
        let tree = event_tree(&event, seq);
        prop_assert_eq!(&text[1..], to_string(&tree), "{:?}", event);
        prop_assert_eq!(event.to_value(seq), tree, "{:?}", event);
    }
}
