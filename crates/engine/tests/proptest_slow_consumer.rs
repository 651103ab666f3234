//! Randomized slow-consumer coverage for the checkpoint-horizon policy.
//!
//! The contract under test: for a checkpointed job whose consumer stays
//! live — however slowly it polls — the bounded event log throttles the
//! producer instead of evicting undelivered events, so the consumer's
//! refold is *exactly* the batch result (retained epochs plus replayed
//! events reproduce `fold(batch)`), and the log's retained window never
//! grows past the horizon bound. Pace ratios and `checkpoint_every` are
//! both randomized: the property must hold whether the reader is barely
//! behind or an order of magnitude slower, and whether rounds are tiny
//! or span most of the log.
//!
//! This lives in the chaos tier: each case runs a real pool job with a
//! deliberately mistimed reader, so wall-clock per case is milliseconds,
//! not microseconds.

use std::time::{Duration, Instant};

use laminar_dataflow::{fold_events, RunEvent};
use laminar_engine::{EnginePool, ExecutionEngine, ExecutionRequest, JobResult, RunConfig};
use laminar_json::Value;
use proptest::prelude::*;

const SRC: &str = r#"
    pe Words : producer {
        output output;
        process {
            let words = ["a", "b", "c"];
            emit([words[iteration % 3], iteration]);
        }
    }
    pe Tally : generic {
        input input groupby 0;
        output output;
        init { state.seen = {}; state.noise = 0; }
        process {
            let w = input[0];
            state.seen[w] = get(state.seen, w, 0) + 1;
            state.noise = state.noise + randint(0, 9);
            emit([w, state.seen[w], state.noise]);
        }
    }
    workflow TallyRun {
        nodes { w = Words; t = Tally; }
        connect w.output -> t.input;
    }
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A live consumer at any pace ratio loses nothing and bounds memory.
    #[test]
    fn any_live_pace_ratio_refolds_to_batch_within_the_horizon(
        capacity in 24usize..64,
        checkpoint_every in 3u64..12,
        iterations in 30u64..80,
        reader_sleep_us in 0u64..2500,
    ) {
        let pool = EnginePool::start(ExecutionEngine::instant(), 1, 4);
        pool.set_event_log_capacity(capacity);
        // A live consumer must never be degraded out of its data, no
        // matter how slow: give the producer an effectively infinite
        // patience so only reader progress releases it.
        pool.set_backpressure_wait(Duration::from_secs(60));
        let run = RunConfig::iterations(iterations as i64).with_checkpoints(checkpoint_every as usize);
        let req = ExecutionRequest::new("u", SRC, run.with_events(true));
        let id = pool.submit("u", req).unwrap();

        let mut since = 0u64;
        let mut events: Vec<Value> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let page = pool.events("u", id, since).unwrap();
            // Zero loss: the cursor never falls off the retained window,
            // so no engine-side epoch recovery is ever needed.
            prop_assert!(since >= page.first, "evicted under a live consumer: {} < {}", since, page.first);
            prop_assert!(page.retained_epoch.is_none(), "degraded despite a live consumer");
            prop_assert!(page.next >= since, "cursor moved backwards");
            // Bounded memory: the retained window tracks the capacity
            // horizon, never the full stream (one in-flight round of
            // slack — the producer re-checks once per source iteration).
            if let Some((first, end)) = pool.event_log_window("u", id) {
                prop_assert!(
                    (end - first) as usize <= capacity * 2,
                    "window {} exceeds horizon bound {}",
                    end - first,
                    capacity * 2
                );
            }
            events.extend(page.events);
            since = page.next;
            if page.closed {
                break;
            }
            prop_assert!(Instant::now() < deadline, "throttled job never finished");
            if reader_sleep_us > 0 {
                std::thread::sleep(Duration::from_micros(reader_sleep_us));
            }
        }
        match pool.wait("u", id, Duration::from_secs(30)).unwrap() {
            JobResult::Done(..) => {}
            other => prop_assert!(false, "expected Done, got {other:?}"),
        }

        // Refold identity: retained epochs plus replayed events fold to
        // exactly the uninterrupted batch result.
        let folded = fold_events(events.iter().filter_map(RunEvent::from_value));
        let batch = ExecutionEngine::instant()
            .run(&ExecutionRequest::simple("u", SRC, iterations as i64))
            .unwrap();
        prop_assert_eq!(
            folded.port_values("Tally", "output"),
            batch.port_values("Tally", "output").as_slice(),
            "slow consumer diverged from batch"
        );
        prop_assert_eq!(&folded.printed, &batch.printed);
        // The stream carried every full-round epoch marker, in order.
        let epochs: Vec<i64> = events
            .iter()
            .filter(|e| e["type"].as_str() == Some("epoch"))
            .filter_map(|e| e["epoch"].as_i64())
            .collect();
        let expected: Vec<i64> = (1..=(iterations / checkpoint_every) as i64).collect();
        prop_assert_eq!(epochs, expected, "epoch markers lost or reordered");
    }

    /// An absent consumer degrades to epoch granularity — memory stays
    /// bounded and a returning client is re-anchored at a retained epoch.
    #[test]
    fn any_dead_consumer_degrades_to_a_retained_epoch(
        capacity in 32usize..64,
        checkpoint_every in 4u64..10,
    ) {
        let pool = EnginePool::start(ExecutionEngine::instant(), 1, 4);
        pool.set_event_log_capacity(capacity);
        pool.set_backpressure_wait(Duration::from_millis(50));
        let iterations = 150i64;
        let run = RunConfig::iterations(iterations).with_checkpoints(checkpoint_every as usize);
        let req = ExecutionRequest::new("u", SRC, run.with_events(true));
        let id = pool.submit("u", req).unwrap();
        // Nobody reads: after one bounded wait the log degrades and the
        // job must still run to completion.
        match pool.wait("u", id, Duration::from_secs(60)).unwrap() {
            JobResult::Done(..) => {}
            other => prop_assert!(false, "expected Done, got {other:?}"),
        }
        let (first, end) = pool.event_log_window("u", id).unwrap();
        prop_assert!(first > 0, "a dead consumer must not pin the whole stream in memory");
        prop_assert!(
            (end - first) as usize <= capacity * 2,
            "degraded window {} exceeds horizon bound {}",
            end - first,
            capacity * 2
        );
        // Engine-side recovery: the stale cursor is re-anchored at the
        // oldest retained epoch marker, which the page leads with.
        let page = pool.events("u", id, 0).unwrap();
        let epoch = page.retained_epoch.expect("an epoch survived the eviction");
        prop_assert_eq!(page.events[0]["type"].as_str(), Some("epoch"));
        prop_assert_eq!(page.events[0]["epoch"].as_i64(), Some(epoch as i64));
        // The tail from that epoch onward is intact through to `done`.
        prop_assert_eq!(
            page.events.last().and_then(|e| e["type"].as_str()),
            Some("done")
        );
    }
}
