//! The `slow_consumer` scenario: what happens when the event-stream
//! reader cannot keep up? A checkpointed job runs against a deliberately
//! small event log while a paced reader polls 10× slower than the
//! producer's natural rate — the checkpoint-horizon policy must throttle
//! the producer to the reader's pace rather than evict undelivered
//! events.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin slow_consumer             # target/bench/slow_consumer.json
//! cargo run -p laminar-bench --release --bin slow_consumer -- --smoke # quick CI gate
//! ```
//!
//! Acceptance (enforced here on the full run and by `bench_check` on the
//! smoke run):
//! * **zero data loss** — the reader's cursor never falls off the
//!   retained window (`lost_events == 0`) and its refold is exactly the
//!   batch result;
//! * **bounded log memory** — the retained window never exceeds twice
//!   the configured capacity (one in-flight round of slack over the
//!   horizon), however far behind the reader is.
//!
//! Both bounds compare the run against its own configuration, so the
//! gate needs no committed baseline — it guards the *policy* (throttle,
//! don't drop), not machine speed.

use laminar_bench::Flags;
use laminar_dataflow::{fold_events, RunEvent};
use laminar_engine::{EnginePool, ExecutionEngine, ExecutionRequest, JobResult};
use laminar_json::Value;
use std::time::{Duration, Instant};

/// Stateful group-by workload (the durability bench's shape): group-by
/// tables, a running scalar and PRNG draws all cross every epoch, so
/// losing a round would visibly corrupt the refold.
const SOURCE: &str = r#"
    pe Feed : producer {
        output output;
        process {
            let key = "k" + str(iteration % 7);
            emit([key, iteration + randint(0, 3)]);
        }
    }
    pe Fold : generic {
        input input groupby 0;
        output output;
        init { state.sums = {}; state.count = 0; }
        process {
            let key = input[0];
            state.sums[key] = get(state.sums, key, 0) + input[1];
            state.count = state.count + 1;
            emit([key, state.sums[key], state.count]);
        }
    }
    workflow Run {
        nodes { f = Feed; d = Fold; }
        connect f.output -> d.input;
    }
"#;

fn request(iterations: i64, checkpoint_every: usize) -> ExecutionRequest {
    ExecutionRequest::simple("bench", SOURCE, iterations)
        .with_workflow("Run")
        .with_checkpoints(checkpoint_every)
        .with_events(true)
}

/// Calibration: the producer's natural pace with nobody in its way —
/// a huge log, no reader. Per-event wall clock sets the paced reader's
/// 10×-slower budget.
fn calibrate(iterations: i64, checkpoint_every: usize) -> (Duration, u64) {
    let pool = EnginePool::start(ExecutionEngine::instant(), 1, 4);
    pool.set_event_log_capacity(1 << 20);
    let t0 = Instant::now();
    let id = pool.submit("bench", request(iterations, checkpoint_every)).unwrap();
    match pool.wait("bench", id, Duration::from_secs(120)).unwrap() {
        JobResult::Done(..) => {}
        other => panic!("calibration run failed: {other:?}"),
    }
    let elapsed = t0.elapsed();
    let (first, end) = pool.event_log_window("bench", id).expect("log retained");
    assert_eq!(first, 0, "calibration log must not evict");
    (elapsed, end)
}

struct PacedRun {
    elapsed: Duration,
    events: Vec<Value>,
    lost_events: u64,
    max_window: u64,
    pages: u64,
    degraded_recoveries: u64,
}

/// The measured leg: capacity-bounded log, reader paced to one tenth of
/// the producer's natural event rate.
fn paced_run(
    iterations: i64,
    checkpoint_every: usize,
    capacity: usize,
    per_event: Duration,
    slowdown: u32,
) -> PacedRun {
    let pool = EnginePool::start(ExecutionEngine::instant(), 1, 4);
    pool.set_event_log_capacity(capacity);
    // The reader is slow, not dead: backpressure must never time out
    // into degraded mode during the measurement.
    pool.set_backpressure_wait(Duration::from_secs(300));
    let t0 = Instant::now();
    let id = pool.submit("bench", request(iterations, checkpoint_every)).unwrap();

    let mut run = PacedRun {
        elapsed: Duration::ZERO,
        events: Vec::new(),
        lost_events: 0,
        max_window: 0,
        pages: 0,
        degraded_recoveries: 0,
    };
    let mut since = 0u64;
    loop {
        let page = pool.events("bench", id, since).unwrap();
        run.pages += 1;
        if since < page.first {
            run.lost_events += page.first - since;
        }
        if page.retained_epoch.is_some() {
            run.degraded_recoveries += 1;
        }
        if let Some((first, end)) = pool.event_log_window("bench", id) {
            run.max_window = run.max_window.max(end - first);
        }
        let got = page.events.len() as u32;
        run.events.extend(page.events);
        since = page.next;
        if page.closed {
            break;
        }
        // Pace: spend `slowdown`× the producer's per-event budget on
        // every event just consumed (plus a floor so an empty poll spins
        // at a sane rate rather than busy-waiting).
        let budget = per_event * slowdown * got.max(1);
        std::thread::sleep(budget.max(Duration::from_micros(50)));
    }
    run.elapsed = t0.elapsed();
    match pool.wait("bench", id, Duration::from_secs(120)).unwrap() {
        JobResult::Done(..) => {}
        other => panic!("paced run failed: {other:?}"),
    }
    run
}

fn main() {
    let flags = Flags::parse("slow_consumer", &[]);
    let smoke = flags.smoke;

    let iterations: i64 = if smoke { 600 } else { 3_000 };
    let checkpoint_every: usize = if smoke { 25 } else { 100 };
    let capacity: usize = if smoke { 128 } else { 512 };
    let slowdown: u32 = 10;
    eprintln!(
        "slow_consumer: {iterations} iterations, checkpoint every {checkpoint_every}, \
         log capacity {capacity}, reader {slowdown}x slower than the producer"
    );

    // Warm up, then calibrate the producer's natural pace.
    let _ = calibrate(32, 8);
    let (natural, total_events) = calibrate(iterations, checkpoint_every);
    let per_event = natural / (total_events.max(1) as u32);
    eprintln!(
        "  producer natural pace: {total_events} events in {natural:?} ({:.1} events/ms)",
        total_events as f64 / natural.as_secs_f64().max(1e-9) / 1000.0
    );

    let run = paced_run(iterations, checkpoint_every, capacity, per_event, slowdown);
    let received = run.events.len() as u64;
    let window_bound = (capacity * 2) as u64;
    let max_window_ratio = run.max_window as f64 / window_bound as f64;
    let throttle_factor = run.elapsed.as_secs_f64() / natural.as_secs_f64().max(1e-9);

    // Refold identity: the paced reader's stream folds to the batch run.
    let folded = fold_events(run.events.iter().filter_map(RunEvent::from_value));
    let batch = ExecutionEngine::instant()
        .run(&ExecutionRequest::simple("bench", SOURCE, iterations).with_workflow("Run"))
        .expect("batch reference");
    let refold_matches = folded.port_values("Fold", "output")
        == batch.port_values("Fold", "output").as_slice()
        && folded.printed == batch.printed;

    eprintln!(
        "  paced reader: {received} events over {} pages in {:?} ({}x the natural run)",
        run.pages,
        run.elapsed,
        (throttle_factor * 10.0).round() / 10.0
    );
    eprintln!(
        "  lost events {}  max window {} (bound {})  degraded recoveries {}  refold matches {}",
        run.lost_events, run.max_window, window_bound, run.degraded_recoveries, refold_matches
    );

    // Acceptance on the full run (bench_check re-gates the smoke run).
    if !smoke {
        assert_eq!(run.lost_events, 0, "acceptance: a live slow consumer must lose nothing");
        assert!(refold_matches, "acceptance: the slow consumer's refold must equal the batch result");
        assert!(
            run.max_window <= window_bound,
            "acceptance: retained window {} must stay within {window_bound}",
            run.max_window
        );
    }

    let mut report = Value::Null;
    report
        .set("report", "laminar slow consumer: checkpoint-horizon backpressure")
        .set("pr", "PR8: checkpoint-horizon backpressure - degrade, never lose data")
        .set("smoke", smoke)
        .set(
            "config",
            laminar_json::jobj! {
                "iterations" => iterations,
                "checkpoint_every" => checkpoint_every,
                "log_capacity" => capacity,
                "reader_slowdown" => slowdown as i64,
                "workload" => "Feed -> Fold (stateful group-by with RNG)"
            },
        )
        .set(
            "producer",
            laminar_json::jobj! {
                "natural_us" => natural.as_micros() as i64,
                "events" => total_events as i64,
                "events_per_sec" => (total_events as f64 / natural.as_secs_f64().max(1e-9)).round()
            },
        )
        .set(
            "paced",
            laminar_json::jobj! {
                "elapsed_us" => run.elapsed.as_micros() as i64,
                "events_received" => received as i64,
                "pages" => run.pages as i64,
                "lost_events" => run.lost_events as i64,
                "max_window" => run.max_window as i64,
                "window_bound" => window_bound as i64,
                "max_window_ratio" => (max_window_ratio * 10000.0).round() / 10000.0,
                "throttle_factor" => (throttle_factor * 100.0).round() / 100.0,
                "degraded_recoveries" => run.degraded_recoveries as i64,
                "refold_matches" => refold_matches
            },
        )
        .set(
            "acceptance",
            laminar_json::jobj! {
                "criterion" => "lost_events == 0, refold == batch, max window <= 2x capacity",
                "pass" => run.lost_events == 0 && refold_matches && run.max_window <= window_bound
            },
        );

    flags.write_report(&report);
}
