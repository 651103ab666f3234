//! `sustained_load`: serving under sustained multi-tenant load — the
//! PR 10 acceptance bench for push delivery and fair admission control.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin sustained_load             # target/bench/sustained_load.json
//! cargo run -p laminar-bench --release --bin sustained_load -- --smoke # quick CI gate
//! ```
//!
//! Three phases:
//!
//! 1. **Fairness** (pool level): 16 tenants submit an open-loop arrival
//!    of 10k jobs total (625 each, fixed inter-arrival, nobody waits for
//!    completions) into a 2-worker pool whose service rate is well below
//!    the aggregate arrival rate, so a deep backlog forms. At the 50%
//!    completion mark the per-tenant completed counts are snapshotted;
//!    the deficit-round-robin scheduler must have served every lane
//!    near-equally: **spread = max/min completed ≤ 2×**. Every job must
//!    then drain to `done` — nothing lost, nothing failed.
//! 2. **First-event latency** (full HTTP stack): jobs stream their
//!    events; a push client long-polls (`wait_ms`) while the polling
//!    baseline re-reads the cursor every 50 ms — the steady-state cap of
//!    the pre-PR client's 2→50 ms ladder, i.e. the rate any poller
//!    converges to on a stream older than ~100 ms. Gate: **p99 push
//!    first-event latency ≤ 0.5× the polling baseline's**. Both modes
//!    then drain their streams to the seal and must observe every
//!    `output` event exactly once, gap-free: **zero lost events**.
//! 3. **Admission** (pool level): one greedy tenant submits far past its
//!    token bucket; the pool must throttle with 429s that carry a
//!    positive `retryAfterMs` hint while admitted work still completes.
//!
//! The in-bin asserts run on full runs; `bench_check` re-gates the smoke
//! run in CI against the same bounds (0.75× for the latency ratio —
//! smoke samples are small).

use laminar_bench::{percentile, Flags};
use laminar_engine::{EnginePool, ExecutionEngine, ExecutionRequest, JobPhase, PoolError, RunConfig};
use laminar_json::Value;
use laminar_server::api::Method;
use laminar_server::http::http_call;
use laminar_server::{ApiRequest, HttpServer, LaminarServer};
use laminar_workloads::sustained;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Per-job request: the sustained pulse, events optional.
fn request(iterations: i64, events: bool) -> ExecutionRequest {
    ExecutionRequest::new("bench", sustained::SOURCE, RunConfig::iterations(iterations).with_events(events))
        .with_workflow(sustained::WORKFLOW)
}

// ---- phase 1: fairness under open-loop arrival --------------------------

struct FairnessRun {
    arrival: Duration,
    drain: Duration,
    per_tenant_completed: Vec<u64>,
    snapshot_completed: u64,
    spread: f64,
    unfinished: u64,
    failed: u64,
}

fn fairness_phase(
    tenants: usize,
    jobs_per_tenant: usize,
    inter_arrival: Duration,
    provision_scale: u64,
) -> FairnessRun {
    let total = tenants * jobs_per_tenant;
    let engine = ExecutionEngine::instant().with_provision_scale(provision_scale);
    let mut pool = EnginePool::start(engine, 2, total + 64);

    // Open-loop arrival: every tenant thread submits its quota at a fixed
    // pace and never waits for a completion — the queue absorbs the
    // difference between arrival and service rate.
    let t0 = Instant::now();
    let ids: Vec<(String, Vec<i64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..tenants)
            .map(|t| {
                let pool = &pool;
                s.spawn(move || {
                    let owner = format!("tenant{t}");
                    let mut ids = Vec::with_capacity(jobs_per_tenant);
                    for _ in 0..jobs_per_tenant {
                        let id =
                            pool.submit(&owner, request(2, false)).expect("capacity covers the full arrival");
                        ids.push(id);
                        std::thread::sleep(inter_arrival);
                    }
                    (owner, ids)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let arrival = t0.elapsed();

    // Snapshot fairness mid-drain: wait for half the jobs to complete
    // (capped below the pool's finished-record retention window, so the
    // per-job status sweep below still sees every completion), then
    // count per-tenant completions. DRR with equal weights must have
    // served every backlogged lane near-equally.
    let snapshot_target = (total / 2).min(2000);
    while (pool.stats().completed as usize) < snapshot_target {
        std::thread::sleep(Duration::from_millis(2));
    }
    let per_tenant_completed: Vec<u64> = ids
        .iter()
        .map(|(owner, jobs)| {
            jobs.iter()
                .filter(|id| {
                    pool.status(owner, **id).map(|i| matches!(i.phase, JobPhase::Done)).unwrap_or(false)
                })
                .count() as u64
        })
        .collect();
    let snapshot_completed: u64 = per_tenant_completed.iter().sum();
    let max = *per_tenant_completed.iter().max().unwrap() as f64;
    let min = *per_tenant_completed.iter().min().unwrap() as f64;
    let spread = if min > 0.0 { max / min } else { f64::INFINITY };

    // Drain: every admitted job must reach `done`. Finished job records
    // are evicted once the pool's retention window fills, so completion
    // is tracked through the monotonic pool counters, not per-job polls.
    let deadline = Instant::now() + Duration::from_secs(300);
    let (unfinished, failed) = loop {
        let stats = pool.stats();
        let terminal = stats.completed + stats.failed + stats.cancelled;
        if terminal as usize >= total || Instant::now() >= deadline {
            break ((total as u64).saturating_sub(terminal), stats.failed);
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let drain = t0.elapsed();
    pool.stop();
    FairnessRun { arrival, drain, per_tenant_completed, snapshot_completed, spread, unfinished, failed }
}

// ---- phase 2: first-event latency, push vs poll -------------------------

const POLL_INTERVAL: Duration = Duration::from_millis(50);

fn call(addr: SocketAddr, method: Method, path: String, body: Value) -> Value {
    let r = http_call(addr, &ApiRequest::new(method, path, body)).expect("transport ok");
    assert!(r.is_ok(), "unexpected error response: {:?}", r.body);
    r.body
}

fn events_page(addr: SocketAddr, user: &str, id: i64, since: u64, wait_ms: u64) -> Value {
    let mut path = format!("/execution/{user}/job/{id}/events?since={since}");
    if wait_ms > 0 {
        path.push_str(&format!("&wait_ms={wait_ms}"));
    }
    call(addr, Method::Get, path, Value::Null)
}

struct LatencySample {
    first_event: Duration,
    outputs: usize,
    gap_free: bool,
}

/// Submit one streamed job and measure submit→first-event, then drain
/// the stream to the seal counting `output` events and seq gaps.
fn latency_job(addr: SocketAddr, user: &str, iterations: i64, push: bool) -> LatencySample {
    let body = laminar_json::jobj! {
        "source" => sustained::SOURCE,
        "workflow" => sustained::WORKFLOW,
        "input" => iterations,
        "options" => laminar_json::jobj! { "events" => true }
    };
    let t0 = Instant::now();
    let resp = call(addr, Method::Post, format!("/execution/{user}/submit"), body);
    let id = resp["jobId"].as_i64().expect("job id");

    let mut first_event = None;
    let mut outputs = 0usize;
    let mut gap_free = true;
    let mut since = 0u64;
    loop {
        let page = if push {
            events_page(addr, user, id, since, 10_000)
        } else {
            // The polling baseline only sleeps while it has nothing: the
            // measured quantity is delivery lag, not drain throughput.
            if first_event.is_none() && since == 0 && t0.elapsed() < POLL_INTERVAL {
                std::thread::sleep(POLL_INTERVAL.saturating_sub(t0.elapsed()));
            }
            events_page(addr, user, id, since, 0)
        };
        let events = page["events"].as_array().expect("event page").to_vec();
        if !events.is_empty() && first_event.is_none() {
            first_event = Some(t0.elapsed());
        }
        for e in &events {
            if e["seq"].as_i64() != Some(since as i64) {
                gap_free = false;
            }
            since += 1;
            if e["type"].as_str() == Some("output") {
                outputs += 1;
            }
        }
        if page["closed"].as_bool() == Some(true) {
            break;
        }
        if events.is_empty() && !push {
            std::thread::sleep(POLL_INTERVAL);
        }
    }
    LatencySample { first_event: first_event.expect("stream had events"), outputs, gap_free }
}

struct LatencyRun {
    push_p50_us: u64,
    push_p99_us: u64,
    poll_p50_us: u64,
    poll_p99_us: u64,
    p99_ratio: f64,
    lost_events: u64,
    events_total: u64,
}

fn latency_phase(jobs_per_mode: usize, iterations: i64, provision_scale: u64) -> LatencyRun {
    let server = LaminarServer::with_pool(
        laminar_registry::Registry::in_memory(),
        ExecutionEngine::instant().with_provision_scale(provision_scale),
        2,
        64,
    );
    let http = HttpServer::start(server).unwrap();
    let addr = http.addr();
    let user = "latency";
    call(
        addr,
        Method::Post,
        "/auth/register".into(),
        laminar_json::jobj! { "userName" => user, "password" => "password" },
    );

    let mut push_us: Vec<u64> = Vec::new();
    let mut poll_us: Vec<u64> = Vec::new();
    let mut lost_events = 0u64;
    let mut events_total = 0u64;
    let expected = sustained::expected_outputs(iterations);
    // Interleave the modes so drift (cache warmth, CPU frequency) hits
    // both measurement series equally.
    for i in 0..jobs_per_mode * 2 {
        let push = i % 2 == 0;
        let sample = latency_job(addr, user, iterations, push);
        if sample.outputs != expected || !sample.gap_free {
            lost_events += expected.abs_diff(sample.outputs) as u64 + u64::from(!sample.gap_free);
        }
        events_total += sample.outputs as u64;
        let us = sample.first_event.as_micros() as u64;
        if push {
            push_us.push(us);
        } else {
            poll_us.push(us);
        }
    }
    http.stop();

    push_us.sort_unstable();
    poll_us.sort_unstable();
    let push_p99 = percentile(&push_us, 99.0);
    let poll_p99 = percentile(&poll_us, 99.0);
    LatencyRun {
        push_p50_us: percentile(&push_us, 50.0),
        push_p99_us: push_p99,
        poll_p50_us: percentile(&poll_us, 50.0),
        poll_p99_us: poll_p99,
        p99_ratio: push_p99 as f64 / poll_p99.max(1) as f64,
        lost_events,
        events_total,
    }
}

// ---- phase 3: admission control ------------------------------------------

struct AdmissionRun {
    attempts: u64,
    accepted: u64,
    throttled: u64,
    min_hint_ms: u64,
    max_hint_ms: u64,
}

fn admission_phase(attempts: u64) -> AdmissionRun {
    let mut pool = EnginePool::start(ExecutionEngine::instant(), 2, attempts as usize + 8);
    pool.set_tenant_rate(200.0, 8.0);
    let mut run = AdmissionRun { attempts, accepted: 0, throttled: 0, min_hint_ms: u64::MAX, max_hint_ms: 0 };
    let mut ids = Vec::new();
    for _ in 0..attempts {
        match pool.submit("greedy", request(1, false)) {
            Ok(id) => {
                run.accepted += 1;
                ids.push(id);
            }
            Err(PoolError::RateLimited { retry_after_ms }) => {
                run.throttled += 1;
                run.min_hint_ms = run.min_hint_ms.min(retry_after_ms);
                run.max_hint_ms = run.max_hint_ms.max(retry_after_ms);
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    // Admitted work still completes while the excess is shed.
    for id in ids {
        match pool.wait("greedy", id, Duration::from_secs(60)) {
            Some(laminar_engine::JobResult::Done(..)) => {}
            other => panic!("admitted job did not finish: {other:?}"),
        }
    }
    pool.stop();
    if run.min_hint_ms == u64::MAX {
        run.min_hint_ms = 0;
    }
    run
}

fn main() {
    let flags = Flags::parse("sustained_load", &[]);
    let smoke = flags.smoke;

    let tenants: usize = 16;
    let jobs_per_tenant: usize = if smoke { 24 } else { 625 };
    let inter_arrival = Duration::from_micros(if smoke { 1_000 } else { 3_000 });
    let fairness_scale: u64 = 5; // ~2ms of simulated provisioning per job
    let latency_jobs: usize = if smoke { 12 } else { 100 };
    let latency_scale: u64 = 20; // ~8ms to the first event: a real park for push
    eprintln!(
        "sustained_load: {tenants} tenants x {jobs_per_tenant} jobs open-loop, \
         {latency_jobs} latency jobs per mode, poll baseline {POLL_INTERVAL:?}"
    );

    let fairness = fairness_phase(tenants, jobs_per_tenant, inter_arrival, fairness_scale);
    eprintln!(
        "  fairness: {} jobs arrived in {:?}, drained in {:?}; at 50% the spread was {:.2} \
         (per tenant: min {} max {}), unfinished {} failed {}",
        tenants * jobs_per_tenant,
        fairness.arrival,
        fairness.drain,
        fairness.spread,
        fairness.per_tenant_completed.iter().min().unwrap(),
        fairness.per_tenant_completed.iter().max().unwrap(),
        fairness.unfinished,
        fairness.failed,
    );

    let latency = latency_phase(latency_jobs, 5, latency_scale);
    eprintln!(
        "  latency: push p50 {}us p99 {}us | poll p50 {}us p99 {}us | p99 ratio {:.3} | \
         {} events, {} lost",
        latency.push_p50_us,
        latency.push_p99_us,
        latency.poll_p50_us,
        latency.poll_p99_us,
        latency.p99_ratio,
        latency.events_total,
        latency.lost_events,
    );

    let admission = admission_phase(if smoke { 60 } else { 200 });
    eprintln!(
        "  admission: {}/{} accepted, {} throttled with hints {}..{}ms",
        admission.accepted,
        admission.attempts,
        admission.throttled,
        admission.min_hint_ms,
        admission.max_hint_ms,
    );

    let pass = latency.p99_ratio <= 0.5
        && fairness.spread <= 2.0
        && latency.lost_events == 0
        && fairness.unfinished == 0
        && fairness.failed == 0;

    // Acceptance on the full run (bench_check re-gates the smoke run with
    // a 0.75 latency-ratio bound — small samples, noisy CI).
    if !smoke {
        assert!(
            latency.p99_ratio <= 0.5,
            "acceptance: push p99 {}us must be <= 0.5x poll p99 {}us",
            latency.push_p99_us,
            latency.poll_p99_us
        );
        assert!(fairness.spread <= 2.0, "acceptance: fairness spread {} > 2", fairness.spread);
        assert_eq!(latency.lost_events, 0, "acceptance: no event may be lost under load");
        assert_eq!(fairness.unfinished + fairness.failed, 0, "acceptance: every admitted job drains");
        assert!(admission.throttled > 0, "acceptance: the greedy tenant must be throttled");
        assert!(admission.min_hint_ms >= 1, "acceptance: every 429 carries a positive retry hint");
    }

    let mut report = Value::Null;
    report
        .set("report", "laminar sustained load: push delivery + fair admission")
        .set("pr", "PR10: push delivery + per-tenant admission control behind the v1 API")
        .set("smoke", smoke)
        .set(
            "fairness",
            laminar_json::jobj! {
                "tenants" => tenants as i64,
                "jobs_per_tenant" => jobs_per_tenant as i64,
                "jobs_total" => (tenants * jobs_per_tenant) as i64,
                "workers" => 2i64,
                "inter_arrival_us" => inter_arrival.as_micros() as i64,
                "arrival_us" => fairness.arrival.as_micros() as i64,
                "drain_us" => fairness.drain.as_micros() as i64,
                "snapshot_completed" => fairness.snapshot_completed as i64,
                "min_completed" => *fairness.per_tenant_completed.iter().min().unwrap() as i64,
                "max_completed" => *fairness.per_tenant_completed.iter().max().unwrap() as i64,
                "spread" => (fairness.spread * 1000.0).round() / 1000.0,
                "unfinished" => fairness.unfinished as i64,
                "failed" => fairness.failed as i64
            },
        )
        .set(
            "latency",
            laminar_json::jobj! {
                "jobs_per_mode" => latency_jobs as i64,
                "poll_interval_ms" => POLL_INTERVAL.as_millis() as i64,
                "push_p50_us" => latency.push_p50_us as i64,
                "push_p99_us" => latency.push_p99_us as i64,
                "poll_p50_us" => latency.poll_p50_us as i64,
                "poll_p99_us" => latency.poll_p99_us as i64,
                "p99_ratio_push_vs_poll" => (latency.p99_ratio * 10000.0).round() / 10000.0,
                "events_total" => latency.events_total as i64,
                "lost_events" => latency.lost_events as i64
            },
        )
        .set(
            "admission",
            laminar_json::jobj! {
                "attempts" => admission.attempts as i64,
                "accepted" => admission.accepted as i64,
                "throttled" => admission.throttled as i64,
                "min_retry_hint_ms" => admission.min_hint_ms as i64,
                "max_retry_hint_ms" => admission.max_hint_ms as i64
            },
        )
        .set(
            "acceptance",
            laminar_json::jobj! {
                "criterion" => "push p99 <= 0.5x poll p99, spread <= 2x, zero lost events, full drain",
                "pass" => pass
            },
        );

    flags.write_report(&report);
}
