//! The `durability_overhead` scenario: what does epoch checkpointing
//! cost? For each mapping, the same stateful workload runs twice —
//! plain, and with `checkpoint_every` carving the input into epochs
//! (snapshot + journal-shaped event marker + runner rebuild per epoch)
//! — and the report records the runtime ratio, plus the time a full
//! crash/resume cycle takes against the batch reference.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin durability_overhead             # target/bench/durability_overhead.json
//! cargo run -p laminar-bench --release --bin durability_overhead -- --smoke # quick CI gate
//! ```
//!
//! Acceptance (enforced here on the full run and by `bench_check` on the
//! smoke run): checkpointed runtime ≤ 1.25× plain runtime per mapping.
//! The ratio is the median over interleaved checkpointed/plain pairs
//! ([`laminar_bench::paired_ratio`]) of process CPU time
//! ([`laminar_bench::process_cpu_time`]), both sides measured fresh in the
//! same process, so the bound needs no committed baseline — it guards the
//! *structure* (an epoch must cost a snapshot and a reconnect, not a
//! re-enactment), not machine speed. CPU time, not wall time: on a shared
//! machine a checkpointed run's extra epoch barriers each wait out
//! whatever holds the CPU, which measures the neighbours, not the epoch.

use laminar_bench::{paired_ratio, process_cpu_time, Flags};
use laminar_dataflow::mapping::{Mapping, MappingKind};
use laminar_dataflow::{
    DataflowError, FaultPlan, RecordingObserver, ResumePoint, RunEvent, RunObserver, RunOptions,
    WorkflowGraph,
};
use laminar_json::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stateful group-by workload: per-key tables, RNG draws, and prints all
/// end up in every epoch snapshot, so the checkpoint is never trivially
/// empty.
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
"#;

fn build() -> WorkflowGraph {
    let mut g = WorkflowGraph::new("durability");
    let a = g.add_script_pe(SOURCE, "Feed").unwrap();
    let b = g.add_script_pe(SOURCE, "Fold").unwrap();
    g.connect(a, "output", b, "input").unwrap();
    g
}

/// Median CPU time of each configuration and the median of the paired
/// checkpointed/plain ratios, over `pairs` interleaved pairs.
fn time_pairs(
    kind: MappingKind,
    g: &WorkflowGraph,
    plain: &RunOptions,
    checkpointed: &RunOptions,
    pairs: usize,
) -> (Duration, Duration, f64) {
    let once = |opts: &RunOptions, times: &mut Vec<Duration>| {
        let cpu = process_cpu_time();
        kind.execute(g, opts).expect("bench run");
        let used = process_cpu_time() - cpu;
        times.push(used);
        used
    };
    let (mut plain_times, mut ck_times) = (Vec::new(), Vec::new());
    let ratio = paired_ratio(pairs, || once(checkpointed, &mut ck_times), || once(plain, &mut plain_times));
    let median = |mut times: Vec<Duration>| {
        times.sort_unstable();
        times[times.len() / 2]
    };
    (median(plain_times), median(ck_times), ratio)
}

struct Row {
    mapping: String,
    plain: Duration,
    checkpointed: Duration,
    ratio: f64,
    epochs: u64,
    recovery: Duration,
}

impl Row {
    fn to_value(&self) -> Value {
        let mut v = Value::Null;
        v.set("mapping", self.mapping.as_str())
            .set("plain_us", self.plain.as_micros() as i64)
            .set("checkpointed_us", self.checkpointed.as_micros() as i64)
            .set("checkpoint_overhead_ratio", (self.ratio * 10000.0).round() / 10000.0)
            .set("epochs", self.epochs as i64)
            .set("crash_resume_us", self.recovery.as_micros() as i64);
        v
    }
}

/// Crash at `kill_at`, then time the resume-to-completion leg — the
/// recovery cost a restarted engine pays, separate from steady-state
/// overhead.
fn time_recovery(kind: MappingKind, g: &WorkflowGraph, opts: &RunOptions, kill_at: u64) -> Duration {
    let recorder = RecordingObserver::new();
    let crash = opts.clone().with_faults(FaultPlan { kill_at_epoch: Some(kill_at), ..FaultPlan::none() });
    let err = kind
        .execute_observed(g, &crash, Some(recorder.clone() as Arc<dyn RunObserver>))
        .expect_err("injected crash");
    assert_eq!(err, DataflowError::Injected { epoch: kill_at });
    let events: Vec<RunEvent> = recorder.take().into_iter().map(|(_, _, e)| e).collect();
    let snapshots = match events.last() {
        Some(RunEvent::Epoch { state, .. }) => state.clone(),
        other => panic!("journal should end with the epoch marker, got {other:?}"),
    };
    let resume = opts.clone().with_resume(ResumePoint { epoch: kill_at, snapshots, events });
    let t0 = Instant::now();
    kind.execute(g, &resume).expect("resumed run");
    t0.elapsed()
}

fn main() {
    let flags = Flags::parse("durability_overhead", &[]);
    let smoke = flags.smoke;

    let iterations: i64 = if smoke { 20_000 } else { 40_000 };
    let chunk: usize = if smoke { 5_000 } else { 8_000 };
    let pairs = 11;
    let processes = 4;
    let epochs = iterations as u64 / chunk as u64;
    eprintln!(
        "durability_overhead: {iterations} iterations, checkpoint every {chunk} ({epochs} epochs), \
         {processes} processes, median of {pairs} interleaved pairs of process CPU time"
    );

    let g = build();
    let mut rows = Vec::new();
    for kind in [MappingKind::Simple, MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
        let plain_opts = RunOptions::iterations(iterations).with_processes(processes);
        let ck_opts = plain_opts.clone().with_checkpoints(chunk);
        // Warm up so neither side pays first-run costs.
        kind.execute(&g, &RunOptions::iterations(16).with_processes(processes)).unwrap();
        let (plain, checkpointed, ratio) = time_pairs(kind, &g, &plain_opts, &ck_opts, pairs);
        let recovery = time_recovery(kind, &g, &ck_opts, epochs / 2);
        let row = Row { mapping: kind.as_str().to_string(), plain, checkpointed, ratio, epochs, recovery };
        eprintln!(
            "  {:<6} plain cpu {:>9.1?}  checkpointed cpu {:>9.1?}  ratio {:>5.3}  crash+resume {:>9.1?}",
            row.mapping, row.plain, row.checkpointed, row.ratio, row.recovery
        );
        rows.push(row);
    }

    let worst = rows.iter().map(|r| r.ratio).fold(0.0f64, f64::max);
    if !smoke {
        assert!(
            worst <= 1.25,
            "acceptance: checkpointed runtime must stay within 1.25x of plain (worst {worst:.3})"
        );
    }

    let mut report = Value::Null;
    report
        .set("report", "laminar durability: epoch checkpoint overhead")
        .set("pr", "PR7: durable streaming - epoch checkpoint/replay of enactment state")
        .set("smoke", smoke)
        .set(
            "config",
            laminar_json::jobj! {
                "iterations" => iterations,
                "checkpoint_every" => chunk,
                "epochs" => epochs as i64,
                "processes" => processes,
                "pairs" => pairs,
                "timing" => "process CPU time",
                "workload" => "Feed -> Fold (stateful group-by with RNG)"
            },
        )
        .set("mappings", rows.iter().map(Row::to_value).collect::<Value>())
        .set(
            "acceptance",
            laminar_json::jobj! {
                "criterion" => "checkpointed runtime <= 1.25x plain runtime, every mapping",
                "worst_ratio" => (worst * 10000.0).round() / 10000.0,
                "pass" => worst <= 1.25
            },
        );

    flags.write_report(&report);
}
