//! The perf trajectory report: throughput and per-stage timings of the
//! figure1 and table5 workloads across all four mappings, plus the
//! scripted-figure1 VM-vs-interpreter comparison (the same LamScript
//! pipeline enacted on the compiled bytecode backend and on the
//! tree-walking interpreter oracle).
//!
//! ```text
//! cargo run -p laminar-bench --release --bin perf_report             # target/bench/perf_report.json
//! cargo run -p laminar-bench --release --bin perf_report -- --smoke  # quick CI gate
//! ```
//!
//! Flags (see [`laminar_bench::Flags`]): `--smoke` runs small iteration
//! counts and few reps; `--out PATH` overrides the report path.
//! `bench_check` gates the smoke report: figure1 throughput against the
//! committed `BENCH_PR2.json`, and `vm_speedup_vs_interp` — the median
//! over interleaved pairs of interpreter / VM process CPU time — against
//! its floor.
//!
//! `vm_state` attributes the group-by workload's script time: the sensor
//! workflow (`SensorWindows`, 2,000 readings from 16 sensors, Simple
//! mapping) with `WindowStats`' body as shipped and cut down statement by
//! statement, run in interleaved rounds; it reports each body's median
//! process CPU time per reading, and `plus_sum_over_let_id`: the median of
//! the body with both read-modify-writes over the median of the body with
//! neither, from the same rounds. `bench_check` gates that ratio.
//!
//! `mesh` prices the parallel transports against the Simple mapping on
//! ablation D4's graph (IsPrime, 4,000 data, 5 processes): the median over
//! interleaved pairs of wall time of Multi, MPI and Redis over Simple.
//! `bench_check` gates the three ratios at one ceiling.

use laminar_bench::{
    astro_graph, bench_mapping, figure1_graph, figure1_script_graph, paired_ratio, process_cpu_time,
    BenchRun, Flags, Table5Config,
};
use laminar_dataflow::mapping::{Mapping, RunStats};
use laminar_dataflow::{MappingKind, RunOptions, WorkflowGraph};
use laminar_json::Value;
use laminar_workloads::streaming::{SensorFleet, SOURCE as SENSOR_SOURCE};
use std::sync::Arc;
use std::time::Duration;

const ALL_MAPPINGS: [MappingKind; 4] =
    [MappingKind::Simple, MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis];

fn run_workload(graph: &WorkflowGraph, options: &RunOptions, reps: usize) -> Value {
    let mut section = Value::Null;
    for kind in ALL_MAPPINGS {
        let run: BenchRun = bench_mapping(graph, kind, options, reps);
        eprintln!(
            "  {:<6} {:>9} inv  {:>12} us  {:>12.0}/s",
            run.mapping, run.invocations, run.elapsed_us, run.throughput
        );
        section.set(kind.as_str(), run.to_value());
    }
    section
}

/// `WindowStats`' statements in [`SENSOR_SOURCE`], as the cut-down bodies
/// remove them: the window check, its two emits, the sum's and the
/// count's read-modify-write.
const WINDOW_CHECK: &str = "        if state.n[id] % 8 == 0 {
            let mean = state.sum[id] / 8;
            emit([id, state.n[id], mean]);
            if mean > 0.75 { emit(\"alerts\", [id, mean]); }
            state.sum[id] = 0;
        }
";
const EMITS: [&str; 2] = [
    "            emit([id, state.n[id], mean]);\n",
    "            if mean > 0.75 { emit(\"alerts\", [id, mean]); }\n",
];
const SUM: &str = "        state.sum[id] = get(state.sum, id, 0) + reading[1];\n";
const COUNT: &str = "        state.n[id] = get(state.n, id, 0) + 1;\n";

/// [`SENSOR_SOURCE`] without `pieces`, each of which it must contain.
fn cut(pieces: &[&str]) -> String {
    pieces.iter().fold(SENSOR_SOURCE.to_string(), |src, piece| {
        assert!(src.contains(piece), "the sensor workflow no longer has {piece:?}");
        src.replacen(piece, "", 1)
    })
}

/// The `vm_state` section: median µs of process CPU time per reading for
/// each `WindowStats` body, over `rounds` interleaved rounds.
fn vm_state(rounds: usize) -> Value {
    const READINGS: i64 = 2000;
    const SENSORS: usize = 16;
    let bodies = [
        ("let_id", cut(&[WINDOW_CHECK, SUM, COUNT])),
        ("plus_count", cut(&[WINDOW_CHECK, SUM])),
        ("plus_sum", cut(&[WINDOW_CHECK])),
        ("plus_window_no_emits", cut(&EMITS)),
        ("shipped", SENSOR_SOURCE.to_string()),
    ];
    let graphs: Vec<WorkflowGraph> = bodies
        .iter()
        .map(|(_, src)| {
            WorkflowGraph::from_script_with_host(
                src,
                "SensorWindows",
                Arc::new(SensorFleet::instant(SENSORS)),
            )
            .expect("a cut-down sensor workflow is valid")
        })
        .collect();
    let options = RunOptions::iterations(READINGS);
    let once = |graph: &WorkflowGraph| {
        let cpu = process_cpu_time();
        MappingKind::Simple.execute(graph, &options).expect("bench run");
        process_cpu_time() - cpu
    };
    // Warm-up, one run a body, unrecorded.
    for graph in &graphs {
        once(graph);
    }
    let mut times: Vec<Vec<Duration>> = vec![Vec::new(); graphs.len()];
    // Each round starts at the next body, so no body always runs first.
    for round in 0..rounds {
        for k in 0..graphs.len() {
            let b = (round + k) % graphs.len();
            times[b].push(once(&graphs[b]));
        }
    }
    eprintln!(
        "vm_state (SensorWindows, {READINGS} readings, {SENSORS} sensors, Simple mapping, {rounds} rounds):"
    );
    let mut ladder = Vec::new();
    let mut medians = Vec::new();
    for ((name, _), mut t) in bodies.iter().zip(times) {
        t.sort();
        let us = t[t.len() / 2].as_secs_f64() * 1e6 / READINGS as f64;
        eprintln!("  {name:<22} {us:>8.3} us/reading");
        let mut row = Value::Null;
        row.set("body", *name).set("us_per_reading", (us * 1000.0).round() / 1000.0);
        ladder.push(row);
        medians.push(us);
    }
    // The two read-modify-writes priced against the body without them.
    let median = |body: &str| medians[bodies.iter().position(|(name, _)| *name == body).expect("a body")];
    let updates = median("plus_sum") / median("let_id");
    eprintln!("  plus_sum / let_id       {updates:>8.3}");
    let mut section = Value::Null;
    section
        .set("readings", READINGS)
        .set("sensors", SENSORS)
        .set("rounds", rounds)
        .set("bodies", ladder)
        .set("plus_sum_over_let_id", (updates * 1000.0).round() / 1000.0);
    section
}

/// The `mesh` section: each parallel mapping's wall time over the Simple
/// mapping's on D4's IsPrime graph, the median of `pairs` interleaved
/// pairs, keyed by the parallel mapping's name.
fn mesh(pairs: usize) -> Value {
    const DATA: i64 = 4000;
    const PROCESSES: usize = 5;
    let graph = WorkflowGraph::from_script(laminar_workloads::isprime::SOURCE_SEQUENTIAL, "IsPrime")
        .expect("the IsPrime workflow is valid");
    let options = RunOptions::iterations(DATA).with_processes(PROCESSES);
    let once = |mapping: MappingKind| {
        let t0 = std::time::Instant::now();
        mapping.execute(&graph, &options).expect("bench run");
        t0.elapsed()
    };
    eprintln!("mesh (IsPrime, {DATA} data, {PROCESSES} processes, {pairs} interleaved pairs, wall time):");
    let mut section = Value::Null;
    section.set("data", DATA).set("processes", PROCESSES).set("pairs", pairs);
    for kind in [MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
        // Warm-up, one run a side, unrecorded.
        once(kind);
        once(MappingKind::Simple);
        let ratio = paired_ratio(pairs, || once(kind), || once(MappingKind::Simple));
        eprintln!("  {:<6} / SIMPLE {ratio:>6.3}", kind.as_str());
        section.set(kind.as_str(), (ratio * 1000.0).round() / 1000.0);
    }
    section
}

fn main() {
    let flags = Flags::parse("perf_report", &[]);
    let smoke = flags.smoke;

    // figure1: the paper's showcase deployment is 500 iterations over
    // 5 processes (Figure 1's 1/2/2 split). A smoke read is the median of
    // 11 reps: on a shared 2-vCPU x86-64 machine about one single
    // 50-iteration MULTI rep in 12 falls below `bench_check`'s floor, and
    // a median of 3 did so in about one run in 20.
    let (fig_iters, fig_reps, t5_reps) = if smoke { (50, 11, 1) } else { (500, 21, 7) };
    let fig_opts = RunOptions::iterations(fig_iters).with_processes(5);
    let fig_graph = figure1_graph();
    eprintln!("figure1 ({fig_iters} iterations x 5 processes, {fig_reps} reps):");
    let figure1 = run_workload(&fig_graph, &fig_opts, fig_reps);

    // table5: the Internal Extinction workflow. VO latency zero — the
    // report measures the orchestration datapath, not the simulated
    // service.
    let t5_cfg =
        Table5Config { coordinates: if smoke { 10 } else { 60 }, vo_latency: Duration::ZERO, processes: 5 };
    let t5_graph = astro_graph(&t5_cfg);
    let t5_opts =
        RunOptions::data(vec![Value::Str("coordinates.txt".into())]).with_processes(t5_cfg.processes);
    eprintln!("table5 ({} coordinates, {t5_reps} reps):", t5_cfg.coordinates);
    let table5 = run_workload(&t5_graph, &t5_opts, t5_reps);

    // figure1_script: the same pipeline with LamScript bodies, enacted on
    // the Simple mapping (single-threaded, so script execution dominates
    // and the backend comparison is clean) — on the compiled VM and on the
    // tree-walking interpreter (the oracle graph), in interleaved pairs
    // timed by CPU time. Smoke and full runs alike: a run of ~10 ms spans
    // several scheduler slices, so one preemption's cache cost stays small.
    let (fs_iters, fs_pairs) = (2000, 11);
    let fs_opts = RunOptions::iterations(fs_iters);
    eprintln!("figure1_script ({fs_iters} iterations, Simple mapping, {fs_pairs} interleaved pairs):");
    let vm_graph = figure1_script_graph(WorkflowGraph::add_script_pe);
    let interp_graph = figure1_script_graph(laminar_oracle::add_pe);
    let once = |graph: &WorkflowGraph, stats: &mut Vec<RunStats>| {
        let cpu = process_cpu_time();
        stats.push(MappingKind::Simple.execute(graph, &fs_opts).expect("bench run").stats);
        process_cpu_time() - cpu
    };
    // Warm-up, one run a side, unrecorded.
    once(&vm_graph, &mut Vec::new());
    once(&interp_graph, &mut Vec::new());
    let (mut vm_stats, mut interp_stats) = (Vec::new(), Vec::new());
    let vm_speedup =
        paired_ratio(fs_pairs, || once(&interp_graph, &mut interp_stats), || once(&vm_graph, &mut vm_stats));
    let vm_run = BenchRun::median(MappingKind::Simple, &fs_opts, vm_stats);
    let interp_run = BenchRun::median(MappingKind::Simple, &fs_opts, interp_stats);
    for (name, run) in [("vm", &vm_run), ("interp", &interp_run)] {
        eprintln!(
            "  {name:<6} {:>9} inv  {:>12} us  {:>12.0}/s",
            run.invocations, run.elapsed_us, run.throughput
        );
    }
    eprintln!("  vm speedup vs interp (median of pairs): {vm_speedup:.2}x");
    let mut figure1_script = Value::Null;
    figure1_script
        .set("vm", vm_run.to_value())
        .set("interp", interp_run.to_value())
        .set("vm_speedup_vs_interp", (vm_speedup * 1000.0).round() / 1000.0);

    let vm_state = vm_state(if smoke { 21 } else { 101 });
    let mesh = mesh(if smoke { 21 } else { 41 });

    let mut runs = Value::Null;
    runs.set("figure1", figure1)
        .set("figure1_script", figure1_script)
        .set("table5", table5)
        .set("vm_state", vm_state)
        .set("mesh", mesh);

    let mut report = Value::Null;
    report
        .set("report", "laminar perf trajectory")
        .set("pr", "PR6: compiled LamScript bytecode VM")
        .set("smoke", smoke)
        .set(
            "workloads",
            laminar_json::jobj! {
                "figure1" => format!("native PE1->PE2->PE3 pipeline, {fig_iters} iterations, 5 processes"),
                "figure1_script" => format!("LamScript PE1->PE2->PE3 pipeline, {fs_iters} iterations, Simple mapping, VM vs interpreter"),
                "table5" => format!("Internal Extinction, {} coordinates, zero VO latency", t5_cfg.coordinates),
                "vm_state" => "SensorWindows, 2000 readings, 16 sensors, Simple mapping, WindowStats cut down statement by statement",
                "mesh" => "IsPrime, 4000 data, 5 processes, Multi/MPI/Redis over Simple wall time in interleaved pairs"
            },
        )
        .set("runs", runs);
    flags.write_report(&report);
}
