//! Generates the `BENCH_*.json` perf trajectory report: throughput and
//! per-stage timings of the figure1 and table5 workloads across all four
//! mappings, plus the scripted-figure1 VM-vs-interpreter comparison
//! (PR 6's headline: the same LamScript pipeline enacted on the compiled
//! bytecode backend and on the tree-walking interpreter).
//!
//! ```text
//! cargo run -p laminar-bench --release --bin perf_report             # BENCH_PR6.json
//! cargo run -p laminar-bench --release --bin perf_report -- --smoke  # quick CI gate
//! ```
//!
//! Flags:
//! * `--smoke` — small iteration counts / few reps; exercises the harness,
//!   numbers are not meaningful.
//! * `--out PATH` — where to write the report (default `BENCH_PR6.json`).
//! * `--save-baseline PATH` — additionally save the measured runs (without
//!   the baseline section) to PATH; used to record a pre-refactor baseline
//!   that later reports embed for comparison.
//!
//! The committed `crates/bench/data/baseline_pre_pr2.json` was produced by
//! running this harness at the PR 1 tree (before the interned/batched
//! datapath) with `--save-baseline`; every fresh report embeds it under
//! `"baseline"` so the figure1 Multi throughput delta is visible in one
//! file.

use laminar_bench::{
    astro_graph, bench_mapping, figure1_graph, figure1_script_graph, BenchRun, Table5Config,
};
use laminar_dataflow::{oracle, MappingKind, RunOptions, WorkflowGraph};
use laminar_json::Value;
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::to_string);
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_PR6.json".to_string());
    let baseline_out = flag_value("--save-baseline");

    // figure1: the paper's showcase deployment is 500 iterations over
    // 5 processes (Figure 1's 1/2/2 split).
    let (fig_iters, fig_reps, t5_reps) = if smoke { (50, 3, 1) } else { (500, 21, 7) };
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
    // and the backend comparison is clean) — once on the compiled VM and
    // once on the tree-walking interpreter (the oracle graph).
    let (fs_iters, fs_reps) = if smoke { (300, 3) } else { (2000, 11) };
    let fs_opts = RunOptions::iterations(fs_iters);
    eprintln!("figure1_script ({fs_iters} iterations, Simple mapping, {fs_reps} reps):");
    let vm_run = bench_mapping(
        &figure1_script_graph(WorkflowGraph::add_script_pe),
        MappingKind::Simple,
        &fs_opts,
        fs_reps,
    );
    eprintln!(
        "  vm     {:>9} inv  {:>12} us  {:>12.0}/s",
        vm_run.invocations, vm_run.elapsed_us, vm_run.throughput
    );
    let interp_run =
        bench_mapping(&figure1_script_graph(oracle::add_pe), MappingKind::Simple, &fs_opts, fs_reps);
    eprintln!(
        "  interp {:>9} inv  {:>12} us  {:>12.0}/s",
        interp_run.invocations, interp_run.elapsed_us, interp_run.throughput
    );
    let vm_speedup = vm_run.throughput / interp_run.throughput.max(1e-9);
    eprintln!("  vm speedup vs interp: {vm_speedup:.2}x");
    let mut figure1_script = Value::Null;
    figure1_script
        .set("vm", vm_run.to_value())
        .set("interp", interp_run.to_value())
        .set("vm_speedup_vs_interp", (vm_speedup * 1000.0).round() / 1000.0);

    let mut runs = Value::Null;
    runs.set("figure1", figure1).set("figure1_script", figure1_script).set("table5", table5);

    if let Some(path) = &baseline_out {
        std::fs::write(path, laminar_json::to_string_pretty(&runs)).expect("write baseline");
        eprintln!("baseline saved to {path}");
    }

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
                "table5" => format!("Internal Extinction, {} coordinates, zero VO latency", t5_cfg.coordinates)
            },
        )
        .set("runs", runs);

    // Embed the recorded pre-refactor baseline, if present.
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/data/baseline_pre_pr2.json");
    match std::fs::read_to_string(baseline_path) {
        Ok(text) => match laminar_json::parse(&text) {
            Ok(v) => {
                // Comparison headline: figure1/MULTI throughput now vs then.
                let now = report["runs"]["figure1"]["MULTI"]["throughput_per_sec"].as_f64();
                let then = v["figure1"]["MULTI"]["throughput_per_sec"].as_f64();
                if let (Some(now), Some(then)) = (now, then) {
                    let speedup = now / then.max(1e-9);
                    eprintln!("figure1/MULTI: {then:.0}/s (pre-PR2) -> {now:.0}/s  ({speedup:.2}x)");
                    report.set("figure1_multi_speedup_vs_baseline", (speedup * 1000.0).round() / 1000.0);
                }
                report.set("baseline", v);
            }
            Err(e) => eprintln!("warning: baseline file unparseable: {e}"),
        },
        Err(_) => eprintln!("note: no recorded baseline at {baseline_path}"),
    }

    std::fs::write(&out_path, laminar_json::to_string_pretty(&report)).expect("write report");
    eprintln!("report written to {out_path}");
}
