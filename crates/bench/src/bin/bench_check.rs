//! `bench_check`: the CI bench-regression guard.
//!
//! Reads the fresh `--smoke` reports the `bench-smoke` tier just wrote to
//! `target/bench/<bin>.json` ([`laminar_bench::report_path`]) and fails —
//! non-zero exit — when a headline metric crossed its bound:
//!
//! * **throughput** — `perf_report` figure1 datums/s per mapping must stay
//!   within [`REGRESSION_FACTOR`]× of the committed `BENCH_PR2.json`;
//! * **VM speedup** — `perf_report` figure1_script VM-vs-interpreter
//!   ratio must stay at or above [`VM_SPEEDUP_FLOOR`]× (the median over
//!   interleaved pairs of interpreter / VM process CPU time in one fresh
//!   run, so it needs no committed baseline and no noise margin);
//! * **group-by updates** — `perf_report` `vm_state`'s
//!   `plus_sum_over_let_id`, the sensor workflow's body with both
//!   read-modify-writes over the body with neither (medians from the same
//!   interleaved rounds of one fresh run), must stay at or below
//!   [`VM_STATE_RATIO_CEILING`];
//! * **mesh** — `perf_report` mesh wall-time ratio of Multi, MPI and
//!   Redis over Simple on ablation D4's graph must stay at or below
//!   [`MESH_RATIO_CEILING`] (the median over interleaved pairs in one
//!   fresh run);
//! * **checkpoint overhead** — `durability_overhead` checkpointed-vs-plain
//!   ratio per mapping must stay at or below
//!   [`CHECKPOINT_OVERHEAD_CEILING`] (the median over interleaved pairs of
//!   process CPU time in one fresh run, so no committed baseline is
//!   needed);
//! * **sustained load** — `sustained_load` push-mode p99 first-event
//!   latency must stay at or below [`SUSTAINED_RATIO_CEILING`]× the
//!   polling baseline's, the cross-tenant fairness spread at or below
//!   [`FAIRNESS_SPREAD_CEILING`], and lost events at zero (fresh run vs
//!   its own polling leg and config); the committed `BENCH_PR10.json`
//!   full run must additionally hold the tighter 0.5× ratio it was
//!   gated on when it was produced;
//! * **registry search** — in `search_scale`, the text indexed-vs-scan
//!   speedup must stay at or above [`SEARCH_SPEEDUP_FLOOR`], indexed p99
//!   at or below [`SEARCH_P99_CEILING_US`] per mode, index maintenance per
//!   PE link at or below [`INDEX_MAINTENANCE_CEILING_US`], and the indexed
//!   hits must match the scan oracle exactly (all from the same fresh
//!   smoke run; the tighter full-corpus gates — 5x text speedup, sub-ms
//!   p99 — are enforced by `search_scale` itself on full runs).
//!
//! The 5× throughput margin is deliberately coarse: smoke configs are
//! smaller than the committed full run and CI machines are noisy — that
//! gate exists to catch order-of-magnitude regressions (a serialized
//! datapath), not percent-level drift.
//!
//! Streaming, serving concurrency and the slow-consumer policy are pinned
//! by tests, not here: `first_window_streams_long_before_completion`
//! (`crates/workloads/src/streaming.rs`) on every mapping,
//! `parallel_jobs_overlap_on_sleeping_engines` (`pool.rs`) and
//! `reads_do_not_serialize_behind_executions`
//! (`crates/server/tests/concurrent.rs`), and no lost event, refold ==
//! batch and a window within the checkpoint horizon by
//! `crates/engine/tests/proptest_slow_consumer.rs` and
//! `throttled_producer_loses_nothing_for_a_live_slow_consumer` (`pool.rs`).
//!
//! ```text
//! cargo run -p laminar-bench --release --bin bench_check
//! cargo run -p laminar-bench --release --bin bench_check -- --baseline-dir . --out target/bench/bench_check.json
//! ```

use laminar_bench::{report_path, Flags};
use laminar_json::Value;

/// A metric must stay within this factor of the committed trajectory.
const REGRESSION_FACTOR: f64 = 5.0;

/// The compiled bytecode VM must beat the tree-walking interpreter by at
/// least this factor on the figure1_script workload. Both sides are
/// measured in the same smoke run on the same machine, in interleaved
/// pairs, so the bound is tight by design: the VM's full-run advantage is
/// well above 1.5x, and falling below it means the compiled path
/// regressed.
const VM_SPEEDUP_FLOOR: f64 = 1.5;

/// Epoch checkpointing may cost at most this factor over the same run
/// uncheckpointed. Like the VM floor, both sides come from the *same*
/// fresh `durability_overhead` smoke run (median of interleaved pairs),
/// so the bound is tight by design: blowing past it means an epoch started
/// costing a re-enactment instead of a snapshot and a reconnect.
const CHECKPOINT_OVERHEAD_CEILING: f64 = 1.25;

/// `WindowStats`' body with its two group-by updates may cost at most
/// this factor of the body without them, in the same fresh `perf_report`
/// smoke run. Fitted on 30 smoke runs with each update one fused
/// instruction (DESIGN §3.5) on a shared 2-vCPU machine: 1.12 to 1.41,
/// median 1.29. Each update run as its nine-instruction sequence read
/// 1.40 to 1.85, median 1.65, and 27 of those 30 runs cross the ceiling.
const VM_STATE_RATIO_CEILING: f64 = 1.55;

/// A parallel mapping may take at most this factor of the Simple
/// mapping's wall time on D4's IsPrime graph (4,000 data, 5 processes), in
/// the same fresh `perf_report` smoke run. Fitted on 30 smoke runs of
/// the inbox woken in batches (DESIGN §3.4) on a shared 2-vCPU machine:
/// medians 1.24 (Multi) to 1.36 (MPI), highest 1.62. Waking the senders on
/// every pop put the medians at 1.43 to 1.53.
const MESH_RATIO_CEILING: f64 = 1.8;

/// Indexed *text* search must beat the linear scan by at least this
/// factor in the smoke run. The full-corpus floor is 5x (enforced by
/// `search_scale` on full runs); the smoke corpus is 50x smaller, so the
/// scan side is proportionally cheaper and the observable gap narrower.
/// The semantic ratio has no floor: both paths compute the same sparse
/// score, so it only compares postings with a per-entity merge.
const SEARCH_SPEEDUP_FLOOR: f64 = 2.0;

/// Indexed search p99 in the smoke run must stay below this (µs). The
/// committed full-corpus bound is 1ms at 100k PEs; a smoke corpus that
/// can't answer in 2ms means the indexed path itself regressed.
const SEARCH_P99_CEILING_US: f64 = 2000.0;

/// Incremental index maintenance may cost at most this much (µs) per PE
/// link: `search_scale` reports the median of its timed `SearchIndex::build`s
/// over its finished corpus, the same `add_pe` per link that registration
/// runs. The same
/// bound `search_scale` enforces on full runs — the cost is per PE (one
/// tokenisation, ~150 new postings), not per corpus, so the smoke
/// run needs no looser one. Absolute, not a ratio over a registration,
/// so a cheaper write path around the index does not move the gate.
const INDEX_MAINTENANCE_CEILING_US: f64 = 15.0;

/// Push-mode p99 first-event latency in the sustained_load smoke run may
/// cost at most this fraction of the polling baseline's. The full-run
/// acceptance bound is 0.5 (enforced in-bin); the smoke run measures far
/// fewer jobs on a noisy CI machine, so its bound is looser — it exists
/// to catch push delivery silently degrading to polling, not drift.
const SUSTAINED_RATIO_CEILING: f64 = 0.75;

/// Cross-tenant fairness spread (max/min per-tenant completed jobs at
/// the 50% drain mark) must stay at or below this, smoke and full alike:
/// the deficit-round-robin scheduler serves equal-weight lanes equally
/// or it is broken.
const FAIRNESS_SPREAD_CEILING: f64 = 2.0;

const MAPPINGS: [&str; 4] = ["SIMPLE", "MULTI", "MPI", "REDIS"];

struct Check {
    name: String,
    fresh: f64,
    limit: f64,
    /// True when the metric must stay *above* the limit (throughput),
    /// false when it must stay *below* (overhead ratio, latency).
    higher_is_better: bool,
}

impl Check {
    fn pass(&self) -> bool {
        if self.higher_is_better {
            self.fresh >= self.limit
        } else {
            self.fresh <= self.limit
        }
    }
}

fn load(path: &std::path::Path) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_check: cannot read {}: {e}", path.display()));
    laminar_json::parse(&text).unwrap_or_else(|e| panic!("bench_check: {} is not JSON: {e}", path.display()))
}

/// The number at `path` in `report`. A missing one panics, so a report
/// that dropped or renamed a key fails the guard instead of silently
/// removing a check.
fn number(report: &Value, source: &str, path: &[&str]) -> f64 {
    let v = path.iter().fold(report, |v, key| &v[*key]);
    v.as_f64().unwrap_or_else(|| panic!("{source}: missing {}", path.join(".")))
}

/// A boolean verdict at `path` in `report` as 1.0 (true) or 0.0.
fn verdict(report: &Value, path: &[&str]) -> f64 {
    f64::from(u8::from(path.iter().fold(report, |v, key| &v[*key]).as_bool() == Some(true)))
}

fn main() {
    let flags = Flags::parse("bench_check", &["--baseline-dir"]);
    let baseline_dir = std::path::Path::new(flags.value("--baseline-dir").unwrap_or("."));

    let perf = load(&report_path("perf_report"));
    let durability = load(&report_path("durability_overhead"));
    let search = load(&report_path("search_scale"));
    let sustained = load(&report_path("sustained_load"));
    let committed_perf = load(&baseline_dir.join("BENCH_PR2.json"));
    let committed_sustained = load(&baseline_dir.join("BENCH_PR10.json"));

    let mut checks: Vec<Check> = Vec::new();
    let mut check = |name: String, fresh: f64, limit: f64, higher_is_better: bool| {
        checks.push(Check { name, fresh, limit, higher_is_better })
    };

    // Enactment throughput per mapping (datums/s, figure1). Driven off the
    // MAPPINGS constant, so a report that dropped a mapping fails loudly.
    for mapping in MAPPINGS {
        let path = ["runs", "figure1", mapping, "throughput_per_sec"];
        check(
            format!("figure1 throughput [{mapping}] (datums/s)"),
            number(&perf, "perf_report", &path),
            number(&committed_perf, "BENCH_PR2.json", &path) / REGRESSION_FACTOR,
            true,
        );
    }

    // Scripted figure1: compiled VM vs the interpreter, paired in the same
    // fresh report.
    check(
        "figure1_script VM speedup vs interpreter".into(),
        number(&perf, "perf_report", &["runs", "figure1_script", "vm_speedup_vs_interp"]),
        VM_SPEEDUP_FLOOR,
        true,
    );

    // The group-by updates against the body without them, from the same
    // fresh rounds.
    check(
        "vm_state plus_sum / let_id".into(),
        number(&perf, "perf_report", &["runs", "vm_state", "plus_sum_over_let_id"]),
        VM_STATE_RATIO_CEILING,
        false,
    );

    // The parallel transports against Simple, paired in the same fresh
    // report.
    for mapping in &MAPPINGS[1..] {
        check(
            format!("mesh wall time ratio [{mapping}] / SIMPLE"),
            number(&perf, "perf_report", &["runs", "mesh", mapping]),
            MESH_RATIO_CEILING,
            false,
        );
    }

    // Durability: epoch checkpointing overhead per mapping, paired in the
    // same fresh durability_overhead run.
    for mapping in MAPPINGS {
        let fresh = durability["mappings"]
            .as_array()
            .into_iter()
            .flatten()
            .find(|m| m["mapping"].as_str() == Some(mapping))
            .map(|m| number(m, "durability_overhead", &["checkpoint_overhead_ratio"]))
            .unwrap_or_else(|| panic!("durability_overhead: missing mapping {mapping}"));
        check(format!("checkpoint overhead ratio [{mapping}]"), fresh, CHECKPOINT_OVERHEAD_CEILING, false);
    }

    // Registry search: text indexed-vs-scan speedup, indexed tail
    // latency, index-maintenance cost and the differential oracle verdict
    // — all fresh-vs-fresh from the same search_scale smoke run.
    let searched = |path: &[&str]| number(&search, "search_scale", path);
    check(
        "search speedup indexed vs scan [text]".into(),
        searched(&["text", "speedup"]),
        SEARCH_SPEEDUP_FLOOR,
        true,
    );
    for mode in ["semantic", "text"] {
        check(
            format!("search indexed p99 [{mode}] (us)"),
            searched(&[mode, "indexed_p99_us"]),
            SEARCH_P99_CEILING_US,
            false,
        );
    }
    check(
        "search index maintenance per PE link (us)".into(),
        searched(&["registration", "maintenance_per_pe_us"]),
        INDEX_MAINTENANCE_CEILING_US,
        false,
    );
    check(
        "search indexed hits match scan oracle (1 = yes)".into(),
        verdict(&search, &["differential_match"]),
        1.0,
        true,
    );

    // Sustained load: push delivery must beat the polling baseline and
    // the fair scheduler must serve tenants equally — fresh-vs-fresh
    // (the push and poll legs come interleaved from the same smoke run).
    let loaded = |path: &[&str]| number(&sustained, "sustained_load", path);
    check(
        "sustained push p99 / poll p99 first-event ratio".into(),
        loaded(&["latency", "p99_ratio_push_vs_poll"]),
        SUSTAINED_RATIO_CEILING,
        false,
    );
    check(
        "sustained fairness spread (max/min tenant completions)".into(),
        loaded(&["fairness", "spread"]),
        FAIRNESS_SPREAD_CEILING,
        false,
    );
    check("sustained lost events".into(), loaded(&["latency", "lost_events"]), 0.0, false);
    // And the committed full-run trajectory must itself still carry the
    // tighter acceptance it was produced under.
    check(
        "committed BENCH_PR10 push/poll p99 ratio (full run)".into(),
        number(&committed_sustained, "BENCH_PR10.json", &["latency", "p99_ratio_push_vs_poll"]),
        0.5,
        false,
    );

    // Report.
    let mut failed = 0usize;
    let mut rows = Vec::new();
    eprintln!("bench_check: fresh smoke reports vs their bounds");
    for c in &checks {
        let verdict = if c.pass() { "ok  " } else { "FAIL" };
        let bound = if c.higher_is_better { ">=" } else { "<=" };
        eprintln!("  [{verdict}] {:<52} {:>12.4} (must be {bound} {:.4})", c.name, c.fresh, c.limit);
        if !c.pass() {
            failed += 1;
        }
        let mut row = Value::Null;
        row.set("check", c.name.as_str())
            .set("fresh", (c.fresh * 10000.0).round() / 10000.0)
            .set("limit", (c.limit * 10000.0).round() / 10000.0)
            .set("pass", c.pass());
        rows.push(row);
    }

    let mut report = Value::Null;
    report
        .set("report", "laminar bench regression guard")
        .set("regression_factor", REGRESSION_FACTOR)
        .set("checks", Value::Array(rows))
        .set("failed", failed as i64);
    flags.write_report(&report);

    if failed > 0 {
        eprintln!("bench_check: {failed} metric(s) crossed their bound");
        std::process::exit(1);
    }
    eprintln!("bench_check: all {} metrics within bounds", checks.len());
}
