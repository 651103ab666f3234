//! `bench_check`: the CI bench-regression guard.
//!
//! Compares a fresh set of `--smoke` bench reports (produced earlier in
//! the `bench-smoke` tier) against the committed `BENCH_PR*.json`
//! trajectory and fails — non-zero exit — when a headline metric
//! regressed by more than [`REGRESSION_FACTOR`]×:
//!
//! * **throughput** — `perf_report` figure1 datums/s per mapping vs.
//!   `BENCH_PR2.json`, and `concurrent_serving` pooled-vs-mutex speedup
//!   vs. `BENCH_PR3.json`;
//! * **VM speedup** — `perf_report` figure1_script VM-vs-interpreter
//!   throughput ratio must stay at or above [`VM_SPEEDUP_FLOOR`]× (this
//!   one compares two backends measured in the *same* fresh run, so it
//!   needs no committed baseline and no noise margin);
//! * **first-result latency** — `streaming_latency` time-to-first-result
//!   as a *fraction of total runtime* per mapping vs. `BENCH_PR4.json`
//!   (the fraction is dimensionless, so the comparison is robust to the
//!   smoke configs' smaller workloads), floored at
//!   [`MIN_FRACTION_LIMIT`] to absorb startup jitter on tiny runs;
//! * **checkpoint overhead** — `durability_overhead` checkpointed-vs-plain
//!   runtime ratio per mapping must stay at or below
//!   [`CHECKPOINT_OVERHEAD_CEILING`] (both sides from the same fresh
//!   run, interleaved best-of-n, so no committed baseline is needed);
//! * **slow-consumer policy** — `slow_consumer` must report zero lost
//!   events, a matching refold, and a retained window within its own
//!   configured horizon bound (all fresh-vs-config, no baseline: these
//!   gate the backpressure *policy*, not machine speed);
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
//! The 5× margin is deliberately coarse: smoke configs are smaller than
//! the committed full runs and CI machines are noisy — this gate exists
//! to catch order-of-magnitude regressions (a serialized pool, a
//! batch-buffered stream), not percent-level drift, which the committed
//! full reports track across PRs.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin bench_check
//! cargo run -p laminar-bench --release --bin bench_check -- \
//!     --fresh-perf target/bench_smoke.json --baseline-dir .
//! ```

use laminar_json::Value;

/// A metric must stay within this factor of the committed trajectory.
const REGRESSION_FACTOR: f64 = 5.0;

/// The compiled bytecode VM must beat the tree-walking interpreter by at
/// least this factor on the figure1_script workload. Both sides are
/// measured in the same smoke run on the same machine, so the bound is
/// tight by design: the VM's full-run advantage is well above 1.5x, and
/// falling below it means the compiled path regressed.
const VM_SPEEDUP_FLOOR: f64 = 1.5;

/// Floor for the streaming first-result-fraction limit: smoke runs are
/// short enough that startup noise dominates below this.
const MIN_FRACTION_LIMIT: f64 = 0.20;

/// Epoch checkpointing may cost at most this factor over the same run
/// uncheckpointed. Like the VM floor, both sides come from the *same*
/// fresh `durability_overhead` smoke run (interleaved, best-of-n), so
/// the bound is tight by design: blowing past it means an epoch started
/// costing a re-enactment instead of a snapshot and a reconnect.
const CHECKPOINT_OVERHEAD_CEILING: f64 = 1.25;

/// Indexed *text* search must beat the linear scan by at least this
/// factor in the smoke run. The full-corpus floor is 5x (enforced by
/// `search_scale` on full runs); the smoke corpus is 50x smaller, so the
/// scan side is proportionally cheaper and the observable gap narrower.
/// The semantic scan runs the index's own kernel over the same vectors,
/// so no floor is set on its ratio.
const SEARCH_SPEEDUP_FLOOR: f64 = 2.0;

/// Indexed search p99 in the smoke run must stay below this (µs). The
/// committed full-corpus bound is 1ms at 100k PEs; a smoke corpus that
/// can't answer in 2ms means the indexed path itself regressed.
const SEARCH_P99_CEILING_US: f64 = 2000.0;

/// Incremental index maintenance may cost at most this much (µs) per PE
/// link: `search_scale` times one `SearchIndex::build` over its finished
/// corpus, the same `add_pe` per link that registration runs. The same
/// bound `search_scale` enforces on full runs — the cost is per PE (one
/// tokenisation, ~7 KB of new matrix rows), not per corpus, so the smoke
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
    /// false when it must stay *below* (latency fraction).
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

fn load(path: &str) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("bench_check: cannot read {path}: {e}"));
    laminar_json::parse(&text).unwrap_or_else(|e| panic!("bench_check: {path} is not JSON: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::to_string);
    let fresh_perf = flag_value("--fresh-perf").unwrap_or_else(|| "target/bench_smoke.json".into());
    let fresh_streaming =
        flag_value("--fresh-streaming").unwrap_or_else(|| "target/bench_streaming_smoke.json".into());
    let fresh_concurrent =
        flag_value("--fresh-concurrent").unwrap_or_else(|| "target/bench_concurrent_smoke.json".into());
    let fresh_durability =
        flag_value("--fresh-durability").unwrap_or_else(|| "target/bench_durability_smoke.json".into());
    let fresh_slow_consumer =
        flag_value("--fresh-slow-consumer").unwrap_or_else(|| "target/bench_slow_consumer_smoke.json".into());
    let fresh_search =
        flag_value("--fresh-search").unwrap_or_else(|| "target/bench_search_smoke.json".into());
    let fresh_sustained =
        flag_value("--fresh-sustained").unwrap_or_else(|| "target/bench_sustained_smoke.json".into());
    let baseline_dir = flag_value("--baseline-dir").unwrap_or_else(|| ".".into());
    let out_path = flag_value("--out").unwrap_or_else(|| "target/bench_check.json".into());

    let perf = load(&fresh_perf);
    let streaming = load(&fresh_streaming);
    let concurrent = load(&fresh_concurrent);
    let durability = load(&fresh_durability);
    let slow_consumer = load(&fresh_slow_consumer);
    let search = load(&fresh_search);
    let sustained = load(&fresh_sustained);
    let committed_perf = load(&format!("{baseline_dir}/BENCH_PR2.json"));
    let committed_sustained = load(&format!("{baseline_dir}/BENCH_PR10.json"));
    let committed_concurrent = load(&format!("{baseline_dir}/BENCH_PR3.json"));
    let committed_streaming = load(&format!("{baseline_dir}/BENCH_PR4.json"));

    let mut checks: Vec<Check> = Vec::new();

    // Enactment throughput per mapping (datums/s, figure1).
    for mapping in MAPPINGS {
        let fresh = perf["runs"]["figure1"][mapping]["throughput_per_sec"]
            .as_f64()
            .unwrap_or_else(|| panic!("{fresh_perf}: missing figure1 throughput for {mapping}"));
        let committed = committed_perf["runs"]["figure1"][mapping]["throughput_per_sec"]
            .as_f64()
            .unwrap_or_else(|| panic!("BENCH_PR2.json: missing figure1 throughput for {mapping}"));
        checks.push(Check {
            name: format!("figure1 throughput [{mapping}] (datums/s)"),
            fresh,
            limit: committed / REGRESSION_FACTOR,
            higher_is_better: true,
        });
    }

    // Scripted figure1: compiled-VM throughput vs the interpreter's, from
    // the same fresh report.
    let vm_speedup = perf["runs"]["figure1_script"]["vm_speedup_vs_interp"]
        .as_f64()
        .unwrap_or_else(|| panic!("{fresh_perf}: missing figure1_script vm_speedup_vs_interp"));
    checks.push(Check {
        name: "figure1_script VM speedup vs interpreter".into(),
        fresh: vm_speedup,
        limit: VM_SPEEDUP_FLOOR,
        higher_is_better: true,
    });

    // Streaming time-to-first-result as a fraction of total runtime.
    // Driven off the MAPPINGS constant (like the figure1 block), so a
    // report that dropped a mapping or renamed a key fails loudly
    // instead of silently removing the guard.
    let fraction = |report: &Value, source: &str, mapping: &str| {
        report["mappings"]
            .as_array()
            .into_iter()
            .flatten()
            .find(|m| m["mapping"].as_str() == Some(mapping))
            .and_then(|m| m["first_result_fraction"].as_f64())
            .unwrap_or_else(|| panic!("{source}: missing first_result_fraction for {mapping}"))
    };
    for mapping in MAPPINGS {
        let fresh = fraction(&streaming, &fresh_streaming, mapping);
        let committed = fraction(&committed_streaming, "BENCH_PR4.json", mapping);
        checks.push(Check {
            name: format!("streaming first-result fraction [{mapping}]"),
            fresh,
            limit: (committed * REGRESSION_FACTOR).max(MIN_FRACTION_LIMIT),
            higher_is_better: false,
        });
    }

    // Durability: epoch checkpointing overhead per mapping, fresh-vs-fresh
    // from the durability_overhead smoke run.
    for mapping in MAPPINGS {
        let fresh = durability["mappings"]
            .as_array()
            .into_iter()
            .flatten()
            .find(|m| m["mapping"].as_str() == Some(mapping))
            .and_then(|m| m["checkpoint_overhead_ratio"].as_f64())
            .unwrap_or_else(|| panic!("{fresh_durability}: missing checkpoint_overhead_ratio for {mapping}"));
        checks.push(Check {
            name: format!("checkpoint overhead ratio [{mapping}]"),
            fresh,
            limit: CHECKPOINT_OVERHEAD_CEILING,
            higher_is_better: false,
        });
    }

    // Slow consumer: the checkpoint-horizon backpressure policy. All
    // three bounds compare the fresh run against its own configuration —
    // they hold at any machine speed or fail because the policy broke.
    let paced = |key: &str| {
        slow_consumer["paced"][key]
            .as_f64()
            .or_else(|| slow_consumer["paced"][key].as_i64().map(|v| v as f64))
            .unwrap_or_else(|| panic!("{fresh_slow_consumer}: missing paced.{key}"))
    };
    checks.push(Check {
        name: "slow consumer lost events (live reader)".into(),
        fresh: paced("lost_events"),
        limit: 0.0,
        higher_is_better: false,
    });
    checks.push(Check {
        name: "slow consumer max window / horizon bound".into(),
        fresh: paced("max_window_ratio"),
        limit: 1.0,
        higher_is_better: false,
    });
    checks.push(Check {
        name: "slow consumer refold matches batch (1 = yes)".into(),
        fresh: if slow_consumer["paced"]["refold_matches"].as_bool() == Some(true) { 1.0 } else { 0.0 },
        limit: 1.0,
        higher_is_better: true,
    });

    // Registry search: text indexed-vs-scan speedup, indexed tail
    // latency, index-maintenance cost and the differential oracle verdict
    // — all fresh-vs-fresh from the same search_scale smoke run.
    for mode in ["semantic", "text"] {
        let metric = |key: &str| {
            search[mode][key]
                .as_f64()
                .or_else(|| search[mode][key].as_i64().map(|v| v as f64))
                .unwrap_or_else(|| panic!("{fresh_search}: missing {mode}.{key}"))
        };
        if mode == "text" {
            checks.push(Check {
                name: format!("search speedup indexed vs scan [{mode}]"),
                fresh: metric("speedup"),
                limit: SEARCH_SPEEDUP_FLOOR,
                higher_is_better: true,
            });
        }
        checks.push(Check {
            name: format!("search indexed p99 [{mode}] (us)"),
            fresh: metric("indexed_p99_us"),
            limit: SEARCH_P99_CEILING_US,
            higher_is_better: false,
        });
    }
    checks.push(Check {
        name: "search index maintenance per PE link (us)".into(),
        fresh: search["registration"]["maintenance_per_pe_us"]
            .as_f64()
            .unwrap_or_else(|| panic!("{fresh_search}: missing registration.maintenance_per_pe_us")),
        limit: INDEX_MAINTENANCE_CEILING_US,
        higher_is_better: false,
    });
    checks.push(Check {
        name: "search indexed hits match scan oracle (1 = yes)".into(),
        fresh: if search["differential_match"].as_bool() == Some(true) { 1.0 } else { 0.0 },
        limit: 1.0,
        higher_is_better: true,
    });

    // Sustained load: push delivery must beat the polling baseline and
    // the fair scheduler must serve tenants equally — fresh-vs-fresh
    // (the push and poll legs come interleaved from the same smoke run).
    let sustained_metric = |report: &Value, source: &str, section: &str, key: &str| {
        report[section][key]
            .as_f64()
            .or_else(|| report[section][key].as_i64().map(|v| v as f64))
            .unwrap_or_else(|| panic!("{source}: missing {section}.{key}"))
    };
    checks.push(Check {
        name: "sustained push p99 / poll p99 first-event ratio".into(),
        fresh: sustained_metric(&sustained, &fresh_sustained, "latency", "p99_ratio_push_vs_poll"),
        limit: SUSTAINED_RATIO_CEILING,
        higher_is_better: false,
    });
    checks.push(Check {
        name: "sustained fairness spread (max/min tenant completions)".into(),
        fresh: sustained_metric(&sustained, &fresh_sustained, "fairness", "spread"),
        limit: FAIRNESS_SPREAD_CEILING,
        higher_is_better: false,
    });
    checks.push(Check {
        name: "sustained lost events".into(),
        fresh: sustained_metric(&sustained, &fresh_sustained, "latency", "lost_events"),
        limit: 0.0,
        higher_is_better: false,
    });
    // And the committed full-run trajectory must itself still carry the
    // tighter acceptance it was produced under.
    checks.push(Check {
        name: "committed BENCH_PR10 push/poll p99 ratio (full run)".into(),
        fresh: sustained_metric(&committed_sustained, "BENCH_PR10.json", "latency", "p99_ratio_push_vs_poll"),
        limit: 0.5,
        higher_is_better: false,
    });

    // Concurrent serving: pooled vs single-mutex jobs/s speedup.
    let fresh_speedup = concurrent["jobs_per_sec_speedup"]
        .as_f64()
        .unwrap_or_else(|| panic!("{fresh_concurrent}: missing jobs_per_sec_speedup"));
    let committed_speedup = committed_concurrent["jobs_per_sec_speedup"]
        .as_f64()
        .expect("BENCH_PR3.json: missing jobs_per_sec_speedup");
    checks.push(Check {
        name: "concurrent serving speedup (pooled / mutex jobs per s)".into(),
        fresh: fresh_speedup,
        limit: committed_speedup / REGRESSION_FACTOR,
        higher_is_better: true,
    });

    // Report.
    let mut failed = 0usize;
    let mut rows = Vec::new();
    eprintln!("bench_check: fresh smoke vs committed trajectory ({REGRESSION_FACTOR}x guard)");
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
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, laminar_json::to_string_pretty(&report)).expect("write report");
    eprintln!("report written to {out_path}");

    if failed > 0 {
        eprintln!("bench_check: {failed} metric(s) regressed past the {REGRESSION_FACTOR}x guard");
        std::process::exit(1);
    }
    eprintln!("bench_check: all {} metrics within bounds", checks.len());
}
