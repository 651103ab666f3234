//! Shared harness code for the table/figure regeneration binaries. Each
//! function reproduces one experiment from the paper's evaluation (see
//! DESIGN.md §5 for the index); one bin runs each experiment.
//!
//! The offline search evaluation of Tables 6–7 lives here, not in the
//! product: [`datasets`] generates the CosQA / CSN / CodeNet stand-ins and
//! scores a model over them, [`metrics`] holds MRR, MAP@k, Precision@1 and
//! the one ranking they read (the registry's `TopK`), and [`xencoder`] is
//! the cross-encoder foil of ablation D2.
//!
//! The report-writing bins (`perf_report`, `durability_overhead`,
//! `search_scale`, `sustained_load`, `bench_check`) share one command line
//! and one report writer ([`Flags`]); the two gates that compare a run
//! with itself share one estimator ([`paired_ratio`]).

pub mod datasets;
pub mod metrics;
pub mod xencoder;

use laminar_dataflow::mapping::{Mapping, MultiMapping, RunStats, SimpleMapping};
use laminar_dataflow::{RunOptions, WorkflowGraph};
use laminar_json::Value;
use laminar_script::Host;
use laminar_workloads::astro::{coordinates_file, VoService, SOURCE as ASTRO_SOURCE};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of one Table 5 run.
#[derive(Debug, Clone, Copy)]
pub struct Table5Config {
    /// Number of coordinates in the input file.
    pub coordinates: usize,
    /// Simulated VO service latency per query.
    pub vo_latency: Duration,
    /// Processes for the Multi mapping (paper: 5).
    pub processes: usize,
}

impl Table5Config {
    /// The default profile used by the `table5` binary: large enough for
    /// stable ratios, small enough to run in seconds.
    pub fn default_profile() -> Table5Config {
        Table5Config { coordinates: 60, vo_latency: Duration::from_millis(12), processes: 5 }
    }
}

/// Build the Internal Extinction workflow graph with an in-process host
/// serving the coordinates file and the (simulated) VO service.
pub fn astro_graph(cfg: &Table5Config) -> WorkflowGraph {
    struct Shim {
        text: String,
        vo: VoService,
    }
    impl Host for Shim {
        fn call(
            &self,
            module: &str,
            name: &str,
            args: &[Value],
        ) -> Result<Value, laminar_script::ScriptError> {
            if module == "resources" && name == "lines" {
                return Ok(Value::Array(
                    self.text.lines().filter(|l| !l.is_empty()).map(|l| Value::Str(l.into())).collect(),
                ));
            }
            self.vo.call(module, name, args)
        }
    }
    let host: Arc<dyn Host + Send + Sync> =
        Arc::new(Shim { text: coordinates_file(cfg.coordinates), vo: VoService::new(cfg.vo_latency, 4) });
    WorkflowGraph::from_script_with_host(ASTRO_SOURCE, "Astrophysics", host).unwrap()
}

/// Run the Internal Extinction workflow directly on the dataflow engine —
/// the "original dispel4py" baseline rows of Table 5.
pub fn run_astro_direct(cfg: &Table5Config, multi: bool) -> Duration {
    let graph = astro_graph(cfg);
    let options = RunOptions::data(vec![Value::Str("coordinates.txt".into())]).with_processes(cfg.processes);
    let t0 = std::time::Instant::now();
    if multi {
        MultiMapping.execute(&graph, &options).unwrap();
    } else {
        SimpleMapping.execute(&graph, &options).unwrap();
    }
    t0.elapsed()
}

/// Run the workflow through the full Laminar stack (client → server →
/// registry → engine) — the "with Laminar" rows of Table 5. Returns the
/// elapsed time and the engine's [`laminar_engine::ExecutionOutput`],
/// whose stage timings (`stages.plan`/`enact`/`collect`, plus
/// provisioning) break it into the overhead structure Table 5 measures.
///
/// `remote` switches the in-process transport for HTTP over loopback plus
/// the WAN-modelled engine.
pub fn run_astro_laminar_detailed(
    cfg: &Table5Config,
    multi: bool,
    remote: bool,
) -> (Duration, laminar_engine::ExecutionOutput) {
    use laminar_client::RunConfig;
    use laminar_core::{Deployment, LaminarSystem};

    let deployment = if remote { Deployment::RemoteSimulated } else { Deployment::Local };
    let hosts: [(&str, Arc<dyn Host + Send + Sync>); 2] = [
        ("vo", Arc::new(VoService::new(cfg.vo_latency, 4))),
        ("astropy", Arc::new(VoService::new(Duration::ZERO, 4))),
    ];
    let mut system = LaminarSystem::start_with_hosts(deployment, &hosts).unwrap();
    let client = system.client_mut();
    client.register("bench", "password").unwrap();
    client.login("bench", "password").unwrap();
    // Register once (outside the timed window, like the paper's setup).
    client.register_workflow(ASTRO_SOURCE, "Astrophysics", Some("internal extinction")).unwrap();

    let mapping =
        if multi { laminar_dataflow::MappingKind::Multi } else { laminar_dataflow::MappingKind::Simple };
    let config = RunConfig::data(vec![Value::Str("coordinates.txt".into())])
        .with_mapping(mapping, cfg.processes)
        .with_resource("coordinates.txt", coordinates_file(cfg.coordinates).into_bytes());

    let t0 = std::time::Instant::now();
    let output = client.run_registered("Astrophysics", config).unwrap();
    let elapsed = t0.elapsed();
    system.stop();
    (elapsed, output)
}

/// Whether a paper table's measured figures keep the paper's *shape*: the
/// orderings it reports, which the reproduction must keep (its absolute
/// numbers are not a target). A bin exits non-zero on [`Verdict::Violated`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every ordering the table's check names holds.
    Holds,
    /// At least one does not.
    Violated,
}

impl Verdict {
    /// [`Verdict::Holds`] when `ok`.
    pub fn of(ok: bool) -> Verdict {
        if ok {
            Verdict::Holds
        } else {
            Verdict::Violated
        }
    }

    /// `HOLDS` or `VIOLATED`, as the bins print it.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Holds => "HOLDS",
            Verdict::Violated => "VIOLATED",
        }
    }
}

/// Table 6 as measured: zero-shot text-to-code search MRR ×100.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// `(model, CosQA, CSN)`: the base model, then the fine-tuned one.
    pub rows: Vec<(&'static str, f64, f64)>,
    /// Fine-tuned beats base on both corpora, and scores higher on CSN
    /// than on CosQA.
    pub verdict: Verdict,
}

/// Run Table 6: both models over 400 generated queries of each corpus
/// (seed 42).
pub fn table6() -> Table6 {
    const N: usize = 400;
    const SEED: u64 = 42;
    let mrr = |model: &str, ds: &datasets::SearchDataset| {
        let model = laminar_embed::model_by_name(model).expect("model exists");
        datasets::eval_search(&model, ds) * 100.0
    };
    let (cosqa, csn) = (datasets::gen_cosqa(N, SEED), datasets::gen_csn(N, SEED));
    let rows: Vec<(&'static str, f64, f64)> = ["unixcoder-base", "unixcoder-code-search"]
        .into_iter()
        .map(|model| (model, mrr(model, &cosqa), mrr(model, &csn)))
        .collect();
    let (base, tuned) = (rows[0], rows[1]);
    let verdict = Verdict::of(tuned.1 > base.1 && tuned.2 > base.2 && tuned.2 > tuned.1);
    Table6 { rows, verdict }
}

/// One model's row of Table 7, in percent.
#[derive(Debug, Clone, Copy)]
pub struct Table7Row {
    /// The model, as the paper names it.
    pub model: &'static str,
    /// Measured MAP@100.
    pub map: f64,
    /// Measured Precision@1.
    pub p1: f64,
    /// The paper's MAP@100.
    pub paper_map: f64,
    /// The paper's Precision@1.
    pub paper_p1: f64,
}

/// Table 7 as measured: zero-shot clone detection.
#[derive(Debug, Clone)]
pub struct Table7 {
    /// One row per model, in the paper's row order.
    pub rows: Vec<Table7Row>,
    /// ReACC has the best P@1 (ties allowed).
    pub reacc_best_p1: bool,
    /// CodeBERT and gte-large have the weakest MAP.
    pub weakest_map: bool,
    /// Both of the above.
    pub verdict: Verdict,
}

/// Table 7's corpus: problems, variants per problem, seed.
pub const TABLE7_CORPUS: (usize, usize, u64) = (120, 6, 7);

/// Run Table 7: every model over the [`TABLE7_CORPUS`] clone corpus.
pub fn table7() -> Table7 {
    /// The paper's rows: `(model, MAP@100, P@1)`.
    const PAPER: [(&str, f64, f64); 7] = [
        ("CodeBERT", 1.47, 4.75),
        ("GraphCodeBERT", 5.31, 15.68),
        ("ReACC-retriever-py", 9.60, 27.04),
        ("thenlper/gte-large", 1.9, 7.0),
        ("BAAI/bge-large-en", 8.17, 20.0),
        ("unixcoder-clone-detection", 10.4, 17.0),
        ("unixcoder-code-search", 8.53, 22.84),
    ];
    let (problems, variants, seed) = TABLE7_CORPUS;
    let ds = datasets::gen_codenet(problems, variants, seed);
    let rows: Vec<Table7Row> = PAPER
        .into_iter()
        .map(|(model, paper_map, paper_p1)| {
            let m = laminar_embed::model_by_name(model).expect("model exists");
            let (map, p1) = datasets::eval_clone(&m, &ds, 100);
            Table7Row { model, map: map * 100.0, p1: p1 * 100.0, paper_map, paper_p1 }
        })
        .collect();
    let get = |name: &str| rows.iter().find(|r| r.model == name).expect("model in table");
    let (reacc, codebert, gte) = (get("ReACC-retriever-py"), get("CodeBERT"), get("thenlper/gte-large"));
    let reacc_best_p1 = rows.iter().all(|r| r.p1 <= reacc.p1);
    let weakest = codebert.map.min(gte.map);
    let weakest_map =
        rows.iter().all(|r| r.model == "CodeBERT" || r.model == "thenlper/gte-large" || r.map >= weakest);
    Table7 { verdict: Verdict::of(reacc_best_p1 && weakest_map), rows, reacc_best_p1, weakest_map }
}

/// Format a duration like the paper's "642 sec." column.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.2} sec.", d.as_secs_f64())
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it, `p` in
/// `(0, 100]`; 0 for an empty slice. The definition `bench_e2e` uses; the
/// small slack keeps `99.9 % of 10 000` at rank 9 990 although the product
/// is not exact in binary.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// CPU time this process has used so far, every thread included (exited
/// ones too). A run timed by it is not charged for the time it sat
/// descheduled behind other work on a shared machine, which a wall clock
/// charges at random to whichever side of a comparison was running.
pub fn process_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
    }
    /// `CLOCK_PROCESS_CPUTIME_ID` in Linux's `<time.h>`.
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (both fields are
    // a C `long` on Linux, where `time_t` is `long`), and `clock_gettime`
    // writes nothing but that struct through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The median over `pairs` of `a`'s time divided by `b`'s. Each call of
/// `a` or `b` runs its side once and returns the time it took. The two
/// sides of a pair run back to back, and the side that goes first swaps
/// on every pair (`a b`, `b a`, `a b`, ...), so drift and a noisy stretch
/// on a shared machine land on both sides of a ratio instead of on one
/// side of the comparison.
pub fn paired_ratio(pairs: usize, mut a: impl FnMut() -> Duration, mut b: impl FnMut() -> Duration) -> f64 {
    let mut ratios: Vec<f64> = (0..pairs.max(1))
        .map(|i| {
            let (ta, tb) = if i % 2 == 0 {
                let ta = a();
                (ta, b())
            } else {
                let tb = b();
                (a(), tb)
            };
            ta.as_secs_f64() / tb.as_secs_f64().max(1e-9)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    }
}

/// Where a bin's report goes unless `--out` says otherwise:
/// `target/bench/<bin>.json` under the working directory. `bench_check`
/// reads the fresh reports from here.
pub fn report_path(bin: &str) -> PathBuf {
    Path::new("target/bench").join(format!("{bin}.json"))
}

/// The command line every report-writing bin takes: `--smoke` (the small
/// configuration CI runs) and `--out PATH` (default [`report_path`]),
/// plus the value flags a bin names itself. An unknown argument is an
/// error, so a flag that was removed cannot be passed and ignored.
#[derive(Debug)]
pub struct Flags {
    /// `--smoke` was given.
    pub smoke: bool,
    /// Where [`Flags::write_report`] writes.
    pub out: PathBuf,
    values: Vec<(String, String)>,
}

impl Flags {
    /// Parse the process arguments of `bin`, which also takes the value
    /// flags `extra`; exits with status 2 on a bad command line.
    #[expect(clippy::disallowed_methods, reason = "the one reader of a bench bin's command line")]
    pub fn parse(bin: &str, extra: &[&str]) -> Flags {
        Flags::from_args(bin, extra, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{bin}: {e}");
            std::process::exit(2);
        })
    }

    fn from_args(bin: &str, extra: &[&str], args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
        let mut flags = Flags { smoke: false, out: report_path(bin), values: Vec::new() };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--smoke" {
                flags.smoke = true;
            } else if arg == "--out" || extra.contains(&arg.as_str()) {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                if arg == "--out" {
                    flags.out = value.into();
                } else {
                    flags.values.push((arg, value));
                }
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(flags)
    }

    /// The value of one of the bin's own flags, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Write `report` as pretty JSON to [`Flags::out`], creating its
    /// directory.
    pub fn write_report(&self, report: &Value) {
        if let Some(dir) = self.out.parent() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        }
        #[expect(clippy::disallowed_methods, reason = "the one writer of a bench bin's report")]
        std::fs::write(&self.out, laminar_json::to_string_pretty(report))
            .unwrap_or_else(|e| panic!("write {}: {e}", self.out.display()));
        eprintln!("report written to {}", self.out.display());
    }
}

// ---------------------------------------------------------------------------
// Perf-report harness (BENCH_*.json trajectory)
// ---------------------------------------------------------------------------

/// The paper's Figure 1 topology (PE1 → PE2 → PE3) built from native PEs so
/// that the measured cost is the enactment datapath itself, not the script
/// interpreter. The payload is a small structured document: deep-cloning it
/// per destination is exactly the overhead the datapath must avoid.
pub fn figure1_graph() -> WorkflowGraph {
    use laminar_dataflow::{iterative_fn, producer_fn};
    use laminar_json::{jarr, jobj};
    let mut g = WorkflowGraph::new("figure1");
    let p1 = g.add(producer_fn("PE1", |i| {
        jobj! {
            "id" => i,
            "tags" => jarr!["alpha", "beta", "gamma", "delta"],
            "xs" => Value::Array((i..i + 8).map(Value::Int).collect())
        }
    }));
    let p2 = g.add(iterative_fn("PE2", |mut v| {
        let sum: i64 = v["xs"].as_array().unwrap_or(&[]).iter().filter_map(Value::as_i64).sum();
        v.set("sum", sum);
        Some(v)
    }));
    let p3 = g.add(iterative_fn("PE3", |v| {
        Some(Value::Int(v["sum"].as_i64().unwrap_or(0) + v["id"].as_i64().unwrap_or(0)))
    }));
    g.connect(p1, "output", p2, "input").unwrap();
    g.connect(p2, "output", p3, "input").unwrap();
    g
}

/// The Figure 1 topology again, but with the PE bodies written in
/// LamScript, so the measured cost is dominated by script execution —
/// the workload the PR-6 bytecode VM targets. Same shape as
/// [`figure1_graph`]: structured payload, per-datum field arithmetic,
/// a reduce to a scalar.
pub const FIGURE1_SCRIPT: &str = r#"
pe PE1 : producer {
    output output;
    process {
        let xs = [];
        let j = 0;
        while j < 8 {
            xs = xs + [iteration + j];
            j = j + 1;
        }
        emit({"id": iteration, "tags": ["alpha", "beta", "gamma", "delta"], "xs": xs});
    }
}
pe PE2 : iterative {
    input input;
    output output;
    process {
        let total = 0;
        for v in input.xs { total = total + v; }
        input.sum = total;
        emit(input);
    }
}
pe PE3 : iterative {
    input input;
    output output;
    process { emit(input.sum + input.id); }
}
"#;

/// Build the scripted Figure 1 pipeline ([`FIGURE1_SCRIPT`]) with `add`:
/// [`WorkflowGraph::add_script_pe`] for compiled PEs, [`laminar_oracle::add_pe`] for
/// the same PEs on the tree-walking interpreter the VM's speedup is
/// measured against.
pub fn figure1_script_graph(add: laminar_oracle::AddPe) -> WorkflowGraph {
    let mut g = WorkflowGraph::new("figure1_script");
    let mut pe = |name: &str| add(&mut g, FIGURE1_SCRIPT, name).unwrap();
    let (p1, p2, p3) = (pe("PE1"), pe("PE2"), pe("PE3"));
    g.connect(p1, "output", p2, "input").unwrap();
    g.connect(p2, "output", p3, "input").unwrap();
    g
}

/// One measured enactment: the median over `reps` repetitions.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Mapping measured.
    pub mapping: String,
    /// Producer invocations per repetition.
    pub invocations: usize,
    /// Requested process count.
    pub processes: usize,
    /// Repetitions measured (median reported).
    pub reps: usize,
    /// Median wall-clock per repetition, microseconds.
    pub elapsed_us: u64,
    /// Stage timings of the median repetition, microseconds.
    pub plan_us: u64,
    /// See [`BenchRun::plan_us`].
    pub enact_us: u64,
    /// See [`BenchRun::plan_us`].
    pub collect_us: u64,
    /// The median repetition's `StageTimings::compile`: zero here, since
    /// these runs drive a graph directly and only an engine request
    /// carries a prepare time.
    pub compile_us: u64,
    /// Producer invocations per second (median repetition).
    pub throughput: f64,
}

impl BenchRun {
    /// The run with the median elapsed time among `stats`, measured
    /// enactments of `kind` under `options`.
    pub fn median(
        kind: laminar_dataflow::MappingKind,
        options: &RunOptions,
        mut stats: Vec<RunStats>,
    ) -> BenchRun {
        assert!(!stats.is_empty(), "a median needs at least one run");
        let reps = stats.len();
        stats.sort_by_key(|s| s.elapsed);
        let median = stats.swap_remove(reps / 2);
        let secs = median.elapsed.as_secs_f64().max(1e-9);
        BenchRun {
            mapping: kind.as_str().to_string(),
            invocations: options.invocations(),
            processes: options.processes,
            reps,
            elapsed_us: median.elapsed.as_micros() as u64,
            plan_us: median.timings.plan.as_micros() as u64,
            enact_us: median.timings.enact.as_micros() as u64,
            collect_us: median.timings.collect.as_micros() as u64,
            compile_us: median.timings.compile.as_micros() as u64,
            throughput: options.invocations() as f64 / secs,
        }
    }

    /// Serialize for the `BENCH_*.json` report.
    pub fn to_value(&self) -> Value {
        let mut v = Value::Null;
        v.set("mapping", self.mapping.as_str())
            .set("invocations", self.invocations)
            .set("processes", self.processes)
            .set("reps", self.reps)
            .set("elapsed_us", self.elapsed_us as i64)
            .set("plan_us", self.plan_us as i64)
            .set("enact_us", self.enact_us as i64)
            .set("collect_us", self.collect_us as i64)
            .set("compile_us", self.compile_us as i64)
            .set("throughput_per_sec", (self.throughput * 100.0).round() / 100.0);
        v
    }
}

/// Measure `kind` enacting `graph` under `options`, `reps` times; report
/// the repetition with the median elapsed time. One untimed warm-up run
/// precedes the measurements.
pub fn bench_mapping(
    graph: &WorkflowGraph,
    kind: laminar_dataflow::MappingKind,
    options: &RunOptions,
    reps: usize,
) -> BenchRun {
    let mapping = kind.build();
    mapping.execute(graph, options).expect("warm-up run");
    let stats = (0..reps.max(1)).map(|_| mapping.execute(graph, options).expect("bench run").stats).collect();
    BenchRun::median(kind, options, stats)
}

#[cfg(test)]
mod tests {
    use super::{paired_ratio, percentile, report_path, Flags};
    use std::cell::RefCell;
    use std::time::Duration;

    #[test]
    fn paired_ratio_swaps_the_leader_every_pair_and_takes_the_median() {
        let order = RefCell::new(String::new());
        let canned = |side: char, ms: &'static [u64]| {
            let order = &order;
            let mut next = ms.iter();
            move || {
                order.borrow_mut().push(side);
                Duration::from_millis(*next.next().expect("one duration per call"))
            }
        };
        // Ratios a/b per pair: 1, 3, 2, 5, 4 — median 3.
        let ratio = paired_ratio(5, canned('a', &[10, 30, 20, 50, 40]), canned('b', &[10; 5]));
        assert_eq!(order.borrow().as_str(), "abbaabbaab");
        assert_eq!(ratio, 3.0);
        // An even count takes the mean of the middle two: 1, 2, 4, 8 -> 3.
        order.borrow_mut().clear();
        let ratio = paired_ratio(4, canned('a', &[10, 20, 40, 80]), canned('b', &[10; 4]));
        assert_eq!(order.borrow().as_str(), "abbaabba");
        assert_eq!(ratio, 3.0);
    }

    #[test]
    fn flags_take_smoke_out_and_only_the_named_extras() {
        let parse =
            |args: &[&str]| Flags::from_args("demo", &["--baseline-dir"], args.iter().map(|a| a.to_string()));
        let plain = parse(&[]).unwrap();
        assert!(!plain.smoke);
        assert_eq!(plain.out, report_path("demo"));
        assert_eq!(plain.out, std::path::Path::new("target/bench/demo.json"));
        let all = parse(&["--smoke", "--out", "x/y.json", "--baseline-dir", "base"]).unwrap();
        assert!(all.smoke);
        assert_eq!(all.out, std::path::Path::new("x/y.json"));
        assert_eq!(all.value("--baseline-dir"), Some("base"));
        assert_eq!(all.value("--other"), None);
        assert!(parse(&["--per-tenant", "4"]).is_err(), "a removed flag is refused, not ignored");
        assert!(parse(&["--out"]).is_err(), "a value flag needs its value");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&s, 50.0), 5);
        assert_eq!(percentile(&s, 51.0), 6);
        assert_eq!(percentile(&s, 99.0), 10);
        assert_eq!(percentile(&s, 0.001), 1);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 99.0), 99);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
