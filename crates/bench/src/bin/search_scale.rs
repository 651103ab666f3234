//! `search_scale`: the registry-search benchmark.
//!
//! Registers a large multi-tenant PE corpus (100 tenants x 1000 PEs =
//! 100k PEs on the full run), then answers the same query pool twice per
//! mode — once through the search index, once through the linear-scan
//! oracle (`laminar_oracle::scan`) — and reports p50/p99 wall latency plus the
//! indexed-vs-scan speedup for the semantic and code-completion (embedding
//! top-k) and text (trigram-indexed tokens) paths. It prices the incremental maintenance the
//! write path pays with the median of `reps` timed `SearchIndex::build`s
//! over the finished corpus's store: the same `add_pe` per owner link
//! that registration runs, divided by the links. Every measured query pair is also compared
//! hit-for-hit, so the run doubles as a large-corpus differential check.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin search_scale             # target/bench/search_scale.json
//! cargo run -p laminar-bench --release --bin search_scale -- --smoke # quick CI gate
//! ```
//!
//! Full runs enforce the acceptance gates in-process (indexed p99 under
//! 1ms, text speedup >= 5x, index maintenance <= 15us per PE,
//! differential match); smoke runs only emit the report, which
//! `bench_check` then gates with looser smoke-sized bounds.
//!
//! The semantic and code speedups are reported but not gated. Both paths
//! compute the same score, `laminar_embed::cosine`'s ascending sum over the
//! buckets a PE shares with the query: the scan merges the query with each
//! entity's sparse vector and recomputes both norms, the index reads only
//! the postings of the query's buckets and caches the norms. Code queries
//! rank over the code embeddings, where the corpus's near-identical PE
//! bodies fill dozens of buckets in most PEs: the buckets the index keeps
//! as dense columns. The text scan
//! still normalizes every field of every entity per query, so its floor
//! stays.

use laminar_bench::{percentile, Flags};
use laminar_json::Value;
use laminar_oracle::scan;
use laminar_registry::{QueryType, Registry, SearchIndex, SearchOptions, SearchType};
use std::time::Instant;

/// Vocabulary the generated descriptions draw from; queries reuse it so
/// both common tokens (fat posting lists) and rare ones are exercised.
const WORDS: [&str; 24] = [
    "prime",
    "stream",
    "sensor",
    "counter",
    "filter",
    "window",
    "median",
    "fourier",
    "anomaly",
    "threshold",
    "merge",
    "split",
    "average",
    "token",
    "packet",
    "image",
    "matrix",
    "signal",
    "batch",
    "alert",
    "cluster",
    "fft",
    // Rare tail: only every 97th / 89th PE mentions these.
    "quantile",
    "wavelet",
];

/// Semantic queries (SearchType::Pe + QueryType::Text): embedded, then
/// ranked by cosine over the stored description embeddings.
const SEMANTIC_QUERIES: [&str; 6] = [
    "prime stream processor",
    "detects sensor anomaly above a threshold",
    "sliding window median filter",
    "fourier transform of a signal batch",
    "merge and split packet clusters",
    "wavelet quantile summary",
];

/// Code-completion queries (SearchType::Pe + QueryType::Code): embedded by
/// the completion model, then ranked by cosine over the stored code
/// embeddings. Fragments of the corpus's own bodies and unrelated code.
const CODE_QUERIES: [&str; 4] =
    ["emit(x * 3 + 1)", "emit(x", "let y = x * 2; emit(y)", "let total = sum(values)"];

/// Text queries (SearchType::Both + QueryType::Text): normalized
/// substring match over names, entry points and descriptions. Mix of
/// single-token, multi-token (pieces intersected, then verified),
/// token-spanning (`ime stream` ends inside one token and starts
/// another), two-byte (shorter than a trigram: a token scan),
/// name-fragment and no-match shapes — `processor prime` has both pieces
/// in every tenant but never in that order.
const TEXT_QUERIES: [&str; 9] = [
    "prime",
    "sensor anomaly",
    "wavelet",
    "scale0x1",
    "stream window",
    "zzz-none",
    "ime stream",
    "ft",
    "processor prime",
];

fn pe_name(tenant: usize, i: usize) -> String {
    format!("Scale{tenant}x{i}")
}

fn pe_source(tenant: usize, i: usize) -> String {
    format!(
        "pe {} : iterative {{ input x; output output; process {{ emit(x * {} + {}); }} }}",
        pe_name(tenant, i),
        i % 7 + 1,
        tenant
    )
}

/// Deterministic three-word description, plus a rare tail word on a
/// sparse subset so some posting lists stay short.
fn description(tenant: usize, i: usize) -> String {
    let a = WORDS[(i * 7 + tenant) % 22];
    let b = WORDS[(i * 13 + tenant * 3) % 22];
    let c = WORDS[(i * 5 + tenant * 11) % 22];
    match i {
        i if i % 97 == 0 => format!("{a} {b} {c} quantile processor"),
        i if i % 89 == 0 => format!("{a} {b} {c} wavelet processor"),
        _ => format!("{a} {b} {c} processor"),
    }
}

fn build_corpus(reg: &mut Registry, tenants: usize, per_tenant: usize) {
    for t in 0..tenants {
        let user = format!("tenant{t}");
        reg.register_user(&user, "password").expect("register tenant");
        for i in 0..per_tenant {
            reg.register_pe(&user, &pe_source(t, i), Some(&description(t, i))).expect("register pe");
        }
    }
}

struct ModeStats {
    indexed_us: Vec<u64>,
    /// Ranking-only slice of the indexed wall time (`rank_us` on the
    /// wire) — separates index cost from query-embedding cost.
    indexed_rank_us: Vec<u64>,
    scan_us: Vec<u64>,
    mismatches: usize,
}

impl ModeStats {
    fn into_value(mut self) -> Value {
        self.indexed_us.sort_unstable();
        self.indexed_rank_us.sort_unstable();
        self.scan_us.sort_unstable();
        let speedup =
            percentile(&self.scan_us, 50.0) as f64 / percentile(&self.indexed_us, 50.0).max(1) as f64;
        let mut v = Value::Null;
        v.set("indexed_p50_us", percentile(&self.indexed_us, 50.0) as i64)
            .set("indexed_p99_us", percentile(&self.indexed_us, 99.0) as i64)
            .set("indexed_rank_p50_us", percentile(&self.indexed_rank_us, 50.0) as i64)
            .set("indexed_rank_p99_us", percentile(&self.indexed_rank_us, 99.0) as i64)
            .set("scan_p50_us", percentile(&self.scan_us, 50.0) as i64)
            .set("scan_p99_us", percentile(&self.scan_us, 99.0) as i64)
            .set("speedup", (speedup * 100.0).round() / 100.0);
        v
    }
}

/// Time every (sample user, query) pair through both paths, checking the
/// hits match exactly. Each pair is measured `reps` times and the best
/// wall time kept (the corpus is immutable during measurement, so the
/// minimum is the honest cost). Each path's reps run consecutively so
/// both are measured at their own steady state: a scan rep streams the
/// user's entire row set and would otherwise evict the index's postings
/// from cache right before every indexed rep — an artifact of the
/// interleaving, not a cost either path pays in serving.
fn measure_mode(
    reg: &Registry,
    sample_users: &[String],
    queries: &[&str],
    st: SearchType,
    qt: QueryType,
    reps: usize,
) -> ModeStats {
    let mut stats =
        ModeStats { indexed_us: Vec::new(), indexed_rank_us: Vec::new(), scan_us: Vec::new(), mismatches: 0 };
    let opts = SearchOptions::default();
    for user in sample_users {
        for &query in queries {
            let mut best = (u64::MAX, u64::MAX, u64::MAX);
            let mut indexed_hits = Vec::new();
            for _ in 0..reps {
                let t0 = Instant::now();
                let indexed = reg.search_with(user, query, st, qt, &opts).expect("indexed search");
                best.0 = best.0.min(t0.elapsed().as_micros() as u64);
                best.2 = best.2.min(indexed.rank_us);
                indexed_hits = indexed.hits;
            }
            let mut matched = true;
            for _ in 0..reps {
                let t0 = Instant::now();
                let scanned = scan::search(reg, user, query, st, qt, opts.limit).expect("scan search");
                best.1 = best.1.min(t0.elapsed().as_micros() as u64);
                matched &= indexed_hits == scanned;
            }
            stats.indexed_us.push(best.0);
            stats.scan_us.push(best.1);
            stats.indexed_rank_us.push(best.2);
            if !matched {
                stats.mismatches += 1;
                eprintln!("  MISMATCH: user {user} query {query:?} mode {st:?}/{qt:?}");
            }
        }
    }
    stats
}

/// Index maintenance may cost at most this much per PE link (µs), full
/// and smoke runs alike: the cost is per PE (one tokenisation, ~150 new
/// postings), not per corpus.
const INDEX_MAINTENANCE_CEILING_US: f64 = 15.0;

/// Index maintenance per owner link (µs): the median of `reps` timed
/// rebuilds of the whole index from the finished corpus's store, each of
/// which runs exactly the `add_pe` per link that registration runs,
/// divided by the links. One rebuild is a few milliseconds, so a single
/// timing reads whatever else the machine did in them; the median does not.
fn maintenance_per_pe_us(reg: &Registry, reps: usize) -> (f64, usize) {
    let store = &reg.dao().store;
    let mut rebuild_ns: Vec<u64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            // Bound, not `_`: the index is dropped after the clock stops.
            let _index = std::hint::black_box(SearchIndex::build(store));
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    rebuild_ns.sort_unstable();
    let links = store.user_pes.len();
    (percentile(&rebuild_ns, 50.0) as f64 / 1e3 / links.max(1) as f64, links)
}

fn main() {
    let flags = Flags::parse("search_scale", &[]);
    let smoke = flags.smoke;

    let (tenants, per_tenant) = if smoke { (8, 250) } else { (100, 1000) };
    let reps = if smoke { 3 } else { 5 };
    eprintln!(
        "search_scale: {tenants} tenants x {per_tenant} PEs = {} PEs, best of {reps}",
        tenants * per_tenant
    );

    let mut reg = Registry::in_memory();
    let t0 = Instant::now();
    build_corpus(&mut reg, tenants, per_tenant);
    eprintln!("  corpus registered in {:.1?}", t0.elapsed());

    // Sample users spread across the tenant range: search cost is
    // per-tenant, so any tenant is representative; several guard against
    // per-user layout luck.
    let sample: Vec<String> =
        (0..tenants.min(8)).map(|k| format!("tenant{}", k * tenants / tenants.min(8))).collect();

    let semantic = measure_mode(&reg, &sample, &SEMANTIC_QUERIES, SearchType::Pe, QueryType::Text, reps);
    let code = measure_mode(&reg, &sample, &CODE_QUERIES, SearchType::Pe, QueryType::Code, reps);
    let text = measure_mode(&reg, &sample, &TEXT_QUERIES, SearchType::Both, QueryType::Text, reps);
    let (maintenance_per_pe, pe_links) = maintenance_per_pe_us(&reg, reps);
    let differential_match = semantic.mismatches == 0 && code.mismatches == 0 && text.mismatches == 0;

    let semantic_v = semantic.into_value();
    let code_v = code.into_value();
    let text_v = text.into_value();
    for (name, v) in [("semantic", &semantic_v), ("code", &code_v), ("text", &text_v)] {
        eprintln!(
            "  {:<8} indexed p50 {:>6}us p99 {:>6}us | scan p50 {:>7}us p99 {:>7}us | speedup {:>6.2}x",
            name,
            v["indexed_p50_us"].as_i64().unwrap(),
            v["indexed_p99_us"].as_i64().unwrap(),
            v["scan_p50_us"].as_i64().unwrap(),
            v["scan_p99_us"].as_i64().unwrap(),
            v["speedup"].as_f64().unwrap(),
        );
    }
    eprintln!(
        "  index maintenance {maintenance_per_pe:.1}us/pe over {pe_links} links | differential {}",
        if differential_match { "MATCH" } else { "MISMATCH" }
    );

    let mut config = Value::Null;
    config
        .set("tenants", tenants as i64)
        .set("pes_per_tenant", per_tenant as i64)
        .set("total_pes", (tenants * per_tenant) as i64)
        .set("semantic_queries", (sample.len() * SEMANTIC_QUERIES.len()) as i64)
        .set("code_queries", (sample.len() * CODE_QUERIES.len()) as i64)
        .set("text_queries", (sample.len() * TEXT_QUERIES.len()) as i64)
        .set("smoke", smoke);
    let mut registration = Value::Null;
    registration
        .set("maintenance_per_pe_us", (maintenance_per_pe * 10.0).round() / 10.0)
        .set("pe_links", pe_links as i64);
    let mut report = Value::Null;
    report
        .set("report", "search_scale")
        .set("config", config)
        .set("semantic", semantic_v)
        .set("code", code_v)
        .set("text", text_v)
        .set("registration", registration)
        .set("differential_match", differential_match);

    flags.write_report(&report);

    // The acceptance gates, enforced only on the full configuration: the
    // smoke corpus is too small for the text speedup floor to be
    // meaningful there (bench_check applies looser smoke bounds instead).
    if !smoke {
        let gate = |name: &str, ok: bool| {
            if !ok {
                eprintln!("search_scale: GATE FAILED: {name}");
                std::process::exit(1);
            }
        };
        gate("differential_match", differential_match);
        gate("semantic indexed p99 < 1000us", report["semantic"]["indexed_p99_us"].as_i64().unwrap() < 1000);
        gate("text indexed p99 < 1000us", report["text"]["indexed_p99_us"].as_i64().unwrap() < 1000);
        gate("text speedup >= 5x", report["text"]["speedup"].as_f64().unwrap() >= 5.0);
        gate("index maintenance <= 15us per PE", maintenance_per_pe <= INDEX_MAINTENANCE_CEILING_US);
    }
}
