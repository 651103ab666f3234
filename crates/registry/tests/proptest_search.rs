//! Property: the incrementally-maintained search index answers every
//! query *identically* to the linear-scan oracle — same hits, same
//! (bit-exact) scores, same score-then-id order — no matter what
//! register / shared-owner link / remove history produced the registry,
//! and the index a WAL recovery rebuilds answers identically to the
//! live one it replaced.
//!
//! This is the read-path analogue of `proptest_interleaved` (which pins
//! the WAL journal itself) and the same differential-oracle pattern the
//! script VM uses against the tree-walker.
//!
//! The model-built corpus has one embedding dimension per space, so the
//! third property drives the DAO with hand-built entities of mixed
//! dimensions, where the index keeps one matrix per dimension, the
//! fourth with vectors sharing most of their buckets, which the index
//! keeps as dense columns, and the fifth with many PEs holding identical
//! model vectors, whose exact ties the index's floored selection must
//! break as the scan does.

use laminar_embed::Embedding;
use laminar_oracle::scan;
use laminar_registry::{
    encode_code, ranked_pe_hits, Dao, EntityKey, PeEntity, QueryType, Registry, SearchHit, SearchOptions,
    SearchType, Store, VecField, WalStore,
};
use proptest::prelude::*;
use std::path::PathBuf;

/// One registry mutation. Indices select from small pools so users
/// collide on names — exercising shared-owner links, duplicate
/// rejections and delete/re-register churn, all of which the index must
/// track per owner.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// (user, pe template, description template)
    RegisterPe(u8, u8, u8),
    RemovePe(u8, u8),
    RegisterWorkflow(u8, u8),
    RemoveWorkflow(u8, u8),
}

const USERS: u8 = 3;

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..USERS, 0u8..5, 0u8..4).prop_map(|(u, p, d)| Op::RegisterPe(u, p, d)),
        (0u8..USERS, 0u8..5).prop_map(|(u, p)| Op::RemovePe(u, p)),
        (0u8..USERS, 0u8..3).prop_map(|(u, w)| Op::RegisterWorkflow(u, w)),
        (0u8..USERS, 0u8..3).prop_map(|(u, w)| Op::RemoveWorkflow(u, w)),
    ]
}

/// Identical source per template index, so re-registration by another
/// user takes the shared-owner link path instead of erroring.
fn pe_source(idx: u8) -> String {
    format!("pe Prop{idx} : iterative {{ input x; output output; process {{ emit(x * {idx} + 1); }} }}")
}

/// Some templates carry an explicit description (distinct token mixes),
/// some trigger the auto-summarizer.
fn description(idx: u8) -> Option<&'static str> {
    match idx {
        0 => Some("checks prime numbers quickly"),
        1 => Some("counts the words of a stream"),
        2 => Some("emits scaled sensor values"),
        _ => None,
    }
}

fn wf_source(idx: u8) -> String {
    format!(
        r#"
        pe WfProp{idx} : producer {{ output output; process {{ emit(iteration + {idx}); }} }}
        workflow PropFlow{idx} {{ doc "prime stream flow {idx}"; nodes {{ p = WfProp{idx}; }} }}
    "#
    )
}

fn apply(reg: &mut Registry, op: Op) {
    // Outcomes are ignored: duplicates and not-founds are legal under
    // colliding scripts. The property is about whatever state results.
    match op {
        Op::RegisterPe(u, p, d) => {
            let _ = reg.register_pe(&format!("user{u}"), &pe_source(p), description(d));
        }
        Op::RemovePe(u, p) => {
            let _ = reg.remove_pe(&format!("user{u}"), &EntityKey::Name(format!("Prop{p}")));
        }
        Op::RegisterWorkflow(u, w) => {
            let _ = reg.register_workflow(&format!("user{u}"), &wf_source(w), &format!("pflow{w}"), None);
        }
        Op::RemoveWorkflow(u, w) => {
            let _ = reg.remove_workflow(&format!("user{u}"), &EntityKey::Name(format!("pflow{w}")));
        }
    }
}

/// Query pool spanning the interesting shapes: single-token (vocabulary
/// scan), multi-token (cached-doc scan), code snippets (vector path),
/// punctuation (normalization), empty, and no-match.
const QUERIES: [&str; 8] = [
    "prime",
    "prop",
    "prime numbers",
    "scaled sensor",
    "emit(x * 2 + 1)",
    "Prop-3!",
    "",
    "zzz-no-such-token",
];

const MODES: [(SearchType, QueryType); 5] = [
    (SearchType::Workflow, QueryType::Text),
    (SearchType::Pe, QueryType::Text),
    (SearchType::Pe, QueryType::Code),
    (SearchType::Both, QueryType::Text),
    (SearchType::Both, QueryType::Code),
];

/// Every (user, query, mode, limit) answered by the index vs the scan.
fn assert_index_matches_scan(reg: &Registry) {
    for u in 0..USERS {
        let user = format!("user{u}");
        for query in QUERIES {
            for (st, qt) in MODES {
                for limit in [2usize, 25] {
                    let indexed =
                        reg.search_with(&user, query, st, qt, &SearchOptions { limit }).unwrap().hits;
                    let scanned = scan::search(reg, &user, query, st, qt, limit).unwrap();
                    prop_assert_eq!(
                        &indexed,
                        &scanned,
                        "index != scan for user {} query {:?} mode {:?}/{:?} limit {}",
                        user,
                        query,
                        st,
                        qt,
                        limit
                    );
                }
            }
        }
    }
}

/// All search answers for a registry, used to compare live vs recovered.
fn all_answers(reg: &Registry) -> Vec<(String, Vec<SearchHit>)> {
    let mut out = Vec::new();
    for u in 0..USERS {
        let user = format!("user{u}");
        for query in QUERIES {
            for (st, qt) in MODES {
                let hits = reg.search(&user, query, st, qt).unwrap();
                out.push((format!("{user}/{query}/{st:?}/{qt:?}"), hits));
            }
        }
    }
    out
}

/// One DAO mutation over two users and hand-built PEs whose description
/// and code vectors are each of dimension 2 or 3.
#[derive(Debug, Clone)]
enum VecOp {
    /// A new PE owned by `owner`.
    Insert { owner: i64, desc: Vec<f32>, code: Vec<f32> },
    /// `user` becomes an owner of the `pick`-th live PE (a no-op link
    /// when they already are).
    Link { user: i64, pick: usize },
    /// `user` gives up the `pick`-th PE they own: an unlink, or the row's
    /// deletion when they were its last owner.
    Remove { user: i64, pick: usize },
}

/// Coordinates in {-2, -1.5, ..., 2}: zero vectors, parallel vectors and
/// equal scores all occur, so ties must break the same way on both paths.
fn arb_vector() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((-4i64..5).prop_map(|x| x as f32 * 0.5), 2..4)
}

fn arb_vec_op() -> impl Strategy<Value = VecOp> {
    vec_ops(arb_vector(), arb_vector())
}

/// Inserts of PEs whose description and code vectors `desc` and `code`
/// draw, links and removes, equally often.
fn vec_ops(
    desc: impl Strategy<Value = Vec<f32>> + 'static,
    code: impl Strategy<Value = Vec<f32>> + 'static,
) -> impl Strategy<Value = VecOp> {
    prop_oneof![
        (1i64..3, desc, code).prop_map(|(owner, desc, code)| VecOp::Insert { owner, desc, code }),
        (1i64..3, 0usize..16).prop_map(|(user, pick)| VecOp::Link { user, pick }),
        (1i64..3, 0usize..16).prop_map(|(user, pick)| VecOp::Remove { user, pick }),
    ]
}

fn apply_vec_op(dao: &mut Dao, step: usize, op: &VecOp) {
    match op {
        VecOp::Insert { owner, desc, code } => {
            let name = format!("Mixed{step}");
            let pe = PeEntity {
                pe_id: 0,
                pe_code: encode_code(&format!("pe {name} : producer {{ output o; process {{ emit(1); }} }}")),
                pe_name: name,
                description: String::new(),
                description_generated: false,
                pe_imports: vec![],
                code_embedding: Embedding::from_dense(code),
                desc_embedding: Embedding::from_dense(desc),
            };
            dao.insert_pe(pe, *owner).unwrap();
        }
        VecOp::Link { user, pick } => {
            let live: Vec<i64> = dao.store.pes.scan().map(|pe| pe.pe_id).collect();
            if !live.is_empty() {
                dao.link_user_pe(*user, live[pick % live.len()]).unwrap();
            }
        }
        VecOp::Remove { user, pick } => {
            let owned: Vec<i64> = dao.pes_of_user(*user).map(|pe| pe.pe_id).collect();
            if !owned.is_empty() {
                dao.remove_pe_for_user(*user, owned[pick % owned.len()]).unwrap();
            }
        }
    }
}

/// Every (user, space, query dimension, limit) ranked by the index and by
/// the scan: the same hits, and scores equal to the bit.
fn assert_ranked_index_matches_scan(dao: &Dao) {
    assert_ranked_queries_match_scan(dao, &[vec![0.5], vec![1.0, -0.5], vec![0.5, 1.0, -1.0]], &[1, 25]);
}

/// Every (user, space, query, limit) ranked by the index and by the scan:
/// the same hits, and scores equal to the bit.
fn assert_ranked_queries_match_scan(dao: &Dao, queries: &[Vec<f32>], limits: &[usize]) {
    for user in 1..3 {
        for field in [VecField::Desc, VecField::Code] {
            for query in queries {
                let query = Embedding::from_dense(query);
                for &limit in limits {
                    let ranked = |force_scan| {
                        let hits = if force_scan {
                            scan::ranked_pe_hits(dao, user, &query, field, limit)
                        } else {
                            ranked_pe_hits(dao, user, &query, field, &SearchOptions { limit })
                        };
                        let bits: Vec<(i64, u64)> = hits.iter().map(|h| (h.id, h.score.to_bits())).collect();
                        (hits, bits)
                    };
                    prop_assert_eq!(
                        ranked(false),
                        ranked(true),
                        "index != scan for user {} {:?} query {:?} limit {}",
                        user,
                        field,
                        query,
                        limit
                    );
                }
            }
        }
    }
}

/// Dimension of the shared-bucket property's vectors.
const SHARED_DIM: usize = 6;

/// A vector of [`SHARED_DIM`] whose bucket `b` is stored with probability
/// about `(8 - b) / 8`: the low buckets are held by nearly every vector
/// and the high ones by about a third, so under churn buckets cross both
/// the half that makes a column and the quarter that makes a list again.
/// `-0.0` weights occur, and are stored.
fn arb_shared_vector() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((0usize..8, -5i64..5), SHARED_DIM..SHARED_DIM + 1).prop_map(|coords| {
        let weight = |(b, (keep, x)): (usize, (usize, i64))| match x {
            _ if keep + b >= 8 => 0.0,
            -5 => -0.0,
            x => x as f32 * 0.5,
        };
        coords.into_iter().enumerate().map(weight).collect()
    })
}

fn tmpdir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("laminar-search-{tag}-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized mutation scripts; the index must equal the scan both
    /// mid-history and at the end.
    #[test]
    fn indexed_search_equals_linear_scan(script in prop::collection::vec(arb_op(), 1..40)) {
        let mut reg = Registry::in_memory();
        for u in 0..USERS {
            reg.register_user(&format!("user{u}"), "password").unwrap();
        }
        let midpoint = script.len() / 2;
        for (i, op) in script.into_iter().enumerate() {
            apply(&mut reg, op);
            if i + 1 == midpoint {
                assert_index_matches_scan(&reg);
            }
        }
        assert_index_matches_scan(&reg);
    }

    /// A recovered registry's rebuilt index answers every query exactly
    /// as the live one did — and still matches its own scan oracle.
    #[test]
    fn wal_replay_rebuilds_identical_index(
        script in prop::collection::vec(arb_op(), 1..25),
        case in 0u64..1_000_000,
    ) {
        let dir = tmpdir("replay", case);
        let before = {
            let mut reg = Registry::open(&dir).unwrap();
            for u in 0..USERS {
                reg.register_user(&format!("user{u}"), "password").unwrap();
            }
            for op in script {
                apply(&mut reg, op);
            }
            all_answers(&reg)
        };
        let reopened = Registry::open(&dir).unwrap();
        let after = all_answers(&reopened);
        prop_assert_eq!(before, after, "recovered index diverged from the live one");
        assert_index_matches_scan(&reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Mixed embedding dimensions across insert / shared-link / unlink /
    /// remove histories — swap-removes inside one dimension's matrix while
    /// another's stays put — checked after every step.
    #[test]
    fn mixed_dimension_ranking_equals_linear_scan(script in prop::collection::vec(arb_vec_op(), 1..40)) {
        let mut dao = Dao::new(Store::new(), WalStore::ephemeral());
        for (step, op) in script.iter().enumerate() {
            apply_vec_op(&mut dao, step, op);
            assert_ranked_index_matches_scan(&dao);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Vectors sharing most of their buckets, so each user's buckets turn
    /// dense columns and back into lists under insert / shared-link /
    /// unlink / remove churn, and freed slots are reused: every ranking,
    /// checked after every step, equals the scan's, scores to the bit.
    #[test]
    fn shared_bucket_ranking_equals_linear_scan(
        script in prop::collection::vec(vec_ops(arb_shared_vector(), arb_shared_vector()), 1..60),
    ) {
        let queries = [
            vec![1.0; SHARED_DIM],
            vec![0.5, -1.0, 0.0, 2.0, -0.0, -0.5],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.5],
            vec![-1.0, 0.0, 0.5, 0.0, 1.0, 0.0],
        ];
        let mut dao = Dao::new(Store::new(), WalStore::ephemeral());
        for (step, op) in script.iter().enumerate() {
            apply_vec_op(&mut dao, step, op);
            assert_ranked_queries_match_scan(&dao, &queries, &[1, 2, 25]);
        }
    }
}

/// Descriptions for the tie-heavy property: few, so many PEs hold the
/// same description vector and tie exactly.
const TIE_TEXTS: [&str; 3] = ["checks prime numbers quickly", "counts the words of a stream", "prime stream"];

/// PE bodies for the tie-heavy property, likewise shared.
const TIE_BODIES: [&str; 2] = ["let y = x * 2; emit(y);", "emit(x * 3 + 1);"];

/// `e` as its dense components.
fn dense(e: &Embedding) -> Vec<f32> {
    let mut values = vec![0.0; e.dim()];
    for &(bucket, w) in e.entries() {
        values[bucket as usize] = w;
    }
    values
}

/// The registry's two models' vectors of [`TIE_TEXTS`] (description
/// space) and of [`TIE_BODIES`] (code space).
fn tie_vectors() -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let model = |name| laminar_embed::model_by_name(name).unwrap();
    let (search, completion) = (model("unixcoder-code-search"), model("ReACC-retriever-py"));
    (
        TIE_TEXTS.iter().map(|t| dense(&search.embed_text(t))).collect(),
        TIE_BODIES.iter().map(|b| dense(&completion.embed_code(b))).collect(),
    )
}

/// Inserts (two in three ops) of PEs whose description and code vectors
/// are drawn from [`tie_vectors`], links and removes.
fn tie_ops() -> impl Strategy<Value = VecOp> {
    let (texts, bodies) = tie_vectors();
    (0u8..6, 1i64..3, 0..texts.len(), 0..bodies.len(), 0usize..64).prop_map(
        move |(kind, user, t, b, pick)| match kind {
            0..=3 => VecOp::Insert { owner: user, desc: texts[t].clone(), code: bodies[b].clone() },
            4 => VecOp::Link { user, pick },
            _ => VecOp::Remove { user, pick },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Many PEs with identical descriptions or code, so scores tie exactly
    /// at the top, at the `limit`-th place and across the index's blocks
    /// of slots, under insert / shared-link / unlink / remove churn:
    /// every ranking, checked every fourth step and at the end, equals
    /// the scan's, ties broken toward the lower id, scores to the bit.
    #[test]
    fn tie_heavy_ranking_equals_linear_scan(script in prop::collection::vec(tie_ops(), 1..120)) {
        let (texts, bodies) = tie_vectors();
        let model = |name| laminar_embed::model_by_name(name).unwrap();
        let queries: Vec<Vec<f32>> = texts
            .into_iter()
            .chain(bodies)
            .chain([dense(&model("unixcoder-code-search").embed_text("prime"))])
            .chain([dense(&model("ReACC-retriever-py").embed_code("emit(x"))])
            .collect();
        let mut dao = Dao::new(Store::new(), WalStore::ephemeral());
        let steps = script.len();
        for (step, op) in script.iter().enumerate() {
            apply_vec_op(&mut dao, step, op);
            if step % 4 == 3 || step + 1 == steps {
                assert_ranked_queries_match_scan(&dao, &queries, &[1, 2, 25]);
            }
        }
    }
}

/// PE names for the needle property: underscores split one name into
/// several tokens.
const NEEDLE_PE_NAMES: [&str; 4] = ["Gram_Scan0", "IsPrime_Fast", "Aaa_Aa_A", "SensorTap"];

/// Workflow entry points for the needle property.
const NEEDLE_ENTRY_POINTS: [&str; 3] = ["gram-flow", "Größe_Flow", "prime.stream"];

/// Descriptions for the needle property: non-ASCII letters (which
/// normalization keeps but does not lowercase), a token repeated, tokens
/// whose trigrams repeat and one- and two-byte tokens.
const NEEDLE_TEXTS: [&str; 5] = [
    "checks prime numbers quickly",
    "Zählt die Wörter eines Stroms: Größe, Maß!",
    "naïve café ÉTÉ 東京 stream-stream",
    "aaaaaaaa aaa aa a",
    "scaled sensor values in windows",
];

/// One mutation of the needle property's registry.
#[derive(Debug, Clone, Copy)]
enum NeedleOp {
    /// (user, name, description)
    RegisterPe(u8, u8, u8),
    RemovePe(u8, u8),
    /// (user, entry point, description)
    RegisterWorkflow(u8, u8, u8),
    RemoveWorkflow(u8, u8),
}

fn arb_needle_op() -> impl Strategy<Value = NeedleOp> {
    let (names, entries, texts) =
        (NEEDLE_PE_NAMES.len() as u8, NEEDLE_ENTRY_POINTS.len() as u8, NEEDLE_TEXTS.len() as u8);
    prop_oneof![
        (0u8..USERS, 0u8..names, 0u8..texts).prop_map(|(u, n, t)| NeedleOp::RegisterPe(u, n, t)),
        (0u8..USERS, 0u8..names).prop_map(|(u, n)| NeedleOp::RemovePe(u, n)),
        (0u8..USERS, 0u8..entries, 0u8..texts).prop_map(|(u, e, t)| NeedleOp::RegisterWorkflow(u, e, t)),
        (0u8..USERS, 0u8..entries).prop_map(|(u, e)| NeedleOp::RemoveWorkflow(u, e)),
    ]
}

fn apply_needle_op(reg: &mut Registry, op: NeedleOp) {
    // As in `apply`, duplicates and not-founds are legal outcomes.
    match op {
        NeedleOp::RegisterPe(u, n, t) => {
            let name = NEEDLE_PE_NAMES[n as usize];
            let source =
                format!("pe {name} : iterative {{ input x; output output; process {{ emit(x + 1); }} }}");
            let _ = reg.register_pe(&format!("user{u}"), &source, Some(NEEDLE_TEXTS[t as usize]));
        }
        NeedleOp::RemovePe(u, n) => {
            let _ = reg.remove_pe(&format!("user{u}"), &EntityKey::Name(NEEDLE_PE_NAMES[n as usize].into()));
        }
        NeedleOp::RegisterWorkflow(u, e, t) => {
            let source = format!(
                "pe NeedleWf{e} : producer {{ output output; process {{ emit(iteration); }} }}
                 workflow NeedleFlow{e} {{ nodes {{ p = NeedleWf{e}; }} }}"
            );
            let entry = NEEDLE_ENTRY_POINTS[e as usize];
            let _ =
                reg.register_workflow(&format!("user{u}"), &source, entry, Some(NEEDLE_TEXTS[t as usize]));
        }
        NeedleOp::RemoveWorkflow(u, e) => {
            let key = EntityKey::Name(NEEDLE_ENTRY_POINTS[e as usize].into());
            let _ = reg.remove_workflow(&format!("user{u}"), &key);
        }
    }
}

/// The bytes of `text` from about `at` for about `len`, both moved
/// forward to character boundaries.
fn slice_of(text: &str, at: usize, len: usize) -> &str {
    let boundary = |mut i: usize| {
        while !text.is_char_boundary(i) {
            i += 1;
        }
        i
    };
    let start = boundary(at % text.len());
    &text[start..boundary((start + len).min(text.len()))]
}

/// Needles cut from the registered names and texts: any length (often
/// spanning tokens), one or two bytes, from the non-ASCII texts only, and
/// absent ones — a cut followed by a pair that occurs nowhere.
fn arb_needle() -> impl Strategy<Value = String> {
    fn sources() -> Vec<&'static str> {
        NEEDLE_PE_NAMES.iter().chain(&NEEDLE_ENTRY_POINTS).chain(&NEEDLE_TEXTS).copied().collect()
    }
    let cut = |texts: Vec<&'static str>, lens: std::ops::Range<usize>| {
        (0..texts.len(), any::<usize>(), lens)
            .prop_map(move |(t, at, len)| slice_of(texts[t], at, len).to_string())
    };
    prop_oneof![
        cut(sources(), 1..16),
        cut(sources(), 1..3),
        cut(vec![NEEDLE_TEXTS[1], NEEDLE_TEXTS[2], NEEDLE_ENTRY_POINTS[1]], 1..10),
        cut(sources(), 1..12).prop_map(|needle| needle + "qj"),
    ]
}

/// Every (user, needle, text mode, limit) answered by the index vs the scan.
fn assert_needles_match_scan(reg: &Registry, needles: &[String]) {
    for u in 0..USERS {
        let user = format!("user{u}");
        for needle in needles {
            for st in [SearchType::Both, SearchType::Workflow] {
                for limit in [1usize, 2, 25] {
                    let opts = SearchOptions { limit };
                    let indexed = reg.search_with(&user, needle, st, QueryType::Text, &opts).unwrap().hits;
                    let scanned = scan::search(reg, &user, needle, st, QueryType::Text, limit).unwrap();
                    prop_assert_eq!(
                        &indexed,
                        &scanned,
                        "index != scan for user {} needle {:?} mode {:?} limit {}",
                        user,
                        needle,
                        st,
                        limit
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Text needles cut from what the registry holds — spanning tokens,
    /// shorter than a trigram, non-ASCII or absent — answer exactly as the
    /// scan does under register / shared-owner link / remove churn,
    /// checked every fourth step and at the end.
    #[test]
    fn text_needles_equal_linear_scan(
        script in prop::collection::vec(arb_needle_op(), 1..40),
        needles in prop::collection::vec(arb_needle(), 12..13),
    ) {
        let mut reg = Registry::in_memory();
        for u in 0..USERS {
            reg.register_user(&format!("user{u}"), "password").unwrap();
        }
        let steps = script.len();
        for (i, op) in script.into_iter().enumerate() {
            apply_needle_op(&mut reg, op);
            if i % 4 == 3 || i + 1 == steps {
                assert_needles_match_scan(&reg, &needles);
            }
        }
    }
}
