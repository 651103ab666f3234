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
//! dimensions, where the index keeps one matrix per dimension.

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
    prop_oneof![
        (1i64..3, arb_vector(), arb_vector()).prop_map(|(owner, desc, code)| VecOp::Insert {
            owner,
            desc,
            code
        }),
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
    let queries = [vec![0.5], vec![1.0, -0.5], vec![0.5, 1.0, -1.0]];
    for user in 1..3 {
        for field in [VecField::Desc, VecField::Code] {
            for query in &queries {
                let query = Embedding::from_dense(query);
                for limit in [1usize, 25] {
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
                        "index != scan for user {} {:?} dim {} limit {}",
                        user,
                        field,
                        query.dim(),
                        limit
                    );
                }
            }
        }
    }
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
