//! The registry's linear scan: each search mode answered by walking the
//! user's entities in the store and normalizing or scoring each one. Every
//! function has its namesake's contract in [`laminar_registry::search`] —
//! same hits, same scores, same score-then-id order — which
//! `proptest_search` pins.

use laminar_embed::{cosine, model_by_name, Embedding, EmbeddingModel};
use laminar_registry::dao::Dao;
use laminar_registry::search::normalize_text;
use laminar_registry::{
    PeEntity, QueryType, Registry, RegistryError, SearchHit, SearchType, VecField, WorkflowEntity,
};
use std::sync::OnceLock;

/// Does `haystack` contain `needle` after normalization (partial matching,
/// paper §4.1)?
pub fn text_matches(needle: &str, haystack: &str) -> bool {
    let n = normalize_text(needle);
    !n.is_empty() && contains_normalized(&n, haystack)
}

/// `text_matches` with the needle already normalized — the per-entity
/// loop hoists the query normalization out instead of redoing it for
/// every haystack field.
fn contains_normalized(needle_norm: &str, haystack: &str) -> bool {
    normalize_text(haystack).contains(needle_norm)
}

/// Text search over a user's workflows — names, entry points and
/// descriptions — in id order, at most `limit`.
pub fn text_search_workflows(dao: &Dao, user_id: i64, query: &str, limit: usize) -> Vec<SearchHit> {
    let needle = normalize_text(query);
    if needle.is_empty() {
        return Vec::new();
    }
    dao.workflows_of_user(user_id)
        .filter(|wf| {
            [&wf.workflow_name, &wf.entry_point, &wf.description]
                .iter()
                .any(|f| contains_normalized(&needle, f))
        })
        .take(limit)
        .map(|wf| workflow_hit(wf, 1.0))
        .collect()
}

/// Text search over a user's PE names and descriptions, in id order, at
/// most `limit`.
pub fn text_search_pes(dao: &Dao, user_id: i64, query: &str, limit: usize) -> Vec<SearchHit> {
    let needle = normalize_text(query);
    if needle.is_empty() {
        return Vec::new();
    }
    dao.pes_of_user(user_id)
        .filter(|pe| {
            contains_normalized(&needle, &pe.pe_name) || contains_normalized(&needle, &pe.description)
        })
        .take(limit)
        .map(|pe| pe_hit(pe, 1.0))
        .collect()
}

/// Score every one of the user's PEs whose `field` vector has the query's
/// dimension, sort `(score desc, id asc)` and keep the best `limit`.
/// Vectors of another dimension are left out: they cannot be compared
/// with the query, and [`cosine`] asserts they are not.
pub fn ranked_pe_hits(
    dao: &Dao,
    user_id: i64,
    query: &Embedding,
    field: VecField,
    limit: usize,
) -> Vec<SearchHit> {
    let mut scored: Vec<(f64, &PeEntity)> = dao
        .pes_of_user(user_id)
        .filter(|pe| field.of(pe).dim() == query.dim())
        .map(|pe| (cosine(query, field.of(pe)) as f64, pe))
        .collect();
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.pe_id.cmp(&b.1.pe_id))
    });
    scored.truncate(limit);
    scored.into_iter().map(|(score, pe)| pe_hit(pe, score)).collect()
}

/// [`Registry::search_with`]'s dispatch, answered by the scan: the same
/// five arms, the same query embeddings, PE hits before workflow hits
/// when both are text-matched.
pub fn search(
    reg: &Registry,
    user: &str,
    query: &str,
    search_type: SearchType,
    query_type: QueryType,
    limit: usize,
) -> Result<Vec<SearchHit>, RegistryError> {
    let dao = reg.dao();
    let uid = dao.user_by_name(user)?.user_id;
    let [search_model, completion_model] = models();
    Ok(match (search_type, query_type) {
        (SearchType::Workflow, _) => text_search_workflows(dao, uid, query, limit),
        (SearchType::Pe, QueryType::Text) => {
            ranked_pe_hits(dao, uid, &search_model.embed_text(query), VecField::Desc, limit)
        }
        (SearchType::Pe | SearchType::Both, QueryType::Code) => {
            ranked_pe_hits(dao, uid, &completion_model.embed_code(query), VecField::Code, limit)
        }
        (SearchType::Both, QueryType::Text) => {
            let mut hits = text_search_pes(dao, uid, query, limit);
            hits.extend(text_search_workflows(dao, uid, query, limit));
            hits.truncate(limit);
            hits
        }
    })
}

/// The registry's two models, built once per process so a timed scan
/// measures the scan.
fn models() -> &'static [EmbeddingModel; 2] {
    static MODELS: OnceLock<[EmbeddingModel; 2]> = OnceLock::new();
    MODELS.get_or_init(|| {
        ["unixcoder-code-search", "ReACC-retriever-py"].map(|name| model_by_name(name).expect("model exists"))
    })
}

fn pe_hit(pe: &PeEntity, score: f64) -> SearchHit {
    let (name, description) = (pe.pe_name.clone(), pe.description.clone());
    SearchHit { id: pe.pe_id, name, kind: "pe", description, auto_described: pe.description_generated, score }
}

fn workflow_hit(wf: &WorkflowEntity, score: f64) -> SearchHit {
    let (name, description) = (wf.entry_point.clone(), wf.description.clone());
    SearchHit { id: wf.workflow_id, name, kind: "workflow", description, auto_described: false, score }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_matches_partially_after_normalization() {
        assert!(text_matches("prime", "isPrime"));
        assert!(text_matches("PRIME", "Workflow that prints random prime numbers"));
        assert!(!text_matches("prime", "wordcount"));
        assert!(!text_matches("", "anything"));
    }
}
