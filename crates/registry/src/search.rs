//! The three registry search modes (paper §4), each served from the DAO's
//! incrementally-maintained [`SearchIndex`](crate::index::SearchIndex):
//! trigram-indexed tokens for text, per-bucket postings of the sparse
//! embeddings for semantic and code search. Only the winners are
//! materialized into hits, through `pe_hit` / `workflow_hit`.
//!
//! The linear scan the index replaced is the differential oracle these
//! functions are held to — same hits, same scores to the bit (both rank
//! with [`laminar_embed::cosine`]'s summation order), same score-then-id
//! order. It lives in the dev-only `laminar-oracle` crate, beside the
//! suites that run it, so no product build links it.

use crate::dao::Dao;
use crate::entities::{PeEntity, WorkflowEntity};
pub(crate) use crate::index::VecField;
use laminar_embed::Embedding;

/// What to search over (the client's `search_type` parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchType {
    /// Processing Elements only.
    Pe,
    /// Workflows only.
    Workflow,
    /// Both (the default).
    Both,
}

impl SearchType {
    /// Parse the client-facing string.
    pub fn parse(s: &str) -> Option<SearchType> {
        Some(match s.to_ascii_lowercase().as_str() {
            "pe" => SearchType::Pe,
            "workflow" => SearchType::Workflow,
            "both" => SearchType::Both,
            _ => return None,
        })
    }

    /// Client-facing string.
    pub fn as_str(&self) -> &'static str {
        match self {
            SearchType::Pe => "pe",
            SearchType::Workflow => "workflow",
            SearchType::Both => "both",
        }
    }
}

/// How to interpret the query (the client's `query_type` parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryType {
    /// Natural-language query: semantic search over descriptions for PEs
    /// (Figure 7), normalized partial matching for workflows (Figure 6).
    Text,
    /// Code-snippet query: completion-style retrieval over code
    /// embeddings (Figure 8).
    Code,
}

impl QueryType {
    /// Parse the client-facing string.
    pub fn parse(s: &str) -> Option<QueryType> {
        Some(match s.to_ascii_lowercase().as_str() {
            "text" => QueryType::Text,
            "code" => QueryType::Code,
            _ => return None,
        })
    }

    /// Client-facing string.
    pub fn as_str(&self) -> &'static str {
        match self {
            QueryType::Text => "text",
            QueryType::Code => "code",
        }
    }
}

/// One search result row (what Figures 6–8 print).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Entity id (peId or workflowId).
    pub id: i64,
    /// Entity name.
    pub name: String,
    /// `"pe"` or `"workflow"`.
    pub kind: &'static str,
    /// Stored description (possibly auto-generated).
    pub description: String,
    /// Whether the description was generated by the summarizer.
    pub auto_described: bool,
    /// Similarity score (cosine for semantic/code; 1.0 for text matches).
    pub score: f64,
}

/// Default number of hits a search returns when the caller does not ask
/// for more (the `limit` request parameter).
pub const DEFAULT_SEARCH_LIMIT: usize = 25;

/// Per-query knobs threaded from the server endpoint down to the search
/// implementations.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Maximum hits to return; only winners are materialized.
    pub limit: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions { limit: DEFAULT_SEARCH_LIMIT }
    }
}

/// Normalization used by text search: lowercase, alphanumeric words only.
pub fn normalize_text(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_alphanumeric() { c.to_ascii_lowercase() } else { ' ' })
        .collect::<String>()
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

/// Text search over workflows (Figure 6) — names, entry points and
/// descriptions.
pub fn text_search_workflows(dao: &Dao, user_id: i64, query: &str, opts: &SearchOptions) -> Vec<SearchHit> {
    let ids = dao.index().text_workflows(user_id, &normalize_text(query), opts.limit);
    ids.into_iter().filter_map(|id| dao.store.workflows.get(id)).map(|wf| workflow_hit(wf, 1.0)).collect()
}

/// Text search over PE names/descriptions (non-semantic fallback).
pub fn text_search_pes(dao: &Dao, user_id: i64, query: &str, opts: &SearchOptions) -> Vec<SearchHit> {
    let ids = dao.index().text_pes(user_id, &normalize_text(query), opts.limit);
    ids.into_iter().filter_map(|id| dao.store.pes.get(id)).map(|pe| pe_hit(pe, 1.0)).collect()
}

/// Rank a user's PEs by cosine against `query` in `field` space and
/// materialize the best `opts.limit` as hits, `(score desc, id asc)`.
///
/// The user's postings of the query's dimension are read for the query's
/// buckets only, and every PE then goes through a bounded top-k heap:
/// vectors of another dimension cannot be compared with the query. Only
/// the winners' name/description strings are ever cloned into hits.
pub fn ranked_pe_hits(
    dao: &Dao,
    user_id: i64,
    query: &Embedding,
    field: VecField,
    opts: &SearchOptions,
) -> Vec<SearchHit> {
    let top = dao.index().top_pes(user_id, field, query, opts.limit);
    top.into_iter().filter_map(|(id, score)| Some(pe_hit(dao.store.pes.get(id)?, score))).collect()
}

fn pe_hit(pe: &PeEntity, score: f64) -> SearchHit {
    SearchHit {
        id: pe.pe_id,
        name: pe.pe_name.clone(),
        kind: "pe",
        description: pe.description.clone(),
        auto_described: pe.description_generated,
        score,
    }
}

fn workflow_hit(wf: &WorkflowEntity, score: f64) -> SearchHit {
    SearchHit {
        id: wf.workflow_id,
        name: wf.entry_point.clone(),
        kind: "workflow",
        description: wf.description.clone(),
        auto_described: false,
        score,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_and_partial_match() {
        assert_eq!(normalize_text("  Is-Prime  Workflow! "), "is prime workflow");
        // Partial matching (§4.1) is containment between normalized forms.
        assert!(normalize_text("Workflow that prints prime numbers").contains(&normalize_text("PRIME")));
    }

    #[test]
    fn parse_round_trips() {
        for t in [SearchType::Pe, SearchType::Workflow, SearchType::Both] {
            assert_eq!(SearchType::parse(t.as_str()), Some(t));
        }
        for q in [QueryType::Text, QueryType::Code] {
            assert_eq!(QueryType::parse(q.as_str()), Some(q));
        }
        assert_eq!(SearchType::parse("nope"), None);
        assert_eq!(QueryType::parse("nope"), None);
    }
}
