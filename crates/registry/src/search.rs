//! The three registry search modes (paper §4).
//!
//! Each mode has two implementations with an identical result contract —
//! same hits, same scores, same score-then-id order:
//!
//! * the **index** serves every query, from the DAO's
//!   incrementally-maintained [`SearchIndex`](crate::index::SearchIndex);
//! * the **linear scan** is the original O(corpus) implementation, kept
//!   only as the differential oracle behind [`SearchOptions::force_scan`]
//!   (the same oracle pattern the script VM uses for the tree-walker).
//!   It walks the same typed entities the index was built from, by
//!   reference: what it pays per entity is text normalization or a
//!   from-scratch cosine, not a decode.
//!
//! Both paths materialize winners through the same `pe_hit` /
//! `workflow_hit`.

use crate::dao::Dao;
use crate::entities::{PeEntity, WorkflowEntity};
pub use crate::index::VecField;
use laminar_embed::{cosine, Embedding};

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
    /// Bypass the index and run the linear-scan oracle. A Rust-level
    /// switch for the differential suites; the wire cannot set it.
    pub force_scan: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions { limit: DEFAULT_SEARCH_LIMIT, force_scan: false }
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

/// Does `haystack` contain `needle` after normalization (partial matching,
/// paper §4.1)?
pub fn text_matches(needle: &str, haystack: &str) -> bool {
    let n = normalize_text(needle);
    if n.is_empty() {
        return false;
    }
    normalize_text(haystack).contains(&n)
}

/// `text_matches` with the needle already normalized — the per-entity
/// loop hoists the query normalization out instead of redoing it for
/// every haystack field.
fn contains_normalized(needle_norm: &str, haystack: &str) -> bool {
    normalize_text(haystack).contains(needle_norm)
}

/// Text search over workflows (Figure 6) — names, entry points and
/// descriptions.
pub fn text_search_workflows(dao: &Dao, user_id: i64, query: &str, opts: &SearchOptions) -> Vec<SearchHit> {
    let needle = normalize_text(query);
    if needle.is_empty() {
        return Vec::new();
    }
    if !opts.force_scan {
        return dao
            .index()
            .text_workflows(user_id, &needle, opts.limit)
            .into_iter()
            .filter_map(|id| dao.store.workflows.get(id))
            .map(|wf| workflow_hit(wf, 1.0))
            .collect();
    }
    let mut hits = Vec::new();
    for wf in dao.workflows_of_user(user_id) {
        if hits.len() >= opts.limit {
            break;
        }
        if contains_normalized(&needle, &wf.workflow_name)
            || contains_normalized(&needle, &wf.entry_point)
            || contains_normalized(&needle, &wf.description)
        {
            hits.push(workflow_hit(wf, 1.0));
        }
    }
    hits
}

/// Text search over PE names/descriptions (non-semantic fallback).
pub fn text_search_pes(dao: &Dao, user_id: i64, query: &str, opts: &SearchOptions) -> Vec<SearchHit> {
    let needle = normalize_text(query);
    if needle.is_empty() {
        return Vec::new();
    }
    if !opts.force_scan {
        return dao
            .index()
            .text_pes(user_id, &needle, opts.limit)
            .into_iter()
            .filter_map(|id| dao.store.pes.get(id))
            .map(|pe| pe_hit(pe, 1.0))
            .collect();
    }
    let mut hits = Vec::new();
    for pe in dao.pes_of_user(user_id) {
        if hits.len() >= opts.limit {
            break;
        }
        if contains_normalized(&needle, &pe.pe_name) || contains_normalized(&needle, &pe.description) {
            hits.push(pe_hit(pe, 1.0));
        }
    }
    hits
}

/// Rank a user's PEs by cosine against `query` in `field` space and
/// materialize the best `opts.limit` as hits.
///
/// Indexed path: one pass of the fused cosine kernel over the user's
/// dense matrix into a bounded top-k heap; the scan path scores every
/// entity it borrows from the store and sorts. Both share the same kernel
/// and the same `(score desc, id asc)` order, so their results are
/// identical — only the winners' name/description strings are ever
/// cloned into hits.
///
/// Both rank only the vectors of the query's dimension: the index holds
/// one matrix per dimension and ranks the query's, the scan leaves the
/// others out — they cannot be compared with the query, and [`cosine`]
/// asserts they are not.
pub fn ranked_pe_hits(
    dao: &Dao,
    user_id: i64,
    query: &Embedding,
    field: VecField,
    opts: &SearchOptions,
) -> Vec<SearchHit> {
    if !opts.force_scan {
        return dao
            .index()
            .top_pes(user_id, field, query, opts.limit)
            .into_iter()
            .filter_map(|(id, score)| Some(pe_hit(dao.store.pes.get(id)?, score)))
            .collect();
    }
    let mut scored: Vec<(f64, &PeEntity)> = dao
        .pes_of_user(user_id)
        .filter(|pe| field.of(pe).dim() == query.dim())
        .map(|pe| (cosine(query, field.of(pe)) as f64, pe))
        .collect();
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.pe_id.cmp(&b.1.pe_id))
    });
    scored.truncate(opts.limit);
    scored.into_iter().map(|(score, pe)| pe_hit(pe, score)).collect()
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

/// Render hits as the table the client prints (Figures 6–8).
pub fn format_hits(hits: &[SearchHit]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<6} {:<10} {:<26} {:<8} {}\n", "id", "kind", "name", "score", "description"));
    for h in hits {
        let desc = if h.auto_described { format!("{} [auto]", h.description) } else { h.description.clone() };
        out.push_str(&format!("{:<6} {:<10} {:<26} {:<8.4} {}\n", h.id, h.kind, h.name, h.score, desc));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_and_partial_match() {
        assert_eq!(normalize_text("  Is-Prime  Workflow! "), "is prime workflow");
        assert!(text_matches("prime", "isPrime"));
        assert!(text_matches("PRIME", "Workflow that prints random prime numbers"));
        assert!(!text_matches("prime", "wordcount"));
        assert!(!text_matches("", "anything"));
    }

    #[test]
    fn mixed_dimensions_rank_the_query_dimension_on_both_paths() {
        let pe = |id: i64, desc: &[f32]| PeEntity {
            pe_id: 0,
            pe_name: format!("P{id}"),
            description: String::new(),
            description_generated: false,
            pe_code: String::new(),
            pe_imports: vec![],
            code_embedding: Embedding { values: vec![1.0, 0.0] },
            desc_embedding: Embedding { values: desc.to_vec() },
        };
        let mut dao = Dao::new(crate::store::Store::new(), crate::wal::WalStore::ephemeral());
        dao.insert_pe(pe(1, &[1.0, 0.0]), 1).unwrap();
        dao.insert_pe(pe(2, &[1.0, 0.0, 0.0]), 1).unwrap();
        let (two_d, one_d) = (Embedding { values: vec![1.0, 0.0] }, Embedding { values: vec![1.0] });
        // `cosine` over the whole mixed description space would panic.
        let cases: [(VecField, &Embedding, &[&str]); 3] = [
            (VecField::Code, &two_d, &["P1", "P2"]),
            (VecField::Desc, &two_d, &["P1"]),
            (VecField::Code, &one_d, &[]),
        ];
        for (field, q, expected) in cases {
            for force_scan in [false, true] {
                let opts = SearchOptions { force_scan, ..SearchOptions::default() };
                let names: Vec<String> =
                    ranked_pe_hits(&dao, 1, q, field, &opts).into_iter().map(|h| h.name).collect();
                assert_eq!(names, expected, "{field:?} at dim {}, force_scan {force_scan}", q.dim());
            }
        }
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

    #[test]
    fn format_marks_auto_descriptions() {
        let hits = vec![SearchHit {
            id: 3,
            name: "IsPrime".into(),
            kind: "pe",
            description: "Checks primality".into(),
            auto_described: true,
            score: 0.91,
        }];
        let table = format_hits(&hits);
        assert!(table.contains("IsPrime"));
        assert!(table.contains("[auto]"));
        assert!(table.contains("0.91"));
    }
}
