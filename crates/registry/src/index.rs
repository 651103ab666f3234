//! The incrementally-maintained search index (ROADMAP item 4).
//!
//! Registry search used to be a linear scan: every query walked the
//! user's whole PE set, re-normalized text per entity per field,
//! recomputed every vector's norm (and the query's, per vector) and
//! sorted *all* hits. This module makes each search mode sub-linear in
//! everything but the unavoidable score loop:
//!
//! * **Text** — a per-user inverted token index: posting lists keyed by
//!   [`normalize_text`] tokens over the searchable fields (PE name +
//!   description; workflow name + entry point + description), plus the
//!   cached normalized field strings per entity. A space-free normalized
//!   needle can never cross a token boundary (normalization joins tokens
//!   with single spaces), so single-token queries reduce to a vocabulary
//!   scan — no entity touched until hit materialization. Multi-token
//!   needles fall back to a substring scan over the *cached* normalized
//!   fields, still never re-normalizing an entity's text.
//! * **Semantic / code** — per-user structure-of-arrays `f32` matrices
//!   (one row per PE, `desc`/`code` embedding spaces kept separately)
//!   with per-row L2 norms cached at insert. Ranking is one fused
//!   dot/norm cosine kernel pass over contiguous rows and a bounded
//!   top-`k` heap: no norm recomputed, no full sort. Matrices live
//!   behind `Arc`, so cloning an index (e.g. snapshotting for an offline
//!   consumer) shares the vector storage copy-on-write.
//!
//! **Consistency.** The index is owned by the DAO and mutated in the
//! same call that journals the mutation, under the registry's outer
//! `RwLock` write guard — readers never observe an index that disagrees
//! with the store. WAL replay rebuilds the store *below* the DAO, so
//! recovery rebuilds the index from the recovered store's typed rows
//! ([`SearchIndex::build`]); JSON float serialization is
//! shortest-round-trip, so recovered vectors (and therefore scores) are
//! bit-identical to the pre-crash ones.
//!
//! **Exactness.** Every query path here is an exact replacement for the
//! linear scan it shadows — same hits, same scores (the scan and the
//! index share one cosine kernel), same score-then-id order — which is
//! pinned by the differential proptest in `tests/proptest_search.rs`.
//! When a user's vectors are heterogeneous in dimension (possible only
//! for hand-built entities; real models are fixed-dimension) the vector
//! side marks itself degraded and search falls back to the scan, which
//! skips the vectors it cannot compare with the query.

use crate::entities::{PeEntity, WorkflowEntity};
use crate::search::normalize_text;
use crate::store::Store;
use laminar_embed::embedding::{cosine_prenorm, l2_norm, TopK};
use laminar_embed::Embedding;
use laminar_json::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Which embedding space a ranked query runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecField {
    /// `descEmbedding` — the search-model space (Figure 7).
    Desc,
    /// `codeEmbedding` — the completion-model space (Figure 8).
    Code,
}

impl VecField {
    /// Project the field out of an entity.
    pub fn of(self, pe: &PeEntity) -> &Embedding {
        match self {
            VecField::Desc => &pe.desc_embedding,
            VecField::Code => &pe.code_embedding,
        }
    }
}

/// Per-user inverted token index over one entity kind's text fields.
#[derive(Debug, Clone, Default)]
struct TextIndex {
    /// token → ids of entities containing it (in any indexed field).
    postings: BTreeMap<Box<str>, BTreeSet<i64>>,
    /// id → normalized field strings (the multi-token fallback corpus).
    docs: BTreeMap<i64, Vec<String>>,
}

impl TextIndex {
    fn add(&mut self, id: i64, fields: &[&str]) {
        let normalized: Vec<String> = fields.iter().map(|f| normalize_text(f)).collect();
        for field in &normalized {
            for token in field.split(' ').filter(|t| !t.is_empty()) {
                self.postings.entry(token.into()).or_default().insert(id);
            }
        }
        self.docs.insert(id, normalized);
    }

    fn remove(&mut self, id: i64) {
        let Some(fields) = self.docs.remove(&id) else { return };
        for field in &fields {
            for token in field.split(' ').filter(|t| !t.is_empty()) {
                let emptied = match self.postings.get_mut(token) {
                    Some(ids) => {
                        ids.remove(&id);
                        ids.is_empty()
                    }
                    None => false,
                };
                if emptied {
                    self.postings.remove(token);
                }
            }
        }
    }

    /// Ids whose normalized fields contain `needle` (itself already
    /// normalized and non-empty), ascending, at most `limit`.
    fn matching(&self, needle: &str, limit: usize) -> Vec<i64> {
        if needle.contains(' ') {
            // A needle with internal spaces can span token boundaries:
            // scan the cached normalized fields in id order.
            let mut out = Vec::new();
            for (id, fields) in &self.docs {
                if out.len() >= limit {
                    break;
                }
                if fields.iter().any(|f| f.contains(needle)) {
                    out.push(*id);
                }
            }
            out
        } else {
            // Space-free needle: any occurrence lies inside a single
            // token, so scanning the vocabulary is exactly the oracle's
            // substring scan. Union preserves ascending id order.
            let mut out = BTreeSet::new();
            for (token, ids) in &self.postings {
                if token.contains(needle) {
                    out.extend(ids.iter().copied());
                }
            }
            out.into_iter().take(limit).collect()
        }
    }

    fn token_count(&self) -> usize {
        self.postings.len()
    }
}

/// Per-user dense-vector matrix for one embedding space: row-major
/// structure-of-arrays with cached norms and a dense-row ↔ peId map.
#[derive(Debug, Clone)]
struct VecIndex {
    dim: usize,
    /// `ids.len() * dim` floats, row-major; Arc for copy-on-write shares.
    data: Arc<Vec<f32>>,
    /// Per-row L2 norm, computed once at insert by the same kernel the
    /// scoring kernel divides by — scores stay bit-identical to a
    /// from-scratch cosine.
    norms: Arc<Vec<f32>>,
    /// Row → peId.
    ids: Vec<i64>,
    /// peId → row.
    row_of: HashMap<i64, usize>,
    /// Set when an insert saw a dimension mismatching the matrix; ranked
    /// queries then decline (`None`) and search falls back to the scan.
    degraded: bool,
}

impl Default for VecIndex {
    fn default() -> Self {
        VecIndex {
            dim: 0,
            data: Arc::new(Vec::new()),
            norms: Arc::new(Vec::new()),
            ids: Vec::new(),
            row_of: HashMap::new(),
            degraded: false,
        }
    }
}

impl VecIndex {
    fn add(&mut self, id: i64, e: &Embedding) {
        if self.row_of.contains_key(&id) {
            self.remove(id);
        }
        if self.ids.is_empty() {
            self.dim = e.dim();
        }
        if e.dim() != self.dim {
            self.degraded = true;
            return;
        }
        Arc::make_mut(&mut self.data).extend_from_slice(&e.values);
        Arc::make_mut(&mut self.norms).push(l2_norm(&e.values));
        self.row_of.insert(id, self.ids.len());
        self.ids.push(id);
    }

    /// Swap-remove: the last row moves into the vacated slot.
    fn remove(&mut self, id: i64) {
        let Some(row) = self.row_of.remove(&id) else { return };
        let last = self.ids.len() - 1;
        let data = Arc::make_mut(&mut self.data);
        let norms = Arc::make_mut(&mut self.norms);
        if row != last {
            let (head, tail) = data.split_at_mut(last * self.dim);
            head[row * self.dim..(row + 1) * self.dim].copy_from_slice(&tail[..self.dim]);
            norms[row] = norms[last];
            let moved = self.ids[last];
            self.ids[row] = moved;
            self.row_of.insert(moved, row);
        }
        self.ids.pop();
        norms.pop();
        data.truncate(last * self.dim);
    }

    /// Best `k` rows by cosine against `query`, best-first with ties
    /// toward the lower id — the oracle's sort-then-truncate order.
    /// `None` when degraded or the query dimension mismatches the matrix
    /// (the scan then answers with the vectors the query can be compared
    /// with).
    fn top(&self, query: &Embedding, k: usize) -> Option<Vec<(i64, f64)>> {
        if self.degraded {
            return None;
        }
        if self.ids.is_empty() {
            return Some(Vec::new());
        }
        if query.dim() != self.dim {
            return None;
        }
        let qnorm = l2_norm(&query.values);
        let mut top = TopK::new(k);
        for (row, &id) in self.ids.iter().enumerate() {
            let start = row * self.dim;
            let score =
                cosine_prenorm(&query.values, qnorm, &self.data[start..start + self.dim], self.norms[row])
                    as f64;
            top.push(id, score);
        }
        Some(top.into_sorted())
    }
}

/// One user's slice of the index.
#[derive(Debug, Clone, Default)]
struct UserIndex {
    pe_text: TextIndex,
    wf_text: TextIndex,
    desc: VecIndex,
    code: VecIndex,
}

/// The registry-wide search index: one [`UserIndex`] per user that owns
/// at least one entity. Owned and maintained by the DAO.
#[derive(Debug, Clone)]
pub struct SearchIndex {
    enabled: bool,
    users: HashMap<i64, UserIndex>,
}

impl SearchIndex {
    /// An empty, enabled index.
    pub fn new() -> SearchIndex {
        SearchIndex { enabled: true, users: HashMap::new() }
    }

    /// A disabled index: maintenance hooks no-op and every query
    /// declines, forcing the scan path (the bench baseline).
    pub fn disabled() -> SearchIndex {
        SearchIndex { enabled: false, users: HashMap::new() }
    }

    /// Rebuild from a (recovered) store — the WAL-replay consistency
    /// story: replay mutates the store below the DAO, so the DAO
    /// reconstructs the index from what replay produced.
    pub fn build(store: &Store) -> SearchIndex {
        let mut index = SearchIndex::new();
        for (user_id, pe_id) in store.user_pes.iter() {
            if let Some(pe) = store.pes.get(pe_id) {
                index.add_pe(user_id, pe);
            }
        }
        for (user_id, wf_id) in store.user_workflows.iter() {
            if let Some(wf) = store.workflows.get(wf_id) {
                index.add_workflow(user_id, wf);
            }
        }
        index
    }

    /// Whether queries are served from the index.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    // ---- maintenance (DAO write path) ---------------------------------

    /// Index a PE for one owner (registration or shared-owner link).
    pub fn add_pe(&mut self, user_id: i64, pe: &PeEntity) {
        if !self.enabled {
            return;
        }
        let user = self.users.entry(user_id).or_default();
        user.pe_text.add(pe.pe_id, &[&pe.pe_name, &pe.description]);
        user.desc.add(pe.pe_id, &pe.desc_embedding);
        user.code.add(pe.pe_id, &pe.code_embedding);
    }

    /// Drop a PE from one owner's slice (unlink or deletion).
    pub fn remove_pe(&mut self, user_id: i64, pe_id: i64) {
        if !self.enabled {
            return;
        }
        if let Some(user) = self.users.get_mut(&user_id) {
            user.pe_text.remove(pe_id);
            user.desc.remove(pe_id);
            user.code.remove(pe_id);
        }
    }

    /// Index a workflow for one owner.
    pub fn add_workflow(&mut self, user_id: i64, wf: &WorkflowEntity) {
        if !self.enabled {
            return;
        }
        let user = self.users.entry(user_id).or_default();
        user.wf_text.add(wf.workflow_id, &[&wf.workflow_name, &wf.entry_point, &wf.description]);
    }

    /// Drop a workflow from one owner's slice.
    pub fn remove_workflow(&mut self, user_id: i64, workflow_id: i64) {
        if !self.enabled {
            return;
        }
        if let Some(user) = self.users.get_mut(&user_id) {
            user.wf_text.remove(workflow_id);
        }
    }

    // ---- queries ------------------------------------------------------

    /// PE ids text-matching `needle` (already normalized, non-empty),
    /// ascending, at most `limit`. `None` when the index is disabled.
    pub fn text_pes(&self, user_id: i64, needle: &str, limit: usize) -> Option<Vec<i64>> {
        if !self.enabled {
            return None;
        }
        Some(self.users.get(&user_id).map(|u| u.pe_text.matching(needle, limit)).unwrap_or_default())
    }

    /// Workflow ids text-matching `needle`, ascending, at most `limit`.
    pub fn text_workflows(&self, user_id: i64, needle: &str, limit: usize) -> Option<Vec<i64>> {
        if !self.enabled {
            return None;
        }
        Some(self.users.get(&user_id).map(|u| u.wf_text.matching(needle, limit)).unwrap_or_default())
    }

    /// Best `limit` PEs by cosine in `field` space, best-first. `None`
    /// when the index is disabled or that user's matrix is degraded /
    /// dimension-mismatched (callers fall back to the scan).
    pub fn top_pes(
        &self,
        user_id: i64,
        field: VecField,
        query: &Embedding,
        limit: usize,
    ) -> Option<Vec<(i64, f64)>> {
        if !self.enabled {
            return None;
        }
        match self.users.get(&user_id) {
            None => Some(Vec::new()),
            Some(user) => match field {
                VecField::Desc => user.desc.top(query, limit),
                VecField::Code => user.code.top(query, limit),
            },
        }
    }

    /// Observability snapshot for `/registry/stats`.
    pub fn stats(&self) -> Value {
        let mut tokens = 0usize;
        let mut vectors = 0usize;
        for user in self.users.values() {
            tokens += user.pe_text.token_count() + user.wf_text.token_count();
            vectors += user.desc.ids.len() + user.code.ids.len();
        }
        let mut v = Value::Null;
        v.set("enabled", self.enabled)
            .set("indexed_users", self.users.len() as i64)
            .set("text_tokens", tokens as i64)
            .set("vectors", vectors as i64);
        v
    }
}

impl Default for SearchIndex {
    fn default() -> Self {
        SearchIndex::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_embed::cosine;

    fn emb(values: &[f32]) -> Embedding {
        Embedding { values: values.to_vec() }
    }

    fn pe(id: i64, name: &str, desc: &str, dvec: &[f32], cvec: &[f32]) -> PeEntity {
        PeEntity {
            pe_id: id,
            pe_name: name.into(),
            description: desc.into(),
            description_generated: false,
            pe_code: String::new(),
            pe_imports: vec![],
            code_embedding: emb(cvec),
            desc_embedding: emb(dvec),
        }
    }

    fn wf(id: i64, name: &str, entry: &str, desc: &str) -> WorkflowEntity {
        let mut wf = WorkflowEntity::new(name, entry, desc, laminar_script::prepare("").unwrap());
        wf.workflow_id = id;
        wf
    }

    #[test]
    fn text_single_token_matches_inside_tokens() {
        let mut idx = SearchIndex::new();
        idx.add_pe(1, &pe(10, "IsPrime", "checks primality", &[1.0], &[1.0]));
        idx.add_pe(1, &pe(11, "WordCount", "counts words", &[1.0], &[1.0]));
        // "prime" occurs inside the token "isprime".
        assert_eq!(idx.text_pes(1, "prime", 25).unwrap(), vec![10]);
        // Substring of a description token.
        assert_eq!(idx.text_pes(1, "ount", 25).unwrap(), vec![11]);
        // Both match "s": ascending id order, limit applies.
        assert_eq!(idx.text_pes(1, "s", 1).unwrap(), vec![10]);
        // Other users see nothing.
        assert_eq!(idx.text_pes(2, "prime", 25).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn text_multi_token_spans_boundaries() {
        let mut idx = SearchIndex::new();
        idx.add_pe(1, &pe(10, "IsPrime", "checks prime numbers fast", &[1.0], &[1.0]));
        assert_eq!(idx.text_pes(1, "prime numbers", 25).unwrap(), vec![10]);
        assert_eq!(idx.text_pes(1, "numbers prime", 25).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn text_remove_cleans_postings() {
        let mut idx = SearchIndex::new();
        idx.add_pe(1, &pe(10, "IsPrime", "d", &[1.0], &[1.0]));
        idx.add_pe(1, &pe(11, "IsPrimeFast", "d", &[1.0], &[1.0]));
        idx.remove_pe(1, 10);
        assert_eq!(idx.text_pes(1, "prime", 25).unwrap(), vec![11]);
        idx.remove_pe(1, 11);
        assert_eq!(idx.text_pes(1, "prime", 25).unwrap(), Vec::<i64>::new());
        let user = idx.users.get(&1).unwrap();
        assert_eq!(user.pe_text.token_count(), 0, "posting lists garbage-collected");
    }

    #[test]
    fn workflow_text_covers_entry_point() {
        let mut idx = SearchIndex::new();
        idx.add_workflow(1, &wf(5, "IsPrimeFlow", "isPrime", "prints random primes"));
        assert_eq!(idx.text_workflows(1, "isprime", 25).unwrap(), vec![5]);
        idx.remove_workflow(1, 5);
        assert_eq!(idx.text_workflows(1, "isprime", 25).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn vector_top_matches_scan_bitwise() {
        let mut idx = SearchIndex::new();
        let pes: Vec<PeEntity> = (0..20)
            .map(|i| {
                let f = i as f32;
                pe(i, &format!("P{i}"), "d", &[f, 1.0, 2.0 - f, 0.5 * f], &[1.0, f, f * f, 0.25])
            })
            .collect();
        for p in &pes {
            idx.add_pe(1, p);
        }
        let q = emb(&[0.3, -1.2, 0.7, 2.0]);
        for field in [VecField::Desc, VecField::Code] {
            let got = idx.top_pes(1, field, &q, 5).unwrap();
            let mut oracle: Vec<(i64, f64)> =
                pes.iter().map(|p| (p.pe_id, cosine(&q, field.of(p)) as f64)).collect();
            oracle.sort_by(|a, b| {
                b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
            });
            oracle.truncate(5);
            assert_eq!(got, oracle, "field {field:?} diverged from scan");
        }
    }

    #[test]
    fn vector_swap_remove_keeps_rows_consistent() {
        let mut idx = SearchIndex::new();
        for i in 0..4 {
            idx.add_pe(1, &pe(i, &format!("P{i}"), "d", &[i as f32, 1.0], &[1.0, i as f32]));
        }
        idx.remove_pe(1, 1); // middle row: row 3 swaps into slot 1
        let q = emb(&[1.0, 0.0]);
        let top = idx.top_pes(1, VecField::Desc, &q, 10).unwrap();
        let ids: Vec<i64> = top.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 3);
        assert!(!ids.contains(&1));
        // Scores still match a from-scratch cosine per id.
        for (id, score) in top {
            let p = pe(id, "x", "d", &[id as f32, 1.0], &[1.0, id as f32]);
            assert_eq!(score, cosine(&q, &p.desc_embedding) as f64);
        }
    }

    #[test]
    fn mixed_dimensions_degrade_to_scan() {
        let mut idx = SearchIndex::new();
        idx.add_pe(1, &pe(1, "A", "d", &[1.0, 0.0], &[1.0, 0.0]));
        idx.add_pe(1, &pe(2, "B", "d", &[1.0, 0.0, 0.0], &[1.0, 0.0]));
        assert!(idx.top_pes(1, VecField::Desc, &emb(&[1.0, 0.0]), 5).is_none(), "degraded");
        // The code space stayed homogeneous and still serves.
        assert_eq!(idx.top_pes(1, VecField::Code, &emb(&[1.0, 0.0]), 5).unwrap().len(), 2);
        // Query dimension mismatch also declines instead of panicking.
        assert!(idx.top_pes(1, VecField::Code, &emb(&[1.0]), 5).is_none());
    }

    #[test]
    fn disabled_index_declines_everything() {
        let mut idx = SearchIndex::disabled();
        idx.add_pe(1, &pe(1, "A", "d", &[1.0], &[1.0]));
        assert!(idx.text_pes(1, "a", 25).is_none());
        assert!(idx.top_pes(1, VecField::Desc, &emb(&[1.0]), 5).is_none());
        assert_eq!(idx.stats()["enabled"].as_bool(), Some(false));
    }

    #[test]
    fn stats_counts() {
        let mut idx = SearchIndex::new();
        idx.add_pe(1, &pe(1, "IsPrime", "checks primality", &[1.0], &[1.0]));
        idx.add_workflow(2, &wf(7, "Flow", "flow", ""));
        let s = idx.stats();
        assert_eq!(s["indexed_users"].as_i64(), Some(2));
        assert_eq!(s["vectors"].as_i64(), Some(2));
        assert!(s["text_tokens"].as_i64().unwrap() >= 3);
    }
}
