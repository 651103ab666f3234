//! The incrementally-maintained search index: what every registry search
//! is served from.
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
//! * **Semantic / code** — per user and per embedding space
//!   (`desc`/`code`), one set of per-bucket postings per embedding
//!   dimension present: for each bucket, the `(slot, weight)` of every
//!   vector storing it, with each slot's PE id and L2 norm cached at
//!   insert. The stand-in models' vectors are sparse (tens of the 768
//!   description buckets, about a hundred of the 1,024 code buckets), so
//!   a query is answered term at a time (Turtle & Flood, "Query
//!   Evaluation: Strategies and Optimizations", IP&M 1995): only the
//!   postings of the query's own buckets are read, then every live slot
//!   goes through a bounded top-`k` heap, no norm recomputed, no full
//!   sort. Vectors of another dimension cannot be compared with the
//!   query, and are exactly what the scan leaves out too. Real models are
//!   fixed-dimension, so a user normally has one set of postings per
//!   space; a second appears for hand-built entities or a durable
//!   registry reopened after a model change. A dense encoder would fill
//!   every posting list, and this layout would then cost more than the
//!   row-major matrix it replaced (DESIGN §3.8).
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
//! **Exactness.** Every query here answers exactly what the linear scan
//! (`laminar_oracle::scan`, a dev-only crate) answers — same hits, same
//! scores (each slot sums its shared buckets in ascending order, which is
//! how [`cosine`](laminar_embed::cosine) defines the score), same
//! score-then-id order — which is pinned by the differential proptests in
//! `tests/proptest_search.rs`.

use crate::entities::{PeEntity, WorkflowEntity};
use crate::search::normalize_text;
use crate::store::Store;
use laminar_embed::{cosine_of, Embedding, TopK};
use laminar_json::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
#[derive(Debug, Default)]
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
    /// normalized), ascending, at most `limit`; none for an empty needle.
    fn matching(&self, needle: &str, limit: usize) -> Vec<i64> {
        if needle.is_empty() {
            Vec::new()
        } else if needle.contains(' ') {
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

/// One live vector of a [`VecIndex`]: its PE and its cached norm.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: i64,
    /// [`Embedding::norm`], computed once at insert: the norm
    /// [`cosine`](laminar_embed::cosine) divides by, so scores stay
    /// bit-identical to a from-scratch cosine.
    norm: f32,
}

/// Per-user postings for one embedding space and dimension: for every
/// bucket, the `(slot, weight)` of each vector that stores it. A slot is
/// a vector's number for as long as it is indexed; a removed vector's
/// slot goes on the free list and the next insert takes it, so no other
/// vector is ever renumbered.
#[derive(Debug)]
struct VecIndex {
    /// bucket → `(slot, weight)`, in no particular slot order.
    postings: Vec<Vec<(u32, f32)>>,
    /// slot → its vector, or `None` while free.
    slots: Vec<Option<Slot>>,
    /// Free slots, the most recently freed last.
    free: Vec<u32>,
    /// peId → slot.
    slot_of: HashMap<i64, u32>,
}

impl VecIndex {
    fn new(dim: usize) -> VecIndex {
        VecIndex {
            postings: vec![Vec::new(); dim],
            slots: Vec::new(),
            free: Vec::new(),
            slot_of: HashMap::new(),
        }
    }

    /// Index `e` for `id`, which the postings do not hold: the DAO
    /// indexes a (user, PE) pair once, when the link is made.
    fn add(&mut self, id: i64, e: &Embedding) {
        debug_assert_eq!(e.dim(), self.postings.len(), "a vector joins the postings of its own dimension");
        let live = Some(Slot { id, norm: e.norm() });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = live;
                slot
            }
            None => {
                self.slots.push(live);
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 vectors per user")
            }
        };
        let fresh = self.slot_of.insert(id, slot).is_none();
        debug_assert!(fresh, "PE {id} indexed twice for one owner");
        for &(bucket, w) in e.entries() {
            self.postings[bucket as usize].push((slot, w));
        }
    }

    /// Unindex `id`, whose vector is `e`: its postings go and its slot is
    /// freed. A posting list is searched from its end, where the newest
    /// vectors are.
    fn remove(&mut self, id: i64, e: &Embedding) {
        let Some(slot) = self.slot_of.remove(&id) else { return };
        for &(bucket, _) in e.entries() {
            let list = &mut self.postings[bucket as usize];
            let at = list.iter().rposition(|&(s, _)| s == slot).expect("every stored bucket has a posting");
            list.swap_remove(at);
        }
        self.slots[slot as usize] = None;
        self.free.push(slot);
    }

    /// Best `k` vectors by cosine against `query` (of this dimension),
    /// best-first with ties toward the lower id — the oracle's
    /// sort-then-truncate order.
    ///
    /// Term at a time: the query's buckets, ascending, each add
    /// `q_b * w` into the score of every slot on the bucket's list, so
    /// each slot sums its shared buckets in [`cosine`]'s order and gets
    /// its bits. Every live slot is then offered, so a vector sharing no
    /// bucket with the query still ranks, at 0.
    ///
    /// [`cosine`]: laminar_embed::cosine
    fn top(&self, query: &Embedding, k: usize) -> Vec<(i64, f64)> {
        let mut dots = vec![0.0f32; self.slots.len()];
        for &(bucket, q) in query.entries() {
            for &(slot, w) in &self.postings[bucket as usize] {
                dots[slot as usize] += q * w;
            }
        }
        let qnorm = query.norm();
        let mut top = TopK::new(k);
        for (slot, dot) in self.slots.iter().zip(dots) {
            if let Some(Slot { id, norm }) = *slot {
                top.push(id, cosine_of(dot, qnorm, norm) as f64);
            }
        }
        top.into_sorted()
    }
}

/// One user's postings for one embedding space, keyed by dimension.
type ByDim = BTreeMap<usize, VecIndex>;

fn add_vector(space: &mut ByDim, id: i64, e: &Embedding) {
    space.entry(e.dim()).or_insert_with(|| VecIndex::new(e.dim())).add(id, e);
}

/// Drop `id`'s vector `e`, and with it postings left empty.
fn remove_vector(space: &mut ByDim, id: i64, e: &Embedding) {
    if let Some(index) = space.get_mut(&e.dim()) {
        index.remove(id, e);
        if index.slot_of.is_empty() {
            space.remove(&e.dim());
        }
    }
}

/// One user's slice of the index.
#[derive(Debug, Default)]
struct UserIndex {
    pe_text: TextIndex,
    wf_text: TextIndex,
    desc: ByDim,
    code: ByDim,
}

/// The registry-wide search index: one `UserIndex` per user that owns
/// at least one entity. Owned and maintained by the DAO.
#[derive(Debug, Default)]
pub struct SearchIndex {
    users: HashMap<i64, UserIndex>,
}

impl SearchIndex {
    /// An empty index.
    pub(crate) fn new() -> SearchIndex {
        SearchIndex::default()
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

    // ---- maintenance (DAO write path) ---------------------------------

    /// Index a PE for one owner (registration or shared-owner link).
    pub(crate) fn add_pe(&mut self, user_id: i64, pe: &PeEntity) {
        let user = self.users.entry(user_id).or_default();
        user.pe_text.add(pe.pe_id, &[&pe.pe_name, &pe.description]);
        add_vector(&mut user.desc, pe.pe_id, &pe.desc_embedding);
        add_vector(&mut user.code, pe.pe_id, &pe.code_embedding);
    }

    /// Drop a PE from one owner's slice (unlink or deletion). `pe` is the
    /// entity [`add_pe`](Self::add_pe) indexed: its vectors name the
    /// postings to drop.
    pub(crate) fn remove_pe(&mut self, user_id: i64, pe: &PeEntity) {
        if let Some(user) = self.users.get_mut(&user_id) {
            user.pe_text.remove(pe.pe_id);
            remove_vector(&mut user.desc, pe.pe_id, &pe.desc_embedding);
            remove_vector(&mut user.code, pe.pe_id, &pe.code_embedding);
        }
    }

    /// Index a workflow for one owner.
    pub(crate) fn add_workflow(&mut self, user_id: i64, wf: &WorkflowEntity) {
        let user = self.users.entry(user_id).or_default();
        user.wf_text.add(wf.workflow_id, &[&wf.workflow_name, &wf.entry_point, &wf.description]);
    }

    /// Drop a workflow from one owner's slice.
    pub(crate) fn remove_workflow(&mut self, user_id: i64, workflow_id: i64) {
        if let Some(user) = self.users.get_mut(&user_id) {
            user.wf_text.remove(workflow_id);
        }
    }

    // ---- queries ------------------------------------------------------

    /// PE ids text-matching `needle` (already normalized), ascending, at
    /// most `limit`.
    pub(crate) fn text_pes(&self, user_id: i64, needle: &str, limit: usize) -> Vec<i64> {
        self.users.get(&user_id).map(|u| u.pe_text.matching(needle, limit)).unwrap_or_default()
    }

    /// Workflow ids text-matching `needle`, ascending, at most `limit`.
    pub(crate) fn text_workflows(&self, user_id: i64, needle: &str, limit: usize) -> Vec<i64> {
        self.users.get(&user_id).map(|u| u.wf_text.matching(needle, limit)).unwrap_or_default()
    }

    /// Best `limit` PEs by cosine in `field` space, best-first, among the
    /// user's vectors of the query's dimension.
    pub(crate) fn top_pes(
        &self,
        user_id: i64,
        field: VecField,
        query: &Embedding,
        limit: usize,
    ) -> Vec<(i64, f64)> {
        let Some(user) = self.users.get(&user_id) else { return Vec::new() };
        let space = match field {
            VecField::Desc => &user.desc,
            VecField::Code => &user.code,
        };
        space.get(&query.dim()).map(|index| index.top(query, limit)).unwrap_or_default()
    }

    /// Observability snapshot for `/registry/stats`.
    pub(crate) fn stats(&self) -> Value {
        let mut tokens = 0usize;
        let mut vectors = 0usize;
        for user in self.users.values() {
            tokens += user.pe_text.token_count() + user.wf_text.token_count();
            vectors += user.desc.values().chain(user.code.values()).map(|v| v.slot_of.len()).sum::<usize>();
        }
        let mut v = Value::Null;
        v.set("indexed_users", self.users.len() as i64)
            .set("text_tokens", tokens as i64)
            .set("vectors", vectors as i64);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_embed::cosine;

    fn emb(values: &[f32]) -> Embedding {
        Embedding::from_dense(values)
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
        assert_eq!(idx.text_pes(1, "prime", 25), vec![10]);
        // Substring of a description token.
        assert_eq!(idx.text_pes(1, "ount", 25), vec![11]);
        // Both match "s": ascending id order, limit applies.
        assert_eq!(idx.text_pes(1, "s", 1), vec![10]);
        // Other users see nothing.
        assert_eq!(idx.text_pes(2, "prime", 25), Vec::<i64>::new());
    }

    #[test]
    fn text_multi_token_spans_boundaries() {
        let mut idx = SearchIndex::new();
        idx.add_pe(1, &pe(10, "IsPrime", "checks prime numbers fast", &[1.0], &[1.0]));
        assert_eq!(idx.text_pes(1, "prime numbers", 25), vec![10]);
        assert_eq!(idx.text_pes(1, "numbers prime", 25), Vec::<i64>::new());
    }

    #[test]
    fn text_remove_cleans_postings() {
        let mut idx = SearchIndex::new();
        let (a, b) = (pe(10, "IsPrime", "d", &[1.0], &[1.0]), pe(11, "IsPrimeFast", "d", &[1.0], &[1.0]));
        idx.add_pe(1, &a);
        idx.add_pe(1, &b);
        idx.remove_pe(1, &a);
        assert_eq!(idx.text_pes(1, "prime", 25), vec![11]);
        idx.remove_pe(1, &b);
        assert_eq!(idx.text_pes(1, "prime", 25), Vec::<i64>::new());
        let user = idx.users.get(&1).unwrap();
        assert_eq!(user.pe_text.token_count(), 0, "posting lists garbage-collected");
    }

    #[test]
    fn workflow_text_covers_entry_point() {
        let mut idx = SearchIndex::new();
        idx.add_workflow(1, &wf(5, "IsPrimeFlow", "isPrime", "prints random primes"));
        assert_eq!(idx.text_workflows(1, "isprime", 25), vec![5]);
        idx.remove_workflow(1, 5);
        assert_eq!(idx.text_workflows(1, "isprime", 25), Vec::<i64>::new());
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
            let got = idx.top_pes(1, field, &q, 5);
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
        let pes: Vec<PeEntity> =
            (0..4).map(|i| pe(i, &format!("P{i}"), "d", &[i as f32, 1.0], &[1.0, i as f32])).collect();
        for p in &pes {
            idx.add_pe(1, p);
        }
        // Frees slot 1; the postings of bucket 1 swap-remove its entry.
        idx.remove_pe(1, &pes[1]);
        let q = emb(&[1.0, 0.0]);
        let scored = |idx: &SearchIndex| {
            let top = idx.top_pes(1, VecField::Desc, &q, 10);
            // Scores still match a from-scratch cosine per id.
            for &(id, score) in &top {
                let p = pe(id, "x", "d", &[id as f32, 1.0], &[1.0, id as f32]);
                assert_eq!(score, cosine(&q, &p.desc_embedding) as f64);
            }
            top.into_iter().map(|(id, _)| id).collect::<Vec<i64>>()
        };
        assert_eq!(scored(&idx), [3, 2, 0]);
        let slots = |idx: &SearchIndex| {
            idx.users[&1].desc[&2].slots.iter().map(|s| s.map(|s| s.id)).collect::<Vec<_>>()
        };
        assert_eq!(slots(&idx), [Some(0), None, Some(2), Some(3)], "no other vector renumbered");
        // The next vector takes the freed slot.
        idx.add_pe(1, &pe(9, "P9", "d", &[9.0, 1.0], &[1.0, 9.0]));
        assert_eq!(slots(&idx), [Some(0), Some(9), Some(2), Some(3)]);
        assert_eq!(scored(&idx), [9, 3, 2, 0]);
    }

    #[test]
    fn identical_vectors_tie_toward_the_lower_id() {
        // The same words give the same description vector, so ties are
        // exact; insertion order and slot reuse must not break them.
        let model = laminar_embed::model_by_name("unixcoder-code-search").unwrap();
        let same = model.embed_text("amber basalt cobalt");
        let other = model.embed_text("amber dune flint");
        let entity = |id: i64, desc: &Embedding| {
            let mut p = pe(id, &format!("P{id}"), "d", &[1.0], &[1.0]);
            p.desc_embedding = desc.clone();
            p
        };
        let (p7, p3, p5, p4) = (entity(7, &same), entity(3, &same), entity(5, &same), entity(4, &other));
        let mut idx = SearchIndex::new();
        for p in [&p7, &p4, &p3] {
            idx.add_pe(1, p);
        }
        idx.remove_pe(1, &p4);
        idx.add_pe(1, &p5); // takes p4's slot, after 7 and before 3
        idx.add_pe(1, &p4);
        let top = idx.top_pes(1, VecField::Desc, &same, 10);
        assert_eq!(top.iter().map(|(id, _)| *id).collect::<Vec<_>>(), [3, 5, 7, 4]);
        let score = cosine(&same, &same) as f64;
        assert!(top[..3].iter().all(|&(_, s)| s.to_bits() == score.to_bits()), "{top:?}");
        assert_eq!(top[3].1.to_bits(), (cosine(&same, &other) as f64).to_bits());
    }

    #[test]
    fn mixed_dimensions_rank_within_their_own_dimension() {
        fn ids(idx: &SearchIndex, field: VecField, q: &[f32]) -> Vec<i64> {
            idx.top_pes(1, field, &emb(q), 5).into_iter().map(|(id, _)| id).collect()
        }
        let mut idx = SearchIndex::new();
        let a = pe(1, "A", "d", &[1.0, 0.0], &[1.0, 0.0]);
        let b = pe(2, "B", "d", &[1.0, 0.0, 0.0], &[1.0, 0.0]);
        idx.add_pe(1, &a);
        idx.add_pe(1, &b);
        idx.add_pe(1, &pe(3, "C", "d", &[0.0, 1.0, 0.0], &[0.0, 1.0]));
        // Each description dimension has its own postings and answers alone.
        assert_eq!(ids(&idx, VecField::Desc, &[1.0, 0.0]), [1]);
        assert_eq!(ids(&idx, VecField::Desc, &[1.0, 0.0, 0.0]), [2, 3]);
        // The homogeneous code space holds all three.
        assert_eq!(ids(&idx, VecField::Code, &[1.0, 0.0]), [1, 2, 3]);
        // No vector of the query's dimension: no hits, no panic.
        assert_eq!(ids(&idx, VecField::Code, &[1.0]), [0i64; 0]);
        // A remove inside the 3-d postings leaves the 2-d ones alone, and
        // removing the last 2-d vector drops those postings.
        idx.remove_pe(1, &b);
        assert_eq!(ids(&idx, VecField::Desc, &[1.0, 0.0, 0.0]), [3]);
        assert_eq!(ids(&idx, VecField::Desc, &[1.0, 0.0]), [1]);
        idx.remove_pe(1, &a);
        assert_eq!(idx.users[&1].desc.keys().copied().collect::<Vec<_>>(), [3]);
        assert_eq!(idx.stats()["vectors"].as_i64(), Some(2));
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
