//! The incrementally-maintained search index: what every registry search
//! is served from.
//!
//! Registry search used to be a linear scan: every query walked the
//! user's whole PE set, re-normalized text per entity per field,
//! recomputed every vector's norm (and the query's, per vector) and
//! sorted *all* hits. This module makes each search mode sub-linear in
//! everything but the unavoidable score loop:
//!
//! * **Text** — per user, every [`normalize_text`] token of the
//!   searchable fields (PE name + description; workflow name + entry
//!   point + description) with its entities' ids as a sorted `Vec`, and
//!   every byte trigram with the numbers of the tokens containing it
//!   (Cox, "Regular Expression Matching with a Trigram Index", 2012),
//!   plus the cached normalized field strings per entity. Normalization
//!   joins tokens with single spaces, so a needle splits on its spaces
//!   into pieces, each of which lies inside one token. A piece's tokens
//!   are those on its shortest trigram list that really contain it; a
//!   piece under 3 bytes has no trigram and scans the token texts, still
//!   without touching an entity. A one-piece needle merges its tokens' id
//!   lists and stops at `limit`; a longer one intersects its pieces' id
//!   unions and verifies each candidate against the cached fields, in id
//!   order, until `limit`. A token's trigrams are written when its first
//!   id arrives and deleted when its last leaves. A PE whose name is its
//!   own token pays a 40-byte token slot, two copies of the name, an
//!   8-byte id list, a 24-byte map entry and 4 bytes per trigram of the
//!   name: about 130 bytes for an 11-byte name.
//! * **Semantic / code** — per user and per embedding space
//!   (`desc`/`code`), one set of per-bucket postings per embedding
//!   dimension present, with each slot's PE id and L2 norm cached at
//!   insert. The stand-in models' vectors are sparse (tens of the 768
//!   description buckets, about a hundred of the 1,024 code buckets), but
//!   some buckets are held by most PEs: near-identical PE bodies fill the
//!   same few dozen code buckets. So each bucket takes the layout its
//!   occupancy calls for, as a Roaring bitmap picks one per container
//!   (Chambi, Lemire et al., "Better bitmap performance with Roaring
//!   bitmaps", SPE 2016): a list of `(slot, weight)` while fewer than half
//!   the slots hold it, and a dense column of one `f32` per slot (`+0.0`
//!   where absent) from half down to a quarter, below which it is a list
//!   again. A column at half occupancy is no larger than its list and at
//!   a quarter twice as large, so memory stays within twice the lists'.
//!   A query is answered term at a time (Turtle & Flood, "Query
//!   Evaluation: Strategies and Optimizations", IP&M 1995): only its own
//!   buckets are read, a list entry by entry and a column in one
//!   sequential pass over every slot, then every live slot goes through a
//!   bounded top-`k` heap, no norm recomputed, no full sort. Vectors of
//!   another dimension cannot be compared with the query, and are exactly
//!   what the scan leaves out too. Real models are fixed-dimension, so a
//!   user normally has one set of postings per space; a second appears
//!   for hand-built entities or a durable registry reopened after a model
//!   change. A dense encoder would turn every bucket into a column: the
//!   row-major matrix the postings replaced, transposed (DESIGN §3.8).
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
//! how [`cosine`](laminar_embed::cosine) defines the score; a column adds
//! `q * +0.0` for the slots it does not store, which leaves such a sum as
//! it was unless `q` is not finite, and then only stored weights are
//! added), same score-then-id order — which is pinned by the differential
//! proptests in `tests/proptest_search.rs`.

use crate::entities::{PeEntity, WorkflowEntity};
use crate::search::normalize_text;
use crate::store::Store;
use laminar_embed::{cosine_of, Embedding, TopK};
use laminar_json::Value;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

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

/// One live token of a [`TextIndex`]: its text and the entities holding it.
#[derive(Debug)]
struct Token {
    text: Box<str>,
    /// Ids of the entities holding the token in any indexed field, ascending.
    ids: Vec<i64>,
}

/// Per-user text index over one entity kind's fields: each live token
/// has a number, and each byte trigram lists the numbers of the tokens
/// containing it. A token's number is its own for as long as it is live;
/// a token's last id leaving frees its number for the next new token.
#[derive(Debug, Default)]
struct TextIndex {
    /// token number → its token, or `None` while the number is free.
    tokens: Vec<Option<Token>>,
    /// Free token numbers, the most recently freed last.
    free: Vec<u32>,
    /// token text → its number.
    numbers: HashMap<Box<str>, u32>,
    /// byte trigram → numbers of the live tokens containing it, in no
    /// particular order; a trigram no live token contains has no list.
    trigrams: HashMap<[u8; 3], Vec<u32>>,
    /// id → normalized field strings: what a needle spanning tokens is
    /// verified against, and what [`remove`](Self::remove) unindexes.
    docs: BTreeMap<i64, Vec<String>>,
}

/// The distinct byte trigrams of `token`, ascending.
fn trigrams_of(token: &str) -> Vec<[u8; 3]> {
    let mut grams: Vec<[u8; 3]> = token.as_bytes().windows(3).map(|w| [w[0], w[1], w[2]]).collect();
    grams.sort_unstable();
    grams.dedup();
    grams
}

/// The distinct tokens of normalized `fields`.
fn tokens_of(fields: &[String]) -> Vec<&str> {
    let mut tokens: Vec<&str> = fields.iter().flat_map(|f| f.split(' ')).filter(|t| !t.is_empty()).collect();
    tokens.sort_unstable();
    tokens.dedup();
    tokens
}

/// Whether `text` holds `piece` of one or two bytes, compared in place:
/// over `search_scale`'s tokens, `str::contains` or a slice comparison
/// per window took about three times as long.
fn holds_short(text: &[u8], piece: &[u8]) -> bool {
    match *piece {
        [a] => text.contains(&a),
        [a, b] => text.windows(2).any(|w| w[0] == a && w[1] == b),
        _ => unreachable!("a short piece has one or two bytes"),
    }
}

/// The ascending union of ascending, non-empty `lists`, at most `limit`
/// ids: a k-way merge that stops at `limit`.
fn union(lists: &[&[i64]], limit: usize) -> Vec<i64> {
    if let [only] = lists {
        return only[..limit.min(only.len())].to_vec();
    }
    // Min-heap of each list's next id, with the list and the position.
    let mut heads: BinaryHeap<Reverse<(i64, usize, usize)>> =
        lists.iter().enumerate().map(|(l, ids)| Reverse((ids[0], l, 0))).collect();
    let mut out = Vec::new();
    while let Some(mut head) = heads.peek_mut() {
        let Reverse((id, l, at)) = *head;
        if out.last() != Some(&id) {
            if out.len() == limit {
                break;
            }
            out.push(id);
        }
        match lists[l].get(at + 1) {
            Some(&next) => *head = Reverse((next, l, at + 1)),
            None => {
                PeekMut::pop(head);
            }
        }
    }
    out
}

impl TextIndex {
    fn add(&mut self, id: i64, fields: &[&str]) {
        let normalized: Vec<String> = fields.iter().map(|f| normalize_text(f)).collect();
        for token in tokens_of(&normalized) {
            self.link(token, id);
        }
        let fresh = self.docs.insert(id, normalized).is_none();
        debug_assert!(fresh, "entity {id} indexed twice for one owner");
    }

    fn remove(&mut self, id: i64) {
        let Some(fields) = self.docs.remove(&id) else { return };
        for token in tokens_of(&fields) {
            self.unlink(token, id);
        }
    }

    /// Add `id` to `token`'s ids; a new token gets a number and joins the
    /// lists of its trigrams.
    fn link(&mut self, token: &str, id: i64) {
        if let Some(&number) = self.numbers.get(token) {
            let ids = &mut self.live_mut(number).ids;
            if let Err(at) = ids.binary_search(&id) {
                ids.insert(at, id);
            }
            return;
        }
        let live = Some(Token { text: token.into(), ids: vec![id] });
        let number = match self.free.pop() {
            Some(number) => {
                self.tokens[number as usize] = live;
                number
            }
            None => {
                self.tokens.push(live);
                u32::try_from(self.tokens.len() - 1).expect("fewer than 2^32 tokens per user")
            }
        };
        for gram in trigrams_of(token) {
            self.trigrams.entry(gram).or_default().push(number);
        }
        self.numbers.insert(token.into(), number);
    }

    /// Take `id` from `token`'s ids; a token left with none leaves its
    /// trigrams' lists, which are searched from their end, where the
    /// newest tokens are, and its number is freed.
    fn unlink(&mut self, token: &str, id: i64) {
        let Some(&number) = self.numbers.get(token) else { return };
        let ids = &mut self.live_mut(number).ids;
        if let Ok(at) = ids.binary_search(&id) {
            ids.remove(at);
        }
        if !ids.is_empty() {
            return;
        }
        for gram in trigrams_of(token) {
            let list = self.trigrams.get_mut(&gram).expect("every trigram of a live token has a list");
            let at = list.iter().rposition(|&n| n == number).expect("a live token is on its trigrams' lists");
            list.swap_remove(at);
            if list.is_empty() {
                self.trigrams.remove(&gram);
            }
        }
        self.tokens[number as usize] = None;
        self.free.push(number);
        self.numbers.remove(token);
    }

    fn live_mut(&mut self, number: u32) -> &mut Token {
        self.tokens[number as usize].as_mut().expect("a numbered token is live")
    }

    /// The id lists of the live tokens containing `piece` (non-empty, no
    /// space). A piece of 3 bytes or more reads its shortest trigram
    /// list, whose tokens hold every trigram of the piece, and keeps
    /// those that contain it; a shorter piece has no trigram and scans
    /// the token texts.
    fn lists_containing(&self, piece: &str) -> Vec<&[i64]> {
        if piece.len() < 3 {
            let holds = |token: &&Token| holds_short(token.text.as_bytes(), piece.as_bytes());
            return self.tokens.iter().flatten().filter(holds).map(|token| token.ids.as_slice()).collect();
        }
        let shortest = piece
            .as_bytes()
            .windows(3)
            .map(|w| self.trigrams.get(&[w[0], w[1], w[2]]).map_or(&[][..], Vec::as_slice))
            .min_by_key(|list| list.len())
            .unwrap_or_default();
        shortest
            .iter()
            .map(|&n| self.tokens[n as usize].as_ref().expect("a listed token is live"))
            .filter(|token| token.text.contains(piece))
            .map(|token| token.ids.as_slice())
            .collect()
    }

    /// Ids whose normalized fields contain `needle` (itself already
    /// normalized), ascending, at most `limit`; none for an empty needle.
    ///
    /// Normalization joins tokens with single spaces, so a space-free
    /// needle lies inside one token: the answer is the union of the ids
    /// of the tokens containing it. A needle with spaces splits into
    /// pieces, and a field containing it has, for each piece, a token
    /// containing that piece; the intersection of the pieces' unions is
    /// therefore a superset of the answer, and each candidate is verified
    /// against its cached fields in id order.
    fn matching(&self, needle: &str, limit: usize) -> Vec<i64> {
        if needle.is_empty() {
            return Vec::new();
        }
        if !needle.contains(' ') {
            return union(&self.lists_containing(needle), limit);
        }
        let mut pieces = needle.split(' ').map(|piece| union(&self.lists_containing(piece), usize::MAX));
        let mut candidates = pieces.next().unwrap_or_default();
        for ids in pieces {
            if candidates.is_empty() {
                break;
            }
            // Walk the shorter list, look ids up in the longer one.
            let (mut kept, other) =
                if ids.len() < candidates.len() { (ids, candidates) } else { (candidates, ids) };
            kept.retain(|id| other.binary_search(id).is_ok());
            candidates = kept;
        }
        let contains = |id: &i64| self.docs[id].iter().any(|f| f.contains(needle));
        candidates.into_iter().filter(contains).take(limit).collect()
    }

    fn token_count(&self) -> usize {
        self.numbers.len()
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

/// One bucket's postings, in the layout its occupancy calls for (the
/// per-container choice of Roaring bitmaps: Chambi, Lemire et al., SPE
/// 2016).
#[derive(Debug)]
enum Bucket {
    /// `(slot, weight)` of each vector storing the bucket, in no
    /// particular slot order: while fewer than half the slots hold it.
    List(Vec<(u32, f32)>),
    /// One weight per slot, `+0.0` where the slot's vector does not store
    /// the bucket (a stored weight is never `+0.0`), and how many slots
    /// do: while at least a quarter of the slots hold it.
    Column { weights: Vec<f32>, stored: usize },
}

/// Per-user postings for one embedding space and dimension: for every
/// bucket, the vectors that store it, as a list or as a dense column. A
/// slot is a vector's number for as long as it is indexed; a removed
/// vector's slot goes on the free list and the next insert takes it, so
/// no other vector is ever renumbered.
#[derive(Debug)]
struct VecIndex {
    /// bucket → its postings.
    buckets: Vec<Bucket>,
    /// The buckets stored as columns, in no particular order: what a new
    /// slot extends.
    columns: Vec<u32>,
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
            buckets: (0..dim).map(|_| Bucket::List(Vec::new())).collect(),
            columns: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            slot_of: HashMap::new(),
        }
    }

    /// Index `e` for `id`, which the postings do not hold: the DAO
    /// indexes a (user, PE) pair once, when the link is made.
    fn add(&mut self, id: i64, e: &Embedding) {
        debug_assert_eq!(e.dim(), self.buckets.len(), "a vector joins the postings of its own dimension");
        let live = Some(Slot { id, norm: e.norm() });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = live;
                slot
            }
            None => {
                self.slots.push(live);
                self.grow_columns();
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 vectors per user")
            }
        };
        let fresh = self.slot_of.insert(id, slot).is_none();
        debug_assert!(fresh, "PE {id} indexed twice for one owner");
        let slots = self.slots.len();
        for &(bucket, w) in e.entries() {
            match &mut self.buckets[bucket as usize] {
                Bucket::List(list) => {
                    list.push((slot, w));
                    if 2 * list.len() >= slots {
                        self.promote(bucket);
                    }
                }
                Bucket::Column { weights, stored } => {
                    weights[slot as usize] = w;
                    *stored += 1;
                }
            }
        }
    }

    /// A new slot: every column gains its `+0.0`, and a column now held
    /// by fewer than a quarter of the slots goes back to a list.
    fn grow_columns(&mut self) {
        let slots = self.slots.len();
        let mut at = 0;
        while let Some(&bucket) = self.columns.get(at) {
            let Bucket::Column { weights, stored } = &mut self.buckets[bucket as usize] else {
                unreachable!("a listed column is a column")
            };
            weights.push(0.0);
            if 4 * *stored < slots {
                self.demote(at);
            } else {
                at += 1;
            }
        }
    }

    /// Turn list `bucket` into a column.
    fn promote(&mut self, bucket: u32) {
        let Bucket::List(list) = &self.buckets[bucket as usize] else { unreachable!("only a list promotes") };
        let mut weights = vec![0.0f32; self.slots.len()];
        for &(slot, w) in list {
            weights[slot as usize] = w;
        }
        self.buckets[bucket as usize] = Bucket::Column { weights, stored: list.len() };
        self.columns.push(bucket);
    }

    /// Turn the column at `self.columns[at]` back into a list of its
    /// stored weights, `-0.0` included.
    fn demote(&mut self, at: usize) {
        let bucket = self.columns.swap_remove(at);
        let Bucket::Column { weights, stored } = &self.buckets[bucket as usize] else {
            unreachable!("only a column demotes")
        };
        let slot = |s: usize| u32::try_from(s).expect("fewer than 2^32 vectors per user");
        let list: Vec<(u32, f32)> = weights
            .iter()
            .enumerate()
            .filter(|(_, w)| w.to_bits() != 0)
            .map(|(s, &w)| (slot(s), w))
            .collect();
        debug_assert_eq!(list.len(), *stored, "a column counts its stored weights");
        self.buckets[bucket as usize] = Bucket::List(list);
    }

    /// Unindex `id`, whose vector is `e`: its postings go and its slot is
    /// freed. A list is searched from its end, where the newest vectors
    /// are; a column zeroes the slot's weight, and one now held by fewer
    /// than a quarter of the slots goes back to a list.
    fn remove(&mut self, id: i64, e: &Embedding) {
        let Some(slot) = self.slot_of.remove(&id) else { return };
        let slots = self.slots.len();
        for &(bucket, _) in e.entries() {
            match &mut self.buckets[bucket as usize] {
                Bucket::List(list) => {
                    let at = list
                        .iter()
                        .rposition(|&(s, _)| s == slot)
                        .expect("every stored bucket has a posting");
                    list.swap_remove(at);
                }
                Bucket::Column { weights, stored } => {
                    weights[slot as usize] = 0.0;
                    *stored -= 1;
                    if 4 * *stored < slots {
                        let at = self.columns.iter().position(|&c| c == bucket).expect("a column is listed");
                        self.demote(at);
                    }
                }
            }
        }
        self.slots[slot as usize] = None;
        self.free.push(slot);
    }

    /// Best `k` vectors by cosine against `query` (of this dimension),
    /// best-first with ties toward the lower id — the oracle's
    /// sort-then-truncate order.
    ///
    /// Term at a time: the query's buckets, ascending, each add
    /// `q_b * w` into the score of every slot storing the bucket, so each
    /// slot sums its shared buckets in [`cosine`]'s order and gets its
    /// bits. A column adds into every slot in one pass: a slot that does
    /// not store the bucket adds `q_b * +0.0`, a zero, and a sum that
    /// starts at `+0.0` is never `-0.0`, so adding a zero leaves it as it
    /// was. A non-finite `q_b` would make that zero a NaN, so then only
    /// the stored weights are added. Every live slot is then offered, so
    /// a vector sharing no bucket with the query still ranks, at 0.
    ///
    /// [`cosine`]: laminar_embed::cosine
    fn top(&self, query: &Embedding, k: usize) -> Vec<(i64, f64)> {
        let mut dots = vec![0.0f32; self.slots.len()];
        for &(bucket, q) in query.entries() {
            match &self.buckets[bucket as usize] {
                Bucket::List(list) => {
                    for &(slot, w) in list {
                        dots[slot as usize] += q * w;
                    }
                }
                Bucket::Column { weights, .. } if q.is_finite() => {
                    for (dot, &w) in dots.iter_mut().zip(weights) {
                        *dot += q * w;
                    }
                }
                Bucket::Column { weights, .. } => {
                    for (dot, &w) in dots.iter_mut().zip(weights) {
                        if w.to_bits() != 0 {
                            *dot += q * w;
                        }
                    }
                }
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
    fn text_pieces_use_trigrams_verify_and_scan() {
        let mut idx = SearchIndex::new();
        idx.add_pe(1, &pe(10, "Aaaa", "größe naïve", &[1.0], &[1.0]));
        idx.add_pe(1, &pe(11, "Aaa", "prime numbers", &[1.0], &[1.0]));
        // "aaa" holds every trigram of "aaaa" but not "aaaa".
        assert_eq!(idx.text_pes(1, "aaaa", 25), vec![10]);
        // Shorter than a trigram: the token texts are scanned.
        assert_eq!(idx.text_pes(1, "aa", 25), vec![10, 11]);
        assert_eq!(idx.text_pes(1, "ö", 25), vec![10]);
        assert_eq!(idx.text_pes(1, "öße naï", 25), vec![10]);
        // Both pieces occur, but not in this order.
        assert_eq!(idx.text_pes(1, "numbers prime", 25), Vec::<i64>::new());
        let text = |idx: &SearchIndex| {
            let user = &idx.users[&1].pe_text;
            (user.token_count(), user.trigrams.len(), user.free.clone())
        };
        idx.remove_pe(1, &pe(10, "Aaaa", "größe naïve", &[1.0], &[1.0]));
        // "aaaa", "größe" and "naïve" gave their numbers back; "aaa" keeps
        // its trigram list.
        let (tokens, trigrams, free) = text(&idx);
        assert_eq!((tokens, free.len()), (3, 3));
        assert!(trigrams > 0);
        idx.remove_pe(1, &pe(11, "Aaa", "prime numbers", &[1.0], &[1.0]));
        let (tokens, trigrams, free) = text(&idx);
        assert_eq!((tokens, trigrams), (0, 0), "trigram lists garbage-collected");
        // A new token takes the most recently freed number.
        idx.add_pe(1, &pe(12, "Fresh", "", &[1.0], &[1.0]));
        assert_eq!(idx.users[&1].pe_text.numbers["fresh"], *free.last().unwrap());
        assert_eq!(idx.text_pes(1, "res", 25), vec![12]);
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
        // Frees slot 1: both buckets are columns, which zero its weights.
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

    /// A bucket's layout and what it stores: whether it is a column, and
    /// its `(slot, weight bits)` in slot order.
    fn bucket(index: &VecIndex, b: usize) -> (bool, Vec<(u32, u32)>) {
        match &index.buckets[b] {
            Bucket::List(list) => {
                let mut held: Vec<(u32, u32)> = list.iter().map(|&(s, w)| (s, w.to_bits())).collect();
                held.sort_unstable();
                (false, held)
            }
            Bucket::Column { weights, stored } => {
                let held: Vec<(u32, u32)> = (0u32..)
                    .zip(weights)
                    .filter(|(_, w)| w.to_bits() != 0)
                    .map(|(s, w)| (s, w.to_bits()))
                    .collect();
                assert_eq!(held.len(), *stored, "bucket {b}: a column counts what it stores");
                assert_eq!(weights.len(), index.slots.len(), "bucket {b}: a column has a weight per slot");
                (true, held)
            }
        }
    }

    /// Every query scores every live vector to [`cosine`]'s bits: a
    /// negative weight adds `-0.0` into the slots a column does not
    /// store, an infinite or NaN one must not add `inf * +0.0`.
    fn assert_scores_are_cosines(index: &VecIndex, live: &BTreeMap<i64, Embedding>) {
        let queries = [[1.0, 1.0, 1.0], [-1.0, -0.5, 0.0], [f32::INFINITY, 0.0, 0.0], [0.0, f32::NAN, 1.0]];
        for q in queries.map(|q| emb(&q)) {
            let mut got: Vec<(i64, u64)> =
                index.top(&q, live.len()).into_iter().map(|(id, s)| (id, s.to_bits())).collect();
            got.sort_unstable();
            let want: Vec<(i64, u64)> =
                live.iter().map(|(&id, e)| (id, (cosine(&q, e) as f64).to_bits())).collect();
            assert_eq!(got, want, "query {q:?}");
        }
    }

    #[test]
    fn buckets_turn_columns_at_half_and_lists_below_a_quarter() {
        // Bucket 2 is stored by every vector, so every norm is non-zero.
        let b = emb(&[0.0, 0.5, 1.0]);
        let a = |w: f32| emb(&[w, 0.0, 1.0]);
        let half = 0.5f32.to_bits();
        let mut live = BTreeMap::new();
        let mut index = VecIndex::new(3);
        let add = |index: &mut VecIndex, live: &mut BTreeMap<i64, Embedding>, id: i64, e: &Embedding| {
            index.add(id, e);
            live.insert(id, e.clone());
            assert_scores_are_cosines(index, live);
        };
        for id in 1..=4 {
            add(&mut index, &mut live, id, &b);
        }
        assert_eq!(bucket(&index, 1), (true, vec![(0, half), (1, half), (2, half), (3, half)]));
        // Bucket 0 held by 1 of 5, 2 of 6 and 3 of 7 slots stays a list;
        // 4 of 8 is half, a column. The `-0.0` is stored, and survives.
        for (id, w) in [(5, -0.0), (6, 0.5), (7, 0.5)] {
            add(&mut index, &mut live, id, &a(w));
            assert!(!bucket(&index, 0).0, "{} of {id} slots", id - 4);
        }
        add(&mut index, &mut live, 8, &a(0.5));
        let neg_zero = (-0.0f32).to_bits();
        assert_eq!(bucket(&index, 0), (true, vec![(4, neg_zero), (5, half), (6, half), (7, half)]));
        // Bucket 1 loses vectors: held by 3 and 2 of 8 slots it stays a
        // column (a quarter is not fewer), by 1 of 8 it goes back to a
        // list. A freed slot's weights are zeroed, so it is not on it.
        for (id, column, held) in [(1, true, &[1, 2, 3][..]), (2, true, &[2, 3]), (3, false, &[3])] {
            index.remove(id, &b);
            live.remove(&id);
            assert_scores_are_cosines(&index, &live);
            let held: Vec<(u32, u32)> = held.iter().map(|&s| (s, half)).collect();
            assert_eq!(bucket(&index, 1), (column, held), "after removing {id}");
        }
        // Freed slots are reused, the most recently freed first.
        add(&mut index, &mut live, 9, &a(-0.0));
        assert_eq!((index.slot_of[&9], bucket(&index, 1).1), (2, vec![(3, half)]));
        for id in [10, 11] {
            add(&mut index, &mut live, id, &b);
        }
        assert_eq!(bucket(&index, 1), (false, vec![(0, half), (1, half), (3, half)]));
        assert_eq!(index.slots.len(), 8);
        // A new slot extends every column: bucket 0, held by 5 slots,
        // stays a column up to 20 slots and is a list at 21. On the way
        // bucket 1 turns column at 5 of 10.
        for id in 12..=23 {
            add(&mut index, &mut live, id, &b);
            assert!(bucket(&index, 0).0, "5 of {} slots", index.slots.len());
            assert_eq!(
                bucket(&index, 1).0,
                index.slots.len() >= 10,
                "bucket 1 over {} slots",
                index.slots.len()
            );
        }
        assert_eq!(index.slots.len(), 20);
        add(&mut index, &mut live, 24, &b);
        let held: Vec<(u32, u32)> = [(2, neg_zero), (4, neg_zero), (5, half), (6, half), (7, half)].into();
        assert_eq!(bucket(&index, 0), (false, held), "5 of 21 slots");
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
