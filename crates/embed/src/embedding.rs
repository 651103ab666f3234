//! Sparse embeddings via feature hashing (the "hashing trick").
//!
//! Every model maps an input to a bag of weighted string features; features
//! are hashed into a fixed-dimension vector with a sign hash, then
//! L2-normalized. A description or a PE's code touches tens to about a
//! hundred of the 768–1,024 buckets, so an [`Embedding`] holds only its
//! non-zero `(bucket, weight)` pairs, in ascending bucket order. That
//! sparsity belongs to these stand-in models: a real encoder's vectors are
//! dense, and would bring the dense cost back (DESIGN §2).
//!
//! Cosine similarity over these vectors is exactly the bi-encoder
//! retrieval rule of paper §2.4. [`cosine`] is its one definition, with a
//! fixed summation order, so every ranking built on it — the registry's
//! per-bucket index, its scan oracle and the bench's evaluation — scores
//! to the same bits, and [`TopK`] is the one selection they rank through.

use laminar_json::Value;

/// A vector of dimension `dim` stored as its `(bucket, weight)` pairs in
/// strictly ascending bucket order. Every component other than `+0.0` is
/// stored, so `-0.0` survives a round trip through the dense row form.
/// A model's embedding is L2-normalized unless all-zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    dim: usize,
    entries: Box<[(u32, f32)]>,
}

impl Embedding {
    /// The vector whose components are `values`.
    pub fn from_dense(values: &[f32]) -> Embedding {
        let bucket = |i: usize| u32::try_from(i).expect("dimension fits a u32 bucket");
        let entries =
            values.iter().enumerate().filter(|(_, w)| w.to_bits() != 0).map(|(i, &w)| (bucket(i), w));
        Embedding { dim: values.len(), entries: entries.collect() }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The stored `(bucket, weight)` pairs, ascending by bucket.
    pub fn entries(&self) -> &[(u32, f32)] {
        &self.entries
    }

    /// L2 norm: the square root of the sum of squared weights, added in
    /// ascending bucket order from `+0.0`.
    pub fn norm(&self) -> f32 {
        self.entries.iter().fold(0.0f32, |sum, &(_, w)| sum + w * w).sqrt()
    }

    /// Serialize for registry storage (the `codeEmbedding` /
    /// `descEmbedding` columns): the dense array of all `dim` components.
    pub fn to_value(&self) -> Value {
        let mut dense = vec![Value::Float(0.0); self.dim];
        for &(bucket, w) in self.entries.iter() {
            dense[bucket as usize] = Value::Float(w as f64);
        }
        Value::Array(dense)
    }

    /// Inverse of [`Self::to_value`].
    pub fn from_value(v: &Value) -> Option<Embedding> {
        let arr = v.as_array()?;
        let mut values = Vec::with_capacity(arr.len());
        for e in arr {
            values.push(e.as_f64()? as f32);
        }
        Some(Embedding::from_dense(&values))
    }
}

/// FNV-1a, 64-bit — the feature hash — over the concatenation of `parts`,
/// so a prefixed feature hashes without being built as one string.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in parts.iter().flat_map(|part| part.iter()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Accumulates weighted features into a hashed vector.
pub(crate) struct FeatureHasher {
    values: Vec<f32>,
}

impl FeatureHasher {
    /// A hasher with output dimension `dim`.
    pub(crate) fn new(dim: usize) -> FeatureHasher {
        assert!(dim > 0);
        FeatureHasher { values: vec![0.0; dim] }
    }

    /// Add one feature occurrence with a weight. The feature's hash picks
    /// the bucket; a second hash bit picks the sign (reduces collision
    /// bias).
    #[cfg(test)]
    fn add(&mut self, feature: &str, weight: f32) {
        self.add_hashed(fnv1a(&[feature.as_bytes()]), weight);
    }

    /// Add one occurrence of `feature` in channel `prefix`: the feature
    /// `prefix:feature`, hashed as it streams.
    pub(crate) fn add_channel(&mut self, prefix: &str, feature: &str, weight: f32) {
        self.add_hashed(fnv1a(&[prefix.as_bytes(), b":", feature.as_bytes()]), weight);
    }

    fn add_hashed(&mut self, h: u64, weight: f32) {
        let dim = self.values.len() as u64;
        let bucket = (h % dim) as usize;
        let sign = if (h >> 63) & 1 == 1 { -1.0 } else { 1.0 };
        self.values[bucket] += sign * weight;
    }

    /// Finish: L2-normalize, and keep the non-zero buckets.
    pub(crate) fn finish(mut self) -> Embedding {
        let norm: f32 = self.values.iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm > 0.0 {
            for v in &mut self.values {
                *v /= norm;
            }
        }
        Embedding::from_dense(&self.values)
    }
}

/// Cosine similarity, the one definition of a search score: an `f32`
/// accumulator starts at `+0.0` and adds `a_b * b_b` over the buckets both
/// vectors store, in ascending bucket order (a merge of the two sorted
/// lists); [`cosine_of`] then divides by the two norms. Normalized inputs
/// make this a dot product, but the full formula keeps the function safe
/// for un-normalized vectors too.
///
/// # Panics
/// If the dimensions differ.
pub fn cosine(a: &Embedding, b: &Embedding) -> f32 {
    assert_eq!(a.dim(), b.dim(), "cosine over mismatched dimensions");
    let (x, y) = (a.entries(), b.entries());
    let (mut i, mut j, mut dot) = (0, 0, 0.0f32);
    while i < x.len() && j < y.len() {
        match x[i].0.cmp(&y[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += x[i].1 * y[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    cosine_of(dot, a.norm(), b.norm())
}

/// [`cosine`]'s last step: `dot / (norm_a * norm_b)`, or `0.0` when
/// either norm is 0. A caller that accumulates `dot` in [`cosine`]'s order
/// and takes the norms from [`Embedding::norm`] gets [`cosine`]'s bits.
pub fn cosine_of(dot: f32, norm_a: f32, norm_b: f32) -> f32 {
    if norm_a == 0.0 || norm_b == 0.0 {
        0.0
    } else {
        dot / (norm_a * norm_b)
    }
}

/// A bounded best-`k` selector over `(id, score)` pairs.
///
/// Keeps at most `k` entries in a binary heap ordered worst-at-the-root
/// (worse = lower score, ties toward the higher id), so a stream of `n`
/// candidates costs `O(n log k)` and `k` slots of memory instead of the
/// sort-everything `O(n log n)`. [`into_sorted`](TopK::into_sorted)
/// returns winners best-first — score descending, ties toward the lower
/// id — exactly the order a full sort by `(score desc, id asc)` followed
/// by `truncate(k)` would produce, which is the contract registry search
/// relies on for oracle equivalence.
pub struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<TopKEntry>,
}

struct TopKEntry {
    score: f64,
    id: i64,
}

impl PartialEq for TopKEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for TopKEntry {}
impl PartialOrd for TopKEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TopKEntry {
    /// Greater = worse, so the max-heap root is the weakest survivor.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.score.partial_cmp(&self.score).unwrap_or(std::cmp::Ordering::Equal).then(self.id.cmp(&other.id))
    }
}

impl TopK {
    /// Selector keeping the best `k` entries.
    pub fn new(k: usize) -> TopK {
        TopK { k, heap: std::collections::BinaryHeap::with_capacity(k.saturating_add(1)) }
    }

    /// Offer one candidate.
    pub fn push(&mut self, id: i64, score: f64) {
        if self.k == 0 {
            return;
        }
        let entry = TopKEntry { score, id };
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(mut weakest) = self.heap.peek_mut() {
            // Replacing the root through `PeekMut` sifts once on drop.
            if entry < *weakest {
                *weakest = entry;
            }
        }
    }

    /// Winners, best-first (score descending, ties toward the lower id).
    pub fn into_sorted(self) -> Vec<(i64, f64)> {
        self.heap.into_sorted_vec().into_iter().map(|e| (e.id, e.score)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn embed(features: &[(&str, f32)], dim: usize) -> Embedding {
        let mut h = FeatureHasher::new(dim);
        for (f, w) in features {
            h.add(f, *w);
        }
        h.finish()
    }

    #[test]
    fn normalization() {
        let e = embed(&[("a", 3.0), ("b", 4.0)], 64);
        assert!((e.norm() - 1.0).abs() < 1e-5);
        assert!(e.entries().len() <= 2, "two features reach at most two buckets");
    }

    #[test]
    fn identical_features_identical_embeddings() {
        let a = embed(&[("x", 1.0), ("y", 2.0)], 128);
        let b = embed(&[("x", 1.0), ("y", 2.0)], 128);
        assert_eq!(a, b);
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn overlap_orders_similarity() {
        let base = embed(&[("a", 1.0), ("b", 1.0), ("c", 1.0)], 512);
        let near = embed(&[("a", 1.0), ("b", 1.0), ("z", 1.0)], 512);
        let far = embed(&[("p", 1.0), ("q", 1.0), ("r", 1.0)], 512);
        assert!(cosine(&base, &near) > cosine(&base, &far));
    }

    #[test]
    fn zero_vector_cosine_is_zero() {
        let z = Embedding::from_dense(&[0.0; 8]);
        assert!(z.entries().is_empty());
        let e = embed(&[("a", 1.0)], 8);
        assert_eq!(cosine(&z, &e), 0.0);
    }

    #[test]
    fn top_k_ordering_and_ties() {
        let q = embed(&[("a", 1.0)], 256);
        let corpus = [
            embed(&[("b", 1.0)], 256),
            embed(&[("a", 1.0)], 256),
            embed(&[("a", 1.0), ("b", 1.0)], 256),
            embed(&[("a", 1.0)], 256),
        ];
        let ranked = |k| {
            let mut top = TopK::new(k);
            for (id, e) in (0..).zip(&corpus) {
                top.push(id, f64::from(cosine(&q, e)));
            }
            top.into_sorted().into_iter().map(|(id, _)| id).collect::<Vec<_>>()
        };
        assert_eq!(ranked(2), [1, 3], "exact matches first, the tie toward the lower id");
        assert_eq!(ranked(3), [1, 3, 2], "partial overlap next");
        // k larger than corpus is fine.
        assert_eq!(ranked(10), [1, 3, 2, 0]);
    }

    #[test]
    fn value_round_trip() {
        let e = embed(&[("a", 1.0), ("b", -2.0)], 16);
        let back = Embedding::from_value(&e.to_value()).unwrap();
        assert_eq!(back, e);
        assert!(Embedding::from_value(&Value::Str("no".into())).is_none());
    }

    #[test]
    #[should_panic(expected = "mismatched dimensions")]
    fn dim_mismatch_panics() {
        let a = embed(&[("a", 1.0)], 8);
        let b = embed(&[("a", 1.0)], 16);
        let _ = cosine(&a, &b);
    }

    #[test]
    fn top_k_selector_matches_full_sort() {
        let scored: Vec<(i64, f64)> =
            vec![(5, 0.5), (1, 0.9), (9, 0.5), (2, 0.9), (7, 0.1), (3, 0.5), (8, 0.0)];
        for k in 0..=scored.len() + 1 {
            let mut sel = TopK::new(k);
            for &(id, s) in &scored {
                sel.push(id, s);
            }
            let mut oracle = scored.clone();
            oracle.sort_by(|a, b| {
                b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
            });
            oracle.truncate(k);
            assert_eq!(sel.into_sorted(), oracle, "k = {k}");
        }
    }

    /// One component: mostly an exact zero of either sign, otherwise a
    /// value whose products and sums round.
    fn arb_component() -> impl Strategy<Value = f32> {
        (0u8..8, -1000i32..1000).prop_map(|(kind, x)| match kind {
            0..=3 => 0.0,
            4 => -0.0,
            _ => x as f32 * 0.0137,
        })
    }

    /// Two dense vectors of one dimension; sometimes the first is all
    /// `+0.0` or all `-0.0`.
    fn arb_pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
        (prop::collection::vec((arb_component(), arb_component()), 1..48), 0u8..8).prop_map(
            |(pairs, zero)| {
                let (mut a, b): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();
                match zero {
                    0 => a.fill(0.0),
                    1 => a.fill(-0.0),
                    _ => {}
                }
                (a, b)
            },
        )
    }

    /// The score written out over the dense components: one ascending
    /// sequential `f32` pass for the dot and each sum of squares.
    fn naive_cosine(a: &[f32], b: &[f32]) -> f32 {
        let (mut dot, mut aa, mut bb) = (0.0f32, 0.0f32, 0.0f32);
        for (x, y) in a.iter().zip(b) {
            dot += x * y;
            aa += x * x;
            bb += y * y;
        }
        let (na, nb) = (aa.sqrt(), bb.sqrt());
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `cosine` is symmetric to the bit and equals the naive dense
        /// reference to the bit; the row form is the dense array and reads
        /// back to the same vector.
        #[test]
        fn sparse_cosine_is_the_naive_dense_score((a, b) in arb_pair()) {
            let (ea, eb) = (Embedding::from_dense(&a), Embedding::from_dense(&b));
            let reference = naive_cosine(&a, &b).to_bits();
            prop_assert_eq!(cosine(&ea, &eb).to_bits(), reference, "{:?} . {:?}", a, b);
            prop_assert_eq!(cosine(&eb, &ea).to_bits(), reference);
            for (e, dense) in [(&ea, &a), (&eb, &b)] {
                prop_assert_eq!(&Embedding::from_value(&e.to_value()).unwrap(), e);
                let today = Value::Array(dense.iter().map(|f| Value::Float(*f as f64)).collect());
                prop_assert_eq!(laminar_json::to_string(&e.to_value()), laminar_json::to_string(&today));
            }
        }
    }
}
