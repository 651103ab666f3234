//! Information-retrieval metrics used in the paper's evaluation:
//! MRR (Table 6), MAP@100 and Precision@1 (Table 7), and the one ranking
//! they read.

use laminar_embed::TopK;

/// Corpus indices of the `k` best `scores` with their scores, best first,
/// ties toward the lower index: the registry index's [`TopK`] over the
/// scores in corpus order.
pub fn rank(scores: impl IntoIterator<Item = f64>, k: usize) -> Vec<(usize, f64)> {
    let mut top = TopK::new(k);
    for (id, score) in (0..).zip(scores) {
        top.push(id, score);
    }
    top.into_sorted().into_iter().map(|(id, score)| (id as usize, score)).collect()
}

/// Mean Reciprocal Rank over per-query ranks of the first relevant result
/// (1-based). `None` means the relevant item never appeared.
pub fn mrr(first_relevant_ranks: &[Option<usize>]) -> f64 {
    if first_relevant_ranks.is_empty() {
        return 0.0;
    }
    let sum: f64 = first_relevant_ranks
        .iter()
        .map(|r| match r {
            Some(rank) => {
                assert!(*rank >= 1, "ranks are 1-based");
                1.0 / *rank as f64
            }
            None => 0.0,
        })
        .sum();
    sum / first_relevant_ranks.len() as f64
}

/// Average precision of one ranked result list truncated at `k`.
///
/// `relevant` flags each ranked item; `total_relevant` is the number of
/// relevant items in the corpus (the AP denominator, capped at `k`).
pub fn average_precision_at_k(relevant: &[bool], total_relevant: usize, k: usize) -> f64 {
    if total_relevant == 0 {
        return 0.0;
    }
    let mut hits = 0usize;
    let mut sum = 0.0;
    for (i, &is_rel) in relevant.iter().take(k).enumerate() {
        if is_rel {
            hits += 1;
            sum += hits as f64 / (i + 1) as f64;
        }
    }
    sum / total_relevant.min(k) as f64
}

/// Mean Average Precision at `k` over many queries.
pub fn map_at_k(per_query: &[(Vec<bool>, usize)], k: usize) -> f64 {
    if per_query.is_empty() {
        return 0.0;
    }
    per_query.iter().map(|(rel, total)| average_precision_at_k(rel, *total, k)).sum::<f64>()
        / per_query.len() as f64
}

/// Fraction of queries whose top-1 result is relevant.
pub fn precision_at_1(per_query_top1: &[bool]) -> f64 {
    if per_query_top1.is_empty() {
        return 0.0;
    }
    per_query_top1.iter().filter(|b| **b).count() as f64 / per_query_top1.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mrr_basics() {
        assert_eq!(mrr(&[Some(1)]), 1.0);
        assert_eq!(mrr(&[Some(2)]), 0.5);
        assert_eq!(mrr(&[Some(1), Some(4), None]), (1.0 + 0.25 + 0.0) / 3.0);
        assert_eq!(mrr(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn mrr_rejects_zero_rank() {
        let _ = mrr(&[Some(0)]);
    }

    #[test]
    fn ap_perfect_ranking() {
        // 3 relevant items ranked 1,2,3 out of 3 total → AP = 1.
        let rel = vec![true, true, true, false];
        assert!((average_precision_at_k(&rel, 3, 100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ap_partial() {
        // relevant at positions 1 and 3; total 2 relevant.
        let rel = vec![true, false, true];
        let expected = (1.0 / 1.0 + 2.0 / 3.0) / 2.0;
        assert!((average_precision_at_k(&rel, 2, 100) - expected).abs() < 1e-12);
    }

    #[test]
    fn ap_truncation() {
        // Relevant item beyond k contributes nothing.
        let rel = vec![false, false, true];
        assert_eq!(average_precision_at_k(&rel, 1, 2), 0.0);
    }

    #[test]
    fn ap_denominator_caps_at_k() {
        // 200 relevant in corpus but k=2: a perfect top-2 gives AP 1.0.
        let rel = vec![true, true];
        assert!((average_precision_at_k(&rel, 200, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ap_no_relevant() {
        assert_eq!(average_precision_at_k(&[false, false], 0, 10), 0.0);
    }

    #[test]
    fn map_averages() {
        let q1 = (vec![true], 1usize); // AP 1.0
        let q2 = (vec![false, true], 1usize); // AP 0.5
        let v = map_at_k(&[q1, q2], 100);
        assert!((v - 0.75).abs() < 1e-12);
        assert_eq!(map_at_k(&[], 100), 0.0);
    }

    #[test]
    fn p_at_1() {
        assert_eq!(precision_at_1(&[true, false, true, true]), 0.75);
        assert_eq!(precision_at_1(&[]), 0.0);
    }
}
