//! Hit Ratio and NDCG for leave-one-out ranking.

use std::cmp::Ordering;

/// The 0-based rank of the positive item (index 0 of `scores`) among all
/// candidates, with pessimistic tie-breaking: any other candidate not
/// scored strictly below the positive is counted ahead of it, so an
/// equal score counts against the positive, and so does any NaN (a NaN
/// positive ranks last, a NaN negative ahead of it). Pessimistic ties
/// make a constant scorer produce rank = last, so degenerate or
/// diverged models cannot fake good metrics.
pub fn rank_of_positive(scores: &[f32]) -> usize {
    assert!(!scores.is_empty(), "rank_of_positive: empty scores");
    let pos = scores[0];
    scores[1..].iter().filter(|&&s| s.partial_cmp(&pos) != Some(Ordering::Less)).count()
}

/// HR@N for a single instance: 1 if the positive ranks in the top N.
pub fn hr_at(rank: usize, n: usize) -> f64 {
    if rank < n {
        1.0
    } else {
        0.0
    }
}

/// NDCG@N for a single instance with one relevant item:
/// `1 / log2(rank + 2)` if it ranks in the top N, else 0.
pub fn ndcg_at(rank: usize, n: usize) -> f64 {
    if rank < n {
        1.0 / ((rank + 2) as f64).log2()
    } else {
        0.0
    }
}

/// Reciprocal rank for a single instance.
pub fn reciprocal_rank(rank: usize) -> f64 {
    1.0 / (rank + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_counts_strictly_better_and_ties() {
        assert_eq!(rank_of_positive(&[0.9, 0.5, 0.1]), 0);
        assert_eq!(rank_of_positive(&[0.5, 0.9, 0.1]), 1);
        assert_eq!(rank_of_positive(&[0.1, 0.9, 0.5]), 2);
        // Ties count against the positive.
        assert_eq!(rank_of_positive(&[0.5, 0.5, 0.1]), 1);
        assert_eq!(rank_of_positive(&[0.5, 0.5, 0.5]), 2);
    }

    #[test]
    fn nan_scores_count_against_the_positive() {
        // A NaN positive ranks last, not first.
        assert_eq!(rank_of_positive(&[f32::NAN, 0.5, 0.1]), 2);
        assert_eq!(rank_of_positive(&[f32::NAN, f32::NAN]), 1);
        // A NaN negative counts ahead of a finite positive.
        assert_eq!(rank_of_positive(&[0.9, f32::NAN, 0.1]), 1);
    }

    #[test]
    fn hr_threshold() {
        assert_eq!(hr_at(0, 1), 1.0);
        assert_eq!(hr_at(1, 1), 0.0);
        assert_eq!(hr_at(9, 10), 1.0);
        assert_eq!(hr_at(10, 10), 0.0);
    }

    #[test]
    fn ndcg_values() {
        // Rank 0 => 1/log2(2) = 1.
        assert!((ndcg_at(0, 10) - 1.0).abs() < 1e-12);
        // Rank 1 => 1/log2(3).
        assert!((ndcg_at(1, 10) - 1.0 / 3f64.log2()).abs() < 1e-12);
        assert_eq!(ndcg_at(10, 10), 0.0);
        // NDCG is monotonically decreasing in rank.
        for r in 0..9 {
            assert!(ndcg_at(r, 10) > ndcg_at(r + 1, 10));
        }
    }

    #[test]
    fn ndcg_bounded_by_hr() {
        for rank in 0..20 {
            for n in [1, 3, 5, 10] {
                assert!(ndcg_at(rank, n) <= hr_at(rank, n));
                assert!(ndcg_at(rank, n) >= 0.0);
            }
        }
    }

    #[test]
    fn reciprocal_rank_values() {
        assert_eq!(reciprocal_rank(0), 1.0);
        assert_eq!(reciprocal_rank(3), 0.25);
    }
}
