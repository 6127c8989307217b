//! The evaluation protocol: score candidates, rank, aggregate metrics.

use gnmr_data::EvalInstance;
use gnmr_tensor::par;

use crate::metrics::{hr_at, ndcg_at, rank_of_positive, reciprocal_rank};

/// Anything that can score items for a user. All models in this workspace
/// implement this; the evaluator only sees this trait.
pub trait Recommender {
    /// Scores `items` for `user`; higher means more likely to interact
    /// under the target behavior. Must return one score per input item.
    fn score(&self, user: u32, items: &[u32]) -> Vec<f32>;
}

/// Aggregated evaluation results for a sweep of cutoffs.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalReport {
    /// Cutoffs the sweep was computed at.
    pub ns: Vec<usize>,
    /// `HR@N` per cutoff, aligned with `ns`.
    pub hr: Vec<f64>,
    /// `NDCG@N` per cutoff, aligned with `ns`.
    pub ndcg: Vec<f64>,
    /// Mean reciprocal rank.
    pub mrr: f64,
    /// Number of evaluated instances.
    pub n_instances: usize,
}

impl EvalReport {
    /// HR at a cutoff contained in `ns`.
    ///
    /// # Panics
    /// If `n` was not part of the sweep.
    pub fn hr_at(&self, n: usize) -> f64 {
        let idx = self.index_of(n);
        self.hr[idx]
    }

    /// NDCG at a cutoff contained in `ns`.
    pub fn ndcg_at(&self, n: usize) -> f64 {
        let idx = self.index_of(n);
        self.ndcg[idx]
    }

    fn index_of(&self, n: usize) -> usize {
        self.ns
            .iter()
            .position(|&x| x == n)
            .unwrap_or_else(|| panic!("cutoff {n} not in sweep {:?}", self.ns))
    }
}

fn accumulate(ranks: &[usize], ns: &[usize], n_instances: usize) -> EvalReport {
    let mut hr = vec![0.0; ns.len()];
    let mut ndcg = vec![0.0; ns.len()];
    let mut mrr = 0.0;
    for &rank in ranks {
        for (i, &n) in ns.iter().enumerate() {
            hr[i] += hr_at(rank, n);
            ndcg[i] += ndcg_at(rank, n);
        }
        mrr += reciprocal_rank(rank);
    }
    let denom = n_instances.max(1) as f64;
    for v in hr.iter_mut().chain(ndcg.iter_mut()) {
        *v /= denom;
    }
    EvalReport { ns: ns.to_vec(), hr, ndcg, mrr: mrr / denom, n_instances }
}

/// Evaluates a model over the test set at the given cutoffs.
pub fn evaluate<R: Recommender + ?Sized>(model: &R, test: &[EvalInstance], ns: &[usize]) -> EvalReport {
    let ranks: Vec<usize> = test
        .iter()
        .map(|inst| {
            let candidates = inst.candidates();
            let scores = model.score(inst.user, &candidates);
            assert_eq!(scores.len(), candidates.len(), "Recommender returned wrong score count");
            rank_of_positive(&scores)
        })
        .collect();
    accumulate(&ranks, ns, test.len())
}

/// Parallel variant of [`evaluate`] for `Sync` models; results are
/// identical to the sequential version (per-instance metrics are
/// independent). Instances are partitioned across the shared
/// `gnmr_tensor::par` **persistent worker pool** — the same long-lived
/// workers the serving batch splits its users over, so one knob
/// governs the whole binary and evaluation reuses threads serving
/// already warmed up.
pub fn evaluate_parallel<R>(model: &R, test: &[EvalInstance], ns: &[usize], threads: usize) -> EvalReport
where
    R: Recommender + Sync + ?Sized,
{
    let threads = threads.max(1).min(test.len().max(1));
    if threads <= 1 || test.len() < 64 {
        return evaluate(model, test, ns);
    }
    let mut ranks = vec![0usize; test.len()];
    par::for_each_row_chunk(&mut ranks, test.len(), threads, |range, slot| {
        for (out, inst) in slot.iter_mut().zip(&test[range]) {
            let candidates = inst.candidates();
            let scores = model.score(inst.user, &candidates);
            assert_eq!(scores.len(), candidates.len(), "Recommender returned wrong score count");
            *out = rank_of_positive(&scores);
        }
    });
    accumulate(&ranks, ns, test.len())
}

/// [`evaluate_parallel`] with the thread count resolved from the shared
/// config ([`par::num_threads`]): the `GNMR_THREADS` env var, a
/// [`par::set_threads`] override, or the machine's parallelism.
pub fn evaluate_auto<R>(model: &R, test: &[EvalInstance], ns: &[usize]) -> EvalReport
where
    R: Recommender + Sync + ?Sized,
{
    evaluate_parallel(model, test, ns, par::num_threads())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scores items by a fixed preference table: item id == user id wins.
    struct Oracle;
    impl Recommender for Oracle {
        fn score(&self, user: u32, items: &[u32]) -> Vec<f32> {
            items.iter().map(|&i| if i == user { 1.0 } else { 0.0 }).collect()
        }
    }

    /// Always returns the same score: positive ranks last (pessimistic ties).
    struct Constant;
    impl Recommender for Constant {
        fn score(&self, _user: u32, items: &[u32]) -> Vec<f32> {
            vec![0.5; items.len()]
        }
    }

    /// A diverged model: every score is NaN.
    struct Diverged;
    impl Recommender for Diverged {
        fn score(&self, _user: u32, items: &[u32]) -> Vec<f32> {
            vec![f32::NAN; items.len()]
        }
    }

    fn instances(n: usize) -> Vec<EvalInstance> {
        (0..n as u32)
            .map(|u| EvalInstance {
                user: u,
                pos_item: u,
                negatives: (100..110).collect(),
            })
            .collect()
    }

    #[test]
    fn oracle_gets_perfect_metrics() {
        let test = instances(20);
        let r = evaluate(&Oracle, &test, &[1, 5, 10]);
        assert_eq!(r.n_instances, 20);
        for &n in &[1, 5, 10] {
            assert_eq!(r.hr_at(n), 1.0);
            assert_eq!(r.ndcg_at(n), 1.0);
        }
        assert_eq!(r.mrr, 1.0);
    }

    #[test]
    fn constant_scorer_gets_zero() {
        let test = instances(10);
        let r = evaluate(&Constant, &test, &[1, 5, 10]);
        assert_eq!(r.hr_at(10), 0.0);
        assert_eq!(r.ndcg_at(10), 0.0);
    }

    #[test]
    fn nan_scorer_gets_zero() {
        let test = instances(10);
        let r = evaluate(&Diverged, &test, &[1, 5, 10]);
        assert_eq!(r.hr_at(10), 0.0);
        assert_eq!(r.ndcg_at(10), 0.0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let test = instances(200);
        let seq = evaluate(&Oracle, &test, &[1, 3, 10]);
        for threads in [1, 2, 4, 7] {
            let par = evaluate_parallel(&Oracle, &test, &[1, 3, 10], threads);
            assert_eq!(seq, par, "threads={threads}");
        }
        assert_eq!(seq, evaluate_auto(&Oracle, &test, &[1, 3, 10]));
    }

    #[test]
    fn metrics_monotone_in_n() {
        // A model that ranks the positive at position `user % 11`.
        struct Ranked;
        impl Recommender for Ranked {
            fn score(&self, user: u32, items: &[u32]) -> Vec<f32> {
                let rank = (user % 11) as usize;
                items
                    .iter()
                    .enumerate()
                    .map(|(i, _)| if i == 0 { 0.0 } else if i <= rank { 1.0 } else { -1.0 })
                    .collect()
            }
        }
        let test = instances(110);
        let r = evaluate(&Ranked, &test, &[1, 3, 5, 7, 9]);
        for w in r.hr.windows(2) {
            assert!(w[0] <= w[1], "HR not monotone: {:?}", r.hr);
        }
        for w in r.ndcg.windows(2) {
            assert!(w[0] <= w[1], "NDCG not monotone: {:?}", r.ndcg);
        }
        for (h, n) in r.hr.iter().zip(&r.ndcg) {
            assert!(n <= h, "NDCG exceeds HR");
        }
    }

    #[test]
    #[should_panic(expected = "cutoff 7 not in sweep")]
    fn missing_cutoff_panics() {
        let r = evaluate(&Oracle, &instances(3), &[1, 10]);
        let _ = r.hr_at(7);
    }

    #[test]
    fn empty_test_set_is_graceful() {
        let r = evaluate(&Oracle, &[], &[10]);
        assert_eq!(r.n_instances, 0);
        assert_eq!(r.hr_at(10), 0.0);
    }
}
