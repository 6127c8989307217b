//! Output checks. Every served row the benchmark verifies is compared
//! bit for bit with a brute-force reference — every catalog score from
//! `kernels::row_dots`, excluded items dropped, a full sort by score
//! descending then item ascending — and every failed check counts
//! against `error_rate`.

use gnmr_serve::ExcludeLists;
use gnmr_tensor::{kernels, Matrix};

/// Operations attempted and failed in one run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one operation whose output was checked.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Records `n` operations that completed without a sampled check.
    pub fn unchecked(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Failed operations per attempted operation.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A user's top-`k` computed the slow, obvious way.
pub fn reference_row(item_repr: &Matrix, user_row: &[f32], exclude: &[u32], k: usize) -> Vec<(u32, f32)> {
    let scores = kernels::row_dots(item_repr, user_row);
    let mut ranked: Vec<(u32, f32)> = scores
        .iter()
        .enumerate()
        .map(|(i, &s)| (i as u32, s))
        .filter(|(i, _)| exclude.binary_search(i).is_err())
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

/// Whether a served row — `k` slots, padded with `(u32::MAX, -inf)`
/// when fewer items qualify — equals `reference` bit for bit.
pub fn row_equals(served: &[(u32, f32)], reference: &[(u32, f32)]) -> bool {
    served.len() >= reference.len()
        && bits_equal(&served[..reference.len()], reference)
        && served[reference.len()..].iter().all(|&(item, score)| item == u32::MAX && score == f32::NEG_INFINITY)
}

/// Whether every row of a served batch (`k` slots per user) equals its
/// reference.
pub fn batch_equals(
    item_repr: &Matrix,
    user_repr: &Matrix,
    excludes: &ExcludeLists,
    users: &[u32],
    k: usize,
    served: &[(u32, f32)],
) -> bool {
    served.len() == users.len() * k
        && users.iter().zip(served.chunks(k)).all(|(&u, row)| {
            row_equals(row, &reference_row(item_repr, user_repr.row(u as usize), excludes.row(u as usize), k))
        })
}

/// Whether two served buffers agree bit for bit.
pub fn bits_equal(a: &[(u32, f32)], b: &[(u32, f32)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnmr_serve::ServeIndex;
    use gnmr_tensor::{init, rng};

    const K: usize = 5;

    /// A tiny index, a batch of users, and what it served them.
    fn served() -> (Matrix, Matrix, ExcludeLists, Vec<u32>, Vec<(u32, f32)>) {
        let users = init::uniform(6, 8, -1.0, 1.0, &mut rng::seeded(1));
        let items = init::uniform(40, 8, -1.0, 1.0, &mut rng::seeded(2));
        let excludes =
            ExcludeLists::from_rows(&[vec![7, 3], vec![], vec![0, 1, 2], vec![39], vec![5], vec![]]);
        let index = ServeIndex::new(users.clone(), items.clone());
        let batch = vec![0, 2, 3, 5];
        let mut out = vec![(0, 0.0); batch.len() * K];
        index.recommend_batch_into(&batch, K, &excludes, &mut out);
        (users, items, excludes, batch, out)
    }

    #[test]
    fn served_batch_matches_reference() {
        let (u, v, ex, batch, out) = served();
        assert!(batch_equals(&v, &u, &ex, &batch, K, &out));
    }

    #[test]
    fn corrupted_row_is_counted() {
        let (u, v, ex, batch, mut out) = served();
        let mut checks = Checks::default();
        checks.record(batch_equals(&v, &u, &ex, &batch, K, &out), || "clean batch".into());
        // One ulp off in the second user's third score.
        out[K + 2].1 = f32::from_bits(out[K + 2].1.to_bits() ^ 1);
        checks.record(batch_equals(&v, &u, &ex, &batch, K, &out), || "corrupted score".into());
        out[K + 2].1 = f32::from_bits(out[K + 2].1.to_bits() ^ 1);
        // The first user's top two in the wrong order.
        out.swap(0, 1);
        checks.record(batch_equals(&v, &u, &ex, &batch, K, &out), || "swapped ranks".into());
        assert_eq!((checks.attempted, checks.failed), (3, 2));
        assert!((checks.error_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sentinel_padding_is_checked() {
        let reference = [(1, 0.5), (0, 0.25)];
        let mut served = [(1, 0.5), (0, 0.25), (u32::MAX, f32::NEG_INFINITY)];
        assert!(row_equals(&served, &reference));
        served[2] = (2, 0.0);
        assert!(!row_equals(&served, &reference));
    }
}
