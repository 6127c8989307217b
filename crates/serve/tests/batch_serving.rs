//! Batched serving tests: the throughput path and the per-user path
//! must both give, bit for bit, the list a brute-force reference ranks
//! (every catalog score, a full sort), at every thread count; honor
//! exclusions; and pad deterministically.

use gnmr_serve::{ExcludeLists, ServeIndex};
use gnmr_tensor::{init, kernels, par, rng, Matrix};
use proptest::prelude::*;

/// RAII guard lifting the oversubscription guard so explicit thread
/// counts dispatch for real on the 1-CPU container (same idiom as the
/// tensor equivalence suite).
struct ThreadOverride;

impl ThreadOverride {
    fn lift_caps() -> Self {
        par::set_threads(Some(4));
        ThreadOverride
    }
}

impl Drop for ThreadOverride {
    fn drop(&mut self) {
        par::set_threads(None);
    }
}

/// Seeded user and item representations.
fn synthetic_reprs(n_users: usize, n_items: usize, dim: usize) -> (Matrix, Matrix) {
    let mut r = rng::seeded(0xbeef);
    let u = init::uniform(n_users, dim, -1.0, 1.0, &mut r);
    let v = init::uniform(n_items, dim, -1.0, 1.0, &mut r);
    (u, v)
}

fn synthetic_index(n_users: usize, n_items: usize, dim: usize) -> ServeIndex {
    let (u, v) = synthetic_reprs(n_users, n_items, dim);
    ServeIndex::new(u, v)
}

/// A user's top-`k` row computed the slow, obvious way, as the
/// benchmark's output check computes it: every catalog score from
/// `kernels::row_dots`, excluded items dropped, a full sort by score
/// descending then item ascending, the first `k`, then
/// `(u32::MAX, -inf)` padding to `k` slots. It shares no selection code
/// with the serving path.
fn reference_row(item_repr: &Matrix, user_row: &[f32], exclude: &[u32], k: usize) -> Vec<(u32, f32)> {
    let scores = kernels::row_dots(item_repr, user_row);
    let mut ranked: Vec<(u32, f32)> = scores
        .iter()
        .enumerate()
        .map(|(i, &s)| (i as u32, s))
        .filter(|(i, _)| !exclude.contains(i))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked.resize(k, (u32::MAX, f32::NEG_INFINITY));
    ranked
}

/// A row as `(item, score bits)` pairs, so −0.0 and +0.0 differ.
fn pair_bits(row: &[(u32, f32)]) -> Vec<(u32, u32)> {
    row.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// A padded reference row without its padding, as the allocating
/// surfaces return it.
fn unpadded(row: &[(u32, f32)]) -> &[(u32, f32)] {
    &row[..row.iter().take_while(|&&(item, _)| item != u32::MAX).count()]
}

fn exclusions(n_users: usize, n_items: usize, per_user: usize) -> ExcludeLists {
    let rows: Vec<Vec<u32>> = (0..n_users as u64)
        .map(|u| {
            (0..per_user as u64)
                .map(|j| ((u.wrapping_mul(48_271).wrapping_add(j.wrapping_mul(16_807))) % n_items as u64) as u32)
                .collect()
        })
        .collect();
    ExcludeLists::from_rows(&rows)
}

#[test]
fn batch_matches_single_user_path_at_every_thread_count() {
    let _caps = ThreadOverride::lift_caps();
    let (u, v) = synthetic_reprs(37, 211, 12);
    let index = ServeIndex::new(u.clone(), v.clone());
    let excludes = exclusions(37, 211, 9);
    let users: Vec<u32> = (0..37).collect();
    let k = 10;

    let reference: Vec<Vec<(u32, f32)>> =
        users.iter().map(|&user| reference_row(&v, u.row(user as usize), excludes.row(user as usize), k)).collect();
    assert!(reference.iter().flatten().all(|&(item, _)| item != u32::MAX), "full rows expected here");

    // The per-user path.
    for (&user, want) in users.iter().zip(&reference) {
        let got = index.recommend(user, k, excludes.row(user as usize));
        assert_eq!(pair_bits(&got), pair_bits(want), "recommend, user {user}");
    }

    // The batch, every user's row in one pass per worker.
    for threads in [1, 2, 4] {
        let mut out = vec![(0u32, 0.0f32); users.len() * k];
        index.recommend_batch_into_with(&users, k, &excludes, &mut out, threads);
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(pair_bits(&out[i * k..(i + 1) * k]), pair_bits(want), "threads {threads}, user {i}");
        }
    }

    // The allocating convenience wrapper agrees too.
    let lists = index.recommend_batch(&users, k, &excludes);
    assert_eq!(lists, reference);
}

#[test]
fn excluded_items_never_appear() {
    let index = synthetic_index(8, 64, 8);
    let excludes = exclusions(8, 64, 20);
    let users: Vec<u32> = (0..8).collect();
    for (u, row) in index.recommend_batch(&users, 15, &excludes).iter().enumerate() {
        for &(item, _) in row {
            assert!(
                excludes.row(u).binary_search(&item).is_err(),
                "user {u}: excluded item {item} served"
            );
        }
    }
}

#[test]
fn short_rows_are_sentinel_padded_and_stripped() {
    // k exceeds the catalog: the flat buffer pads with the sentinel,
    // the convenience wrapper strips it.
    let index = synthetic_index(3, 5, 8);
    let excludes = ExcludeLists::empty(3);
    let users = [0u32, 2];
    let k = 9;
    let mut out = vec![(7u32, 7.0f32); users.len() * k];
    index.recommend_batch_into_with(&users, k, &excludes, &mut out, 1);
    for row in out.chunks(k) {
        for &(item, score) in &row[..5] {
            assert!(item < 5, "real entries first");
            assert!(score.is_finite());
        }
        for &(item, score) in &row[5..] {
            assert_eq!(item, u32::MAX, "sentinel item");
            assert_eq!(score, f32::NEG_INFINITY, "sentinel score");
        }
    }
    for row in index.recommend_batch(&users, k, &excludes) {
        assert_eq!(row.len(), 5, "padding stripped");
    }
    // k = 0: empty rows, nothing touched.
    let mut empty_out: Vec<(u32, f32)> = Vec::new();
    index.recommend_batch_into_with(&users, 0, &excludes, &mut empty_out, 2);
    assert_eq!(index.recommend_batch(&users, 0, &excludes), vec![Vec::new(), Vec::new()]);
}

#[test]
fn score_uses_the_canonical_lane_dot() {
    let index = synthetic_index(4, 6, 19);
    let mut r = rng::seeded(0xbeef);
    let u = init::uniform(4, 19, -1.0, 1.0, &mut r);
    let v = init::uniform(6, 19, -1.0, 1.0, &mut r);
    for user in 0..4u32 {
        for item in 0..6u32 {
            assert_eq!(
                index.score(user, item).to_bits(),
                kernels::dot(u.row(user as usize), v.row(item as usize)).to_bits()
            );
        }
    }
}

#[test]
#[should_panic(expected = "representation width mismatch")]
fn width_mismatch_panics() {
    let _ = ServeIndex::new(Matrix::zeros(2, 4), Matrix::zeros(3, 5));
}

// Ids are checked before any strip arithmetic: 13 items fill one strip
// and five rows of a zero-padded tail strip, so item 13 would land in
// the padding instead of past the end of the storage.

#[test]
#[should_panic(expected = "ServeIndex::score: item 13 out of range for 13 items")]
fn score_rejects_the_item_past_the_catalog() {
    let _ = synthetic_index(4, 13, 19).score(0, 13);
}

#[test]
#[should_panic(expected = "ServeIndex::score: user 4 out of range for 4 users")]
fn score_rejects_an_unknown_user() {
    let _ = synthetic_index(4, 13, 19).score(4, 0);
}

#[test]
#[should_panic(expected = "ServeIndex::recommend: user 7 out of range for 4 users")]
fn recommend_rejects_an_unknown_user() {
    let _ = synthetic_index(4, 13, 19).recommend(7, 3, &[]);
}

/// A value from a few coarse levels, signed zeros among them, so equal
/// dots and `-0.0` scores are common.
fn level() -> impl Strategy<Value = f32> {
    (0usize..6).prop_map(|i| [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0][i])
}

/// A tie-heavy serving case: user rows and a catalog of `n_items` rows
/// copied from at most five distinct rows (duplicated rows score
/// exactly alike), per-user exclusion lists with duplicates and ids
/// past the catalog, a batch of 1–17 users from a pool of at most five
/// (so users repeat), and `k` from {0, 1, 3, catalog, catalog + 5}.
#[allow(clippy::type_complexity)]
fn serving_case() -> impl Strategy<Value = (Matrix, Matrix, Vec<Vec<u32>>, Vec<u32>, usize)> {
    (1usize..6, 1usize..40, 0usize..9, 1usize..6).prop_flat_map(|(n_users, n_items, dim, distinct)| {
        let users = proptest::collection::vec(level(), n_users * dim)
            .prop_map(move |v| Matrix::from_vec(n_users, dim, v));
        let items = (
            proptest::collection::vec(level(), distinct * dim),
            proptest::collection::vec(0..distinct, n_items),
        )
            .prop_map(move |(rows, pick)| {
                Matrix::from_fn(n_items, dim, |r, c| rows[pick[r] * dim + c])
            });
        let excludes = proptest::collection::vec(
            proptest::collection::vec(0..n_items as u32 + 5, 0..8).prop_map(|mut row| {
                if let Some(&first) = row.first() {
                    row.push(first);
                }
                row
            }),
            n_users,
        );
        let batch = proptest::collection::vec(0..n_users as u32, 1..=17);
        let k = (0usize..5).prop_map(move |i| [0, 1, 3, n_items, n_items + 5][i]);
        (users, items, excludes, batch, k)
    })
}

proptest! {
    #[test]
    fn batch_equals_per_user_on_random_shapes(
        (n_users, n_items, dim, k) in (1usize..12, 1usize..80, 1usize..20, 0usize..14)
    ) {
        let (u, v) = synthetic_reprs(n_users, n_items, dim);
        let index = ServeIndex::new(u.clone(), v.clone());
        let excludes = exclusions(n_users, n_items, 4);
        let users: Vec<u32> = (0..n_users as u32).collect();
        let got = index.recommend_batch(&users, k, &excludes);
        for (user, row) in got.iter().enumerate() {
            let want = reference_row(&v, u.row(user), excludes.row(user), k);
            prop_assert_eq!(pair_bits(row), pair_bits(unpadded(&want)), "batch, user {}", user);
            let single = index.recommend(user as u32, k, excludes.row(user));
            prop_assert_eq!(pair_bits(&single), pair_bits(unpadded(&want)), "recommend, user {}", user);
        }
    }

    #[test]
    fn batch_and_single_user_paths_match_full_sort_reference(
        (u, v, rows, batch, k) in serving_case()
    ) {
        let _caps = ThreadOverride::lift_caps();
        let index = ServeIndex::new(u.clone(), v.clone());
        let excludes = ExcludeLists::from_rows(&rows);
        let reference: Vec<Vec<(u32, f32)>> = batch
            .iter()
            .map(|&user| reference_row(&v, u.row(user as usize), &rows[user as usize], k))
            .collect();
        for threads in [1, 2, 4] {
            let mut out = vec![(7u32, f32::NAN); batch.len() * k];
            index.recommend_batch_into_with(&batch, k, &excludes, &mut out, threads);
            for (i, want) in reference.iter().enumerate() {
                prop_assert_eq!(
                    pair_bits(&out[i * k..(i + 1) * k]),
                    pair_bits(want),
                    "threads {}, slot {}, user {}, k {}", threads, i, batch[i], k
                );
            }
        }
        for (&user, want) in batch.iter().zip(&reference) {
            let got = index.recommend(user, k, excludes.row(user as usize));
            prop_assert_eq!(pair_bits(&got), pair_bits(unpadded(want)), "recommend, user {}, k {}", user, k);
        }
    }
}
