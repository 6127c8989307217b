//! The serving index: frozen representations plus the batched
//! million-user scoring path.
//!
//! [`ServeIndex`] holds the fused user/item representation matrices and
//! answers top-k queries through the same canonical kernels the trainer
//! scores with ([`kernels::dot`], [`kernels::rank_rows_with`]), so a
//! served list is byte-identical to what `Gnmr::recommend` would
//! produce from the same snapshot. Two shapes of query:
//!
//! * **latency** — [`ServeIndex::recommend`] parallelizes one user's
//!   catalog sweep across the worker pool;
//! * **throughput** — [`ServeIndex::recommend_batch_into`] partitions a
//!   *batch of users* across the pool instead: each worker scores whole
//!   users into its own thread-local catalog buffer and writes finished
//!   top-k rows straight into the caller's output slice. After each
//!   worker has warmed its scratch (first request at a given catalog
//!   size), the steady state performs **zero heap allocations per
//!   request** — the arena discipline, applied to inference, enforced by
//!   the counting-allocator row in the `serve` bench gate.

use std::cell::RefCell;

use gnmr_tensor::{kernels, par, Matrix};

use crate::error::ModelNotReady;
use crate::snapshot::ModelSnapshot;

/// Per-user exclusion lists (already-seen items) in CSR layout: row `u`
/// is `items[indptr[u]..indptr[u + 1]]`, sorted ascending — the shape
/// the merge-walk in [`kernels::top_k_select_excluding`] consumes with
/// zero per-request work.
pub struct ExcludeLists {
    indptr: Vec<usize>,
    items: Vec<u32>,
}

impl ExcludeLists {
    /// No exclusions for any of `n_users` users.
    pub fn empty(n_users: usize) -> Self {
        ExcludeLists { indptr: vec![0; n_users + 1], items: Vec::new() }
    }

    /// Builds from per-user item lists; each list is sorted here so the
    /// serving hot path never has to.
    pub fn from_rows(rows: &[Vec<u32>]) -> Self {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        indptr.push(0);
        let mut items = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        for row in rows {
            items.extend_from_slice(row);
            let start = *indptr.last().expect("non-empty indptr");
            items[start..].sort_unstable();
            indptr.push(items.len());
        }
        ExcludeLists { indptr, items }
    }

    /// The sorted exclusion list for `user`.
    pub fn row(&self, user: usize) -> &[u32] {
        &self.items[self.indptr[user]..self.indptr[user + 1]]
    }

    /// Number of users covered.
    pub fn n_users(&self) -> usize {
        self.indptr.len() - 1
    }
}

thread_local! {
    /// Per-thread ranking scratch (catalog score buffer plus selection
    /// heap): minted once per worker thread and reused across every
    /// request that thread ever serves.
    static RANK_SCRATCH: RefCell<kernels::RankScratch> = const { RefCell::new(kernels::RankScratch::new()) };
}

/// A frozen-model serving index over fused representations.
pub struct ServeIndex {
    user_repr: Matrix,
    item_repr: Matrix,
}

impl ServeIndex {
    /// Builds an index from representation matrices (one row per
    /// user/item; widths must agree).
    pub fn new(user_repr: Matrix, item_repr: Matrix) -> Self {
        assert_eq!(
            user_repr.cols(),
            item_repr.cols(),
            "ServeIndex: representation width mismatch ({} vs {})",
            user_repr.cols(),
            item_repr.cols()
        );
        assert!(
            item_repr.rows() < u32::MAX as usize,
            "ServeIndex: catalog of {} items exceeds u32 index space",
            item_repr.rows()
        );
        ServeIndex { user_repr, item_repr }
    }

    /// Builds an index from a loaded snapshot (consumes only the
    /// representations; parameters stay with the snapshot).
    pub fn from_snapshot(snapshot: &ModelSnapshot) -> Self {
        Self::new(snapshot.user_repr().clone(), snapshot.item_repr().clone())
    }

    /// Builds an index straight from a ready model (no snapshot file).
    /// Errors with [`ModelNotReady`] if the model has no cached
    /// representations yet (call `fit` or `refresh_representations`
    /// first).
    pub fn from_model(model: &gnmr_core::Gnmr) -> Result<Self, ModelNotReady> {
        let (u, v) = model.representations().ok_or(ModelNotReady)?;
        Ok(Self::new(u.clone(), v.clone()))
    }

    /// Number of users the index can serve.
    pub fn n_users(&self) -> usize {
        self.user_repr.rows()
    }

    /// Catalog size.
    pub fn n_items(&self) -> usize {
        self.item_repr.rows()
    }

    /// Representation width (sum over propagation orders).
    pub fn dim(&self) -> usize {
        self.user_repr.cols()
    }

    /// Single-pair score via the canonical fixed-lane dot — bitwise
    /// equal to the training-side `Gnmr::score_pair` on the same
    /// representations.
    pub fn score(&self, user: u32, item: u32) -> f32 {
        kernels::dot(self.user_repr.row(user as usize), self.item_repr.row(item as usize))
    }

    /// Latency-shaped query: one user's top-`k`, with the catalog sweep
    /// partitioned across the worker pool. `exclude` must be sorted
    /// ascending. Returns up to `k` `(item, score)` pairs in the
    /// deterministic `(score desc, item asc)` order.
    pub fn recommend(&self, user: u32, k: usize, exclude: &[u32]) -> Vec<(u32, f32)> {
        let mut scratch = kernels::RankScratch::new();
        kernels::rank_rows(&self.item_repr, self.user_repr.row(user as usize), k, exclude, &mut scratch).to_vec()
    }

    /// Throughput-shaped query on an explicit thread count: scores
    /// `users` and writes each user's top-`k` row into
    /// `out[i * k..(i + 1) * k]`, padding short rows with
    /// `(u32::MAX, f32::NEG_INFINITY)`. The *user batch* is partitioned
    /// across the worker pool — each worker sweeps whole catalogs into
    /// its thread-local scratch — so after per-thread warmup the steady
    /// state allocates nothing.
    pub fn recommend_batch_into_with(
        &self,
        users: &[u32],
        k: usize,
        excludes: &ExcludeLists,
        out: &mut [(u32, f32)],
        threads: usize,
    ) {
        assert_eq!(
            out.len(),
            users.len() * k,
            "recommend_batch_into: out length {} != {} users x k {}",
            out.len(),
            users.len(),
            k
        );
        assert_eq!(
            excludes.n_users(),
            self.n_users(),
            "recommend_batch_into: exclusion lists cover {} users, index has {}",
            excludes.n_users(),
            self.n_users()
        );
        if users.is_empty() || k == 0 {
            return;
        }
        par::for_each_row_chunk(out, users.len(), threads, |range, chunk| {
            RANK_SCRATCH.with(|cell| {
                let scratch = &mut *cell.borrow_mut();
                for (row, &user) in chunk.chunks_mut(k).zip(&users[range]) {
                    let (user_row, exclude) = (self.user_repr.row(user as usize), excludes.row(user as usize));
                    let sel = kernels::rank_rows_with(&self.item_repr, user_row, k, exclude, scratch, 1);
                    row[..sel.len()].copy_from_slice(sel);
                    // `u32::MAX` is never a real item: `new` bounds the catalog below it.
                    row[sel.len()..].fill((u32::MAX, f32::NEG_INFINITY));
                }
            });
        });
    }

    /// [`ServeIndex::recommend_batch_into_with`] on the shared
    /// thread-count config (serial below the kernel layer's minimum
    /// work threshold, like the `row_dots`/`rank_rows` sweeps).
    pub fn recommend_batch_into(&self, users: &[u32], k: usize, excludes: &ExcludeLists, out: &mut [(u32, f32)]) {
        let work = users.len() * self.item_repr.len();
        let threads = if work < kernels::min_work() { 1 } else { par::num_threads() };
        self.recommend_batch_into_with(users, k, excludes, out, threads);
    }

    /// Allocating convenience over [`ServeIndex::recommend_batch_into`]:
    /// one `Vec<(item, score)>` per user, sentinel padding stripped.
    pub fn recommend_batch(&self, users: &[u32], k: usize, excludes: &ExcludeLists) -> Vec<Vec<(u32, f32)>> {
        if k == 0 {
            return vec![Vec::new(); users.len()];
        }
        let mut flat = vec![(0u32, 0.0f32); users.len() * k];
        self.recommend_batch_into(users, k, excludes, &mut flat);
        flat.chunks(k)
            .map(|row| row.iter().take_while(|&&(item, _)| item != u32::MAX).copied().collect())
            .collect()
    }
}
