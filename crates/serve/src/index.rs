//! The serving index: frozen representations plus the batched
//! million-user scoring path.
//!
//! [`ServeIndex`] holds the fused user representations as a matrix and
//! the item representations as [`kernels::RowStrips`]: 8-row strips
//! with each float split into its high and low 16 bits, all the high
//! halves of a block of strips first, built in place from the item
//! matrix, so the catalog takes the matrix's bytes and no more. It
//! answers top-k queries through the same canonical kernels the
//! trainer scores with ([`kernels::rank_rows`],
//! [`kernels::rank_rows_into`], and for one pair the lane dot over the
//! item's rebuilt strip, bitwise [`kernels::dot`]), so a served list is
//! byte-identical to what `Gnmr::recommend` would produce from the same
//! snapshot. Two shapes of query:
//!
//! * **one user** — [`ServeIndex::recommend`] sweeps the catalog for
//!   one user on the calling thread;
//! * **throughput** — [`ServeIndex::recommend_batch_into`] partitions a
//!   *batch of users* across the pool: each worker reads the catalog's
//!   high halves once for all of its users, bounds each strip's scores
//!   for each user from them, rescores the strip exactly from both
//!   halves (`matmul_nt`'s inner loop) only where a bound reaches that
//!   user's heap root, streams the exact scores into the user's top-k
//!   heap, and keeps the heaps in the caller's output slice. After each
//!   worker has warmed its scratch (a few words of state per user and
//!   one strip, minted by its first request at a given batch size), the
//!   steady state performs **zero heap allocations per request** — the
//!   arena discipline, applied to inference, enforced by the
//!   counting-allocator row in the `serve` bench gate.

use std::cell::RefCell;

use gnmr_tensor::{kernels, par, Matrix};

use crate::error::ModelNotReady;
use crate::snapshot::ModelSnapshot;

/// Per-user exclusion lists (already-seen items) in CSR layout: row `u`
/// is `items[indptr[u]..indptr[u + 1]]`, sorted ascending — the shape
/// the exclusion merge walk in [`kernels::rank_rows_into`] consumes
/// with zero per-request work.
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
    /// Per-thread ranking scratch (a few words of state per user and
    /// one rebuilt strip): minted once per worker thread and reused
    /// across every request that thread ever serves.
    static RANK_SCRATCH: RefCell<kernels::RankScratch> = const { RefCell::new(kernels::RankScratch::new()) };
}

/// A frozen-model serving index over fused representations: the user
/// rows as a matrix, the catalog as [`kernels::RowStrips`].
pub struct ServeIndex {
    user_repr: Matrix,
    items: kernels::RowStrips,
}

impl ServeIndex {
    /// Builds an index from representation matrices (one row per
    /// user/item; widths must agree). The item matrix is split into
    /// strips in its own buffer, so building holds the catalog once.
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
        ServeIndex { user_repr, items: kernels::RowStrips::new(item_repr) }
    }

    /// Builds an index from a borrowed snapshot, copying its
    /// representations; parameters stay with the snapshot. An owned
    /// snapshot converts without the copy (`ServeIndex::from`).
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
        self.items.rows()
    }

    /// Representation width (sum over propagation orders).
    pub fn dim(&self) -> usize {
        self.user_repr.cols()
    }

    /// The user's representation row, after checking the id.
    fn user_row(&self, user: u32, op: &str) -> &[f32] {
        let n = self.n_users();
        assert!((user as usize) < n, "ServeIndex::{op}: user {user} out of range for {n} users");
        self.user_repr.row(user as usize)
    }

    /// Single-pair score, bitwise the training-side `Gnmr::score_pair`
    /// (`kernels::dot(user row, item row)`) on the same
    /// representations: a lane dot over the item's strip, rebuilt from
    /// both halves in the thread's pack buffer
    /// ([`kernels::RowStrips::dot_row`]). Allocates nothing once that
    /// buffer holds a strip.
    ///
    /// # Panics
    /// If `user` or `item` is out of range (the message names the id).
    pub fn score(&self, user: u32, item: u32) -> f32 {
        let query = self.user_row(user, "score");
        let n = self.n_items();
        assert!((item as usize) < n, "ServeIndex::score: item {item} out of range for {n} items");
        self.items.dot_row(query, item as usize)
    }

    /// One user's top-`k`, swept on the calling thread through
    /// [`kernels::rank_rows`]. `exclude` must be sorted ascending.
    /// Returns up to `k` `(item, score)` pairs in the deterministic
    /// `(score desc, item asc)` order.
    ///
    /// # Panics
    /// If `user` is out of range (the message names the id).
    pub fn recommend(&self, user: u32, k: usize, exclude: &[u32]) -> Vec<(u32, f32)> {
        kernels::rank_rows(&self.items, self.user_row(user, "recommend"), k, exclude)
    }

    /// Throughput-shaped query on an explicit thread count: scores
    /// `users` and writes each user's top-`k` row into
    /// `out[i * k..(i + 1) * k]`, padding short rows with
    /// `(u32::MAX, f32::NEG_INFINITY)`. The *user batch* is partitioned
    /// across the worker pool, and each worker ranks its users in one
    /// pass over the catalog ([`kernels::rank_rows_into`]) with its
    /// thread-local scratch, so after per-thread warmup the steady state
    /// allocates nothing.
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
            let users = &users[range];
            RANK_SCRATCH.with(|cell| {
                let exclude = |i: usize| excludes.row(users[i] as usize);
                let scratch = &mut *cell.borrow_mut();
                kernels::rank_rows_into(chunk, &self.items, &self.user_repr, users, k, exclude, scratch);
            });
        });
    }

    /// [`ServeIndex::recommend_batch_into_with`] on the shared
    /// thread-count config (serial below the kernel layer's minimum
    /// work threshold, `kernels::min_work`).
    pub fn recommend_batch_into(&self, users: &[u32], k: usize, excludes: &ExcludeLists, out: &mut [(u32, f32)]) {
        let work = users.len() * self.n_items() * self.dim();
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

impl From<ModelSnapshot> for ServeIndex {
    /// Builds an index from an owned snapshot, moving its
    /// representations in: the strips are split in the decoded item
    /// buffer, with no copy of either matrix. Parameters are dropped.
    fn from(snapshot: ModelSnapshot) -> Self {
        let (user_repr, item_repr) = snapshot.into_reprs();
        Self::new(user_repr, item_repr)
    }
}
