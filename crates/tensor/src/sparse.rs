//! Compressed sparse row matrices and the SpMM kernels used for graph
//! message passing.
//!
//! # Parallel construction & normalization
//!
//! Building a CSR from triplets and normalizing it (row / symmetric)
//! run on the shared persistent worker pool ([`crate::par`]) once the
//! matrix is large enough to amortize dispatch; below
//! [`crate::kernels::PAR_MIN_WORK`] stored entries everything stays on
//! the serial path. Results are **bitwise identical** at every thread
//! count: construction buckets entries by row (preserving insertion
//! order), sorts each row stably by column, and sums duplicates in
//! insertion order — the same accumulation order as the serial
//! reference; normalization scales disjoint row spans in place.

use std::ops::Range;
use std::sync::OnceLock;

use crate::dense::Matrix;
use crate::kernels;
use crate::par;

/// Thread count for CSR construction/normalization: serial below
/// [`kernels::min_work`] stored entries, otherwise the shared config.
fn auto_build_threads(nnz: usize) -> usize {
    if nnz < kernels::min_work() {
        1
    } else {
        par::num_threads()
    }
}

/// Builds a CSR from serially sorted triplets, summing duplicates.
/// `sorted` must be stably sorted by `(row, col)`, so duplicates sum in
/// insertion order.
fn rebuild_csr(rows: usize, cols: usize, sorted: &[(u32, u32, f32)]) -> Csr {
    let mut indptr = vec![0usize; rows + 1];
    let mut indices: Vec<u32> = Vec::with_capacity(sorted.len());
    let mut values: Vec<f32> = Vec::with_capacity(sorted.len());
    let mut prev: Option<(u32, u32)> = None;
    for &(r, c, v) in sorted {
        if prev == Some((r, c)) {
            *values.last_mut().unwrap() += v;
        } else {
            indices.push(c);
            values.push(v);
            indptr[r as usize + 1] += 1;
            prev = Some((r, c));
        }
    }
    for i in 0..rows {
        indptr[i + 1] += indptr[i];
    }
    Csr { rows, cols, indptr, indices, values, csc: OnceLock::new() }
}

/// Scales each row span in `range` to sum to 1 (rows summing to 0 are
/// left zero). `chunk` holds the elements of those spans, shifted left
/// by `offset` (the chunk's first element index).
fn normalize_rows_span(chunk: &mut [f32], indptr: &[usize], range: Range<usize>, offset: usize) {
    for r in range {
        let row = &mut chunk[indptr[r] - offset..indptr[r + 1] - offset];
        let total: f32 = row.iter().sum();
        if total != 0.0 {
            for v in row {
                *v /= total;
            }
        }
    }
}

/// Output of one worker's row range during parallel CSR construction.
struct RangeOut {
    start_row: usize,
    row_nnz: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

/// Builds a CSR from (row, col, value) triplets in any order; duplicate
/// coordinates are summed **in insertion order** (both paths below are
/// stable, so serial and parallel construction yield identical bytes).
fn build_csr(rows: usize, cols: usize, mut entries: Vec<(u32, u32, f32)>, threads: usize) -> Csr {
    let threads = threads.clamp(1, rows.max(1));
    if threads <= 1 {
        // Serial reference: one stable sort, then a linear compaction.
        entries.sort_by_key(|&(r, c, _)| (r, c));
        return rebuild_csr(rows, cols, &entries);
    }

    // 1) Counting-sort entries by row (stable: insertion order survives
    //    within each row). Serial, O(nnz + rows), cache-friendly.
    let mut row_start = vec![0usize; rows + 1];
    for &(r, _, _) in &entries {
        row_start[r as usize + 1] += 1;
    }
    for i in 0..rows {
        row_start[i + 1] += row_start[i];
    }
    let mut cursor = row_start.clone();
    let mut bucketed: Vec<(u32, f32)> = vec![(0, 0.0); entries.len()];
    for &(r, c, v) in &entries {
        bucketed[cursor[r as usize]] = (c, v);
        cursor[r as usize] += 1;
    }
    drop(entries);

    // 2) Workers own disjoint row ranges: stable-sort each row slice by
    //    column, sum duplicates in order, emit compacted arrays. Range
    //    outputs are stitched back together in row order, so the result
    //    is independent of which worker ran first. The chunk plan is
    //    entry-weighted (cost model), so a hub row's sort does not
    //    serialize construction of a skewed graph.
    let ranges = kernels::span_plan(&row_start, threads);
    let outputs = std::sync::Mutex::new(Vec::new());
    par::for_each_span_chunk_ranges(&mut bucketed, &row_start, &ranges, threads, |range, chunk| {
        let offset = row_start[range.start];
        let mut out = RangeOut {
            start_row: range.start,
            row_nnz: Vec::with_capacity(range.len()),
            indices: Vec::with_capacity(chunk.len()),
            values: Vec::with_capacity(chunk.len()),
        };
        for r in range.clone() {
            let row = &mut chunk[row_start[r] - offset..row_start[r + 1] - offset];
            row.sort_by_key(|&(c, _)| c);
            let before = out.indices.len();
            let mut prev: Option<u32> = None;
            for &(c, v) in row.iter() {
                if prev == Some(c) {
                    *out.values.last_mut().unwrap() += v;
                } else {
                    out.indices.push(c);
                    out.values.push(v);
                    prev = Some(c);
                }
            }
            out.row_nnz.push(out.indices.len() - before);
        }
        outputs.lock().unwrap().push(out);
    });
    let mut outputs = outputs.into_inner().unwrap();
    outputs.sort_by_key(|o| o.start_row);

    let mut indptr = vec![0usize; rows + 1];
    let mut indices = Vec::with_capacity(bucketed.len());
    let mut values = Vec::with_capacity(bucketed.len());
    let mut row = 0;
    for out in outputs {
        debug_assert_eq!(out.start_row, row, "row ranges must stitch contiguously");
        for nnz in out.row_nnz {
            indptr[row + 1] = indptr[row] + nnz;
            row += 1;
        }
        indices.extend_from_slice(&out.indices);
        values.extend_from_slice(&out.values);
    }
    debug_assert_eq!(row, rows);
    Csr { rows, cols, indptr, indices, values, csc: OnceLock::new() }
}

/// The column-major companion index of a [`Csr`]: the same entries
/// re-bucketed by column, with rows ascending inside each column (a
/// CSC view). Built lazily by the parallel transposed-SpMM kernel so
/// each output row (a CSR *column*) is produced by streaming one
/// contiguous span, and its `col_ptr` is the span table that kernel
/// plans column-weighted chunks from.
#[derive(Clone, Debug)]
pub(crate) struct CscIndex {
    /// `rows + 1`-style span table over columns: column `c` owns
    /// entries `col_ptr[c]..col_ptr[c + 1]`.
    pub(crate) col_ptr: Vec<usize>,
    /// Row index of each entry, ascending within a column.
    pub(crate) rows: Vec<u32>,
    /// Entry values, permuted to match `rows`.
    pub(crate) values: Vec<f32>,
}

/// A compressed-sparse-row matrix of `f32`.
///
/// Immutable once built; graph adjacency matrices are constructed once per
/// dataset and shared (via `Arc`) with the autodiff layer.
#[derive(Debug)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
    /// Lazily built column-major companion (`CscIndex`, O(nnz) memory)
    /// — only materialized when a transposed SpMM runs on more than one
    /// thread. Derived entirely from the fields above, so it is
    /// deliberately *not* cloned or compared — a clone whose values are
    /// about to be rescaled (normalization) must not inherit a stale
    /// index.
    csc: OnceLock<CscIndex>,
}

impl Clone for Csr {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: self.values.clone(),
            csc: OnceLock::new(),
        }
    }
}

impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.indptr == other.indptr
            && self.indices == other.indices
            && self.values == other.values
    }
}

impl Csr {
    /// Builds a CSR from (row, col, value) triplets (any order,
    /// duplicates summed in insertion order). Large builds run on the
    /// shared worker pool; results are bitwise identical to the serial
    /// path.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f32)]) -> Self {
        Self::from_triplets_with(rows, cols, triplets, auto_build_threads(triplets.len()))
    }

    /// [`Csr::from_triplets`] on an explicit number of threads (used by
    /// the equivalence tests and benches).
    pub fn from_triplets_with(
        rows: usize,
        cols: usize,
        triplets: &[(u32, u32, f32)],
        threads: usize,
    ) -> Self {
        for &(r, c, _) in triplets {
            assert!((r as usize) < rows && (c as usize) < cols, "Csr::from_triplets: ({r},{c}) out of bounds for {rows}x{cols}");
        }
        build_csr(rows, cols, triplets.to_vec(), threads)
    }

    /// An empty (all-zero) CSR.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
            csc: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The row span table: row `r` owns entries
    /// `indptr()[r]..indptr()[r + 1]` (`rows + 1` entries). This is the
    /// weight vector the kernel layer's cost model chunks by — on
    /// power-law graphs, balancing *entries* instead of rows is what
    /// keeps one hub user from serializing a parallel SpMM.
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Builds the column-major entry arrays: a stable counting sort of
    /// the entries by column, preserving ascending row order within
    /// each column (exactly the order the serial transposed-SpMM
    /// scatter accumulates in, which is what keeps the CSC kernel
    /// bitwise-equal to it).
    fn build_csc_arrays(&self) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
        let mut col_ptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            col_ptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        let mut rows = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut cursor = col_ptr.clone();
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = cursor[c as usize];
                rows[slot] = r as u32;
                values[slot] = v;
                cursor[c as usize] += 1;
            }
        }
        (col_ptr, rows, values)
    }

    /// The lazily built column-major companion index (see [`CscIndex`]).
    /// First call pays one O(nnz + cols) counting sort; every later
    /// call is free. `Csr` values are immutable once built, so the
    /// index can never go stale (clones start with an empty cache).
    pub(crate) fn csc(&self) -> &CscIndex {
        self.csc.get_or_init(|| {
            let (col_ptr, rows, values) = self.build_csc_arrays();
            CscIndex { col_ptr, rows, values }
        })
    }

    /// Builds the column-major index a parallel transposed SpMM streams
    /// now, so the first backward pass of an epoch does not pay the
    /// one-off O(nnz) build inside its timing. It is built only when a
    /// dispatch at the configured thread count would run on more than
    /// one thread: a one-thread `spmm_t` scatters straight from the
    /// CSR rows and never reads the index, so such runs keep the
    /// memory. Model constructors call this on adjacencies they know
    /// will train.
    pub fn prewarm_spmm_t(&self) {
        if self.nnz() > 0 && par::effective_parallelism(par::num_threads()) > 1 {
            let _ = self.csc();
        }
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let (s, e) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Iterates over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r as u32, c, v))
        })
    }

    /// Sparse x dense product: `self (r x c) * dense (c x d) -> r x d`.
    ///
    /// A zeroed output plus [`crate::kernels::spmm_acc`], which
    /// partitions output rows across the shared worker pool for large
    /// products.
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, dense.cols());
        crate::kernels::spmm_acc(&mut out, self, dense);
        out
    }

    /// Transposed sparse x dense product: `self^T (c x r) * dense (r x d)`.
    ///
    /// Used by SpMM backward passes; avoids materializing the transpose.
    /// A zeroed output plus [`crate::kernels::spmm_t_acc`], whose
    /// parallel path partitions output rows (CSR columns) so the scatter
    /// writes stay race-free and deterministic.
    pub fn spmm_t(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, dense.cols());
        crate::kernels::spmm_t_acc(&mut out, self, dense);
        out
    }

    /// The transposed CSR (materialized).
    ///
    /// Built in O(nnz + cols) straight from the column-major entry
    /// order (reusing the cached `CscIndex` when one exists) instead
    /// of re-sorting triplets; entries are already unique and sorted,
    /// so the result is byte-identical to the triplet path.
    pub fn transpose(&self) -> Csr {
        let (indptr, indices, values) = match self.csc.get() {
            Some(ix) => (ix.col_ptr.clone(), ix.rows.clone(), ix.values.clone()),
            None => self.build_csc_arrays(),
        };
        Csr { rows: self.cols, cols: self.rows, indptr, indices, values, csc: OnceLock::new() }
    }

    /// A copy whose rows each sum to 1 (rows summing to 0 are left
    /// zero). Large matrices normalize their row spans on the shared
    /// worker pool; each row is scaled by exactly one thread, so the
    /// result is bitwise identical at every thread count.
    pub fn row_normalized(&self) -> Csr {
        self.row_normalized_with(auto_build_threads(self.nnz()))
    }

    /// [`Csr::row_normalized`] on an explicit number of threads.
    pub fn row_normalized_with(&self, threads: usize) -> Csr {
        let mut out = self.clone();
        if threads <= 1 || self.rows == 0 {
            normalize_rows_span(&mut out.values, &out.indptr, 0..self.rows, 0);
            return out;
        }
        let ranges = kernels::span_plan(&out.indptr, threads);
        par::for_each_span_chunk_ranges(&mut out.values, &out.indptr, &ranges, threads, |range, chunk| {
            let offset = out.indptr[range.start];
            normalize_rows_span(chunk, &out.indptr, range, offset);
        });
        out
    }

    /// A copy scaled by `1/sqrt(deg_row * deg_col)` (GCN-style symmetric
    /// normalization on the bipartite graph), where degrees count stored
    /// entries. Large matrices scale on the shared worker pool with
    /// bitwise-identical results at every thread count.
    pub fn sym_normalized(&self) -> Csr {
        self.sym_normalized_with(auto_build_threads(self.nnz()))
    }

    /// [`Csr::sym_normalized`] on an explicit number of threads.
    pub fn sym_normalized_with(&self, threads: usize) -> Csr {
        let mut col_deg = vec![0.0f32; self.cols];
        for &c in &self.indices {
            col_deg[c as usize] += 1.0;
        }
        let mut out = self.clone();
        let (indptr, indices, values) = (&out.indptr, &out.indices, &mut out.values);
        let scale = |range: Range<usize>, chunk: &mut [f32], offset: usize| {
            for r in range {
                let (s, e) = (indptr[r], indptr[r + 1]);
                let rd = (e - s) as f32;
                for i in s..e {
                    let denom = (rd * col_deg[indices[i] as usize]).sqrt();
                    if denom != 0.0 {
                        chunk[i - offset] /= denom;
                    }
                }
            }
        };
        if threads <= 1 || self.rows == 0 {
            scale(0..self.rows, &mut values[..], 0);
            return out;
        }
        let ranges = kernels::span_plan(indptr, threads);
        par::for_each_span_chunk_ranges(values, indptr, &ranges, threads, |range, chunk| {
            let offset = indptr[range.start];
            scale(range, chunk, offset);
        });
        out
    }

    /// Converts to a dense matrix (tests / small sizes only).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out[(r as usize, c as usize)] += v;
        }
        out
    }

    /// Stored-entry degree of row `r` (same as [`Csr::row_nnz`]).
    pub fn degree(&self, r: usize) -> usize {
        self.row_nnz(r)
    }

    /// Whether the entry `(r, c)` is stored.
    pub fn contains(&self, r: usize, c: u32) -> bool {
        let (cols, _) = self.row(r);
        cols.binary_search(&c).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csr() -> Csr {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        Csr::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
    }

    #[test]
    fn from_triplets_sorts_and_sums_duplicates() {
        let csr = Csr::from_triplets(2, 2, &[(1, 1, 1.0), (0, 0, 2.0), (1, 1, 3.0)]);
        assert_eq!(csr.nnz(), 2);
        let d = csr.to_dense();
        assert_eq!(d.get(0, 0), 2.0);
        assert_eq!(d.get(1, 1), 4.0);
    }

    #[test]
    fn row_access() {
        let csr = sample_csr();
        let (cols, vals) = csr.row(0);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[1.0, 2.0]);
        assert_eq!(csr.row_nnz(1), 0);
        assert_eq!(csr.degree(2), 2);
        assert!(csr.contains(2, 1));
        assert!(!csr.contains(1, 0));
    }

    #[test]
    fn spmm_matches_dense() {
        let csr = sample_csr();
        let x = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 + 1.0);
        let sparse_result = csr.spmm(&x);
        let dense_result = csr.to_dense().matmul(&x);
        assert!(sparse_result.approx_eq(&dense_result, 1e-5));
    }

    #[test]
    fn spmm_t_matches_dense_transpose() {
        let csr = sample_csr();
        let x = Matrix::from_fn(3, 2, |r, c| (r + c) as f32 * 0.5 - 1.0);
        let t_result = csr.spmm_t(&x);
        let dense_result = csr.to_dense().transpose().matmul(&x);
        assert!(t_result.approx_eq(&dense_result, 1e-5));
    }

    #[test]
    fn transpose_roundtrip() {
        let csr = sample_csr();
        let tt = csr.transpose().transpose();
        assert_eq!(csr, tt);
        assert!(csr
            .transpose()
            .to_dense()
            .approx_eq(&csr.to_dense().transpose(), 0.0));
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let csr = sample_csr().row_normalized();
        let d = csr.to_dense();
        let sums = d.row_sums();
        assert!((sums.get(0, 0) - 1.0).abs() < 1e-6);
        assert_eq!(sums.get(1, 0), 0.0);
        assert!((sums.get(2, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sym_normalized_values() {
        let csr = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        let n = csr.sym_normalized();
        let d = n.to_dense();
        // deg(row0)=1, deg(row1)=2, deg(col0)=2, deg(col1)=1.
        assert!((d.get(0, 0) - 1.0 / (1.0f32 * 2.0).sqrt()).abs() < 1e-6);
        assert!((d.get(1, 0) - 1.0 / (2.0f32 * 2.0).sqrt()).abs() < 1e-6);
        assert!((d.get(1, 1) - 1.0 / (2.0f32 * 1.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn empty_matrix_behaves() {
        let e = Csr::empty(4, 5);
        assert_eq!(e.nnz(), 0);
        let x = Matrix::ones(5, 3);
        let y = e.spmm(&x);
        assert_eq!(y.shape(), (4, 3));
        assert_eq!(y.sum(), 0.0);
    }

    #[test]
    fn iter_yields_row_major_triplets() {
        let csr = sample_csr();
        let triplets: Vec<_> = csr.iter().collect();
        assert_eq!(
            triplets,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_triplets_out_of_bounds_panics() {
        let _ = Csr::from_triplets(2, 2, &[(0, 1, 1.0), (2, 0, 1.0)]);
    }
}
