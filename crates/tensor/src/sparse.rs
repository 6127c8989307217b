//! Compressed sparse row matrices and the SpMM kernels used for graph
//! message passing.
//!
//! # Construction & normalization
//!
//! There is one way to build a CSR, [`Csr::from_triplets`], and it runs
//! on the calling thread: a graph's adjacencies are built once per
//! dataset and normalized once per model, an O(nnz) cost next to the
//! per-step SpMM kernels that run on the shared worker pool. The build
//! counts each row's entries, copies the entries into per-row buckets
//! in insertion order, sorts each row stably by column and sums each
//! run of one column in order, so duplicate coordinates always add up
//! in insertion order. [`Csr::row_normalized`] and
//! [`Csr::sym_normalized`] each scale the values in one pass over the
//! rows. [`Csr::select_rows`] copies a subset of rows, for products
//! that need only some output rows.

use crate::dense::Matrix;

/// A compressed-sparse-row matrix of `f32`.
///
/// Immutable once built; graph adjacency matrices are constructed once per
/// dataset and shared (via `Arc`) with the autodiff layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Builds a CSR from (row, col, value) triplets in any order;
    /// duplicate coordinates are summed in insertion order (see the
    /// module doc for the steps).
    ///
    /// # Panics
    /// If a triplet lies outside `rows x cols`.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f32)]) -> Self {
        // Row `r`'s bucket is `start[r]..start[r + 1]` of `bucketed`.
        let mut start = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!((r as usize) < rows && (c as usize) < cols, "Csr::from_triplets: ({r},{c}) out of bounds for {rows}x{cols}");
            start[r as usize + 1] += 1;
        }
        for i in 0..rows {
            start[i + 1] += start[i];
        }
        let mut cursor = start.clone();
        let mut bucketed = vec![(0u32, 0.0f32); triplets.len()];
        for &(r, c, v) in triplets {
            bucketed[cursor[r as usize]] = (c, v);
            cursor[r as usize] += 1;
        }

        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values: Vec<f32> = Vec::with_capacity(triplets.len());
        for r in 0..rows {
            let row = &mut bucketed[start[r]..start[r + 1]];
            row.sort_by_key(|&(c, _)| c);
            let mut prev = None;
            for &(c, v) in row.iter() {
                match values.last_mut() {
                    Some(last) if prev == Some(c) => *last += v,
                    _ => {
                        indices.push(c);
                        values.push(v);
                        prev = Some(c);
                    }
                }
            }
            indptr[r + 1] = indices.len();
        }
        Csr { rows, cols, indptr, indices, values }
    }

    /// An empty (all-zero) CSR.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Self { rows, cols, indptr: vec![0; rows + 1], indices: Vec::new(), values: Vec::new() }
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

    /// The rows named by `rows`, in that order, as a
    /// `rows.len() x cols` CSR: row `i` of the result holds the entries
    /// of row `rows[i]`, copied as stored. Each row of an [`Csr::spmm`]
    /// is computed from its own CSR row alone, so the product of a
    /// selection is, bit for bit, those rows of the full product.
    ///
    /// # Panics
    /// If an index is not below `rows()`.
    pub fn select_rows(&self, rows: &[u32]) -> Csr {
        let nnz = rows.iter().map(|&r| self.row_nnz(r as usize)).sum();
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        for &r in rows {
            let (cols, vals) = self.row(r as usize);
            indices.extend_from_slice(cols);
            values.extend_from_slice(vals);
            indptr.push(indices.len());
        }
        Csr { rows: rows.len(), cols: self.cols, indptr, indices, values }
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
    /// A zeroed output plus [`crate::kernels::spmm_t_acc`], which
    /// scatters each CSR row on the calling thread.
    pub fn spmm_t(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, dense.cols());
        crate::kernels::spmm_t_acc(&mut out, self, dense);
        out
    }

    /// The transposed CSR (materialized).
    ///
    /// Built in O(nnz + cols) by a stable counting sort of the entries
    /// by column, so rows stay ascending within each column; entries
    /// are already unique and sorted, so the result is byte-identical
    /// to building the transpose from triplets.
    pub fn transpose(&self) -> Csr {
        let mut indptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            indptr[c + 1] += indptr[c];
        }
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut cursor = indptr.clone();
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = cursor[c as usize];
                indices[slot] = r as u32;
                values[slot] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr { rows: self.cols, cols: self.rows, indptr, indices, values }
    }

    /// A copy whose rows each sum to 1 (rows summing to 0 are left
    /// as they are).
    pub fn row_normalized(&self) -> Csr {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = &mut out.values[out.indptr[r]..out.indptr[r + 1]];
            let total: f32 = row.iter().sum();
            if total != 0.0 {
                for v in row {
                    *v /= total;
                }
            }
        }
        out
    }

    /// A copy scaled by `1/sqrt(deg_row * deg_col)` (GCN-style symmetric
    /// normalization on the bipartite graph), where degrees count stored
    /// entries.
    pub fn sym_normalized(&self) -> Csr {
        let mut col_deg = vec![0.0f32; self.cols];
        for &c in &self.indices {
            col_deg[c as usize] += 1.0;
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            let (s, e) = (out.indptr[r], out.indptr[r + 1]);
            let rd = (e - s) as f32;
            for i in s..e {
                let denom = (rd * col_deg[out.indices[i] as usize]).sqrt();
                if denom != 0.0 {
                    out.values[i] /= denom;
                }
            }
        }
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
        assert_eq!(csr.row_nnz(2), 2);
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
    fn select_rows_keeps_the_given_order() {
        let csr = sample_csr();
        let sel = csr.select_rows(&[2, 0, 2]);
        assert_eq!(sel.shape(), (3, 3));
        assert_eq!(sel.row(0), csr.row(2));
        assert_eq!(sel.row(1), csr.row(0));
        assert_eq!(sel.row(2), csr.row(2));
        // Row 1 is empty; an empty selection has no rows at all.
        let one = csr.select_rows(&[1]);
        assert_eq!((one.shape(), one.nnz(), one.row_nnz(0)), ((1, 3), 0, 0));
        let none = csr.select_rows(&[]);
        assert_eq!((none.shape(), none.nnz()), ((0, 3), 0));
        assert_eq!(none.spmm(&Matrix::ones(3, 2)).shape(), (0, 2));
    }

    #[test]
    fn spmm_of_a_selection_is_those_rows_of_the_full_product() {
        // Row r draws ~half the columns, with values of both signs.
        let triplets: Vec<(u32, u32, f32)> = (0..12u32)
            .flat_map(|r| {
                let cols = (0..9u32).filter(move |c| (r * 7 + c * 3) % 5 < 3);
                cols.map(move |c| (r, c, ((r * 9 + c) as f32 * 0.37).sin()))
            })
            .collect();
        let csr = Csr::from_triplets(12, 9, &triplets).row_normalized();
        let x = Matrix::from_fn(9, 5, |r, c| ((r * 5 + c) as f32 * 0.71).cos());
        let full = csr.spmm(&x);
        let rows = [0u32, 3, 4, 8, 11];
        let part = csr.select_rows(&rows).spmm(&x);
        for (i, &r) in rows.iter().enumerate() {
            let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(part.row(i)), bits(full.row(r as usize)), "row {r}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_triplets_out_of_bounds_panics() {
        let _ = Csr::from_triplets(2, 2, &[(0, 1, 1.0), (2, 0, 1.0)]);
    }
}
