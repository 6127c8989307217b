//! Dense row-major `f32` matrices and the kernels the autodiff layer
//! builds on.
//!
//! Ops that return a new matrix live here; the hot product (`matmul`)
//! is a zeroed output plus the tiled [`kernels::matmul_acc`], on the
//! calling thread. The in-place kernels the tape accumulates gradients
//! with (`kernels::add_assign`, `kernels::scale_into`,
//! `kernels::scale_assign`, ...) live in [`crate::kernels`] only.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::kernels;

/// A dense row-major matrix of `f32`.
///
/// Vectors are represented as `n x 1` (column) or `1 x n` (row) matrices;
/// scalars as `1 x 1`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// A `1 x 1` matrix holding `value`.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    /// If rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "Matrix::from_rows: no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "Matrix::from_rows: row {i} has inconsistent length");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its data vector.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// The single value of a `1 x 1` matrix.
    ///
    /// # Panics
    /// If the matrix is not `1 x 1`.
    pub fn scalar_value(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "scalar_value on non-scalar {}x{}", self.rows, self.cols);
        self.data[0]
    }

    fn assert_same_shape(&self, other: &Matrix, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }

    /// Element-wise sum, returning a new matrix.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "add");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise difference, returning a new matrix.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "sub");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise (Hadamard) product, returning a new matrix.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "hadamard");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Multiplies every element by `s`, returning a new matrix.
    pub fn scale(&self, s: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Overwrites every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Element-wise combination `f(self, other)`, returning a new matrix.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        self.assert_same_shape(other, "zip_map");
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Matrix product `self * other`.
    ///
    /// A zeroed output plus [`kernels::matmul_acc`], which runs the
    /// packed tiled kernel on the calling thread; the bytes are
    /// [`kernels::matmul_serial`]'s at every shape.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        kernels::matmul_acc(&mut out, self, other);
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// Squared Frobenius norm.
    pub fn frobenius_norm_sq(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>()
    }

    /// Largest absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, a| m.max(a.abs()))
    }

    /// Whether all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|a| a.is_finite())
    }

    /// Per-row sums as an `rows x 1` matrix.
    pub fn row_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum();
        }
        out
    }

    /// Horizontal concatenation of matrices with equal row counts.
    ///
    /// # Panics
    /// If `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols: no parts");
        let rows = parts[0].rows;
        let total_cols: usize = parts.iter().map(|p| p.cols).sum();
        for p in parts {
            assert_eq!(p.rows, rows, "concat_cols: row count mismatch");
        }
        let mut out = Matrix::zeros(rows, total_cols);
        for r in 0..rows {
            let orow = &mut out.data[r * total_cols..(r + 1) * total_cols];
            let mut offset = 0;
            for p in parts {
                orow[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Gathers the given rows into a new matrix (`indices.len() x cols`).
    ///
    /// # Panics
    /// If any index is out of bounds.
    pub fn gather_rows(&self, indices: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (o, &idx) in indices.iter().enumerate() {
            let idx = idx as usize;
            assert!(idx < self.rows, "gather_rows: index {idx} out of bounds for {} rows", self.rows);
            out.row_mut(o).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Adds `row` (a `1 x cols` matrix) to every row, returning a new matrix.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(row.shape(), (1, self.cols), "add_row_broadcast: expected 1x{}, got {}x{}", self.cols, row.rows, row.cols);
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, b) in out.row_mut(r).iter_mut().zip(&row.data) {
                *o += b;
            }
        }
        out
    }

    /// Multiplies row `r` of the output by `col[r]` (`col` is `rows x 1`).
    pub fn mul_col_broadcast(&self, col: &Matrix) -> Matrix {
        assert_eq!(col.shape(), (self.rows, 1), "mul_col_broadcast: expected {}x1, got {}x{}", self.rows, col.rows, col.cols);
        let mut out = self.clone();
        for r in 0..out.rows {
            let s = col.data[r];
            for o in out.row_mut(r) {
                *o *= s;
            }
        }
        out
    }

    /// Row-wise dot products of two equally-shaped matrices (`rows x 1`),
    /// delegated to [`kernels::row_dot_into`] so the forward scores use
    /// the same canonical lane order as every other dot reduction.
    pub fn row_dot(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "row_dot");
        let mut out = Matrix::zeros(self.rows, 1);
        kernels::row_dot_into(&mut out, 0, self, other, kernels::Store::Assign);
        out
    }

    /// Maximum absolute elementwise difference between two matrices.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        self.assert_same_shape(other, "max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Whether two matrices agree to within `tol` everywhere.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn constructors_and_shape() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.data().iter().all(|&v| v == 0.0));
        let o = Matrix::ones(1, 4);
        assert_eq!(o.sum(), 4.0);
        let e = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(e.get(0, 0), 1.0);
        assert_eq!(e.get(0, 1), 0.0);
        assert_eq!(e.sum(), 3.0);
        let f = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(f.get(1, 1), 11.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn row_access_and_indexing() {
        let m = sample();
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m[(1, 2)], 6.0);
        let mut m = m;
        m[(0, 0)] = -1.0;
        assert_eq!(m.get(0, 0), -1.0);
    }

    #[test]
    fn elementwise_ops() {
        let m = sample();
        let s = m.add(&m);
        assert_eq!(s.get(1, 2), 12.0);
        let d = s.sub(&m);
        assert!(d.approx_eq(&m, 0.0));
        let h = m.hadamard(&m);
        assert_eq!(h.get(1, 0), 16.0);
        let sc = m.scale(0.5);
        assert_eq!(sc.get(0, 1), 1.0);
    }

    #[test]
    fn in_place_ops() {
        // The in-place kernels against plain loops over the elements.
        let mut m = sample();
        let other = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.25, 3.0, -4.0]);
        let mut want: Vec<f32> = m.data().to_vec();
        kernels::add_assign(&mut m, &other);
        for (w, &x) in want.iter_mut().zip(other.data()) {
            *w += x;
        }
        assert_eq!(m.data(), &want[..]);
        kernels::scale_into(&mut m, &other, -1.5, kernels::Store::Add);
        for (w, &x) in want.iter_mut().zip(other.data()) {
            *w += x * -1.5;
        }
        assert_eq!(m.data(), &want[..]);
        kernels::scale_assign(&mut m, 2.0);
        for w in &mut want {
            *w *= 2.0;
        }
        assert_eq!(m.data(), &want[..]);
    }

    #[test]
    fn matmul_basic() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(0, 1), 64.0);
        assert_eq!(c.get(1, 0), 139.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn matmul_identity() {
        let a = sample();
        let i = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert!(a.matmul(&i).approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_transposed_variants_match_explicit() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + 2 * c) as f32 * 0.3 - 1.0);
        let b = Matrix::from_fn(3, 5, |r, c| (2 * r + c) as f32 * 0.1);
        let mut tn = Matrix::zeros(4, 5);
        kernels::matmul_tn_acc(&mut tn, &a, &b);
        let explicit = a.transpose().matmul(&b);
        assert!(tn.approx_eq(&explicit, 1e-4));

        let c = Matrix::from_fn(6, 4, |r, c| (r * c) as f32 * 0.05 - 0.2);
        let mut nt = Matrix::zeros(3, 6);
        kernels::matmul_nt_into(&mut nt, &a, &c, kernels::Store::Assign);
        let explicit = a.matmul(&c.transpose());
        assert!(nt.approx_eq(&explicit, 1e-4));
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert!(m.transpose().transpose().approx_eq(&m, 0.0));
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn reductions() {
        let m = sample();
        assert_eq!(m.sum(), 21.0);
        assert!((m.mean() - 3.5).abs() < 1e-6);
        assert!((m.frobenius_norm_sq() - 91.0).abs() < 1e-4);
        assert_eq!(m.max_abs(), 6.0);
        let rs = m.row_sums();
        assert_eq!(rs.shape(), (2, 1));
        assert_eq!(rs.get(0, 0), 6.0);
        assert_eq!(rs.get(1, 0), 15.0);
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 5.0, 6.0]);
        let b = Matrix::from_vec(2, 1, vec![3.0, 7.0]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(1), &[5.0, 6.0, 7.0]);
        for r in 0..2 {
            assert_eq!(&c.row(r)[..2], a.row(r));
            assert_eq!(&c.row(r)[2..], b.row(r));
        }
    }

    #[test]
    fn gather_rows_copies() {
        let m = sample();
        let g = m.gather_rows(&[1, 0, 1]);
        assert_eq!(g.shape(), (3, 3));
        assert_eq!(g.row(0), m.row(1));
        assert_eq!(g.row(1), m.row(0));
        assert_eq!(g.row(2), m.row(1));
    }

    #[test]
    fn broadcasts() {
        let m = sample();
        let bias = Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]);
        let b = m.add_row_broadcast(&bias);
        assert_eq!(b.row(0), &[11.0, 22.0, 33.0]);
        let col = Matrix::from_vec(2, 1, vec![2.0, -1.0]);
        let s = m.mul_col_broadcast(&col);
        assert_eq!(s.row(0), &[2.0, 4.0, 6.0]);
        assert_eq!(s.row(1), &[-4.0, -5.0, -6.0]);
    }

    #[test]
    fn row_dot_matches_manual() {
        let a = sample();
        let b = sample();
        let d = a.row_dot(&b);
        assert_eq!(d.shape(), (2, 1));
        assert!((d.get(0, 0) - 14.0).abs() < 1e-6);
        assert!((d.get(1, 0) - 77.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let _ = sample().add(&Matrix::zeros(3, 2));
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = sample();
        assert!(m.is_finite());
        m.set(0, 0, f32::NAN);
        assert!(!m.is_finite());
    }
}
