//! Equivalence suite for the parallel execution layer: every tiled /
//! thread-parallel kernel must match its serial reference across random
//! shapes, thread counts (1, 2, 4) and degenerate cases (empty
//! matrices, single rows, nnz = 0 CSRs).
//!
//! The kernels are designed to be *bitwise* identical to the serial
//! reference (each output row is produced by one worker in the serial
//! accumulation order), so the 1e-5 tolerance here is slack on top of
//! an exact contract — the dedicated tests at the bottom pin the exact
//! version down.

use gnmr_tensor::{kernels, par, Csr, Matrix};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 4];
const TOL: f32 = 1e-5;

/// Plain scalar replay of the canonical `kernels::LANES = 8` reduction
/// order: lane `l` accumulates the elements at indices ≡ `l` (mod 8) —
/// the remainder of a non-multiple-of-8 length starts at an index
/// ≡ 0 (mod 8), so an element's position within the remainder *is* its
/// lane — and the eight partials collapse through the fixed pairwise
/// tree `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`. Deliberately
/// shares no code with the kernels: this is the executable spec the
/// bitwise assertions below compare every dot-reduction entry point
/// against.
fn lane_dot_ref(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len());
    let mut acc = [0.0f32; kernels::LANES];
    for (i, (&a, &b)) in x.iter().zip(y).enumerate() {
        acc[i % kernels::LANES] += a * b;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Plain scalar `csr * x`: one add per stored entry into a zeroed
/// output, entries in CSR order. Shares no code with the streaming
/// kernels; the `spmm` family is pinned bitwise against it.
fn spmm_ref(csr: &Csr, x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(csr.rows(), x.cols());
    for (r, c, v) in csr.iter() {
        for j in 0..x.cols() {
            out[(r as usize, j)] += v * x.get(c as usize, j);
        }
    }
    out
}

/// Plain scalar `csr^T * xt`, likewise: entry `(r, c, v)` adds
/// `v * xt.row(r)` into output row `c`, entries in CSR order (so each
/// output element sums in ascending `r`).
fn spmm_t_ref(csr: &Csr, xt: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(csr.cols(), xt.cols());
    for (r, c, v) in csr.iter() {
        for j in 0..xt.cols() {
            out[(c as usize, j)] += v * xt.get(r as usize, j);
        }
    }
    out
}

/// `a^T * b` through `matmul_tn_acc_with` on a zeroed output.
fn matmul_tn_at(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    kernels::matmul_tn_acc_with(&mut out, a, b, threads);
    out
}

/// `csr * x` through `spmm_acc_with` on a zeroed output.
fn spmm_at(csr: &Csr, x: &Matrix, threads: usize) -> Matrix {
    let mut out = Matrix::zeros(csr.rows(), x.cols());
    kernels::spmm_acc_with(&mut out, csr, x, threads);
    out
}

/// `csr^T * xt` through `spmm_t_acc_with` on a zeroed output.
fn spmm_t_at(csr: &Csr, xt: &Matrix, threads: usize) -> Matrix {
    let mut out = Matrix::zeros(csr.cols(), xt.cols());
    kernels::spmm_t_acc_with(&mut out, csr, xt, threads);
    out
}

/// A deterministic non-zero destination for the accumulating kernels.
fn dirty(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| ((r * 7 + c * 3) as f32 * 0.31).sin())
}

/// A copy of `dst0` after `kernel` wrote into it.
fn run_on(dst0: &Matrix, kernel: impl FnOnce(&mut Matrix)) -> Matrix {
    let mut dst = dst0.clone();
    kernel(&mut dst);
    dst
}

/// Both streaming sparse accumulators on non-zero destinations: each
/// output element takes one add per stored entry, in ascending entry
/// order, whichever worker owns it, so every thread count must
/// reproduce the one-thread (serial) bytes.
fn spmm_pair_matches_serial(csr: &Csr, x: &Matrix, xt: &Matrix) -> TestCaseResult {
    let (dst0, dst0_t) = (dirty(csr.rows(), x.cols()), dirty(csr.cols(), xt.cols()));
    let serial = run_on(&dst0, |dst| kernels::spmm_acc_with(dst, csr, x, 1));
    let serial_t = run_on(&dst0_t, |dst| kernels::spmm_t_acc_with(dst, csr, xt, 1));
    for &t in &THREADS {
        let got = run_on(&dst0, |dst| kernels::spmm_acc_with(dst, csr, x, t));
        prop_assert_eq!(got.data(), serial.data(), "spmm_acc threads={}", t);
        let got_t = run_on(&dst0_t, |dst| kernels::spmm_t_acc_with(dst, csr, xt, t));
        prop_assert_eq!(got_t.data(), serial_t.data(), "spmm_t_acc threads={}", t);
    }
    Ok(())
}

/// RAII guard lifting the oversubscription guard for one test body: an
/// explicit `set_threads` override makes `*_with(t)` run the genuine
/// parallel code paths even on a single-core machine (where
/// implicit config would inline them serially). Dropped on any exit —
/// including proptest's early assert-returns — so the global never
/// leaks. Other tests dispatching concurrently while the override is
/// up merely switch code paths; their bytes are invariant, which is
/// the contract this suite pins.
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

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f32..5.0, rows * cols)
        .prop_map(move |d| Matrix::from_vec(rows, cols, d))
}

/// `(a, b)` with compatible inner dimensions for `a * b`, including
/// zero-sized shapes.
fn matmul_inputs() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..12, 0usize..12, 0usize..12).prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(k, n)))
}

/// `(a, b)` with equal row counts for `a^T * b`.
fn tn_inputs() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..12, 0usize..12, 0usize..12).prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(m, n)))
}

/// `(a, b)` with equal column counts for `a * b^T`.
fn nt_inputs() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..12, 0usize..12, 0usize..12).prop_flat_map(|(m, k, p)| (matrix(m, k), matrix(p, k)))
}

/// A CSR (possibly with zero stored entries) and a conformable dense
/// matrix for `spmm`, plus one for `spmm_t`.
fn sparse_inputs() -> impl Strategy<Value = (Csr, Matrix, Matrix)> {
    (1usize..12, 1usize..12, 0usize..8).prop_flat_map(|(rows, cols, d)| {
        let entry = (0..rows as u32, 0..cols as u32, -3.0f32..3.0).prop_map(|(r, c, v)| (r, c, v));
        (proptest::collection::vec(entry, 0..40), matrix(cols, d), matrix(rows, d)).prop_map(
            move |(entries, x, xt)| (Csr::from_triplets(rows, cols, &entries), x, xt),
        )
    })
}

/// Power-law (Taobao/Yelp-style) inputs: one hub row owns ~90% of the
/// stored entries, one hub column concentrates the rest, and with only
/// a handful of light entries over up to 14 rows, long empty-row runs
/// arise by construction. On these shapes the kernels' nnz-weighted
/// plans give the hub a chunk of its own and fold empty-row runs into
/// their neighbors' chunks; the bitwise assertions guard those plans.
fn skewed_sparse_inputs() -> impl Strategy<Value = (Csr, Matrix, Matrix)> {
    (3usize..14, 3usize..14, 0usize..8).prop_flat_map(|(rows, cols, d)| {
        (0..rows as u32, 0..cols as u32).prop_flat_map(move |(hub_row, hub_col)| {
            let hub = (Just(hub_row), 0..cols as u32, -3.0f32..3.0)
                .prop_map(|(r, c, v)| (r, c, v));
            let col_hub = (0..rows as u32, Just(hub_col), -3.0f32..3.0)
                .prop_map(|(r, c, v)| (r, c, v));
            let light = (0..rows as u32, 0..cols as u32, -3.0f32..3.0)
                .prop_map(|(r, c, v)| (r, c, v));
            (
                proptest::collection::vec(hub, 27..45),
                proptest::collection::vec(col_hub, 6..12),
                proptest::collection::vec(light, 0..5),
                matrix(cols, d),
                matrix(rows, d),
            )
                .prop_map(move |(mut entries, col_entries, light, x, xt)| {
                    entries.extend(col_entries);
                    entries.extend(light);
                    (Csr::from_triplets(rows, cols, &entries), x, xt)
                })
        })
    })
}

proptest! {
    #[test]
    fn matmul_matches_serial((a, b) in matmul_inputs()) {
        let reference = kernels::matmul_serial(&a, &b);
        for &t in &THREADS {
            let got = kernels::matmul_with(&a, &b, t);
            prop_assert_eq!(got.shape(), reference.shape());
            prop_assert!(got.max_abs_diff(&reference) <= TOL, "threads={}", t);
        }
    }

    #[test]
    fn matmul_tn_matches_serial((a, b) in tn_inputs()) {
        // On a non-zero destination the streaming accumulator folds one
        // add per `i` step into each element, ascending, whichever
        // worker owns its row — so every thread count reproduces the
        // one-thread (serial) bytes. The override lets 2 and 4 threads
        // really partition the rows on a 1-core host.
        let _caps = ThreadOverride::lift_caps();
        let dst0 = dirty(a.cols(), b.cols());
        let serial = run_on(&dst0, |dst| kernels::matmul_tn_acc_with(dst, &a, &b, 1));
        for &t in &THREADS {
            let got = run_on(&dst0, |dst| kernels::matmul_tn_acc_with(dst, &a, &b, t));
            prop_assert_eq!(got.data(), serial.data(), "threads={}", t);
        }
    }

    #[test]
    fn matmul_nt_matches_serial((a, b) in nt_inputs()) {
        // Both `matmul_nt` forms at every thread count against their
        // one-thread bytes: the overwriting one on a NaN-filled buffer,
        // the accumulating one on a non-zero destination.
        let _caps = ThreadOverride::lift_caps();
        let (nan, dst0) = (Matrix::filled(a.rows(), b.rows(), f32::NAN), dirty(a.rows(), b.rows()));
        let serial = run_on(&nan, |dst| kernels::matmul_nt_into_with(dst, &a, &b, 1));
        let serial_acc = run_on(&dst0, |dst| kernels::matmul_nt_acc_with(dst, &a, &b, 1));
        for &t in &THREADS {
            let got = run_on(&nan, |dst| kernels::matmul_nt_into_with(dst, &a, &b, t));
            prop_assert_eq!(got.data(), serial.data(), "into threads={}", t);
            let got_acc = run_on(&dst0, |dst| kernels::matmul_nt_acc_with(dst, &a, &b, t));
            prop_assert_eq!(got_acc.data(), serial_acc.data(), "acc threads={}", t);
        }
    }

    #[test]
    fn spmm_and_spmm_t_match_serial((csr, x, xt) in sparse_inputs()) {
        let _caps = ThreadOverride::lift_caps();
        spmm_pair_matches_serial(&csr, &x, &xt)?;
    }

    #[test]
    fn skewed_spmm_and_spmm_t_are_bitwise_serial((csr, x, xt) in skewed_sparse_inputs()) {
        // Skewed shapes cut hub-isolating nnz-weighted plans (and
        // `spmm_t` streams the column-major index) once the override
        // lifts the guard; the contract there is exact as well.
        let _caps = ThreadOverride::lift_caps();
        spmm_pair_matches_serial(&csr, &x, &xt)?;
    }

    #[test]
    fn spmm_agrees_with_dense_matmul((csr, x, _xt) in sparse_inputs()) {
        // Cross-check the whole sparse path against the dense one.
        let dense = csr.to_dense().matmul(&x);
        for &t in &THREADS {
            prop_assert!(spmm_at(&csr, &x, t).max_abs_diff(&dense) <= 1e-4);
        }
    }

    #[test]
    fn skewed_normalization_matches_serial((csr, _x, _xt) in skewed_sparse_inputs()) {
        let _caps = ThreadOverride::lift_caps();
        let row_ref = csr.row_normalized_with(1);
        let sym_ref = csr.sym_normalized_with(1);
        for &t in &THREADS[1..] {
            prop_assert_eq!(&csr.row_normalized_with(t), &row_ref, "row threads={}", t);
            prop_assert_eq!(&csr.sym_normalized_with(t), &sym_ref, "sym threads={}", t);
        }
    }

    #[test]
    fn skewed_scatter_add_matches_serial(
        (rows, src) in (2usize..10, 0usize..6).prop_flat_map(|(r, c)| (Just(r), matrix(40, c))),
        hot in 0usize..10,
        seed in 0u32..1000,
    ) {
        // ~90% of the updates land on one hot destination row (an
        // embedding-table hub), the rest scatter — the skew the
        // scatter-add kernel's update-weighted plan exists for.
        let _caps = ThreadOverride::lift_caps();
        let hot = (hot % rows) as u32;
        let indices: Vec<u32> = (0..src.rows() as u32)
            .map(|i| if (i + seed) % 10 < 9 { hot } else { (i * 7 + seed) % rows as u32 })
            .collect();
        let mut reference = Matrix::zeros(rows, src.cols());
        kernels::scatter_add_rows_with(&mut reference, &indices, &src, 1);
        for &t in &THREADS[1..] {
            let mut dst = Matrix::zeros(rows, src.cols());
            kernels::scatter_add_rows_with(&mut dst, &indices, &src, t);
            prop_assert_eq!(dst.data(), reference.data(), "threads={}", t);
        }
    }

    #[test]
    fn scatter_add_matches_serial(
        (rows, src) in (1usize..10, 0usize..6).prop_flat_map(|(r, c)| (Just(r), matrix(8, c))),
        seed in 0u32..1000,
    ) {
        // Deterministic pseudo-indices into `rows` destination rows.
        let indices: Vec<u32> =
            (0..src.rows() as u32).map(|i| (i * 7 + seed) % rows as u32).collect();
        let mut reference = Matrix::zeros(rows, src.cols());
        for (o, &idx) in indices.iter().enumerate() {
            for (d, s) in reference.row_mut(idx as usize).iter_mut().zip(src.row(o)) {
                *d += s;
            }
        }
        for &t in &THREADS {
            let mut dst = Matrix::zeros(rows, src.cols());
            kernels::scatter_add_rows_with(&mut dst, &indices, &src, t);
            prop_assert!(dst.max_abs_diff(&reference) <= TOL, "threads={}", t);
        }
    }
}

// ----- fused in-place kernels (arena path) ----------------------------
//
// Every `*_assign` / `*_acc` / `*_into` kernel must be bitwise-equal to
// its allocate-then-combine reference (materialize the contribution,
// then `+=` it element-wise — spelled out as plain loops below so the
// reference never shares code with the kernel under test). The
// fully-fused kernels hold that contract for ANY destination contents;
// the streaming accumulators (`matmul_tn_acc`, `spmm_acc`,
// `spmm_t_acc`) hold it for the zeroed checkouts the tape feeds them,
// where the reference is the product itself: `matmul_serial` on the
// explicit transpose, or the plain scalar loops `spmm_ref`/`spmm_t_ref`.

/// `(dst, src)` with matching shapes for the elementwise fused kernels.
fn elementwise_inputs() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..10, 0usize..10).prop_flat_map(|(r, c)| (matrix(r, c), matrix(r, c)))
}

/// `(a, b, dst)` for `dst += a * b` (dst is `m x n`).
fn matmul_acc_inputs() -> impl Strategy<Value = (Matrix, Matrix, Matrix)> {
    (0usize..10, 0usize..10, 0usize..10)
        .prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(k, n), matrix(m, n)))
}

/// `(a, b, dst)` for `dst += a * b^T` (dst is `m x p`).
fn nt_acc_inputs() -> impl Strategy<Value = (Matrix, Matrix, Matrix)> {
    (0usize..10, 0usize..10, 0usize..10)
        .prop_flat_map(|(m, k, p)| (matrix(m, k), matrix(p, k), matrix(m, p)))
}

proptest! {
    #[test]
    fn axpy_matches_allocate_then_combine(
        (dst0, src) in elementwise_inputs(),
        s in -3.0f32..3.0,
    ) {
        // Reference: tmp = src * s (materialized), then dst += tmp.
        let mut expected = dst0.clone();
        for (e, &x) in expected.data_mut().iter_mut().zip(src.data()) {
            let tmp = x * s;
            *e += tmp;
        }
        for &t in &THREADS {
            let mut dst = dst0.clone();
            kernels::axpy_with(&mut dst, &src, s, t);
            prop_assert_eq!(dst.data(), expected.data(), "threads={}", t);
        }
    }

    #[test]
    fn scale_kernels_match_reference(
        (dst0, src) in elementwise_inputs(),
        s in -3.0f32..3.0,
    ) {
        let scaled = src.scale(s);
        for &t in &THREADS {
            // scale_into overwrites a dirty buffer completely.
            let mut dirty = dst0.clone();
            kernels::scale_into_with(&mut dirty, &src, s, t);
            prop_assert_eq!(dirty.data(), scaled.data(), "scale_into threads={}", t);
            // scale_assign == materializing self * s.
            let mut dst = dst0.clone();
            let expected = dst0.scale(s);
            kernels::scale_assign_with(&mut dst, s, t);
            prop_assert_eq!(dst.data(), expected.data(), "scale_assign threads={}", t);
        }
    }

    #[test]
    fn zip_map_family_matches_reference((dst0, src) in elementwise_inputs()) {
        let f = |a: f32, b: f32| if b > 0.0 { a } else { a * 0.25 };
        // zip_map_into == materialized zip_map over (dst, src).
        let expected_into = dst0.zip_map(&src, f);
        // zip_map_acc == materialize f(dst0, src) then dst0 += it.
        let mut expected_acc = dst0.clone();
        for ((e, &a), &b) in expected_acc.data_mut().iter_mut().zip(dst0.data()).zip(src.data()) {
            let tmp = f(a, b);
            *e += tmp;
        }
        for &t in &THREADS {
            let mut dirty = src.clone();
            kernels::zip_map_into_with(&mut dirty, &dst0, &src, f, t);
            prop_assert_eq!(dirty.data(), expected_into.data(), "into threads={}", t);

            let mut acc = dst0.clone();
            kernels::zip_map_acc_with(&mut acc, &dst0, &src, f, t);
            prop_assert_eq!(acc.data(), expected_acc.data(), "acc threads={}", t);
        }
    }

    #[test]
    fn matmul_nt_fused_match_allocate_then_combine((a, b, dst0) in nt_acc_inputs()) {
        let product = Matrix::from_fn(a.rows(), b.rows(), |i, j| lane_dot_ref(a.row(i), b.row(j)));
        let mut expected = dst0.clone();
        for (e, &x) in expected.data_mut().iter_mut().zip(product.data()) {
            *e += x;
        }
        for &t in &THREADS {
            let mut dst = dst0.clone();
            kernels::matmul_nt_acc_with(&mut dst, &a, &b, t);
            prop_assert_eq!(dst.data(), expected.data(), "acc threads={}", t);
            // The assign form overwrites a dirty buffer with the product.
            let mut dirty = dst0.clone();
            kernels::matmul_nt_into_with(&mut dirty, &a, &b, t);
            prop_assert_eq!(dirty.data(), product.data(), "into threads={}", t);
        }
    }

    #[test]
    fn mul_col_broadcast_fused_match_allocate_then_combine(
        (dst0, src) in elementwise_inputs(),
        col_seed in -3.0f32..3.0,
    ) {
        let col = Matrix::from_fn(src.rows(), 1, |r, _| ((r as f32) * 0.37 + col_seed).sin());
        let product = src.mul_col_broadcast(&col);
        let mut expected = dst0.clone();
        for (e, &x) in expected.data_mut().iter_mut().zip(product.data()) {
            *e += x;
        }
        let mut dirty = dst0.clone();
        kernels::mul_col_broadcast_into(&mut dirty, &src, &col);
        prop_assert_eq!(dirty.data(), product.data());
        let mut acc = dst0.clone();
        kernels::mul_col_broadcast_acc(&mut acc, &src, &col);
        prop_assert_eq!(acc.data(), expected.data());
    }

    #[test]
    fn row_dot_fused_match_allocate_then_combine((a, b) in elementwise_inputs()) {
        // Per-row dots in the canonical lane order (the reference never
        // shares code with the kernel under test).
        let product = Matrix::from_fn(a.rows(), 1, |r, _| lane_dot_ref(a.row(r), b.row(r)));
        let dst0 = Matrix::from_fn(a.rows(), 1, |r, _| (r as f32 * 0.61 - 1.3).cos());
        let mut expected = dst0.clone();
        for (e, &x) in expected.data_mut().iter_mut().zip(product.data()) {
            *e += x;
        }
        let mut dirty = dst0.clone();
        kernels::row_dot_into(&mut dirty, &a, &b);
        prop_assert_eq!(dirty.data(), product.data());
        let mut acc = dst0.clone();
        kernels::row_dot_acc(&mut acc, &a, &b);
        prop_assert_eq!(acc.data(), expected.data());
    }

    #[test]
    fn softmax_backward_fused_match_allocate_then_combine((g, y) in elementwise_inputs()) {
        // Allocate-then-combine reference: row totals `Σ g ⊙ y` replayed
        // in the canonical lane order, product assembled per element.
        let mut product = Matrix::zeros(y.rows(), y.cols());
        for r in 0..y.rows() {
            let t = lane_dot_ref(g.row(r), y.row(r));
            for c in 0..y.cols() {
                product.set(r, c, y.get(r, c) * (g.get(r, c) - t));
            }
        }
        let dst0 = g.scale(0.5);
        let mut expected = dst0.clone();
        for (e, &x) in expected.data_mut().iter_mut().zip(product.data()) {
            *e += x;
        }
        let mut dirty = dst0.clone();
        kernels::softmax_rows_backward_into(&mut dirty, &g, &y);
        prop_assert_eq!(dirty.data(), product.data());
        let mut acc = dst0.clone();
        kernels::softmax_rows_backward_acc(&mut acc, &g, &y);
        prop_assert_eq!(acc.data(), expected.data());
    }

    #[test]
    fn matmul_tn_acc_zeroed_is_bitwise_product((a, b) in tn_inputs()) {
        // Streaming accumulator: on the tape's zeroed checkouts it must
        // reproduce the i-k-j product of the explicit transpose exactly.
        // The override lifts the oversubscription guard, so 2 and 4
        // threads partition across the pool even on a 1-core host.
        let _caps = ThreadOverride::lift_caps();
        let product = kernels::matmul_serial(&a.transpose(), &b);
        for &t in &THREADS {
            let got = matmul_tn_at(&a, &b, t);
            prop_assert_eq!(got.data(), product.data(), "threads={}", t);
        }
    }

    #[test]
    fn spmm_acc_zeroed_is_bitwise_product((csr, x, xt) in sparse_inputs()) {
        let _caps = ThreadOverride::lift_caps();
        let (product, product_t) = (spmm_ref(&csr, &x), spmm_t_ref(&csr, &xt));
        for &t in &THREADS {
            let (got, got_t) = (spmm_at(&csr, &x, t), spmm_t_at(&csr, &xt, t));
            prop_assert_eq!(got.data(), product.data(), "spmm_acc threads={}", t);
            prop_assert_eq!(got_t.data(), product_t.data(), "spmm_t_acc threads={}", t);
        }
    }

    #[test]
    fn skewed_spmm_acc_zeroed_is_bitwise_product((csr, x, xt) in skewed_sparse_inputs()) {
        // Same contract through the hub-isolating nnz-weighted plans
        // skewed shapes cut once the override lifts the guard.
        let _caps = ThreadOverride::lift_caps();
        let (product, product_t) = (spmm_ref(&csr, &x), spmm_t_ref(&csr, &xt));
        for &t in &THREADS {
            let (got, got_t) = (spmm_at(&csr, &x, t), spmm_t_at(&csr, &xt, t));
            prop_assert_eq!(got.data(), product.data(), "spmm_acc threads={}", t);
            prop_assert_eq!(got_t.data(), product_t.data(), "spmm_t_acc threads={}", t);
        }
    }
}

// ----- canonical lane order (LANES = 8 dot reductions) ----------------
//
// The dot-reduction kernels — the `matmul_nt` family, `row_dots`,
// `row_dot_into` / `row_dot_acc`, and the softmax-backward row totals —
// accumulate in the fixed-lane order spelled out by `lane_dot_ref` at
// the top of this file: machine-independent by construction, and the
// same on every code path. These proptests pin every entry point
// bitwise against that scalar spec across adversarial shapes: k % 8
// ∈ {1..7} (every remainder length, on both sides of one full lane
// block), single rows/columns, empty matrices, and below-`min_work`
// sizes (the bare wrappers dispatch those serially, so both dispatch
// outcomes are covered).

/// `(a, b)` with equal column counts for the dot-reduction kernels;
/// k ranges past one full lane block so every remainder length shows
/// up both with and without a preceding full block.
fn nt_lane_inputs() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..5, 0usize..20, 0usize..6).prop_flat_map(|(m, k, p)| (matrix(m, k), matrix(p, k)))
}

/// A catalog matrix and a conformable query vector for `row_dots`.
fn row_dots_inputs() -> impl Strategy<Value = (Matrix, Vec<f32>)> {
    (0usize..5, 0usize..20)
        .prop_flat_map(|(m, k)| (matrix(m, k), proptest::collection::vec(-5.0f32..5.0, k)))
}

proptest! {
    #[test]
    fn matmul_nt_matches_lane_order_reference((a, b) in nt_lane_inputs()) {
        let expected =
            Matrix::from_fn(a.rows(), b.rows(), |i, j| lane_dot_ref(a.row(i), b.row(j)));
        let nan = Matrix::filled(a.rows(), b.rows(), f32::NAN);
        let auto = run_on(&nan, |dst| kernels::matmul_nt_into(dst, &a, &b));
        prop_assert_eq!(auto.data(), expected.data());
        for &t in &THREADS {
            let got = run_on(&nan, |dst| kernels::matmul_nt_into_with(dst, &a, &b, t));
            prop_assert_eq!(got.data(), expected.data(), "threads={}", t);
        }
    }

    #[test]
    fn row_dots_matches_lane_order_reference((base, query) in row_dots_inputs()) {
        let expected: Vec<f32> =
            (0..base.rows()).map(|r| lane_dot_ref(base.row(r), &query)).collect();
        prop_assert_eq!(&kernels::row_dots(&base, &query), &expected);
        for &t in &THREADS {
            prop_assert_eq!(&kernels::row_dots_with(&base, &query, t), &expected, "threads={}", t);
        }
    }

    #[test]
    fn matmul_into_packed_matches_serial((a, b, dst0) in matmul_acc_inputs()) {
        // `matmul_into_with` overwrites a dirty destination with the product;
        // under the thread override the parallel calls run the
        // panel-packed tiled kernel, which must stay bitwise-serial
        // (packing is a layout change, never an order change) even on
        // pack-adversarial shapes: all-tail column counts (n < 8),
        // row counts off the 4-row block, k across the lane remainder.
        let _caps = ThreadOverride::lift_caps();
        let reference = kernels::matmul_serial(&a, &b);
        for &t in &THREADS {
            let mut dst = dst0.clone();
            kernels::matmul_into_with(&mut dst, &a, &b, t);
            prop_assert_eq!(dst.data(), reference.data(), "threads={}", t);
        }
    }
}

#[test]
fn matmul_packed_tiling_boundaries_are_bitwise_serial() {
    // Shapes straddling the pack tile sizes (TILE_K = 64 k-tiles, a
    // ragged 519 % 8 = 7 column tail, 9 rows = two 4-row microkernel
    // blocks plus a remainder row): the panel-packed path must stay
    // bitwise-serial across every seam, at one thread (large-shape
    // tiled route) and through the pool.
    let _caps = ThreadOverride::lift_caps();
    let a = Matrix::from_fn(9, 130, |r, c| ((r * 31 + c * 7) as f32 * 0.013).sin());
    let b = Matrix::from_fn(130, 519, |r, c| ((r * 3 + c * 11) as f32 * 0.007).cos());
    let reference = kernels::matmul_serial(&a, &b);
    for t in 1..=4 {
        assert_eq!(kernels::matmul_with(&a, &b, t).data(), reference.data(), "threads={t}");
        let mut dst = Matrix::from_fn(9, 519, |r, c| (r as f32 - c as f32) * 0.1);
        kernels::matmul_into_with(&mut dst, &a, &b, t);
        assert_eq!(dst.data(), reference.data(), "into threads={t}");
    }
}

/// The fused kernels through the *real* pool machinery (explicit
/// `set_threads` override lifts the single-core oversubscription guard,
/// as in the hub tests above): bytes must not depend on which worker
/// ran which chunk.
#[test]
fn fused_kernels_bitwise_across_pool_threads() {
    let _guard = ThreadOverride::lift_caps();
    let a = Matrix::from_fn(37, 23, |r, c| ((r * 31 + c * 7) as f32 * 0.13).sin());
    let b = Matrix::from_fn(37, 23, |r, c| ((r * 17 + c * 3) as f32 * 0.29).cos());
    let mut expected_axpy = a.clone();
    expected_axpy.add_scaled_assign(&b, 0.75);
    let expected_tn = kernels::matmul_serial(&a.transpose(), &b);
    for t in [2, 3, 4] {
        let mut dst = a.clone();
        kernels::axpy_with(&mut dst, &b, 0.75, t);
        assert_eq!(dst.data(), expected_axpy.data(), "axpy threads={t}");
        let mut tn = Matrix::zeros(a.cols(), b.cols());
        kernels::matmul_tn_acc_with(&mut tn, &a, &b, t);
        assert_eq!(tn.data(), expected_tn.data(), "matmul_tn_acc threads={t}");
    }
}

// ----- degenerate cases, pinned exactly -------------------------------

#[test]
fn empty_matrices_all_kernels() {
    let a00 = Matrix::zeros(0, 0);
    for &t in &THREADS {
        assert_eq!(kernels::matmul_with(&a00, &a00, t).shape(), (0, 0));
        assert_eq!(kernels::matmul_with(&Matrix::zeros(0, 4), &Matrix::zeros(4, 3), t).shape(), (0, 3));
        assert_eq!(kernels::matmul_with(&Matrix::zeros(3, 0), &Matrix::zeros(0, 2), t).shape(), (3, 2));
        assert_eq!(matmul_tn_at(&Matrix::zeros(0, 4), &Matrix::zeros(0, 2), t).data(), &[0.0; 8]);
        let mut nt = Matrix::ones(2, 5);
        kernels::matmul_nt_into_with(&mut nt, &Matrix::zeros(2, 0), &Matrix::zeros(5, 0), t);
        assert_eq!(nt.data(), &[0.0; 10], "an empty dot overwrites with 0");
    }
}

#[test]
fn single_row_inputs() {
    let a = Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
    let b = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    let reference = kernels::matmul_serial(&a, &b);
    for &t in &THREADS {
        // More threads than rows must clamp, not panic.
        assert_eq!(kernels::matmul_with(&a, &b, t).data(), reference.data());
    }
}

#[test]
fn nnz_zero_csr() {
    let e = Csr::empty(5, 7);
    let x = Matrix::ones(7, 3);
    let xt = Matrix::ones(5, 3);
    for &t in &THREADS {
        assert_eq!(spmm_at(&e, &x, t).data(), &[0.0; 15]);
        assert_eq!(spmm_t_at(&e, &xt, t).data(), &[0.0; 21]);
    }
}

#[test]
fn parallel_results_are_bitwise_identical() {
    // The determinism contract is stronger than a tolerance: any thread
    // count must give byte-for-byte the serial result.
    let a = Matrix::from_fn(37, 53, |r, c| ((r * 13 + c * 31) as f32 * 0.017).sin());
    let b = Matrix::from_fn(53, 29, |r, c| ((r * 7 + c * 11) as f32 * 0.029).cos());
    let reference = kernels::matmul_serial(&a, &b);
    for t in 1..=8 {
        assert_eq!(kernels::matmul_with(&a, &b, t).data(), reference.data(), "threads={t}");
    }
    let csr = Csr::from_triplets(
        40,
        31,
        &(0..200)
            .map(|i| ((i * 17 % 40) as u32, (i * 23 % 31) as u32, (i as f32 * 0.1).sin()))
            .collect::<Vec<_>>(),
    );
    let x = Matrix::from_fn(31, 6, |r, c| (r as f32 - c as f32) * 0.3);
    let reference = spmm_ref(&csr, &x);
    for t in 1..=8 {
        assert_eq!(spmm_at(&csr, &x, t).data(), reference.data(), "threads={t}");
    }
}

#[test]
fn skewed_hub_is_bitwise_identical_across_thread_counts() {
    // A deterministic power-law shape big enough to cut real weighted
    // plans: row 7 owns ~90% of 5000 entries, columns drawn
    // log-uniformly so column degrees are skewed too.
    let mut triplets: Vec<(u32, u32, f32)> = Vec::with_capacity(5000);
    for i in 0..5000u32 {
        let r = if i % 10 < 9 { 7 } else { (i * 131) % 400 };
        let c = (((i as f32 * 0.7211).sin().abs() * 6.0).exp() as u32).min(299);
        triplets.push((r, c, ((i as f32) * 0.013).sin()));
    }
    let csr = Csr::from_triplets(400, 300, &triplets);
    let x = Matrix::from_fn(300, 16, |r, c| ((r * 3 + c) as f32 * 0.01).cos());
    let xt = Matrix::from_fn(400, 16, |r, c| ((r + 5 * c) as f32 * 0.01).sin());
    let reference = spmm_ref(&csr, &x);
    let reference_t = spmm_t_ref(&csr, &xt);
    // An explicit set_threads override lifts the oversubscription
    // guard, so the weighted-plan/CSC-streaming code paths run for real
    // here even on a single-core machine. (Other tests in this binary
    // may dispatch concurrently while the override is up; that only
    // flips which code path they take, never their bytes — which is
    // the contract this whole suite pins.)
    par::set_threads(Some(8));
    let result = std::panic::catch_unwind(|| {
        for t in 1..=8 {
            assert_eq!(spmm_at(&csr, &x, t).data(), reference.data(), "spmm threads={t}");
            assert_eq!(spmm_t_at(&csr, &xt, t).data(), reference_t.data(), "spmm_t threads={t}");
        }
    });
    par::set_threads(None);
    if let Err(payload) = result {
        std::panic::resume_unwind(payload);
    }
    // The O(nnz) CSC-based transpose must match the triplet-sort path
    // byte for byte (entries are unique and sorted either way).
    let via_triplets = Csr::from_triplets(
        300,
        400,
        &csr.iter().map(|(r, c, v)| (c, r, v)).collect::<Vec<_>>(),
    );
    assert_eq!(csr.transpose(), via_triplets);
}

// ----- auto-dispatch wrappers -----------------------------------------
//
// Every `*_with(threads)` kernel has a wrapper that picks its thread
// count from the shared config (`matmul_tn_acc`, `spmm_acc`, `axpy`, …).
// The wrapper contract is pure delegation: identical bytes to the
// explicit form for any config. `set_min_work(Some(1))` forces the
// wrappers down their genuine parallel routes even on test-sized
// shapes; this test is the single owner of that global (a second
// concurrent owner could observe the other's override — the bytes
// would still match, but the `min_work` value assertions would race).

/// RAII guard forcing every auto-dispatch wrapper onto the parallel
/// route; restores the default threshold on any exit.
struct MinWorkOverride;

impl MinWorkOverride {
    fn force_parallel() -> Self {
        kernels::set_min_work(Some(1));
        MinWorkOverride
    }
}

impl Drop for MinWorkOverride {
    fn drop(&mut self) {
        kernels::set_min_work(None);
    }
}

#[test]
fn auto_wrappers_match_explicit_thread_counts() {
    // The threshold override round-trips (floor-clamped at 1) before
    // the byte checks rely on it.
    let default = kernels::min_work();
    assert!(default > 1, "default PAR_MIN_WORK should be a real threshold");
    kernels::set_min_work(Some(5));
    assert_eq!(kernels::min_work(), 5);
    kernels::set_min_work(Some(0));
    assert_eq!(kernels::min_work(), 1, "Some(0) clamps to the floor");
    kernels::set_min_work(None);
    assert_eq!(kernels::min_work(), default);

    let _caps = ThreadOverride::lift_caps();
    let _work = MinWorkOverride::force_parallel();

    // Dense product wrappers against their one-thread forms.
    let a = Matrix::from_fn(13, 11, |r, c| ((r * 19 + c * 5) as f32 * 0.11).sin());
    let same_rows = Matrix::from_fn(13, 9, |r, c| ((r + 4 * c) as f32 * 0.07).sin());
    let same_cols = Matrix::from_fn(7, 11, |r, c| ((2 * r + c) as f32 * 0.19).cos());
    let tn_dirty = Matrix::from_fn(11, 9, |r, c| ((r + c * 3) as f32 * 0.17).cos());
    let mut got = tn_dirty.clone();
    let mut want = tn_dirty.clone();
    kernels::matmul_tn_acc(&mut got, &a, &same_rows);
    kernels::matmul_tn_acc_with(&mut want, &a, &same_rows, 1);
    assert_eq!(got.data(), want.data(), "matmul_tn_acc");

    let nt_dirty = Matrix::from_fn(13, 7, |r, c| ((r * 5 + c) as f32 * 0.13).sin());
    let mut got = nt_dirty.clone();
    let mut want = nt_dirty.clone();
    kernels::matmul_nt_acc(&mut got, &a, &same_cols);
    kernels::matmul_nt_acc_with(&mut want, &a, &same_cols, 1);
    assert_eq!(got.data(), want.data(), "matmul_nt_acc");
    let mut got = nt_dirty.clone();
    let mut want = nt_dirty;
    kernels::matmul_nt_into(&mut got, &a, &same_cols);
    kernels::matmul_nt_into_with(&mut want, &a, &same_cols, 1);
    assert_eq!(got.data(), want.data(), "matmul_nt_into");

    // Sparse wrappers.
    let csr = Csr::from_triplets(
        12,
        10,
        &(0..60)
            .map(|i| ((i * 7 % 12) as u32, (i * 11 % 10) as u32, (i as f32 * 0.21).sin()))
            .collect::<Vec<_>>(),
    );
    let x = Matrix::from_fn(10, 5, |r, c| ((r + 2 * c) as f32 * 0.09).cos());
    let xt = Matrix::from_fn(12, 5, |r, c| ((3 * r + c) as f32 * 0.09).sin());
    let mut got = Matrix::zeros(12, 5);
    let mut want = Matrix::zeros(12, 5);
    kernels::spmm_acc(&mut got, &csr, &x);
    kernels::spmm_acc_with(&mut want, &csr, &x, 1);
    assert_eq!(got.data(), want.data(), "spmm_acc");
    let mut got = Matrix::zeros(10, 5);
    let mut want = Matrix::zeros(10, 5);
    kernels::spmm_t_acc(&mut got, &csr, &xt);
    kernels::spmm_t_acc_with(&mut want, &csr, &xt, 1);
    assert_eq!(got.data(), want.data(), "spmm_t_acc");

    // Elementwise wrappers.
    let base = Matrix::from_fn(9, 8, |r, c| ((r * 11 + c * 2) as f32 * 0.27).sin());
    let src = Matrix::from_fn(9, 8, |r, c| ((r + 7 * c) as f32 * 0.33).cos());
    let f = |p: f32, q: f32| if q > 0.0 { p } else { p * 0.25 };
    for t in 1..=3usize {
        let mut got = base.clone();
        let mut want = base.clone();
        kernels::add_assign(&mut got, &src);
        kernels::add_assign_with(&mut want, &src, t);
        assert_eq!(got.data(), want.data(), "add_assign threads={t}");
        let mut got = base.clone();
        let mut want = base.clone();
        kernels::axpy(&mut got, &src, 0.6);
        kernels::axpy_with(&mut want, &src, 0.6, t);
        assert_eq!(got.data(), want.data(), "axpy threads={t}");
        let mut got = base.clone();
        let mut want = base.clone();
        kernels::scale_into(&mut got, &src, -1.7);
        kernels::scale_into_with(&mut want, &src, -1.7, t);
        assert_eq!(got.data(), want.data(), "scale_into threads={t}");
        let mut got = base.clone();
        let mut want = base.clone();
        kernels::scale_assign(&mut got, 2.3);
        kernels::scale_assign_with(&mut want, 2.3, t);
        assert_eq!(got.data(), want.data(), "scale_assign threads={t}");
        let mut got = base.clone();
        let mut want = base.clone();
        kernels::zip_map_into(&mut got, &base, &src, f);
        kernels::zip_map_into_with(&mut want, &base, &src, f, t);
        assert_eq!(got.data(), want.data(), "zip_map_into threads={t}");
        let mut got = base.clone();
        let mut want = base.clone();
        kernels::zip_map_acc(&mut got, &base, &src, f);
        kernels::zip_map_acc_with(&mut want, &base, &src, f, t);
        assert_eq!(got.data(), want.data(), "zip_map_acc threads={t}");
    }

    // Scatter-add, row-dot and ranking wrappers.
    let indices: Vec<u32> = (0..base.rows() as u32).map(|i| (i * 5 + 2) % 4).collect();
    let mut got = Matrix::zeros(4, base.cols());
    let mut want = Matrix::zeros(4, base.cols());
    kernels::scatter_add_rows(&mut got, &indices, &base);
    kernels::scatter_add_rows_with(&mut want, &indices, &base, 1);
    assert_eq!(got.data(), want.data(), "scatter_add_rows");

    let query: Vec<f32> = (0..base.cols()).map(|i| (i as f32 * 0.41).sin()).collect();
    let serial: Vec<f32> =
        (0..base.rows()).map(|r| lane_dot_ref(base.row(r), &query)).collect();
    assert_eq!(kernels::row_dots(&base, &query), serial, "row_dots");
    for t in 1..=3usize {
        assert_eq!(kernels::row_dots_with(&base, &query, t), serial, "row_dots_with threads={t}");
    }
    let mut scratch = kernels::RankScratch::new();
    let want = kernels::rank_rows_with(&base, &query, 4, &[1, 5], &mut scratch, 1).to_vec();
    assert_eq!(kernels::rank_rows(&base, &query, 4, &[1, 5], &mut scratch), &want[..], "rank_rows");
}

#[test]
fn transpose_kernels_match_materialized_transpose() {
    let src = Matrix::from_fn(7, 12, |r, c| ((r * 13 + c * 3) as f32 * 0.19).sin());
    let transposed = Matrix::from_fn(12, 7, |r, c| src.get(c, r));
    let dst0 = Matrix::from_fn(12, 7, |r, c| ((r + 5 * c) as f32 * 0.23).cos());
    // transpose_into overwrites a dirty buffer completely.
    let mut dirty = dst0.clone();
    kernels::transpose_into(&mut dirty, &src);
    assert_eq!(dirty.data(), transposed.data());
    // transpose_acc == materialize src^T, then add_assign it.
    let mut expected = dst0.clone();
    for (e, &x) in expected.data_mut().iter_mut().zip(transposed.data()) {
        *e += x;
    }
    let mut acc = dst0;
    kernels::transpose_acc(&mut acc, &src);
    assert_eq!(acc.data(), expected.data());
}

// ----- canonical dot & top-k partial selection ------------------------
//
// The serving-path kernels: `dot` and `row_dots_into` must replay the
// exact lane order (spec: `lane_dot_ref`), and the bounded partial
// selection (`top_k_select_excluding`, and `rank_rows_with` on top of
// it) must be exact-match — same indices, same order — against a full
// sort under the deterministic `(score desc, index asc)` total order,
// on both of its internal algorithms (bounded heap for small k,
// quickselect once k is a sizable fraction of the candidates).

/// Full-sort reference for the selection kernels: the historical
/// argsort path — rank every non-excluded candidate, truncate to k.
/// Deliberately shares no code with the kernels.
fn top_k_ref(scores: &[f32], k: usize, exclude: &[u32]) -> Vec<(u32, f32)> {
    let mut all: Vec<(u32, f32)> = scores
        .iter()
        .enumerate()
        .map(|(i, &s)| (i as u32, s))
        .filter(|(i, _)| exclude.binary_search(i).is_err())
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// Tie-heavy scores plus a sorted exclusion subset: values drawn from a
/// handful of levels so equal scores (the tie-break path) are the
/// common case, not the edge case.
fn selection_inputs() -> impl Strategy<Value = (Vec<f32>, Vec<u32>)> {
    (0usize..220).prop_flat_map(|n| {
        let scores = proptest::collection::vec((-3i8..4).prop_map(|v| v as f32 * 0.5), n);
        let excluded = proptest::collection::vec(0u8..2, n).prop_map(|mask| {
            mask.iter().enumerate().filter(|(_, &x)| x == 1).map(|(i, _)| i as u32).collect::<Vec<u32>>()
        });
        (scores, excluded)
    })
}

/// A catalog, a query and a sorted exclusion subset for `rank_rows`:
/// entries drawn from a few coarse levels so equal dots (the tie-break
/// path) are common.
fn rank_inputs() -> impl Strategy<Value = (Matrix, Vec<f32>, Vec<u32>)> {
    (0usize..60, 0usize..6).prop_flat_map(|(n, d)| {
        let level = || (-2i8..3).prop_map(|v| v as f32 * 0.5);
        let catalog = proptest::collection::vec(level(), n * d).prop_map(move |v| Matrix::from_vec(n, d, v));
        let excluded = proptest::collection::vec(0u8..3, n).prop_map(|mask| {
            mask.iter().enumerate().filter(|(_, &x)| x == 0).map(|(i, _)| i as u32).collect::<Vec<u32>>()
        });
        (catalog, proptest::collection::vec(level(), d), excluded)
    })
}

proptest! {
    #[test]
    fn top_k_selection_matches_full_sort((scores, exclude) in selection_inputs()) {
        let n = scores.len();
        let mut scratch = kernels::TopKScratch::new();
        // k sweep covers {0, 1, small (heap path), n/2 and n
        // (quickselect / copy-all paths), > n}.
        for k in [0, 1, 3, n / 8, n / 2, n.saturating_sub(1), n, n + 7] {
            let expected = top_k_ref(&scores, k, &exclude);
            let got = kernels::top_k_select_excluding(&scores, k, &exclude, &mut scratch);
            prop_assert_eq!(got, &expected[..], "excluding, k={}", k);
            let expected_all = top_k_ref(&scores, k, &[]);
            let got_all = kernels::top_k_select_excluding(&scores, k, &[], &mut scratch);
            prop_assert_eq!(got_all, &expected_all[..], "no exclusion, k={}", k);
        }
    }

    #[test]
    fn rank_rows_matches_full_sort_reference((catalog, query, exclude) in rank_inputs()) {
        // The one path from representation rows to a top-k list, pinned
        // bitwise against the full sort over lane-order scores; one
        // scratch serves every call. The override lets 2 and 4 threads
        // really split the sweep on a 1-core host.
        let _caps = ThreadOverride::lift_caps();
        let scores: Vec<f32> = (0..catalog.rows()).map(|r| lane_dot_ref(catalog.row(r), &query)).collect();
        let bits = |v: &[(u32, f32)]| v.iter().map(|&(i, s)| (i, s.to_bits())).collect::<Vec<_>>();
        let n = catalog.rows();
        let mut scratch = kernels::RankScratch::new();
        for k in [0, 1, n, n + 3] {
            let expected = bits(&top_k_ref(&scores, k, &exclude));
            for &t in &THREADS {
                let got = kernels::rank_rows_with(&catalog, &query, k, &exclude, &mut scratch, t);
                prop_assert_eq!(bits(got), expected.clone(), "k={} threads={}", k, t);
            }
        }
    }

    #[test]
    fn dot_and_row_dots_into_replay_lane_order((base, query) in row_dots_inputs()) {
        for r in 0..base.rows() {
            let expected = lane_dot_ref(base.row(r), &query);
            prop_assert_eq!(kernels::dot(base.row(r), &query).to_bits(), expected.to_bits());
        }
        // `row_dots_into` fills a dirty caller buffer with exactly the
        // bytes the allocating `row_dots` returns.
        let mut dst = vec![f32::NAN; base.rows()];
        kernels::row_dots_into(&mut dst, &base, &query);
        let reference = kernels::row_dots(&base, &query);
        prop_assert_eq!(
            dst.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}

#[test]
fn selection_pins_deterministic_tie_break_and_scratch_reuse() {
    // All-equal scores: the winner set is decided purely by the
    // (score desc, index asc) tie-break on every path.
    let flat = vec![1.5f32; 100];
    let mut scratch = kernels::TopKScratch::new();
    let heap_path: Vec<u32> =
        kernels::top_k_select_excluding(&flat, 4, &[], &mut scratch).iter().map(|&(i, _)| i).collect();
    assert_eq!(heap_path, vec![0, 1, 2, 3]);
    let qsel_path: Vec<u32> =
        kernels::top_k_select_excluding(&flat, 60, &[], &mut scratch).iter().map(|&(i, _)| i).collect();
    assert_eq!(qsel_path, (0..60).collect::<Vec<u32>>());
    // One scratch serves differently-sized calls back to back; the
    // exclusion merge-walk tolerates duplicate entries.
    let scores = [0.5, 2.0, 2.0, -1.0, 2.0, 0.0];
    let got = kernels::top_k_select_excluding(&scores, 3, &[1, 1, 4], &mut scratch);
    assert_eq!(got, &[(2, 2.0), (0, 0.5), (5, 0.0)]);
    // NaN scores are ordered by total_cmp (positive NaN above +inf),
    // not silently shuffled like the old partial_cmp comparator.
    let with_nan = [1.0, f32::NAN, f32::INFINITY, 2.0];
    let order: Vec<u32> =
        kernels::top_k_select_excluding(&with_nan, 4, &[], &mut scratch).iter().map(|&(i, _)| i).collect();
    assert_eq!(order, vec![1, 2, 3, 0]);
}

#[test]
fn auto_dispatch_is_thread_count_invariant() {
    // 64*64*80 = 327,680 multiply-adds: above PAR_MIN_WORK, so the
    // public Matrix::matmul takes the parallel path when the global
    // config allows it. Results must not depend on that choice.
    let a = Matrix::from_fn(64, 64, |r, c| ((r + 2 * c) as f32 * 0.01).sin());
    let b = Matrix::from_fn(64, 80, |r, c| ((3 * r + c) as f32 * 0.01).cos());
    par::set_threads(Some(4));
    let wide = a.matmul(&b);
    par::set_threads(Some(1));
    let narrow = a.matmul(&b);
    par::set_threads(None);
    assert_eq!(wide.data(), narrow.data());
}
