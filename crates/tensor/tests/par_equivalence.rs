//! Equivalence suite for the kernel layer: every kernel that runs on
//! the calling thread (the forward's `matmul_acc` and `spmm_acc`, the
//! backward's transposed products, scatters and elementwise family)
//! must match an independent plain-loop reference, on a dirty
//! destination where its contract allows one, across random shapes and
//! degenerate cases (empty matrices, single rows, nnz = 0 CSRs); the
//! catalog sweep (`row_dots`) must match its lane-order reference, the
//! packed catalog (`RowStrips`) must hold every element and score each
//! row in lane order, and the ranking kernels (`rank_rows`,
//! `rank_rows_into`) must match a full sort of lane-order scores. No
//! kernel dispatches on the pool, so none takes a thread count.
//!
//! Every exact assertion compares bit patterns ([`bits`]), not `f32`
//! values: `==` treats −0.0 and +0.0 as equal, and the contract does
//! not.

use gnmr_tensor::{kernels, par, Csr, Matrix};
use proptest::prelude::*;

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

/// The bit pattern of every element, for exact comparison: a −0.0
/// where +0.0 belongs fails here, where `f32`'s `==` lets it through.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A CSR's shape and its `(row, col, value bits)` entries in order.
fn csr_bits(csr: &Csr) -> (usize, usize, Vec<(u32, u32, u32)>) {
    (csr.rows(), csr.cols(), csr.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect())
}

/// A top-k list as `(index, score bits)` pairs.
fn pair_bits(v: &[(u32, f32)]) -> Vec<(u32, u32)> {
    v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// Plain scalar `dst0 + csr * x`: entry `(r, c, v)` adds
/// `v * x.row(c)` into output row `r`, one element at a time, entries
/// in CSR order. Shares no code with the streaming kernels; the `spmm`
/// family is pinned bitwise against it.
fn spmm_ref(dst0: &Matrix, csr: &Csr, x: &Matrix) -> Matrix {
    let mut out = dst0.clone();
    for (r, c, v) in csr.iter() {
        for j in 0..x.cols() {
            out[(r as usize, j)] += v * x.get(c as usize, j);
        }
    }
    out
}

/// Plain scalar `dst0 + csr^T * xt`: entry `(r, c, v)` adds
/// `v * xt.row(r)` into output row `c`, one element at a time, entries
/// in CSR order (so each output element sums in ascending `r`).
fn spmm_t_ref(dst0: &Matrix, csr: &Csr, xt: &Matrix) -> Matrix {
    let mut out = dst0.clone();
    for (r, c, v) in csr.iter() {
        for j in 0..xt.cols() {
            out[(c as usize, j)] += v * xt.get(r as usize, j);
        }
    }
    out
}

/// Plain scalar `dst0 + a * b`, the i-k-j loop: row `kk` of `b`,
/// scaled by `a[i][kk]`, adds into output row `i`, one element at a
/// time, `kk` ascending — so each element folds its terms into its
/// `dst0` value in ascending `kk`.
fn matmul_ref(dst0: &Matrix, a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = dst0.clone();
    for i in 0..a.rows() {
        for kk in 0..a.cols() {
            for j in 0..b.cols() {
                out[(i, j)] += a.get(i, kk) * b.get(kk, j);
            }
        }
    }
    out
}

/// Plain scalar `dst0 + a^T * b`: row `i` of `a` and `b` adds
/// `a[i][c] * b[i][j]` into output element `(c, j)`, one element at a
/// time, `i` ascending — so each element folds its terms into its
/// `dst0` value in ascending `i`.
fn matmul_tn_ref(dst0: &Matrix, a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = dst0.clone();
    for i in 0..a.rows() {
        for c in 0..a.cols() {
            for j in 0..b.cols() {
                out[(c, j)] += a.get(i, c) * b.get(i, j);
            }
        }
    }
    out
}

/// `dst0` plus the `a * b^T` product `lane_dot_ref` spells out, folded
/// in with one add per element: the allocate-then-combine reference of
/// `matmul_nt_acc`.
fn matmul_nt_acc_ref(dst0: &Matrix, a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = dst0.clone();
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            out[(i, j)] += lane_dot_ref(a.row(i), b.row(j));
        }
    }
    out
}

/// `a * b^T` with every element a `lane_dot_ref` dot: the reference of
/// `matmul_nt_into`.
fn matmul_nt_ref(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.rows(), |i, j| lane_dot_ref(a.row(i), b.row(j)))
}

/// `a^T * b` through `matmul_tn_acc` on a zeroed output.
fn matmul_tn_at(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    kernels::matmul_tn_acc(&mut out, a, b);
    out
}

/// `csr * x` through `spmm_acc` on a zeroed output.
fn spmm_at(csr: &Csr, x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(csr.rows(), x.cols());
    kernels::spmm_acc(&mut out, csr, x);
    out
}

/// Plain scalar scatter-add `dst0 + scatter(src)`: source row `o` adds
/// into destination row `indices[o]`, one element at a time, sources in
/// order (so duplicate indices sum in source order).
fn scatter_add_ref(dst0: &Matrix, indices: &[u32], src: &Matrix) -> Matrix {
    let mut out = dst0.clone();
    for (o, &idx) in indices.iter().enumerate() {
        for j in 0..src.cols() {
            out[(idx as usize, j)] += src.get(o, j);
        }
    }
    out
}

/// `csr^T * xt` through `spmm_t_acc` on a zeroed output.
fn spmm_t_at(csr: &Csr, xt: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(csr.cols(), xt.cols());
    kernels::spmm_t_acc(&mut out, csr, xt);
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

/// Both sparse accumulators on non-zero destinations: each output
/// element takes one add per stored entry, in ascending entry order,
/// so `spmm_acc` must reproduce [`spmm_ref`] and the `spmm_t_acc`
/// scatter [`spmm_t_ref`].
fn spmm_pair_matches_references(csr: &Csr, x: &Matrix, xt: &Matrix) -> TestCaseResult {
    let (dst0, dst0_t) = (dirty(csr.rows(), x.cols()), dirty(csr.cols(), xt.cols()));
    let got = run_on(&dst0, |dst| kernels::spmm_acc(dst, csr, x));
    prop_assert_eq!(bits(got.data()), bits(spmm_ref(&dst0, csr, x).data()), "spmm_acc");
    let got_t = run_on(&dst0_t, |dst| kernels::spmm_t_acc(dst, csr, xt));
    prop_assert_eq!(bits(got_t.data()), bits(spmm_t_ref(&dst0_t, csr, xt).data()), "spmm_t_acc");
    Ok(())
}

/// RAII guard sizing the pool past one thread for one test body: an
/// explicit `set_threads` override, which lifts the hardware cap, so
/// the pool runs workers even on a single-core machine. The kernels
/// run on the calling thread whatever the pool's size; the tests under
/// this guard pin that. Dropped on any exit — including proptest's
/// early assert-returns — so the global never leaks.
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

/// Power-law (Taobao/Yelp-style) triplets: one hub row owns ~90% of
/// the entries, one hub column concentrates the rest, and with only a
/// handful of light entries over up to 14 rows, long empty-row runs
/// arise by construction.
fn skewed_triplets() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32, f32)>)> {
    (3usize..14, 3usize..14).prop_flat_map(|(rows, cols)| {
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
            )
                .prop_map(move |(mut entries, col_entries, light)| {
                    entries.extend(col_entries);
                    entries.extend(light);
                    (rows, cols, entries)
                })
        })
    })
}

/// A CSR of [`skewed_triplets`] with conformable dense matrices for
/// `spmm` and `spmm_t`: a hub row, a hub column and empty-row runs in
/// one product.
fn skewed_sparse_inputs() -> impl Strategy<Value = (Csr, Matrix, Matrix)> {
    (skewed_triplets(), 0usize..8).prop_flat_map(|((rows, cols, entries), d)| {
        (Just(Csr::from_triplets(rows, cols, &entries)), matrix(cols, d), matrix(rows, d))
    })
}

proptest! {
    #[test]
    fn matmul_matches_serial((a, b) in matmul_inputs()) {
        // The packed tiled kernel against the i-k-j loop, on
        // pack-adversarial shapes: all-tail column counts (n < 8), one
        // strip plus a tail, row counts off the 4-row block, k across
        // the lane remainder. Packing is a layout change, never an order
        // change, so a zeroed destination gives `matmul_serial`'s bytes
        // and a dirty one the plain loop started from its values.
        let product = kernels::matmul_serial(&a, &b);
        prop_assert_eq!(bits(a.matmul(&b).data()), bits(product.data()), "matmul");
        let zeros = Matrix::zeros(a.rows(), b.cols());
        let got = run_on(&zeros, |dst| kernels::matmul_acc(dst, &a, &b));
        prop_assert_eq!(bits(got.data()), bits(product.data()), "zeroed");
        let dst0 = dirty(a.rows(), b.cols());
        let got = run_on(&dst0, |dst| kernels::matmul_acc(dst, &a, &b));
        prop_assert_eq!(bits(got.data()), bits(matmul_ref(&dst0, &a, &b).data()), "dirty");
    }

    #[test]
    fn matmul_tn_matches_serial((a, b) in tn_inputs()) {
        // On a non-zero destination the streaming accumulator folds one
        // add per `i` step into each element, ascending: exactly the
        // plain triple loop of `matmul_tn_ref`.
        let dst0 = dirty(a.cols(), b.cols());
        let got = run_on(&dst0, |dst| kernels::matmul_tn_acc(dst, &a, &b));
        prop_assert_eq!(bits(got.data()), bits(matmul_tn_ref(&dst0, &a, &b).data()));
    }

    #[test]
    fn matmul_nt_matches_serial((a, b) in nt_inputs()) {
        // Both `matmul_nt` forms against the lane-order spec: the
        // overwriting one on a NaN-filled buffer, the accumulating one
        // on a non-zero destination.
        let (nan, dst0) = (Matrix::filled(a.rows(), b.rows(), f32::NAN), dirty(a.rows(), b.rows()));
        let got = run_on(&nan, |dst| kernels::matmul_nt_into(dst, &a, &b));
        prop_assert_eq!(bits(got.data()), bits(matmul_nt_ref(&a, &b).data()), "into");
        let got_acc = run_on(&dst0, |dst| kernels::matmul_nt_acc(dst, &a, &b));
        prop_assert_eq!(bits(got_acc.data()), bits(matmul_nt_acc_ref(&dst0, &a, &b).data()), "acc");
    }

    #[test]
    fn spmm_and_spmm_t_match_serial((csr, x, xt) in sparse_inputs()) {
        spmm_pair_matches_references(&csr, &x, &xt)?;
    }

    #[test]
    fn skewed_spmm_and_spmm_t_are_bitwise_serial((csr, x, xt) in skewed_sparse_inputs()) {
        // A hub row, a hub column and empty-row runs; the contract
        // there is exact as well.
        spmm_pair_matches_references(&csr, &x, &xt)?;
    }

    #[test]
    fn spmm_agrees_with_dense_matmul((csr, x, _xt) in sparse_inputs()) {
        // Cross-check the whole sparse path against the dense one.
        let dense = csr.to_dense().matmul(&x);
        prop_assert!(spmm_at(&csr, &x).max_abs_diff(&dense) <= 1e-4);
    }

    #[test]
    fn skewed_scatter_add_matches_serial(
        (rows, indices, src) in (skewed_triplets(), 0usize..6).prop_flat_map(|((rows, _, entries), d)| {
            let indices: Vec<u32> = entries.iter().map(|&(r, _, _)| r).collect();
            let n = indices.len();
            (Just(rows), Just(indices), matrix(n, d))
        }),
    ) {
        // The power-law rows as destination indices: one hot row takes
        // most of the updates, the rest repeat or never appear (empty
        // rows), into a non-zero destination.
        let dst0 = dirty(rows, src.cols());
        let got = run_on(&dst0, |dst| kernels::scatter_add_rows(dst, &indices, &src));
        prop_assert_eq!(bits(got.data()), bits(scatter_add_ref(&dst0, &indices, &src).data()));
    }

    #[test]
    fn scatter_add_matches_serial(
        (rows, src) in (1usize..10, 0usize..6).prop_flat_map(|(r, c)| (Just(r), matrix(8, c))),
        seed in 0u32..1000,
    ) {
        // Deterministic pseudo-indices into `rows` destination rows.
        let indices: Vec<u32> =
            (0..src.rows() as u32).map(|i| (i * 7 + seed) % rows as u32).collect();
        let dst0 = dirty(rows, src.cols());
        let got = run_on(&dst0, |dst| kernels::scatter_add_rows(dst, &indices, &src));
        prop_assert_eq!(bits(got.data()), bits(scatter_add_ref(&dst0, &indices, &src).data()));
    }
}

// ----- CSR construction & normalization -------------------------------
//
// `Csr::from_triplets`, `row_normalized` and `sym_normalized` run on the
// calling thread. They are pinned bit for bit against specs that share
// no code with `sparse.rs`: one stable sort of every triplet by
// `(row, col)` with a left-to-right pass summing each run of one
// coordinate, then plain per-row loops over the entries it leaves.

/// Triplets whose duplicate sums depend on the order of the adds: few
/// rows and columns, so most coordinates repeat and some rows stay
/// empty, with values from {1e8, 1, −1e8, −0.0}. `1e8 + 1 − 1e8` is 0
/// but `1e8 − 1e8 + 1` is 1, and `−0.0 + −0.0` keeps the sign that
/// `0.0 + −0.0` loses.
fn duplicate_heavy_triplets() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32, f32)>)> {
    (1usize..10, 1usize..5).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows as u32, 0..cols as u32, 0usize..4)
            .prop_map(|(r, c, i)| (r, c, [1e8f32, 1.0, -1e8, -0.0][i]));
        (Just(rows), Just(cols), proptest::collection::vec(entry, 0..48))
    })
}

/// The build spec: a stable sort by `(row, col)`, so each coordinate's
/// values stay in insertion order, then one pass that adds each run of
/// one coordinate into its first value, left to right.
fn from_triplets_ref(triplets: &[(u32, u32, f32)]) -> Vec<(u32, u32, f32)> {
    let mut sorted = triplets.to_vec();
    sorted.sort_by_key(|&(r, c, _)| (r, c));
    let mut out: Vec<(u32, u32, f32)> = Vec::with_capacity(sorted.len());
    for (r, c, v) in sorted {
        match out.last_mut() {
            Some(last) if (last.0, last.1) == (r, c) => last.2 += v,
            _ => out.push((r, c, v)),
        }
    }
    out
}

/// Row normalization over row-major `entries`: each row divided by its
/// sum, added left to right; a row summing to zero stays as it is.
fn row_normalized_ref(entries: &[(u32, u32, f32)]) -> Vec<(u32, u32, f32)> {
    let mut out = Vec::with_capacity(entries.len());
    for row in entries.chunk_by(|a, b| a.0 == b.0) {
        let mut total = 0.0f32;
        for &(_, _, v) in row {
            total += v;
        }
        out.extend(row.iter().map(|&(r, c, v)| (r, c, if total != 0.0 { v / total } else { v })));
    }
    out
}

/// Symmetric normalization over row-major `entries`: each value divided
/// by `sqrt(row entries * column entries)`.
fn sym_normalized_ref(cols: usize, entries: &[(u32, u32, f32)]) -> Vec<(u32, u32, f32)> {
    let mut col_deg = vec![0usize; cols];
    for &(_, c, _) in entries {
        col_deg[c as usize] += 1;
    }
    let mut out = Vec::with_capacity(entries.len());
    for row in entries.chunk_by(|a, b| a.0 == b.0) {
        for &(r, c, v) in row {
            out.push((r, c, v / (row.len() as f32 * col_deg[c as usize] as f32).sqrt()));
        }
    }
    out
}

/// Builds and normalizes `triplets` and compares each result with its
/// spec in the [`csr_bits`] form.
fn csr_matches_references(rows: usize, cols: usize, triplets: &[(u32, u32, f32)]) -> TestCaseResult {
    let as_bits = |entries: &[(u32, u32, f32)]| {
        (rows, cols, entries.iter().map(|&(r, c, v)| (r, c, v.to_bits())).collect::<Vec<_>>())
    };
    let csr = Csr::from_triplets(rows, cols, triplets);
    let built = from_triplets_ref(triplets);
    prop_assert_eq!(csr_bits(&csr), as_bits(&built), "from_triplets");
    prop_assert_eq!(csr_bits(&csr.row_normalized()), as_bits(&row_normalized_ref(&built)), "row_normalized");
    prop_assert_eq!(csr_bits(&csr.sym_normalized()), as_bits(&sym_normalized_ref(cols, &built)), "sym_normalized");
    Ok(())
}

proptest! {
    #[test]
    fn csr_build_and_normalization_match_references((rows, cols, triplets) in duplicate_heavy_triplets()) {
        csr_matches_references(rows, cols, &triplets)?;
    }

    #[test]
    fn skewed_csr_build_and_normalization_match_references((rows, cols, triplets) in skewed_triplets()) {
        csr_matches_references(rows, cols, &triplets)?;
    }
}

// ----- fused in-place kernels (arena path) ----------------------------
//
// Every `*_assign` / `*_acc` / `*_into` kernel must be bitwise-equal to
// its allocate-then-combine reference (materialize the contribution,
// then `+=` it element-wise — spelled out as plain loops below so the
// reference never shares code with the kernel under test). The
// fully-fused kernels hold that contract for ANY destination contents;
// the streaming accumulators (`matmul_acc`, `matmul_tn_acc`,
// `spmm_acc`, `spmm_t_acc`) hold it for the zeroed checkouts the tape
// feeds them, where the reference is the product itself:
// `matmul_serial` (on the explicit transpose for `matmul_tn`), or the
// plain scalar loops `spmm_ref`/`spmm_t_ref` from zeros.

/// `(dst, src)` with matching shapes for the elementwise fused kernels.
fn elementwise_inputs() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..10, 0usize..10).prop_flat_map(|(r, c)| (matrix(r, c), matrix(r, c)))
}

/// `(a, b, dst)` for `dst += a * b^T` (dst is `m x p`): `p` spans
/// three 8-column strips, so a full strip, several strips and a ragged
/// last one all occur.
fn nt_acc_inputs() -> impl Strategy<Value = (Matrix, Matrix, Matrix)> {
    (0usize..10, 0usize..10, 0usize..26)
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
        let got = run_on(&dst0, |dst| kernels::axpy(dst, &src, s));
        prop_assert_eq!(bits(got.data()), bits(expected.data()), "axpy");
        // add_assign: dst += src, one add per element.
        let mut expected = dst0.clone();
        for (e, &x) in expected.data_mut().iter_mut().zip(src.data()) {
            *e += x;
        }
        let got = run_on(&dst0, |dst| kernels::add_assign(dst, &src));
        prop_assert_eq!(bits(got.data()), bits(expected.data()), "add_assign");
    }

    #[test]
    fn scale_kernels_match_reference(
        (dst0, src) in elementwise_inputs(),
        s in -3.0f32..3.0,
    ) {
        // scale_into overwrites a dirty buffer completely.
        let got = run_on(&dst0, |dst| kernels::scale_into(dst, &src, s));
        prop_assert_eq!(bits(got.data()), bits(src.scale(s).data()), "scale_into");
        // scale_assign == materializing self * s.
        let got = run_on(&dst0, |dst| kernels::scale_assign(dst, s));
        prop_assert_eq!(bits(got.data()), bits(dst0.scale(s).data()), "scale_assign");
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
        let got = run_on(&src, |dst| kernels::zip_map_into(dst, &dst0, &src, f));
        prop_assert_eq!(bits(got.data()), bits(expected_into.data()), "into");
        let got = run_on(&dst0, |dst| kernels::zip_map_acc(dst, &dst0, &src, f));
        prop_assert_eq!(bits(got.data()), bits(expected_acc.data()), "acc");
    }

    #[test]
    fn matmul_nt_fused_match_allocate_then_combine((a, b, dst0) in nt_acc_inputs()) {
        let got = run_on(&dst0, |dst| kernels::matmul_nt_acc(dst, &a, &b));
        prop_assert_eq!(bits(got.data()), bits(matmul_nt_acc_ref(&dst0, &a, &b).data()), "acc");
        // The assign form overwrites a dirty buffer with the product.
        let got = run_on(&dst0, |dst| kernels::matmul_nt_into(dst, &a, &b));
        prop_assert_eq!(bits(got.data()), bits(matmul_nt_ref(&a, &b).data()), "into");
    }

    #[test]
    fn mul_col_broadcast_fused_match_allocate_then_combine(
        (dst0, src) in elementwise_inputs(),
        col_seed in -3.0f32..3.0,
        (cols, pick) in (1usize..5, 0usize..5),
    ) {
        // The scale is column `col` of an `n x cols` weight matrix (the
        // `WeightedSum` shape; `RowDot` passes one column).
        let col = pick % cols;
        let w = Matrix::from_fn(src.rows(), cols, |r, c| ((r * cols + c) as f32 * 0.37 + col_seed).sin());
        let scale = Matrix::from_fn(src.rows(), 1, |r, _| w.get(r, col));
        let product = src.mul_col_broadcast(&scale);
        let mut expected = dst0.clone();
        for (e, &x) in expected.data_mut().iter_mut().zip(product.data()) {
            *e += x;
        }
        let mut dirty = dst0.clone();
        kernels::mul_col_broadcast_into(&mut dirty, &src, &w, col);
        prop_assert_eq!(bits(dirty.data()), bits(product.data()));
        let mut acc = dst0.clone();
        kernels::mul_col_broadcast_acc(&mut acc, &src, &w, col);
        prop_assert_eq!(bits(acc.data()), bits(expected.data()));
    }

    #[test]
    fn row_dot_fused_match_allocate_then_combine((a, b) in elementwise_inputs(), (cols, pick) in (1usize..5, 0usize..5)) {
        // Per-row dots in the canonical lane order (the reference never
        // shares code with the kernel under test), into column `col` of
        // a dirty `n x cols` buffer whose other columns stay as they were.
        let col = pick % cols;
        let dots: Vec<f32> = (0..a.rows()).map(|r| lane_dot_ref(a.row(r), b.row(r))).collect();
        let dst0 = Matrix::from_fn(a.rows(), cols, |r, c| ((r * cols + c) as f32 * 0.61 - 1.3).cos());
        let product = Matrix::from_fn(a.rows(), cols, |r, c| if c == col { dots[r] } else { dst0.get(r, c) });
        let summed =
            Matrix::from_fn(a.rows(), cols, |r, c| if c == col { dst0.get(r, c) + dots[r] } else { dst0.get(r, c) });
        let mut dirty = dst0.clone();
        kernels::row_dot_into(&mut dirty, col, &a, &b);
        prop_assert_eq!(bits(dirty.data()), bits(product.data()), "into");
        let mut acc = dst0.clone();
        kernels::row_dot_acc(&mut acc, col, &a, &b);
        prop_assert_eq!(bits(acc.data()), bits(summed.data()), "acc");
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
        prop_assert_eq!(bits(dirty.data()), bits(product.data()));
        let mut acc = dst0.clone();
        kernels::softmax_rows_backward_acc(&mut acc, &g, &y);
        prop_assert_eq!(bits(acc.data()), bits(expected.data()));
    }

    #[test]
    fn matmul_tn_acc_zeroed_is_bitwise_product((a, b) in tn_inputs()) {
        // Streaming accumulator: on the tape's zeroed checkouts it must
        // reproduce the i-k-j product of the explicit transpose exactly.
        let product = kernels::matmul_serial(&a.transpose(), &b);
        prop_assert_eq!(bits(matmul_tn_at(&a, &b).data()), bits(product.data()));
    }

    #[test]
    fn spmm_acc_zeroed_is_bitwise_product((csr, x, xt) in sparse_inputs()) {
        let product_t = spmm_t_ref(&Matrix::zeros(csr.cols(), xt.cols()), &csr, &xt);
        prop_assert_eq!(bits(spmm_t_at(&csr, &xt).data()), bits(product_t.data()), "spmm_t_acc");
        let product = spmm_ref(&Matrix::zeros(csr.rows(), x.cols()), &csr, &x);
        prop_assert_eq!(bits(spmm_at(&csr, &x).data()), bits(product.data()), "spmm_acc");
    }

    #[test]
    fn skewed_spmm_acc_zeroed_is_bitwise_product((csr, x, xt) in skewed_sparse_inputs()) {
        // Same contract on a hub row, a hub column and empty-row runs.
        let product_t = spmm_t_ref(&Matrix::zeros(csr.cols(), xt.cols()), &csr, &xt);
        prop_assert_eq!(bits(spmm_t_at(&csr, &xt).data()), bits(product_t.data()), "spmm_t_acc");
        let product = spmm_ref(&Matrix::zeros(csr.rows(), x.cols()), &csr, &x);
        prop_assert_eq!(bits(spmm_at(&csr, &x).data()), bits(product.data()), "spmm_acc");
    }
}

// ----- canonical lane order (LANES = 8 dot reductions) ----------------
//
// The dot-reduction kernels — the `matmul_nt` family, `row_dots`,
// `row_dot_into`, and the softmax-backward row totals —
// accumulate in the fixed-lane order spelled out by `lane_dot_ref` at
// the top of this file: machine-independent by construction, and the
// same on every code path. These proptests pin every entry point
// bitwise against that scalar spec across adversarial shapes: k % 8
// ∈ {1..7} (every remainder length, on both sides of one full lane
// block), single rows/columns and empty matrices.

/// `(a, b)` with equal column counts for the dot-reduction kernels;
/// k ranges past one full lane block so every remainder length shows
/// up both with and without a preceding full block, and p spans three
/// of `matmul_nt`'s 8-column strips (full, several, ragged).
fn nt_lane_inputs() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..5, 0usize..20, 0usize..26).prop_flat_map(|(m, k, p)| (matrix(m, k), matrix(p, k)))
}

/// A catalog matrix and a conformable query vector for `row_dots`.
fn row_dots_inputs() -> impl Strategy<Value = (Matrix, Vec<f32>)> {
    (0usize..5, 0usize..20)
        .prop_flat_map(|(m, k)| (matrix(m, k), proptest::collection::vec(-5.0f32..5.0, k)))
}

proptest! {
    #[test]
    fn matmul_nt_matches_lane_order_reference((a, b) in nt_lane_inputs()) {
        let nan = Matrix::filled(a.rows(), b.rows(), f32::NAN);
        let got = run_on(&nan, |dst| kernels::matmul_nt_into(dst, &a, &b));
        prop_assert_eq!(bits(got.data()), bits(matmul_nt_ref(&a, &b).data()));
    }

    #[test]
    fn row_dots_matches_lane_order_reference((base, query) in row_dots_inputs()) {
        let expected: Vec<f32> =
            (0..base.rows()).map(|r| lane_dot_ref(base.row(r), &query)).collect();
        prop_assert_eq!(bits(&kernels::row_dots(&base, &query)), bits(&expected));
    }
}

#[test]
fn matmul_packed_tiling_boundaries_are_bitwise_serial() {
    // Shapes straddling the pack tile sizes (TILE_K = 64 k-tiles, a
    // ragged 519 % 8 = 7 column tail, 9 rows = two 4-row microkernel
    // blocks plus a remainder row): the panel-packed path must stay
    // bitwise-serial across every seam, from zeros and from a dirty
    // destination.
    let a = Matrix::from_fn(9, 130, |r, c| ((r * 31 + c * 7) as f32 * 0.013).sin());
    let b = Matrix::from_fn(130, 519, |r, c| ((r * 3 + c * 11) as f32 * 0.007).cos());
    assert_eq!(bits(a.matmul(&b).data()), bits(kernels::matmul_serial(&a, &b).data()), "zeroed");
    let dst0 = Matrix::from_fn(9, 519, |r, c| (r as f32 - c as f32) * 0.1);
    let got = run_on(&dst0, |dst| kernels::matmul_acc(dst, &a, &b));
    assert_eq!(bits(got.data()), bits(matmul_ref(&dst0, &a, &b).data()), "dirty");
}

#[test]
fn matmul_nt_zero_row_is_positive_zero() {
    // A zero row of `a` against all-negative rows of `b`: every product
    // is −0.0, and lanes that start at +0.0 absorb it (+0.0 + −0.0 =
    // +0.0), so every element is +0.0 — the `into` form writes it, the
    // `acc` form turns a −0.0 destination into it. Lanes started at
    // −0.0, or seeded with their first product, would leave −0.0.
    for k in [8, 16] {
        let a = Matrix::zeros(3, k);
        let b = Matrix::from_fn(11, k, |r, c| -1.0 - (r * k + c) as f32 * 0.25);
        let (nan, neg) = (Matrix::filled(3, 11, f32::NAN), Matrix::filled(3, 11, -0.0));
        let got = run_on(&nan, |dst| kernels::matmul_nt_into(dst, &a, &b));
        assert_eq!(bits(got.data()), bits(&[0.0; 33]), "into k={k}");
        let got = run_on(&neg, |dst| kernels::matmul_nt_acc(dst, &a, &b));
        assert_eq!(bits(got.data()), bits(&[0.0; 33]), "acc k={k}");
    }
}

#[test]
fn matmul_nt_deep_rows_match_lane_order_reference() {
    // k = 4100 is deeper than one packed b^T strip holds (4096 rows, the
    // pack buffer's bound), so each row's strips are packed and summed
    // one k-block at a time; the lane sequence must not notice.
    let k = 4100;
    let a = Matrix::from_fn(3, k, |r, c| ((r * 31 + c * 7) as f32 * 0.013).sin());
    let b = Matrix::from_fn(11, k, |r, c| ((r * 3 + c * 11) as f32 * 0.007).cos());
    let dst0 = dirty(3, 11);
    let got = run_on(&dst0, |dst| kernels::matmul_nt_into(dst, &a, &b));
    assert_eq!(bits(got.data()), bits(matmul_nt_ref(&a, &b).data()), "into");
    let got = run_on(&dst0, |dst| kernels::matmul_nt_acc(dst, &a, &b));
    assert_eq!(bits(got.data()), bits(matmul_nt_acc_ref(&dst0, &a, &b).data()), "acc");
}

/// The backward's fused kernels with the pool sized past one thread
/// (an explicit `set_threads` override, see [`ThreadOverride`]): they
/// run on the calling thread whatever the pool's size, and must give
/// their plain references' bytes.
#[test]
fn fused_kernels_bitwise_across_pool_threads() {
    let _guard = ThreadOverride::lift_caps();
    let a = Matrix::from_fn(37, 23, |r, c| ((r * 31 + c * 7) as f32 * 0.13).sin());
    let b = Matrix::from_fn(37, 23, |r, c| ((r * 17 + c * 3) as f32 * 0.29).cos());
    let mut expected_axpy = a.clone();
    for (e, &x) in expected_axpy.data_mut().iter_mut().zip(b.data()) {
        *e += x * 0.75;
    }
    let got = run_on(&a, |dst| kernels::axpy(dst, &b, 0.75));
    assert_eq!(bits(got.data()), bits(expected_axpy.data()), "axpy");
    let expected_tn = kernels::matmul_serial(&a.transpose(), &b);
    assert_eq!(bits(matmul_tn_at(&a, &b).data()), bits(expected_tn.data()), "matmul_tn_acc");
}

// ----- degenerate cases, pinned exactly -------------------------------

#[test]
fn empty_matrices_all_kernels() {
    let a00 = Matrix::zeros(0, 0);
    assert_eq!(a00.matmul(&a00).shape(), (0, 0));
    assert_eq!(Matrix::zeros(0, 4).matmul(&Matrix::zeros(4, 3)).shape(), (0, 3));
    assert_eq!(bits(Matrix::zeros(3, 0).matmul(&Matrix::zeros(0, 2)).data()), bits(&[0.0; 6]));
    let mut empty_k = dirty(3, 2);
    kernels::matmul_acc(&mut empty_k, &Matrix::zeros(3, 0), &Matrix::zeros(0, 2));
    assert_eq!(bits(empty_k.data()), bits(dirty(3, 2).data()), "an empty inner dimension adds nothing");
    assert_eq!(bits(matmul_tn_at(&Matrix::zeros(0, 4), &Matrix::zeros(0, 2)).data()), bits(&[0.0; 8]));
    let mut nt = Matrix::ones(2, 5);
    kernels::matmul_nt_into(&mut nt, &Matrix::zeros(2, 0), &Matrix::zeros(5, 0));
    assert_eq!(bits(nt.data()), bits(&[0.0; 10]), "an empty dot overwrites with 0");
}

#[test]
fn single_row_inputs() {
    // One row, below the 4-row microkernel block, with a column tail.
    let a = Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
    let b = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    let dst0 = dirty(1, 2);
    let got = run_on(&dst0, |dst| kernels::matmul_acc(dst, &a, &b));
    assert_eq!(bits(got.data()), bits(matmul_ref(&dst0, &a, &b).data()));
}

#[test]
fn nnz_zero_csr() {
    let e = Csr::empty(5, 7);
    let x = Matrix::ones(7, 3);
    let xt = Matrix::ones(5, 3);
    assert_eq!(bits(spmm_at(&e, &x).data()), bits(&[0.0; 15]));
    assert_eq!(bits(spmm_t_at(&e, &xt).data()), bits(&[0.0; 21]));
}

#[test]
fn parallel_results_are_bitwise_identical() {
    // The determinism contract is stronger than a tolerance: both
    // forward products give byte for byte their plain loops, on dirty
    // destinations, at a shape with full and ragged microkernel blocks.
    let a = Matrix::from_fn(37, 53, |r, c| ((r * 13 + c * 31) as f32 * 0.017).sin());
    let b = Matrix::from_fn(53, 29, |r, c| ((r * 7 + c * 11) as f32 * 0.029).cos());
    let dst0 = dirty(37, 29);
    let got = run_on(&dst0, |dst| kernels::matmul_acc(dst, &a, &b));
    assert_eq!(bits(got.data()), bits(matmul_ref(&dst0, &a, &b).data()), "matmul_acc");
    let csr = Csr::from_triplets(
        40,
        31,
        &(0..200)
            .map(|i| ((i * 17 % 40) as u32, (i * 23 % 31) as u32, (i as f32 * 0.1).sin()))
            .collect::<Vec<_>>(),
    );
    let x = Matrix::from_fn(31, 6, |r, c| (r as f32 - c as f32) * 0.3);
    let dst0 = dirty(40, 6);
    let got = run_on(&dst0, |dst| kernels::spmm_acc(dst, &csr, &x));
    assert_eq!(bits(got.data()), bits(spmm_ref(&dst0, &csr, &x).data()), "spmm_acc");
}

#[test]
fn skewed_hub_is_bitwise_identical_across_thread_counts() {
    // A deterministic power-law shape: row 7 owns ~90% of 5000
    // entries, columns drawn log-uniformly so column degrees are skewed
    // too.
    let mut triplets: Vec<(u32, u32, f32)> = Vec::with_capacity(5000);
    for i in 0..5000u32 {
        let r = if i % 10 < 9 { 7 } else { (i * 131) % 400 };
        let c = (((i as f32 * 0.7211).sin().abs() * 6.0).exp() as u32).min(299);
        triplets.push((r, c, ((i as f32) * 0.013).sin()));
    }
    let csr = Csr::from_triplets(400, 300, &triplets);
    let x = Matrix::from_fn(300, 16, |r, c| ((r * 3 + c) as f32 * 0.01).cos());
    let xt = Matrix::from_fn(400, 16, |r, c| ((r + 5 * c) as f32 * 0.01).sin());
    let reference = spmm_ref(&Matrix::zeros(400, 16), &csr, &x);
    let reference_t = spmm_t_ref(&Matrix::zeros(300, 16), &csr, &xt);
    assert_eq!(bits(spmm_at(&csr, &x).data()), bits(reference.data()), "spmm");
    assert_eq!(bits(spmm_t_at(&csr, &xt).data()), bits(reference_t.data()), "spmm_t");
    // The O(nnz) counting-sort transpose must match the triplet-sort
    // path byte for byte (entries are unique and sorted either way).
    let via_triplets = Csr::from_triplets(
        300,
        400,
        &csr.iter().map(|(r, c, v)| (c, r, v)).collect::<Vec<_>>(),
    );
    assert_eq!(csr_bits(&csr.transpose()), csr_bits(&via_triplets));
}

// ----- the dispatch configuration reaches no kernel --------------------
//
// `set_min_work` sets the serving batch's threshold and `set_threads`
// sizes the pool; neither reaches a kernel. Under both overrides at
// once — the work threshold floored, the pool past one thread — the
// catalog sweep and the ranking kernels must still give their
// references' bytes. This test is the single owner of the threshold
// global (a second concurrent owner could observe the other's
// override — the bytes would still match, but the `min_work` value
// assertions would race).

/// RAII guard flooring the serving batch's work threshold; restores
/// the default on any exit.
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

    let base = Matrix::from_fn(9, 8, |r, c| ((r * 11 + c * 2) as f32 * 0.27).sin());
    let query: Vec<f32> = (0..base.cols()).map(|i| (i as f32 * 0.41).sin()).collect();
    let serial: Vec<f32> =
        (0..base.rows()).map(|r| lane_dot_ref(base.row(r), &query)).collect();
    assert_eq!(bits(&kernels::row_dots(&base, &query)), bits(&serial), "row_dots");
    let want = pair_bits(&top_k_ref(&serial, 4, &[1, 5]));
    let strips = kernels::RowStrips::new(base.clone());
    assert_eq!(pair_bits(&kernels::rank_rows(&strips, &query, 4, &[1, 5])), want, "rank_rows");
    let queries = Matrix::from_vec(1, query.len(), query);
    let mut out = vec![(0u32, f32::NAN); 4];
    kernels::rank_rows_into(&mut out, &strips, &queries, &[0], 4, |_| &[1, 5], &mut kernels::RankScratch::new());
    assert_eq!(pair_bits(&out), want, "rank_rows_into");
}

// ----- canonical dot & top-k partial selection ------------------------
//
// The serving-path kernels: `dot` and `row_dots_into` must replay the
// exact lane order (spec: `lane_dot_ref`), and the bounded partial
// selection (`top_k_select_excluding` over a score slice, and
// `rank_rows`/`rank_rows_into`, which stream lane dots through the same
// selector) must be exact-match — same indices, same order — against a
// full sort under the deterministic `(score desc, index asc)` total
// order, for every k from 0 past the candidate count.

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

/// The platform's default NaN, computed at run time: the bits `inf * 0`
/// and `inf - inf` give. IEEE leaves to the implementation which
/// payload an operation on two NaNs keeps, and the code generator may
/// put either operand of a product or sum first; when this is the only
/// NaN an input holds, every NaN a dot can produce has these same bits,
/// so a kernel and its reference agree on NaN scores whatever order
/// either was compiled to.
fn default_nan() -> f32 {
    std::hint::black_box(f32::INFINITY) * std::hint::black_box(0.0f32)
}

/// A catalog, a few queries and a sorted exclusion subset per query for
/// the ranking kernels: entries drawn from a few coarse levels so equal
/// dots (the tie-break path) are common, with NaN, ±inf and −0.0 among
/// them (one entry in sixteen), and widths up to 50, so a row spans
/// several lane blocks and a catalog several strips plus a tail. Each
/// query excludes a different subset, so one query's exclusion cursor
/// cannot stand in for another's.
fn rank_inputs() -> impl Strategy<Value = (Matrix, Matrix, Vec<Vec<u32>>)> {
    (0usize..60, 0usize..51, 1usize..5).prop_flat_map(|(n, d, q)| {
        let level = || {
            (0u8..64).prop_map(|i| match i {
                0 => default_nan(),
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => -0.0,
                _ => f32::from(i % 5) * 0.5 - 1.0,
            })
        };
        let catalog = proptest::collection::vec(level(), n * d).prop_map(move |v| Matrix::from_vec(n, d, v));
        let queries = proptest::collection::vec(level(), q * d).prop_map(move |v| Matrix::from_vec(q, d, v));
        let excluded = proptest::collection::vec(0u8..3, n).prop_map(|mask| {
            mask.iter().enumerate().filter(|(_, &x)| x == 0).map(|(i, _)| i as u32).collect::<Vec<u32>>()
        });
        (catalog, queries, proptest::collection::vec(excluded, q))
    })
}

/// A float of one catalog-wide magnitude regime, positive unless
/// `signed`: 0 ordinary (|x| in [0.25, 2), a full mantissa), 1
/// subnormal, 2 near `f32::MAX` (|x| in [2^126, 2^128), where a dot's
/// partial sums overflow in one summation order and not in another), 3
/// any of the three. With `specials`, one draw in sixteen is a special
/// instead: the default NaN, ±inf or −0.0.
fn adversarial_value(regime: u32, signed: bool, specials: bool) -> impl Strategy<Value = f32> {
    (0u32..0x0080_0000, 0u32..2, 0u32..3, 0u8..16).prop_map(move |(mantissa, sign, pick_regime, special)| {
        let sign = if signed { sign << 31 } else { 0 };
        let exponent = match if regime == 3 { pick_regime } else { regime } {
            0 => 125 + pick_regime,
            1 => 0,
            _ => 253 + pick_regime % 2,
        };
        match special {
            0 if specials => default_nan(),
            1 if specials => f32::INFINITY,
            2 if specials => f32::NEG_INFINITY,
            3 if specials => -0.0,
            _ => f32::from_bits(sign | exponent << 23 | mantissa),
        }
    })
}

/// A matrix of every tail width (`n` in 0..=17 rows, so `n mod 8` takes
/// every value and zero, one or two full strips come first), at the
/// widths around a lane block and the serving width 48, and a query as
/// wide as its rows. Three elements in four are full-mantissa values
/// (so a low half is rarely zero), the fourth an [`adversarial_value`]
/// of any regime: every element must come back bit for bit from its
/// two halves.
fn strip_inputs() -> impl Strategy<Value = (Matrix, Vec<f32>)> {
    (0usize..18, 0usize..7).prop_flat_map(|(n, di)| {
        let d = [0, 1, 7, 8, 9, 16, 48][di];
        let element = (-5.0f32..5.0, adversarial_value(3, true, true), 0u8..4)
            .prop_map(|(plain, adversarial, pick)| if pick == 0 { adversarial } else { plain });
        let m = proptest::collection::vec(element, n * d).prop_map(move |v| Matrix::from_vec(n, d, v));
        (m, proptest::collection::vec(-5.0f32..5.0, d))
    })
}

/// Catalogs built against the ranking sweep's coarse bound: rows that
/// copy the high halves of one of four base rows and keep only their
/// own low halves (ties and near-ties the high halves cannot order),
/// elements of one [`adversarial_value`] regime per catalog (ordinary
/// in two catalogs of five), queries of ordinary magnitude, all of them
/// positive in half the catalogs (where truncation lowers every coarse
/// score) and specials in half. A special makes its strip's norm bound
/// infinite, which rescores the strip, so only catalogs without them
/// show what the bound skips. `n` in 0..70 gives every tail width and
/// several strips after the heaps fill.
fn adversarial_rank_inputs() -> impl Strategy<Value = (Matrix, Matrix, Vec<Vec<u32>>)> {
    (0usize..70, 1usize..20, 1usize..4, 0usize..5, 0u8..2, 0u8..2).prop_flat_map(|(n, d, q, ri, signed, specials)| {
        let (regime, signed, specials) = ([0, 0, 1, 2, 3][ri], signed == 1, specials == 1);
        let value = move || adversarial_value(regime, signed, specials);
        let own = proptest::collection::vec(value(), n * d);
        let bases = proptest::collection::vec(value(), 4 * d);
        let pick = proptest::collection::vec(0usize..5, n);
        let catalog = (own, bases, pick).prop_map(move |(own, bases, pick)| {
            Matrix::from_fn(n, d, |r, c| {
                let x = own[r * d + c];
                match bases.get(pick[r] * d + c) {
                    Some(b) if b.is_finite() => f32::from_bits((b.to_bits() & 0xFFFF_0000) | (x.to_bits() & 0xFFFF)),
                    _ => x,
                }
            })
        });
        let queries = proptest::collection::vec(adversarial_value(0, signed, specials), q * d)
            .prop_map(move |v| Matrix::from_vec(q, d, v));
        let excluded = proptest::collection::vec(0u8..8, n).prop_map(|mask| {
            mask.iter().enumerate().filter(|(_, &x)| x == 0).map(|(i, _)| i as u32).collect::<Vec<u32>>()
        });
        (catalog, queries, proptest::collection::vec(excluded, q))
    })
}

/// Ranks `catalog` for every query at every `k` of `ks`, pinned bitwise
/// against the full sort over lane-order scores (query times row, the
/// sweep's operand order): each query alone through `rank_rows`, and
/// the whole batch (every query, then every query again in reverse, so
/// ids repeat) through `rank_rows_into`, whose rows are padded to k,
/// counting the (strip, query) pairs it rescores. One scratch serves
/// every batch call.
fn ranks_match_full_sort(catalog: &Matrix, queries: &Matrix, excludes: &[Vec<u32>], ks: &[usize]) -> TestCaseResult {
    let n = catalog.rows();
    let q = queries.rows();
    let ids: Vec<u32> = (0..q as u32).chain((0..q as u32).rev()).collect();
    let strips = kernels::RowStrips::new(catalog.clone());
    let mut scratch = kernels::RankScratch::new();
    for &k in ks {
        let expected: Vec<Vec<(u32, u32)>> = (0..q)
            .map(|i| {
                let scores: Vec<f32> = (0..n).map(|r| lane_dot_ref(queries.row(i), catalog.row(r))).collect();
                pair_bits(&top_k_ref(&scores, k, &excludes[i]))
            })
            .collect();
        for i in 0..q {
            let got = kernels::rank_rows(&strips, queries.row(i), k, &excludes[i]);
            prop_assert_eq!(pair_bits(&got), expected[i].clone(), "rank_rows k={} query={}", k, i);
        }
        let mut out = vec![(7u32, f32::NAN); ids.len() * k];
        let before = scratch.rescored();
        kernels::rank_rows_into(&mut out, &strips, queries, &ids, k, |i| &excludes[ids[i] as usize], &mut scratch);
        // Every query rescores its first strip, whose heap is empty, and
        // no pair is rescored twice.
        let rescored = (scratch.rescored() - before) as usize;
        let (strips_n, first) = (n.div_ceil(kernels::LANES), if n > 0 && k > 0 { ids.len() } else { 0 });
        prop_assert!((first..=strips_n * ids.len()).contains(&rescored), "k={}: {} pairs rescored", k, rescored);
        for (slot, &id) in ids.iter().enumerate() {
            let want = &expected[id as usize];
            let row = &out[slot * k..(slot + 1) * k];
            prop_assert_eq!(pair_bits(&row[..want.len()]), want.clone(), "rank_rows_into k={} slot={}", k, slot);
            prop_assert!(
                row[want.len()..].iter().all(|&(i, s)| i == u32::MAX && s == f32::NEG_INFINITY),
                "rank_rows_into k={} slot={}: padding",
                k,
                slot
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn top_k_selection_matches_full_sort((scores, exclude) in selection_inputs()) {
        let n = scores.len();
        let mut scratch = kernels::TopKScratch::new();
        // k sweep covers {0, 1, small, a sizable fraction of n, n,
        // > n}.
        for k in [0, 1, 3, n / 8, n / 2, n.saturating_sub(1), n, n + 7] {
            let expected = top_k_ref(&scores, k, &exclude);
            let got = kernels::top_k_select_excluding(&scores, k, &exclude, &mut scratch);
            prop_assert_eq!(pair_bits(got), pair_bits(&expected), "excluding, k={}", k);
            let expected_all = top_k_ref(&scores, k, &[]);
            let got_all = kernels::top_k_select_excluding(&scores, k, &[], &mut scratch);
            prop_assert_eq!(pair_bits(got_all), pair_bits(&expected_all), "no exclusion, k={}", k);
        }
    }

    #[test]
    fn rank_rows_matches_full_sort_reference((catalog, queries, excludes) in rank_inputs()) {
        // The one path from representation rows to a top-k list.
        let n = catalog.rows();
        ranks_match_full_sort(&catalog, &queries, &excludes, &[0, 1, 3, n, n + 3])?;
    }

    #[test]
    fn row_strips_hold_every_element_and_score_in_lane_order((m, query) in strip_inputs()) {
        // The split catalog returns every element of the matrix it was
        // built from, its two halves joined, whatever the tail width,
        // and each row's strip dot is the lane-order dot of the query
        // with that row, bit for bit.
        let strips = kernels::RowStrips::new(m.clone());
        prop_assert_eq!((strips.rows(), strips.cols()), m.shape());
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                prop_assert_eq!(strips.get(r, c).to_bits(), m.get(r, c).to_bits(), "element ({}, {})", r, c);
            }
            prop_assert_eq!(
                strips.dot_row(&query, r).to_bits(),
                lane_dot_ref(&query, m.row(r)).to_bits(),
                "row {} of {}", r, m.rows()
            );
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
        prop_assert_eq!(bits(&dst), bits(&reference));
    }
}

#[test]
fn rank_rows_rescore_rows_the_high_halves_cannot_order() {
    // Rows 0 and 8 (first rows of strips 0 and 1) share their high
    // halves; row 8's low halves are larger, so its exact score is too,
    // by less than the truncation error of either coarse score. With
    // k = 1, row 0 is the heap's root when strip 1 comes: the coarse
    // bound must cover the truncation, or strip 1 is skipped and row 0
    // is served.
    let d = 16;
    let base: Vec<f32> = (0..d).map(|t| 1.0 + t as f32 / 64.0).collect();
    let with_low = |low: u32| -> Vec<f32> { base.iter().map(|x| f32::from_bits(x.to_bits() | low)).collect() };
    let mut rows = vec![with_low(0x0100)];
    rows.extend((1..8).map(|_| vec![0.0; d]));
    rows.push(with_low(0xFF00));
    let catalog = Matrix::from_fn(rows.len(), d, |r, c| rows[r][c]);
    let query = vec![1.0f32; d];
    let strips = kernels::RowStrips::new(catalog.clone());
    let want = lane_dot_ref(&query, catalog.row(8));
    assert!(want > lane_dot_ref(&query, catalog.row(0)));
    assert_eq!(pair_bits(&kernels::rank_rows(&strips, &query, 1, &[])), pair_bits(&[(8, want)]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rank_rows_is_exact_on_adversarial_catalogs((catalog, queries, excludes) in adversarial_rank_inputs()) {
        // The sweep skips a strip on its high halves alone only where
        // the coarse bound proves no exact score of it reaches the
        // heap root: ties in the high halves, subnormals, sums that
        // overflow in one order only and non-finite values must leave
        // every list as the full sort ranks it.
        let n = catalog.rows();
        ranks_match_full_sort(&catalog, &queries, &excludes, &[1, 3, n, n + 3])?;
    }
}

#[test]
#[should_panic(expected = "RowStrips: row 13 out of range for 13 rows")]
fn row_strips_reject_a_row_in_the_tail_padding() {
    // 13 rows: one full strip and a tail holding five rows and three
    // zero-padded lanes, where row 13 would otherwise read padding.
    let strips = kernels::RowStrips::new(Matrix::from_fn(13, 3, |r, c| (r * 3 + c) as f32));
    let _ = strips.dot_row(&[1.0, 2.0, 3.0], 13);
}

#[test]
fn selection_ranks_negative_zero_below_positive_zero() {
    // `total_cmp` orders −0.0 below +0.0. A lane dot starts every lane
    // at +0.0 and never returns −0.0, so the ranking kernels cannot
    // reach this order; the selector they share is pinned here.
    let mut scratch = kernels::TopKScratch::new();
    let got = kernels::top_k_select_excluding(&[-0.0, 0.0, -0.0], 2, &[], &mut scratch);
    assert_eq!(pair_bits(got), pair_bits(&[(1, 0.0), (0, -0.0)]), "+0.0 first, then the lower index of the -0.0s");
    // The heap fills with index 0's −0.0 as its root; +0.0 displaces it.
    let got = kernels::top_k_select_excluding(&[-0.0, 0.0], 1, &[], &mut scratch);
    assert_eq!(pair_bits(got), pair_bits(&[(1, 0.0)]), "+0.0 displaces a -0.0 root");
}

#[test]
fn selection_pins_deterministic_tie_break_and_scratch_reuse() {
    // All-equal scores: the winner set is decided purely by the
    // (score desc, index asc) tie-break, for a small and a large k.
    let flat = vec![1.5f32; 100];
    let mut scratch = kernels::TopKScratch::new();
    let small: Vec<u32> =
        kernels::top_k_select_excluding(&flat, 4, &[], &mut scratch).iter().map(|&(i, _)| i).collect();
    assert_eq!(small, vec![0, 1, 2, 3]);
    let large: Vec<u32> =
        kernels::top_k_select_excluding(&flat, 60, &[], &mut scratch).iter().map(|&(i, _)| i).collect();
    assert_eq!(large, (0..60).collect::<Vec<u32>>());
    // One scratch serves differently-sized calls back to back; the
    // exclusion merge-walk tolerates duplicate entries.
    let scores = [0.5, 2.0, 2.0, -1.0, 2.0, 0.0];
    let got = kernels::top_k_select_excluding(&scores, 3, &[1, 1, 4], &mut scratch);
    assert_eq!(pair_bits(got), pair_bits(&[(2, 2.0), (0, 0.5), (5, 0.0)]));
    // NaN scores are ordered by total_cmp (positive NaN above +inf),
    // not silently shuffled like the old partial_cmp comparator.
    let with_nan = [1.0, f32::NAN, f32::INFINITY, 2.0];
    let order: Vec<u32> =
        kernels::top_k_select_excluding(&with_nan, 4, &[], &mut scratch).iter().map(|&(i, _)| i).collect();
    assert_eq!(order, vec![1, 2, 3, 0]);
}
