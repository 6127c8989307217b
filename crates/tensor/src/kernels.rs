//! The kernel layer: tiled, vectorized implementations of the
//! workspace's hot linear-algebra loops, plus the serial matmul
//! reference the tiled path is tested against. Every kernel runs on
//! the calling thread; none dispatches on the worker pool.
//!
//! [`Matrix`] and [`Csr`] delegate their
//! public ops here, so this module is the single landing zone for future
//! SIMD / backend work. Entry points follow one convention:
//!
//! * Kernels write into caller storage: `_acc` streams partial sums
//!   into `dst` (on a zeroed `dst`, an `_acc` product is the serial
//!   product); `_into` stores one formed value per element as its
//!   [`Store`] says, overwriting `dst` ([`Store::Assign`]) or adding
//!   into it ([`Store::Add`]); `_assign` updates `dst` in place.
//! * Every kernel the training step calls runs on the calling thread
//!   and has only its bare name: the forward's products ([`matmul_acc`],
//!   [`spmm_acc`]), the backward's transposed products
//!   ([`matmul_tn_acc`], [`matmul_nt_into`], [`spmm_t_acc`]), the
//!   scatter-add ([`scatter_add_rows`]), the elementwise family
//!   ([`add_assign`], [`copy_into`], [`scale_into`], [`scale_assign`],
//!   [`zip_map_into`]) and the row-wise kernels ([`row_dot_into`],
//!   [`mul_col_broadcast_into`], [`softmax_rows_backward_into`]); so do
//!   the catalog sweeps ([`row_dots`], [`row_dots_into`]) and the ranking
//!   kernels ([`rank_rows`], [`rank_rows_into`]). A product at the
//!   model's width is tens of microseconds, too little to pay for a
//!   dispatch, and a step that never dispatches allocates the same at
//!   any thread count. Each of these loops takes its operands as
//!   slices, like `spmm_t_scatter`.
//! * The ranking kernels take their catalog as [`RowStrips`]: the rows
//!   in [`LANES`]-row strips, each float split into its high and low 16
//!   bits, stored in blocks of strips with all the high halves first,
//!   split once when an index is built and kept in the matrix's own
//!   buffer. Their sweep runs item strips outside and queries inside:
//!   a coarse kernel over a strip's high halves (half the bytes) plus a
//!   proven width bounds the strip's scores for a query, and only a
//!   strip whose bounds reach the query's heap root is rebuilt from
//!   both halves and scored exactly with `matmul_nt`'s inner loop
//!   (`nt_strip_lanes` + `lane_sum_cols`), the only source of a
//!   returned score. The row-by-row dot (`dot_lanes`) compiles to
//!   partial vectors with scalar lane shuffles on rustc 1.95; the strip
//!   form gives the same bits about twice as fast.
//! * Parallelism lives one level up: the serving batch splits *users*
//!   across the worker pool once its work reaches [`PAR_MIN_WORK`]
//!   ([`min_work`]) and runs [`rank_rows_into`] once per worker.
//! * [`matmul_serial`] is the one reference loop (plain i-k-j), kept for
//!   the tests and benches to compare the tiled [`matmul_acc`] against.
//! * Allocating forms live on `Matrix` and `Csr` (`Matrix::matmul` and
//!   `Csr::spmm`/`spmm_t` build a zeroed output and call [`matmul_acc`],
//!   [`spmm_acc`] or [`spmm_t_acc`]); here only [`row_dots`] and
//!   [`rank_rows`] return new storage, and [`RowStrips::new`] splits
//!   the matrix it is given in place.
//!
//! # Determinism and the canonical lane order
//!
//! Every kernel accumulates into each output element in one fixed
//! order on the calling thread, so its bytes do not depend on the
//! pool's thread count.
//!
//! Since the fixed-lane SIMD rewrite, the reference order itself is
//! the **canonical lane order** (see [`LANES`]): reduction-style
//! kernels (`matmul_nt`, [`row_dot_into`], `row_dots`, the
//! softmax-backward row totals) accumulate into a fixed block of
//! `LANES` partial sums — lane `l` owns the terms whose index is
//! congruent to `l` modulo `LANES` — and collapse it with a fixed
//! pairwise tree. `matmul_nt` vectorizes across output columns instead
//! of across that block: it packs `b^T` in `LANES`-wide column strips
//! and keeps one lane block per column, so each element still sees the
//! same lanes, the same order and the same tree. The ranking sweep
//! runs the same loop over strips of its catalog ([`RowStrips`])
//! rebuilt in that layout, one column per catalog row. Streaming
//! kernels (`matmul`, `matmul_tn`, `spmm`, the elementwise family, the
//! optimizer steps) keep one accumulator per output element advancing
//! in ascending inner order, so their bytes never depended on the lane
//! width at all. Both schemes are defined purely by loop structure —
//! no hardware feature detection, no FMA contraction (rustc never
//! contracts `a * b + c` on its own) — so the bytes are identical
//! across machines as well as across thread counts.

use std::ops::Range;

use crate::dense::Matrix;
use crate::sparse::Csr;

/// Work threshold (in multiply-add units) below which the serving
/// batch (`ServeIndex::recommend_batch_into`) stays on the calling
/// thread: handing chunks to the persistent pool costs a few
/// microseconds per call (condvar wake + completion wait — far below a
/// per-call thread spawn, but not free), so only batches with enough
/// arithmetic to amortize it go parallel. No kernel reads it.
pub const PAR_MIN_WORK: usize = 64 * 1024;

/// The parallel work threshold of the serving batch: [`PAR_MIN_WORK`].
/// A test that wants the parallel route on a small batch passes its
/// thread count to `ServeIndex::recommend_batch_into_with` instead.
pub fn min_work() -> usize {
    PAR_MIN_WORK
}

/// How an `_into` kernel stores each value it forms. The autodiff tape
/// assigns a node's first gradient contribution and adds the later ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Store {
    /// `dst = value`: every element is overwritten, so a dirty `dst`
    /// (an arena checkout) is fine.
    Assign,
    /// `dst += value`: one add of the fully-formed value per element,
    /// bitwise-equal to materializing the values and `add_assign`ing
    /// them, for any `dst` contents.
    Add,
}

/// Column-block width of the tiled dense matmul: one output block row
/// (`TILE_J` f32s) stays resident while a `TILE_K x TILE_J` panel of the
/// right-hand side stays cache-hot. Wide enough that the common model
/// widths (16–256 columns) take a single block — the i-k-j loop is
/// already streaming-friendly there and splitting would only re-read
/// the left-hand rows.
const TILE_J: usize = 512;

/// Inner-dimension block depth of the tiled dense matmul
/// (`TILE_K * TILE_J` f32s of the right-hand side per panel: 128 KiB).
const TILE_K: usize = 64;

// ----- fixed-lane accumulation ----------------------------------------

/// Width of the fixed-lane accumulator blocks every vectorized kernel
/// is written around. Reduction-style kernels accumulate `LANES`
/// partial sums — lane `l` owns the terms whose index is congruent to
/// `l` modulo `LANES`, including the `chunks_exact` remainder, whose
/// element at offset `l` lands in lane `l` — and collapse them with
/// the fixed pairwise tree in `lane_sum`. The width is a source
/// constant, not a probed vector width, so the accumulation order (and
/// therefore every output byte) is identical on every machine; 8 lanes
/// give LLVM room to autovectorize at both 4-wide (SSE2 baseline) and
/// 8-wide (AVX2) without changing the defined order.
pub const LANES: usize = 8;

/// The canonical reduction tree over one lane block:
/// `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`. Part of the bitwise
/// contract — see [`LANES`].
#[inline(always)]
fn lane_sum(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Canonical-lane-order dot product of two equal-length slices. Every
/// dot-reduction kernel in the workspace routes through this exact
/// sequence, or replays it column by column (`matmul_nt` and the
/// ranking sweep over [`RowStrips`], see [`nt_strip_lanes`]).
#[inline(always)]
fn dot_lanes(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0.0f32; LANES];
    let mut xc = x.chunks_exact(LANES);
    let mut yc = y.chunks_exact(LANES);
    for (xb, yb) in (&mut xc).zip(&mut yc) {
        for l in 0..LANES {
            acc[l] += xb[l] * yb[l];
        }
    }
    for (l, (&xv, &yv)) in xc.remainder().iter().zip(yc.remainder()).enumerate() {
        acc[l] += xv * yv;
    }
    lane_sum(acc)
}

/// Lane-blocked `dst += src * s`. Streaming (one accumulator per
/// element, ascending index), so bytes match the plain scalar loop.
#[inline(always)]
fn axpy_lanes(dst: &mut [f32], src: &[f32], s: f32) {
    let mut dc = dst.chunks_exact_mut(LANES);
    let mut sc = src.chunks_exact(LANES);
    for (db, sb) in (&mut dc).zip(&mut sc) {
        for l in 0..LANES {
            db[l] += sb[l] * s;
        }
    }
    for (o, &x) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
        *o += x * s;
    }
}

/// Lane-blocked `dst += src`.
#[inline(always)]
fn add_lanes(dst: &mut [f32], src: &[f32]) {
    let mut dc = dst.chunks_exact_mut(LANES);
    let mut sc = src.chunks_exact(LANES);
    for (db, sb) in (&mut dc).zip(&mut sc) {
        for l in 0..LANES {
            db[l] += sb[l];
        }
    }
    for (o, &x) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
        *o += x;
    }
}

/// Lane-blocked `dst *= s`.
#[inline(always)]
fn scale_lanes(dst: &mut [f32], s: f32) {
    let mut dc = dst.chunks_exact_mut(LANES);
    for db in &mut dc {
        for o in db {
            *o *= s;
        }
    }
    for o in dc.into_remainder() {
        *o *= s;
    }
}

/// Lane-blocked `dst = src * s` (overwrites; dirty targets are fine).
#[inline(always)]
fn scale_store_lanes(dst: &mut [f32], src: &[f32], s: f32) {
    let mut dc = dst.chunks_exact_mut(LANES);
    let mut sc = src.chunks_exact(LANES);
    for (db, sb) in (&mut dc).zip(&mut sc) {
        for l in 0..LANES {
            db[l] = sb[l] * s;
        }
    }
    for (o, &x) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
        *o = x * s;
    }
}

// ----- B-panel and B^T-strip packing ----------------------------------

std::thread_local! {
    /// Per-thread reusable pack buffer: B panels for the tiled matmul,
    /// B^T strips for `matmul_nt`, and the one [`RowStrips`] strip that
    /// `RowStrips::dot_row` rebuilds. Minted lazily, grows monotonically
    /// to the largest panel a thread ever packs (`TILE_K * TILE_J` f32s =
    /// 128 KiB at most; a `matmul_nt` strip holds at most
    /// [`NT_PANEL_K`] rows of [`LANES`] f32s, the same 128 KiB; a
    /// catalog strip `LANES * cols` f32s, 1.5 KiB at 48 columns), and is
    /// reused for every subsequent call — the steady-state training step
    /// packs with zero heap traffic, which the train-step bench gate
    /// checks explicitly.
    static PACK_BUF: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's pack scratch, grown to at least `len`
/// floats (see [`PACK_BUF`] for what callers ask for). Growth
/// is a once-per-thread event; steady-state calls are allocation-free.
fn with_pack_buf<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    PACK_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Packs `strips` full [`LANES`]-wide column strips of the
/// `krange x (strips * LANES)` panel of `b` (row stride `n`, columns
/// starting at `j0`) into `pack`, strip-major and k-major within each
/// strip: strip `s` occupies `pack[s * kt * LANES..][kk * LANES + l]`
/// for `kk` in `0..kt`. The microkernel then streams each strip as one
/// contiguous run, reused across every 4-row block of the product.
/// Packing is a pure layout change — it never touches accumulation
/// order.
fn pack_b_panel(pack: &mut [f32], b: &[f32], n: usize, krange: Range<usize>, j0: usize, strips: usize) {
    let kt = krange.end - krange.start;
    for s in 0..strips {
        let js = j0 + s * LANES;
        let strip = &mut pack[s * kt * LANES..(s + 1) * kt * LANES];
        for (idx, row) in strip.chunks_exact_mut(LANES).enumerate() {
            let kk = krange.start + idx;
            row.copy_from_slice(&b[kk * n + js..kk * n + js + LANES]);
        }
    }
}

/// Deepest run of `b^T` one packed `matmul_nt` strip holds: a
/// [`LANES`]-wide strip of this depth is the tiled matmul's whole
/// `TILE_K * TILE_J` panel, so [`PACK_BUF`] keeps its 128 KiB bound. A
/// multiple of [`LANES`], so a term's lane (`t mod LANES`) is the same
/// within a k-block as in the whole row.
const NT_PANEL_K: usize = TILE_K * TILE_J / LANES;

/// Packs rows `trange` of `b^T` (`b` is `p x k`, row-major) restricted
/// to the [`LANES`] columns starting at `c0` into `pack`, k-major:
/// `pack[(t - trange.start) * LANES + c] = b[c0 + c][t]`. Columns at or
/// past `p` are zero padding; their sums are computed and never
/// stored. A pure layout change, like [`pack_b_panel`].
fn pack_bt_strip(pack: &mut [f32], b: &[f32], k: usize, p: usize, c0: usize, trange: Range<usize>) {
    let w = LANES.min(p - c0);
    for (row, t) in pack.chunks_exact_mut(LANES).zip(trange) {
        for (c, o) in row.iter_mut().enumerate() {
            *o = if c < w { b[(c0 + c) * k + t] } else { 0.0 };
        }
    }
}

/// The `matmul_nt` inner loop, vectorized across output columns: adds
/// `arow[t] * panel[t][c]` into lane block `acc[t mod LANES]`, lane by
/// lane, ascending `t` within each lane. Per column `c` this is the
/// [`dot_lanes`] sequence of `arow` against column `c` of the strip —
/// same lanes, same order — so [`lane_sum_cols`] finishes the same
/// bytes.
#[inline(always)]
fn nt_strip_lanes(acc: &mut [[f32; LANES]; LANES], arow: &[f32], panel: &[f32]) {
    let k = arow.len();
    for (l, lane) in acc.iter_mut().enumerate() {
        let mut t = l;
        while t < k {
            let x = arow[t];
            let brow = &panel[t * LANES..(t + 1) * LANES];
            for c in 0..LANES {
                lane[c] += x * brow[c];
            }
            t += LANES;
        }
    }
}

/// [`lane_sum`]'s tree applied to every column of a lane block at once,
/// as vertical adds.
#[inline(always)]
fn lane_sum_cols(acc: &[[f32; LANES]; LANES]) -> [f32; LANES] {
    std::array::from_fn(|c| lane_sum(std::array::from_fn(|l| acc[l][c])))
}

// ----- dense matmul ---------------------------------------------------

fn assert_matmul(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions differ ({}x{} * {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// Serial reference `a * b` (plain i-k-j loop).
///
/// Deliberately branch-free in the inner loop — the old zero-skipping
/// heuristic defeated auto-vectorization on dense inputs; sparsity is
/// handled by the sparse kernels where it belongs.
pub fn matmul_serial(a: &Matrix, b: &Matrix) -> Matrix {
    assert_matmul(a, b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    matmul_rows_serial(a.data(), m, k, b.data(), n, out.data_mut());
    out
}

/// Accumulates `a * b` into `dst` on the calling thread through the
/// packed tiled kernel, allocating nothing once this thread's pack
/// scratch is minted (see `PACK_BUF`).
///
/// Each output element takes one add per inner index `k`, ascending,
/// so **on a zeroed `dst` the result is bitwise [`matmul_serial`]** at
/// every shape, and on a dirty one it is the plain i-k-j loop started
/// from `dst`'s values. The tiled kernel is the only path: it was
/// 1.4–2.8x faster than the i-k-j loop at the model's shapes (120–900
/// rows x 16 times 16 x {1, 8, 16}; best of 15, one process, a 2-core
/// x86-64 host), and the loop won only at toy shapes of a few dozen
/// multiply-adds, by under 20 ns a call.
pub fn matmul_acc(dst: &mut Matrix, a: &Matrix, b: &Matrix) {
    assert_matmul(a, b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(dst.shape(), (m, n), "matmul_acc: dst is {}x{}, product is {m}x{n}", dst.rows(), dst.cols());
    matmul_rows_tiled(a.data(), m, k, b.data(), n, dst.data_mut());
}

/// Accumulates `a (m x k) * b (k x n)` into `out` (`m x n`) with the
/// plain i-k-j loop: the loop behind [`matmul_serial`].
fn matmul_rows_serial(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Row-block height of the register-blocked matmul microkernel: four
/// output rows advance together through a k-block, so each loaded
/// right-hand-side panel row is reused four times from registers
/// instead of re-read per output row.
const MICRO_MR: usize = 4;

/// Cache-blocked, panel-packed variant of [`matmul_rows_serial`], the
/// loop behind [`matmul_acc`]: identical accumulation order per output
/// element (k-blocks advance in k order, one add per k step into that
/// element's accumulator — held in a register tile loaded from / stored
/// back to the output row), so results are bitwise equal to the serial
/// reference.
///
/// Per (k-tile, j-tile) the full [`LANES`]-wide column strips of `b`
/// are packed k-major into a per-thread scratch ([`pack_b_panel`]) and
/// streamed contiguously by the 4x8 register microkernel, reused
/// across every 4-row block. Leftover rows run a 1x8 microkernel over
/// the same panel; leftover columns (tile width not a multiple of
/// [`LANES`]) fall back to the plain streaming loop straight from `b`,
/// which accumulates in the same order.
fn matmul_rows_tiled(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let mut k0 = 0;
    while k0 < k {
        let k1 = (k0 + TILE_K).min(k);
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + TILE_J).min(n);
            let strips = (j1 - j0) / LANES;
            let jt = j0 + strips * LANES;
            let kt = k1 - k0;
            with_pack_buf(strips * kt * LANES, |pack| {
                pack_b_panel(pack, b, n, k0..k1, j0, strips);
                let mut i = 0usize;
                while i + MICRO_MR <= m {
                    // Four disjoint output-row slices of the block's columns.
                    let (r0, rest) = out[i * n..].split_at_mut(n);
                    let (r1, rest) = rest.split_at_mut(n);
                    let (r2, r3) = rest.split_at_mut(n);
                    for s in 0..strips {
                        let js = j0 + s * LANES;
                        let panel = &pack[s * kt * LANES..(s + 1) * kt * LANES];
                        matmul_micro_4x8(
                            a,
                            k,
                            i,
                            k0..k1,
                            panel,
                            &mut r0[js..js + LANES],
                            &mut r1[js..js + LANES],
                            &mut r2[js..js + LANES],
                            &mut r3[js..js + LANES],
                        );
                    }
                    if jt < j1 {
                        for kk in k0..k1 {
                            let a0 = a[i * k + kk];
                            let a1 = a[(i + 1) * k + kk];
                            let a2 = a[(i + 2) * k + kk];
                            let a3 = a[(i + 3) * k + kk];
                            let brow = &b[kk * n + jt..kk * n + j1];
                            for ((((&bv, o0), o1), o2), o3) in brow
                                .iter()
                                .zip(&mut r0[jt..j1])
                                .zip(&mut r1[jt..j1])
                                .zip(&mut r2[jt..j1])
                                .zip(&mut r3[jt..j1])
                            {
                                *o0 += a0 * bv;
                                *o1 += a1 * bv;
                                *o2 += a2 * bv;
                                *o3 += a3 * bv;
                            }
                        }
                    }
                    i += MICRO_MR;
                }
                for i in i..m {
                    for s in 0..strips {
                        let js = j0 + s * LANES;
                        let panel = &pack[s * kt * LANES..(s + 1) * kt * LANES];
                        matmul_micro_1x8(a, k, i, k0..k1, panel, &mut out[i * n + js..i * n + js + LANES]);
                    }
                    if jt < j1 {
                        let arow = &a[i * k + k0..i * k + k1];
                        let orow = &mut out[i * n + jt..i * n + j1];
                        for (kk, &av) in arow.iter().enumerate() {
                            let brow = &b[(k0 + kk) * n + jt..(k0 + kk) * n + j1];
                            for (o, &bv) in orow.iter_mut().zip(brow) {
                                *o += av * bv;
                            }
                        }
                    }
                }
            });
            j0 = j1;
        }
        k0 = k1;
    }
}

/// 4x8 register-tile microkernel of the packed matmul: loads the 4x8
/// output tile into lane accumulators, streams one packed k-major `b`
/// strip (contiguous — see [`pack_b_panel`]) against four `a` rows in
/// ascending `k`, and stores the tile back. Per output element this is
/// exactly the serial i-k-j accumulation sequence for the k-tile, so
/// k-tiles compose to the serial reference bytes.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn matmul_micro_4x8(
    a: &[f32],
    k: usize,
    i: usize,
    krange: Range<usize>,
    panel: &[f32],
    o0: &mut [f32],
    o1: &mut [f32],
    o2: &mut [f32],
    o3: &mut [f32],
) {
    let mut c0 = [0.0f32; LANES];
    let mut c1 = [0.0f32; LANES];
    let mut c2 = [0.0f32; LANES];
    let mut c3 = [0.0f32; LANES];
    c0.copy_from_slice(o0);
    c1.copy_from_slice(o1);
    c2.copy_from_slice(o2);
    c3.copy_from_slice(o3);
    let ar0 = &a[i * k + krange.start..i * k + krange.end];
    let ar1 = &a[(i + 1) * k + krange.start..(i + 1) * k + krange.end];
    let ar2 = &a[(i + 2) * k + krange.start..(i + 2) * k + krange.end];
    let ar3 = &a[(i + 3) * k + krange.start..(i + 3) * k + krange.end];
    for ((((brow, &a0), &a1), &a2), &a3) in
        panel.chunks_exact(LANES).zip(ar0).zip(ar1).zip(ar2).zip(ar3)
    {
        for l in 0..LANES {
            c0[l] += a0 * brow[l];
            c1[l] += a1 * brow[l];
            c2[l] += a2 * brow[l];
            c3[l] += a3 * brow[l];
        }
    }
    o0.copy_from_slice(&c0);
    o1.copy_from_slice(&c1);
    o2.copy_from_slice(&c2);
    o3.copy_from_slice(&c3);
}

/// Single-row twin of [`matmul_micro_4x8`] for the row remainder of a
/// product. Same per-element order, same panel.
#[inline(always)]
fn matmul_micro_1x8(a: &[f32], k: usize, i: usize, krange: Range<usize>, panel: &[f32], o0: &mut [f32]) {
    let mut c0 = [0.0f32; LANES];
    c0.copy_from_slice(o0);
    let ar0 = &a[i * k + krange.start..i * k + krange.end];
    for (brow, &a0) in panel.chunks_exact(LANES).zip(ar0) {
        for l in 0..LANES {
            c0[l] += a0 * brow[l];
        }
    }
    o0.copy_from_slice(&c0);
}

// ----- dense matmul, transposed variants ------------------------------

fn assert_matmul_tn(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn: row counts differ ({}x{} vs {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// Accumulates `a^T * b` into `dst` on the calling thread, without
/// materializing the transpose and allocating nothing.
///
/// The kernel streams partial sums into `dst` (one add per `i` step,
/// ascending), so **on a zeroed `dst` the result is bitwise
/// `matmul_serial(&a.transpose(), b)`** — the checkout pattern the
/// autodiff tape uses ([`crate::arena`]). A non-zero `dst` folds the
/// partial sums into the existing values progressively; callers
/// needing the exact materialize-then-`add_assign` float sequence on a
/// non-zero target should accumulate into a zeroed scratch checkout
/// and `add_assign` it, which is what the tape does.
pub fn matmul_tn_acc(dst: &mut Matrix, a: &Matrix, b: &Matrix) {
    assert_matmul_tn(a, b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(dst.shape(), (k, n), "matmul_tn_acc: dst is {}x{}, product is {k}x{n}", dst.rows(), dst.cols());
    matmul_tn_rows(a.data(), m, k, b.data(), n, dst.data_mut());
}

/// Accumulates `a^T (k x m) * b (m x n)` into `out` (`k x n`). Per
/// output element the accumulation runs over `i` in increasing order,
/// matching [`matmul_serial`] on the explicit transpose.
fn matmul_tn_rows(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    // Accumulation runs over `i` in ascending order per output element
    // (matching the old streaming reference bytes exactly), but the
    // element now lives in a 4x8 register tile for the whole `i` sweep
    // — loaded from the output once, stored once — instead of
    // re-streaming the output rows through memory per `i`. The four
    // tile rows are adjacent columns of `a`; the eight tile columns
    // are one lane block of `b`'s row.
    if k == 0 || n == 0 {
        return;
    }
    let strips = n / LANES;
    let jt = strips * LANES;
    let mut c = 0usize;
    while c + MICRO_MR <= k {
        let (r0, rest) = out[c * n..].split_at_mut(n);
        let (r1, rest) = rest.split_at_mut(n);
        let (r2, r3) = rest.split_at_mut(n);
        for s in 0..strips {
            let js = s * LANES;
            let mut c0 = [0.0f32; LANES];
            let mut c1 = [0.0f32; LANES];
            let mut c2 = [0.0f32; LANES];
            let mut c3 = [0.0f32; LANES];
            c0.copy_from_slice(&r0[js..js + LANES]);
            c1.copy_from_slice(&r1[js..js + LANES]);
            c2.copy_from_slice(&r2[js..js + LANES]);
            c3.copy_from_slice(&r3[js..js + LANES]);
            for i in 0..m {
                let arow = &a[i * k + c..i * k + c + MICRO_MR];
                let brow = &b[i * n + js..i * n + js + LANES];
                for l in 0..LANES {
                    c0[l] += arow[0] * brow[l];
                    c1[l] += arow[1] * brow[l];
                    c2[l] += arow[2] * brow[l];
                    c3[l] += arow[3] * brow[l];
                }
            }
            r0[js..js + LANES].copy_from_slice(&c0);
            r1[js..js + LANES].copy_from_slice(&c1);
            r2[js..js + LANES].copy_from_slice(&c2);
            r3[js..js + LANES].copy_from_slice(&c3);
        }
        if jt < n {
            // Column remainder: the old streaming loop, same per-element
            // `i`-ascending order.
            for i in 0..m {
                let arow = &a[i * k + c..i * k + c + MICRO_MR];
                let brow = &b[i * n + jt..(i + 1) * n];
                for ((((&bv, o0), o1), o2), o3) in brow
                    .iter()
                    .zip(&mut r0[jt..])
                    .zip(&mut r1[jt..])
                    .zip(&mut r2[jt..])
                    .zip(&mut r3[jt..])
                {
                    *o0 += arow[0] * bv;
                    *o1 += arow[1] * bv;
                    *o2 += arow[2] * bv;
                    *o3 += arow[3] * bv;
                }
            }
        }
        c += MICRO_MR;
    }
    for c in c..k {
        let orow = &mut out[c * n..(c + 1) * n];
        for s in 0..strips {
            let js = s * LANES;
            let mut c0 = [0.0f32; LANES];
            c0.copy_from_slice(&orow[js..js + LANES]);
            for i in 0..m {
                let av = a[i * k + c];
                let brow = &b[i * n + js..i * n + js + LANES];
                for l in 0..LANES {
                    c0[l] += av * brow[l];
                }
            }
            orow[js..js + LANES].copy_from_slice(&c0);
        }
        if jt < n {
            for i in 0..m {
                let av = a[i * k + c];
                let brow = &b[i * n + jt..(i + 1) * n];
                for (o, &bv) in orow[jt..].iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
}

fn assert_matmul_nt(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt: column counts differ ({}x{} vs {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// Stores `a * b^T` into `dst` as `store` says, on the calling thread,
/// without materializing the transpose or allocating. Every output
/// element is an independent dot product in the canonical lane order
/// (see [`LANES`]), fully accumulated in registers and then stored
/// once: [`Store::Assign`] never reads `dst` (dirty checkouts are
/// fine), and [`Store::Add`] is bitwise the product materialized and
/// `add_assign`ed, for any `dst` contents.
pub fn matmul_nt_into(dst: &mut Matrix, a: &Matrix, b: &Matrix, store: Store) {
    assert_matmul_nt(a, b);
    let (m, k, p) = (a.rows(), a.cols(), b.rows());
    assert_eq!(dst.shape(), (m, p), "matmul_nt_into: dst is {}x{}, product is {m}x{p}", dst.rows(), dst.cols());
    let (a, b, out) = (a.data(), b.data(), dst.data_mut());
    match store {
        Store::Assign => matmul_nt_rows(a, m, k, b, p, out, |o, v| *o = v),
        Store::Add => matmul_nt_rows(a, m, k, b, p, out, |o, v| *o += v),
    }
}

/// `a (m x k) * b^T` (`b` is `p x k`) into `out`, handing each finished
/// element to `store` (an assign or one add, see [`Store`]).
/// Vectorized across output columns: per [`LANES`]-wide column strip,
/// `b^T` is packed once ([`pack_bt_strip`]) and every row runs
/// [`nt_strip_lanes`] from +0.0 lanes, then [`lane_sum_cols`] — per
/// element exactly the [`dot_lanes`] sequence, so the bytes are those
/// of one lane dot per element. A strip deeper than [`NT_PANEL_K`] is
/// packed one k-block at a time per row instead, which keeps the pack
/// within its bound without changing a term's lane or order.
fn matmul_nt_rows(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    p: usize,
    out: &mut [f32],
    store: impl Fn(&mut f32, f32),
) {
    let finish = |orow: &mut [f32], acc: &[[f32; LANES]; LANES]| {
        for (o, &v) in orow.iter_mut().zip(&lane_sum_cols(acc)) {
            store(o, v);
        }
    };
    with_pack_buf(k.min(NT_PANEL_K) * LANES, |pack| {
        for c0 in (0..p).step_by(LANES) {
            let c1 = (c0 + LANES).min(p);
            // Branch once per strip, not per row: inside the row loop
            // the k-block loop measured up to 3x slower on the model's
            // shapes.
            if k <= NT_PANEL_K {
                pack_bt_strip(pack, b, k, p, c0, 0..k);
                for (i, orow) in (0..m).zip(out.chunks_exact_mut(p)) {
                    let mut acc = [[0.0f32; LANES]; LANES];
                    nt_strip_lanes(&mut acc, &a[i * k..(i + 1) * k], pack);
                    finish(&mut orow[c0..c1], &acc);
                }
            } else {
                for (i, orow) in (0..m).zip(out.chunks_exact_mut(p)) {
                    let mut acc = [[0.0f32; LANES]; LANES];
                    for t0 in (0..k).step_by(NT_PANEL_K) {
                        let t1 = (t0 + NT_PANEL_K).min(k);
                        let panel = &mut pack[..(t1 - t0) * LANES];
                        pack_bt_strip(panel, b, k, p, c0, t0..t1);
                        nt_strip_lanes(&mut acc, &a[i * k + t0..i * k + t1], panel);
                    }
                    finish(&mut orow[c0..c1], &acc);
                }
            }
        }
    });
}

// ----- sparse matmul --------------------------------------------------

fn assert_spmm(csr: &Csr, dense: &Matrix) {
    assert_eq!(
        csr.cols(),
        dense.rows(),
        "spmm: inner dimensions differ ({}x{} * {}x{})",
        csr.rows(),
        csr.cols(),
        dense.rows(),
        dense.cols()
    );
}

/// Accumulates the sparse x dense product into `dst` on the calling
/// thread, allocating nothing.
///
/// Each output row streams one add per stored entry, in ascending
/// entry order, so **on a zeroed `dst` the result is bitwise the plain
/// scalar loop over the CSR entries** (the tape's checkout pattern);
/// accumulate into a zeroed scratch and `add_assign` for the
/// materialize-then-add float sequence on a non-zero target.
pub fn spmm_acc(dst: &mut Matrix, csr: &Csr, dense: &Matrix) {
    assert_spmm(csr, dense);
    let d = dense.cols();
    assert_eq!(
        dst.shape(),
        (csr.rows(), d),
        "spmm_acc: dst is {}x{}, product is {}x{d}",
        dst.rows(),
        dst.cols(),
        csr.rows()
    );
    spmm_rows(csr, dense.data(), d, dst.data_mut());
}

/// The loop behind [`spmm_acc`]: every CSR row gathers the dense rows
/// its entries name into its output row, entries in order.
fn spmm_rows(csr: &Csr, dense: &[f32], d: usize, out: &mut [f32]) {
    // One lane-blocked axpy per entry: each output element still
    // receives exactly one add per entry, in ascending entry order, so
    // bytes are unchanged by the lane restructuring. (Unrolling across
    // entries would reassociate the per-element sums — deliberately
    // not done.)
    for r in 0..csr.rows() {
        let (cols, vals) = csr.row(r);
        let orow = &mut out[r * d..(r + 1) * d];
        for (&c, &v) in cols.iter().zip(vals) {
            let drow = &dense[c as usize * d..(c as usize + 1) * d];
            axpy_lanes(orow, drow, v);
        }
    }
}

/// Accumulates `csr^T * dense` into `dst` on the calling thread,
/// allocating nothing.
///
/// Output rows correspond to CSR *columns*: each CSR row scatters its
/// dense row into the output rows its entries name, rows ascending, so
/// each output element takes one add per stored entry in ascending CSR
/// row order. On a zeroed `dst` the result is bitwise the plain scalar
/// loop over the CSR entries, as for [`spmm_acc`].
pub fn spmm_t_acc(dst: &mut Matrix, csr: &Csr, dense: &Matrix) {
    assert_eq!(
        csr.rows(),
        dense.rows(),
        "spmm_t: row counts differ ({}x{} vs {}x{})",
        csr.rows(),
        csr.cols(),
        dense.rows(),
        dense.cols()
    );
    let d = dense.cols();
    assert_eq!(
        dst.shape(),
        (csr.cols(), d),
        "spmm_t_acc: dst is {}x{}, product is {}x{d}",
        dst.rows(),
        dst.cols(),
        csr.cols()
    );
    spmm_t_scatter(csr, dense.data(), d, dst.data_mut());
}

/// The loop behind [`spmm_t_acc`]: every CSR row scatters its dense
/// row into the output rows its entries name, rows ascending. The
/// operands are slice parameters, so the compiler may assume `out`
/// aliases neither `dense` nor the CSR's arrays: the same loop over the
/// matrices' own storage ran about 2x slower on `movielens_small(1)`'s
/// largest adjacency at d = 16 (one process, both forms interleaved, a
/// 2-core x86-64 host).
fn spmm_t_scatter(csr: &Csr, dense: &[f32], d: usize, out: &mut [f32]) {
    for r in 0..csr.rows() {
        let (cols, vals) = csr.row(r);
        let drow = &dense[r * d..(r + 1) * d];
        for (&c, &v) in cols.iter().zip(vals) {
            axpy_lanes(&mut out[c as usize * d..][..d], drow, v);
        }
    }
}

// ----- elementwise / gradient accumulation ----------------------------
//
// The arena-backed backward pass replaces its allocate-then-combine
// pattern (`tmp = f(g); dst.add_assign(&tmp)`) with these fused forms.
// Every `_into` kernel below hands each output element exactly one
// fully-formed value and stores it as its `Store` says (assigned, or
// folded in with a single add), so results are bitwise identical to the
// allocating two-step sequence for any destination contents. Each
// matches on the store once per call and runs one slice loop with the
// assigning or the adding closure. They run on the calling thread,
// each loop behind a slice-parameter function like `spmm_t_scatter`:
// `add_lanes` called straight from `add_assign`, over the matrices' own
// storage, ran about 2.6x slower (900 x 16, one process, both forms
// interleaved, a 2-core x86-64 host).

fn assert_same_shape(dst: &Matrix, src: &Matrix, op: &str) {
    assert_eq!(
        dst.shape(),
        src.shape(),
        "{op}: shape mismatch {}x{} vs {}x{}",
        dst.rows(),
        dst.cols(),
        src.rows(),
        src.cols()
    );
}

/// In-place `dst += src`. This is the gradient-accumulation primitive
/// of the autodiff tape.
pub fn add_assign(dst: &mut Matrix, src: &Matrix) {
    assert_same_shape(dst, src, "add_assign");
    add_slices(dst.data_mut(), src.data());
}

/// `src` into `dst`, stored as `store` says: the tape's pass-through
/// gradient (`Add`, `Sub`'s left operand, `AddScalar`, the matrix side
/// of `AddRowBroadcast`).
pub fn copy_into(dst: &mut Matrix, src: &Matrix, store: Store) {
    assert_same_shape(dst, src, "copy_into");
    match store {
        Store::Assign => dst.data_mut().copy_from_slice(src.data()),
        Store::Add => add_slices(dst.data_mut(), src.data()),
    }
}

/// `s * src` into `dst`, stored as `store` says; [`Store::Add`] is
/// `dst += s * src` (axpy).
pub fn scale_into(dst: &mut Matrix, src: &Matrix, s: f32, store: Store) {
    assert_same_shape(dst, src, "scale_into");
    match store {
        Store::Assign => scale_store_slices(dst.data_mut(), src.data(), s),
        Store::Add => axpy_slices(dst.data_mut(), src.data(), s),
    }
}

/// In-place `dst *= s`.
pub fn scale_assign(dst: &mut Matrix, s: f32) {
    scale_slices(dst.data_mut(), s);
}

/// `f(a[i], b[i])` into `dst[i]`, stored as `store` says.
pub fn zip_map_into<F>(dst: &mut Matrix, a: &Matrix, b: &Matrix, f: F, store: Store)
where
    F: Fn(f32, f32) -> f32,
{
    assert_same_shape(dst, a, "zip_map_into");
    assert_same_shape(a, b, "zip_map_into");
    let (out, a, b) = (dst.data_mut(), a.data(), b.data());
    match store {
        Store::Assign => zip_map_slices(out, a, b, f, |o, v| *o = v),
        Store::Add => zip_map_slices(out, a, b, f, |o, v| *o += v),
    }
}

/// The loop behind [`add_assign`] and [`copy_into`]'s add. `src` is cut
/// to `out`'s length so the compiler sees two equal lengths; uncut, the
/// loop ran about 2.5% slower in the same A/B.
fn add_slices(out: &mut [f32], src: &[f32]) {
    add_lanes(out, &src[..out.len()]);
}

/// The loop behind [`scale_into`]'s add.
fn axpy_slices(out: &mut [f32], src: &[f32], s: f32) {
    axpy_lanes(out, src, s);
}

/// The loop behind [`scale_assign`].
fn scale_slices(out: &mut [f32], s: f32) {
    scale_lanes(out, s);
}

/// The loop behind [`scale_into`]'s assign.
fn scale_store_slices(out: &mut [f32], src: &[f32], s: f32) {
    scale_store_lanes(out, src, s);
}

/// The loop behind [`zip_map_into`]: hands `f(a[i], b[i])` to `store`
/// (an assign or one add) for every element of `out`, in index order.
fn zip_map_slices(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    f: impl Fn(f32, f32) -> f32,
    store: impl Fn(&mut f32, f32),
) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        store(o, f(x, y));
    }
}

fn assert_mul_col(dst: &Matrix, src: &Matrix, w: &Matrix, col: usize, op: &str) {
    assert_eq!(dst.shape(), src.shape(), "{op}: dst/src shape mismatch");
    assert_eq!(w.rows(), src.rows(), "{op}: weights have {} rows, src {}", w.rows(), src.rows());
    assert!(col < w.cols(), "{op}: weight column {col} out of range for {} columns", w.cols());
}

/// `src[r, c] * w[r, col]` into `dst[r, c]`, stored as `store` says:
/// `src.mul_col_broadcast(..)` by column `col` of `w`. The `RowDot`
/// backward passes a one-column `w`; `WeightedSum` passes its `n x C`
/// weights and a part's column.
pub fn mul_col_broadcast_into(dst: &mut Matrix, src: &Matrix, w: &Matrix, col: usize, store: Store) {
    assert_mul_col(dst, src, w, col, "mul_col_broadcast_into");
    let (out, d, stride) = (dst.data_mut(), src.cols(), w.cols());
    match store {
        Store::Assign => mul_col_slices(out, src.data(), d, w.data(), stride, col, scale_store_lanes),
        Store::Add => mul_col_slices(out, src.data(), d, w.data(), stride, col, axpy_lanes),
    }
}

/// The loop behind [`mul_col_broadcast_into`]: row `r` of `out` (`d`
/// wide) gets `row_op(out row, src row, w[r * stride + col])`, the
/// assigning or the adding lane helper. Slice parameters, for the
/// reason [`spmm_t_scatter`] gives: its adding form looping over the
/// matrices' own rows ran about 2.2x slower (11.1 against 5.1 µs at
/// 900 x 16, median of 21 interleaved rounds in one process, a 2-core
/// x86-64 host).
fn mul_col_slices(
    out: &mut [f32],
    src: &[f32],
    d: usize,
    w: &[f32],
    stride: usize,
    col: usize,
    row_op: impl Fn(&mut [f32], &[f32], f32),
) {
    if d == 0 {
        return;
    }
    for (r, (orow, srow)) in out.chunks_exact_mut(d).zip(src.chunks_exact(d)).enumerate() {
        row_op(orow, srow, w[r * stride + col]);
    }
}

fn assert_row_dot(dst: &Matrix, col: usize, a: &Matrix, b: &Matrix, op: &str) {
    assert_eq!(a.shape(), b.shape(), "{op}: operand shape mismatch");
    assert_eq!(dst.rows(), a.rows(), "{op}: dst has {} rows, operands {}", dst.rows(), a.rows());
    assert!(col < dst.cols(), "{op}: column {col} out of range for {} columns", dst.cols());
}

/// `sum_c a[r, c] * b[r, c]` into `dst[r, col]`, stored as `store`
/// says: `a.row_dot(b)` into column `col` of `dst`, each row a
/// `dot_lanes` dot in the canonical lane order (which `Matrix::row_dot`
/// itself delegates to). Other columns are left alone. The
/// `WeightedSum` backward adds its weight gradient to one that already
/// holds a contribution.
pub fn row_dot_into(dst: &mut Matrix, col: usize, a: &Matrix, b: &Matrix, store: Store) {
    assert_row_dot(dst, col, a, b, "row_dot_into");
    let (stride, n) = (dst.cols(), a.rows());
    let (out, a, b) = (dst.data_mut(), a.data(), b.data());
    match store {
        Store::Assign => row_dot_slices(out, stride, col, a, b, n, |o, v| *o = v),
        Store::Add => row_dot_slices(out, stride, col, a, b, n, |o, v| *o += v),
    }
}

/// The loop behind [`row_dot_into`]: hands the lane dot of row `r` of
/// `a` and `b` (`n` rows each) to `store` for `out[r * stride + col]`.
fn row_dot_slices(
    out: &mut [f32],
    stride: usize,
    col: usize,
    a: &[f32],
    b: &[f32],
    n: usize,
    store: impl Fn(&mut f32, f32),
) {
    let d = a.len().checked_div(n).unwrap_or(0);
    for r in 0..n {
        store(&mut out[r * stride + col], dot_lanes(&a[r * d..(r + 1) * d], &b[r * d..(r + 1) * d]));
    }
}

fn assert_softmax_backward(dst: &Matrix, g: &Matrix, y: &Matrix, op: &str) {
    assert_eq!(g.shape(), y.shape(), "{op}: grad/output shape mismatch");
    assert_eq!(dst.shape(), y.shape(), "{op}: dst shape mismatch");
}

/// Row-softmax backward, `y * (g - rowsum(g * y))` into `dst`, stored
/// as `store` says. The row total is a `dot_lanes` accumulation of
/// `g[c] * y[c]` in the canonical lane order — since the lane rewrite,
/// this (not a scalar `g.hadamard(y).row_sums()` sweep) is the
/// reference sequence the equivalence suite replays.
pub fn softmax_rows_backward_into(dst: &mut Matrix, g: &Matrix, y: &Matrix, store: Store) {
    assert_softmax_backward(dst, g, y, "softmax_rows_backward_into");
    let (out, d) = (dst.data_mut(), y.cols());
    match store {
        Store::Assign => softmax_backward_slices(out, g.data(), y.data(), d, |o, v| *o = v),
        Store::Add => softmax_backward_slices(out, g.data(), y.data(), d, |o, v| *o += v),
    }
}

/// The loop behind [`softmax_rows_backward_into`]: per `d`-wide row,
/// the lane-order total `t` of `g * y`, then `y * (g - t)` handed to
/// `store` element by element.
fn softmax_backward_slices(out: &mut [f32], g: &[f32], y: &[f32], d: usize, store: impl Fn(&mut f32, f32)) {
    if d == 0 {
        return;
    }
    for ((orow, grow), yrow) in out.chunks_exact_mut(d).zip(g.chunks_exact(d)).zip(y.chunks_exact(d)) {
        let t = dot_lanes(grow, yrow);
        for ((o, &gv), &yv) in orow.iter_mut().zip(grow).zip(yrow) {
            store(o, yv * (gv - t));
        }
    }
}

/// Scatter-add on the calling thread: `dst.row(indices[o]) +=
/// src.row(o)` for every `o`, in source order, so duplicate indices
/// accumulate in the order they appear (this is the backward pass of
/// `gather_rows`).
///
/// # Panics
/// If shapes disagree or any index is out of bounds; indices are
/// checked before `dst` is written.
pub fn scatter_add_rows(dst: &mut Matrix, indices: &[u32], src: &Matrix) {
    assert_eq!(src.rows(), indices.len(), "scatter_add_rows: index count mismatch");
    assert_eq!(src.cols(), dst.cols(), "scatter_add_rows: column count mismatch");
    let rows = dst.rows();
    for &idx in indices {
        assert!((idx as usize) < rows, "scatter_add_rows: index {idx} out of bounds for {rows} rows");
    }
    scatter_add_slices(indices, src.data(), dst.cols(), dst.data_mut());
}

/// The loop behind [`scatter_add_rows`]: source row `o` of `src` adds
/// into row `indices[o]` of `out`, sources in order. Slice parameters,
/// for the reason [`spmm_t_scatter`] gives: the same loop over the
/// matrices' own storage ran about 2.3x slower (4,096 source rows into
/// a 900 x 16 table, one process, both forms interleaved, a 2-core
/// x86-64 host).
fn scatter_add_slices(indices: &[u32], src: &[f32], d: usize, out: &mut [f32]) {
    for (o, &idx) in indices.iter().enumerate() {
        add_lanes(&mut out[idx as usize * d..][..d], &src[o * d..(o + 1) * d]);
    }
}

/// Dot product of every row of `mat` against `vec`, on the calling
/// thread: the full-catalog scoring primitive, each row a `dot_lanes`
/// dot in the canonical lane order ([`row_dots_into`] into new
/// storage).
pub fn row_dots(mat: &Matrix, vec: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; mat.rows()];
    row_dots_into(&mut out, mat, vec);
    out
}

/// Canonical fixed-lane dot product of two equal-length slices — the
/// single-pair scoring primitive. Exposed so every scoring surface
/// (`Gnmr::score_pair`, the full-catalog [`row_dots`] family, the
/// serve-crate batch path) reduces in the exact same lane order and
/// therefore agrees bitwise on every (user, item) pair.
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch {} vs {}", x.len(), y.len());
    dot_lanes(x, y)
}

/// [`row_dots`] into a caller-provided buffer:
/// `dst[r] = <mat.row(r), vec>` in the canonical lane order, allocating
/// nothing.
pub fn row_dots_into(dst: &mut [f32], mat: &Matrix, vec: &[f32]) {
    assert_eq!(mat.cols(), vec.len(), "row_dots: vector length {} != {} cols", vec.len(), mat.cols());
    assert_eq!(dst.len(), mat.rows(), "row_dots: dst length {} != {} rows", dst.len(), mat.rows());
    let d = mat.cols();
    let md = mat.data();
    for (r, o) in dst.iter_mut().enumerate() {
        *o = dot_lanes(&md[r * d..(r + 1) * d], vec);
    }
}

// ----- top-k partial selection ----------------------------------------
//
// The serving path's ranking primitive: the `k` best-scoring indices in
// the deterministic total order (score descending, index ascending on
// ties), WITHOUT sorting the full catalog. A bounded worst-at-root
// binary heap keeps the best `k` seen so far: one comparison against
// the current cutoff per candidate (O(n) total, almost all failing
// fast) plus O(log k) maintenance per admitted candidate, then one sort
// of the kept candidates. The order is total (ties are broken by the
// unique index), so the top-k sequence is unique: it is exactly the
// prefix a full `(score desc, index asc)` sort would produce. One
// selector, `select_step`, takes candidates one at a time, so a
// selection can run over a finished score slice
// (`top_k_select_excluding`) or as the scores are computed
// (`rank_rows_into`).
//
// Scores are compared with `f32::total_cmp`, so NaNs are *ordered*
// (positive NaN above +inf) instead of poisoning the comparison the way
// the historical `partial_cmp().unwrap_or(Equal)` full sort did.

/// Reusable scratch for [`top_k_select_excluding`]. Mint one per
/// scoring thread and steady-state selection performs zero heap
/// allocations: the buffer grows to `min(k, candidates)` entries once
/// and is reused thereafter.
pub struct TopKScratch {
    buf: Vec<(u32, f32)>,
}

impl TopKScratch {
    /// An empty scratch; the first selection call sizes it. `const` so
    /// thread-local scratch slots can be statically initialized.
    pub const fn new() -> Self {
        TopKScratch { buf: Vec::new() }
    }
}

impl Default for TopKScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Whether candidate `a` ranks strictly before `b` in the deterministic
/// serving order: score descending, index ascending on score ties
/// (`total_cmp`, so NaN scores are ordered rather than incomparable).
#[inline(always)]
fn sel_before(a: (u32, f32), b: (u32, f32)) -> bool {
    match b.1.total_cmp(&a.1) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a.0 < b.0,
    }
}

/// [`sel_before`] as a comparator for the final in-order sort.
#[inline(always)]
fn sel_cmp(a: &(u32, f32), b: &(u32, f32)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// Restores the worst-at-root invariant below slot `i`: every child
/// ranks strictly before ([`sel_before`]) its parent, so the root is
/// the worst-ranked element kept — the admission cutoff.
#[inline]
fn sift_down_worst(heap: &mut [(u32, f32)], mut i: usize) {
    loop {
        let l = 2 * i + 1;
        if l >= heap.len() {
            return;
        }
        let r = l + 1;
        // The worse-ranked child is the swap candidate.
        let c = if r < heap.len() && sel_before(heap[l], heap[r]) { r } else { l };
        if sel_before(heap[i], heap[c]) {
            heap.swap(i, c);
            i = c;
        } else {
            return;
        }
    }
}

/// Floyd heap construction over the first `k` candidates.
fn build_worst_heap(heap: &mut [(u32, f32)]) {
    for i in (0..heap.len() / 2).rev() {
        sift_down_worst(heap, i);
    }
}

/// The padding of a top-k row that holds fewer than `k` candidates.
/// `u32::MAX` is never a real row: the ranking entry points bound the
/// catalog below it.
const NO_ITEM: (u32, f32) = (u32::MAX, f32::NEG_INFINITY);

/// One query's streaming-selection state: its exclusion cursor (a
/// position in the ascending exclusion list and the id found there,
/// `u64::MAX` past the list's end), the heap slots in use, and a copy
/// of the heap's root once the heap is full (the admission cutoff).
/// With the two copies a rejected candidate below the next excluded id
/// reads neither the list nor the heap, only this state: a 256-query
/// [`rank_rows_into`] sweep of a 10^5 x 16 catalog, where the queries'
/// lists and heap roots outgrow L1, ran 1.15–1.35x faster than reading
/// them per candidate (two runs of 12 alternating rounds in one
/// process, a 2-core x86-64 host).
#[derive(Clone, Copy)]
struct Selection {
    pos: usize,
    next_excluded: u64,
    filled: usize,
    worst: (u32, f32),
}

impl Selection {
    /// Before the first candidate: the cursor reads the list's head on
    /// the first call.
    const START: Selection = Selection { pos: 0, next_excluded: 0, filled: 0, worst: NO_ITEM };
}

/// The one streaming selector: offers candidate `cand` (index, score)
/// to a bounded worst-at-root heap of `heap.len()` slots, `sel.filled`
/// of them in use, behind `sel`'s cursor into the ascending exclusion
/// list `exclude()` (duplicates allowed). Candidates must arrive in
/// ascending index order, so the cursor only moves forward and
/// exclusion costs O(n + e) over a sweep; a candidate below the next
/// excluded id does not read the list at all. The first `heap.len()`
/// admitted candidates fill the heap, which is built once full; after
/// that a candidate replaces the root (the worst kept) only if it
/// ranks before it. `heap` must not be empty.
#[inline(always)]
fn select_step<'e>(heap: &mut [(u32, f32)], sel: &mut Selection, exclude: impl FnOnce() -> &'e [u32], cand: (u32, f32)) {
    let idx = u64::from(cand.0);
    if idx >= sel.next_excluded {
        let exclude = exclude();
        while sel.pos < exclude.len() && exclude[sel.pos] < cand.0 {
            sel.pos += 1;
        }
        sel.next_excluded = exclude.get(sel.pos).map_or(u64::MAX, |&e| u64::from(e));
        if sel.next_excluded == idx {
            return;
        }
    }
    if sel.filled < heap.len() {
        heap[sel.filled] = cand;
        sel.filled += 1;
        if sel.filled == heap.len() {
            build_worst_heap(heap);
            sel.worst = heap[0];
        }
    } else if sel_before(cand, sel.worst) {
        heap[0] = cand;
        sift_down_worst(heap, 0);
        sel.worst = heap[0];
    }
}

/// Panics unless `exclude` is ascending, the order [`select_step`]'s
/// merge walk relies on.
fn assert_sorted_exclusions(exclude: &[u32], op: &str) {
    assert!(exclude.windows(2).all(|w| w[0] <= w[1]), "{op}: exclusion list must be sorted ascending");
}

/// Panics unless every candidate index of an `n`-row catalog fits in
/// `u32` below the [`NO_ITEM`] sentinel.
fn assert_catalog_fits(n: usize, op: &str) {
    assert!(n < u32::MAX as usize, "{op}: catalog of {n} rows exceeds u32 index space");
}

/// Top-`k` indices and scores of `scores`, in the deterministic
/// `(score desc, index asc)` order, via a bounded heap — one
/// comparison per candidate plus O(log k) per admitted one, instead of
/// the full-catalog argsort — skipping the ascending exclusion list
/// `exclude` (seen items, training interactions; pass `&[]` for none).
/// Returns fewer than `k` entries when fewer candidates remain; the
/// result is exactly the prefix a full `(score desc, index asc)` sort
/// of the non-excluded candidates would produce. The scores run through
/// `select_step`, the selector [`rank_rows_into`] streams its dots
/// through.
pub fn top_k_select_excluding<'s>(
    scores: &[f32],
    k: usize,
    exclude: &[u32],
    scratch: &'s mut TopKScratch,
) -> &'s [(u32, f32)] {
    assert!(
        scores.len() <= u32::MAX as usize,
        "top_k_select_excluding: catalog of {} rows exceeds u32 index space",
        scores.len()
    );
    assert_sorted_exclusions(exclude, "top_k_select_excluding");
    let buf = &mut scratch.buf;
    buf.clear();
    buf.resize(k.min(scores.len()), NO_ITEM);
    let mut sel = Selection::START;
    if !buf.is_empty() {
        for (i, &s) in scores.iter().enumerate() {
            select_step(buf, &mut sel, || exclude, (i as u32, s));
        }
    }
    buf.truncate(sel.filled);
    buf.sort_unstable_by(sel_cmp);
    buf
}

// ----- ranking: representation rows to a top-k list -------------------

/// The canonical dots of `query` against the [`LANES`] rows of one
/// packed strip (element-major, [`pack_bt_strip`]'s layout): column `c`
/// is bitwise `dot_lanes(query, row c)`, query times row, the operand
/// order of [`dot`]`(user, item)`. Every score the ranking kernels
/// return comes from here, over a strip rebuilt from both of its
/// [`RowStrips`] halves.
#[inline(always)]
fn strip_dots(query: &[f32], strip: &[f32]) -> [f32; LANES] {
    let mut acc = [[0.0f32; LANES]; LANES];
    nt_strip_lanes(&mut acc, query, strip);
    lane_sum_cols(&acc)
}

/// Words per element in a [`RowStrips`] half, two rows to a word: the
/// word of element `t` and slot `p` holds row `p` in its upper 16 bits
/// and row `p + HALF_LANES` in its lower 16.
const HALF_LANES: usize = LANES / 2;

/// Strips per block of a [`RowStrips`] catalog: a block stores the
/// high halves of all of its strips, then their low halves.
const SPLIT_BLOCK: usize = 64;

/// The upper 16 bits of a word.
const UPPER: u32 = 0xFFFF_0000;

/// Exchanges the lower half of `a` with the upper half of `b`. On the
/// bits of two floats it gives the word of their high halves and the
/// word of their low halves; on those two words, the floats' bits
/// again.
#[inline(always)]
fn transpose_halves(a: u32, b: u32) -> (u32, u32) {
    ((a & UPPER) | (b >> 16), (a << 16) | (b & !UPPER))
}

/// The least `f32` at or above `x` (+inf past `f32::MAX`).
fn round_up(x: f64) -> f32 {
    let y = x as f32;
    if f64::from(y) < x {
        y.next_up()
    } else {
        y
    }
}

/// The sum of the squares of the floats whose bits `row` holds, each
/// square exact in f64, summed in f64; +inf if a float is not finite.
fn sum_squares(row: &[u32]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let (blocks, rest) = row.as_chunks::<LANES>();
    for block in blocks {
        for l in 0..LANES {
            let x = f64::from(f32::from_bits(block[l]));
            acc[l] += x * x;
        }
    }
    for (a, &w) in acc.iter_mut().zip(rest) {
        let x = f64::from(f32::from_bits(w));
        *a += x * x;
    }
    let sum: f64 = acc.iter().sum();
    if sum.is_nan() {
        f64::INFINITY
    } else {
        sum
    }
}

/// An upper bound on the L2 norm of `len` floats whose squares sum to
/// `sum` ([`sum_squares`]), as f32; +inf if `sum` is. The sum, in any
/// order, and its root lose at most `(len + 1) * 2^-53` of the norm,
/// so the root is raised by `(len + 2) * 2^-52` and rounded up.
fn norm_bound(sum: f64, len: usize) -> f32 {
    round_up(sum.sqrt() * (1.0 + (len + 2) as f64 * f64::EPSILON))
}

/// ε of the coarse width for rows `d` wide (see [`RowStrips`]):
/// `2^-7 + 2 * γ_d + 2^-20`, `γ_d = d * 2^-24 / (1 - d * 2^-24)`,
/// rounded up; +inf once `d * 2^-24` reaches 1/2.
fn coarse_eps(d: usize) -> f32 {
    let du = d as f64 * 2f64.powi(-24);
    if du >= 0.5 {
        return f32::INFINITY;
    }
    round_up(2f64.powi(-7) + 2.0 * du / (1.0 - du) + 2f64.powi(-20))
}

/// Past this `‖q‖ * ν_s` the coarse width is +inf: 2^126, a quarter of
/// the way to overflow, so no partial sum of either dot can overflow
/// below it.
const COARSE_LIMIT: f32 = f32::from_bits(253 << 23);

/// What a query brings to the width of its coarse scores (see
/// [`RowStrips`]): its norm bound `‖q‖` and the width's absolute term
/// `√d * ‖q‖ * 2^-132 + d * 2^-147`, rounded up.
#[derive(Clone, Copy)]
struct QueryBound {
    norm: f32,
    floor: f32,
}

impl QueryBound {
    fn of(query: &[f32]) -> Self {
        let sum: f64 = query.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
        let norm = norm_bound(if sum.is_nan() { f64::INFINITY } else { sum }, query.len());
        let d = query.len() as f64;
        let floor = round_up(f64::from(norm) * d.sqrt() * 2f64.powi(-132) + d * 2f64.powi(-147));
        QueryBound { norm, floor }
    }
}

/// The width that lifts a coarse score of a query bounded by `q`
/// against a strip with norm bound `strip_norm` past the exact score:
/// `eps * ‖q‖ * ν_s` plus `q`'s absolute term, or +inf past
/// [`COARSE_LIMIT`] or when either norm is not finite (a NaN product
/// fails the `<=`).
#[inline(always)]
fn coarse_width(eps: f32, q: QueryBound, strip_norm: f32) -> f32 {
    let m = q.norm * strip_norm;
    if m <= COARSE_LIMIT {
        eps * m + q.floor
    } else {
        f32::INFINITY
    }
}

/// Coarse dots of `query` against one strip's high halves (`high`, the
/// strip's [`RowStrips`] high half): each element truncated to its
/// upper 16 bits, a bf16 value read as f32. A word holds rows `p` and
/// `p + HALF_LANES` of one element, so a mask and a shift decode both,
/// into one accumulator block each. The sums run in no canonical order:
/// [`coarse_width`] covers any order, and no returned score comes from
/// here.
///
/// Kept out of line: inlined into the sweep, rustc 1.95 turns the mask
/// into word shuffles (`pshuflw`, `pshufhw`, `pshufd`, `punpcklwd`) on
/// every element, and the sweep ran ~1.6x slower (2·10^4 x 48, 16
/// queries, in cache, a 2-core x86-64 host).
#[inline(never)]
fn coarse_dots(query: &[f32], high: &[u32]) -> [f32; LANES] {
    let (words, _) = high.as_chunks::<HALF_LANES>();
    let mut upper = [0.0f32; HALF_LANES];
    let mut lower = [0.0f32; HALF_LANES];
    for (&x, w) in query.iter().zip(words) {
        for p in 0..HALF_LANES {
            upper[p] += x * f32::from_bits(w[p] & UPPER);
            lower[p] += x * f32::from_bits(w[p] << 16);
        }
    }
    std::array::from_fn(|c| if c < HALF_LANES { upper[c] } else { lower[c - HALF_LANES] })
}

/// Writes the `m` strips of `src` (`m * LANES` rows of `cols` floats'
/// bits, row-major, zero rows as padding) into `dst` in the split
/// layout, the high halves of all `m` first, and pushes each strip's
/// norm bound onto `norms`.
fn split_block(dst: &mut [u32], src: &[u32], m: usize, cols: usize, norms: &mut Vec<f32>) {
    let half = HALF_LANES * cols;
    let (highs, lows) = dst.split_at_mut(m * half);
    for j in 0..m {
        let rows: [&[u32]; LANES] = std::array::from_fn(|c| &src[(j * LANES + c) * cols..(j * LANES + c + 1) * cols]);
        norms.push(norm_bound(rows.iter().map(|row| sum_squares(row)).fold(0.0, f64::max), cols));
        let (high, _) = highs[j * half..(j + 1) * half].as_chunks_mut::<HALF_LANES>();
        let (low, _) = lows[j * half..(j + 1) * half].as_chunks_mut::<HALF_LANES>();
        for (t, (high, low)) in high.iter_mut().zip(low).enumerate() {
            for p in 0..HALF_LANES {
                (high[p], low[p]) = transpose_halves(rows[p][t], rows[p + HALF_LANES][t]);
            }
        }
    }
}

/// A catalog of rows in [`LANES`]-row strips, each float split into
/// its high and low 16 bits, with one norm bound per strip. The ranking
/// kernels ([`rank_rows`], [`rank_rows_into`]) take their catalog in
/// this form: they sweep the high halves, half the bytes, and rebuild a
/// strip from both halves only where a coarse bound says one of its
/// rows may enter a heap; every score they return is bitwise
/// [`dot`]`(query, row)`.
///
/// # Layout
///
/// A strip holds rows `8s .. 8s + 8`. Its high half is `4 * cols`
/// words: the word of element `t` and slot `p` (at `4t + p`) holds the
/// upper 16 bits of row `p`'s element `t` in its upper half and those
/// of row `p + 4` in its lower half. Its low half holds the rows' lower
/// 16 bits in the same places. Strips are stored in blocks of 64: the
/// high halves of a block's strips, in order, then their low halves,
/// so a sweep that skips the low halves skips 48 KiB runs at 48
/// columns. A float is its two halves joined back (`get`), and a strip
/// rebuilt from them is `matmul_nt`'s packed 8-row strip, which
/// `strip_dots` scores.
///
/// [`RowStrips::new`] builds this in place: it takes the matrix's own
/// buffer (its floats' bits collected as `u32` words, which `Vec` does
/// in the same allocation) and rewrites each block through one
/// block-sized scratch, so a catalog is never held twice. The last
/// `rows % LANES` rows live in a side strip of `LANES * cols` words,
/// zero-padded, laid out as a block of one, so a sweep runs one loop
/// over every strip. A strip's norm bound `ν_s` is the largest L2 norm
/// of its rows, rounded up, or +inf if a row holds a non-finite value.
///
/// # The coarse bound
///
/// For a query `q` and a row `x` of strip `s`, let `h` be `x` with each
/// element's low 16 bits cleared, `ŝ` the exact lane-order dot and `ĉ`
/// the coarse dot of `q` and `h`, summed in any order. Then
/// `ŝ <= ĉ + w`, with the width
/// `w = ε * ‖q‖ * ν_s + √d * ‖q‖ * 2^-132 + d * 2^-147`
/// (`d = cols`, `‖q‖` an upper bound on the query's norm), where
/// `ε = 2^-7 + 2γ_d + 2^-20`, `γ_d = d * 2^-24 / (1 - d * 2^-24)`:
///
/// * *Truncation.* A normal element loses less than 2^-7 of its value,
///   a subnormal one less than 2^-133, so
///   `|q·x − q·h| <= 2^-7 Σ|q_t x_t| + 2^-133 Σ|q_t|`, and by
///   Cauchy–Schwarz `Σ|q_t x_t| <= ‖q‖ ν_s` and `Σ|q_t| <= √d ‖q‖`.
/// * *Rounding in both dots.* A dot of `d` products summed in any order
///   is within `γ_d Σ|q_t x_t|` of its real value, and `|h_t| <= |x_t|`:
///   `2γ_d ‖q‖ ν_s` for the two.
/// * *Underflow.* A product that underflows is off by at most 2^-150,
///   and a sum that underflows is exact: `d * 2^-149` per dot.
/// * *Rounding the width itself and `ĉ + w`.* A few f32 roundings of
///   values at most about `‖q‖ ν_s`, and the norms' own rounding (both
///   are summed in f64 and rounded up): the 2^-20 in `ε` and the
///   doubled absolute terms cover them.
/// * *Overflow.* Below `‖q‖ ν_s = 2^126` no partial sum of either dot,
///   in any order, nor `ĉ + w`, can overflow. At or past it the width
///   is +inf and the strip is rescored, so a sum that overflows in one
///   order and not in the other never decides a skip.
/// * *Non-finite values.* A row holding NaN or ±inf has `ν_s = +inf`
///   (its high half may even turn a NaN into an infinity), and a
///   non-finite query has `‖q‖ = +inf`, so the width is +inf. A finite
///   width thus meets only finite elements and sums, and an infinite
///   one makes `ĉ + w` +inf or NaN, which fails the skip test.
///
/// The sweep skips a (strip, query) pair only when all eight upper
/// bounds `ĉ + w` fall below the query's heap root under IEEE `<`
/// (`all_below`): then every exact score is below the root, where
/// the selector would reject it. A NaN or +inf bound fails `<`, and a
/// heap that is not yet full has a −inf root, so nothing is skipped
/// until it fills.
pub struct RowStrips {
    /// The full strips in the split layout, in the matrix's own buffer.
    words: Vec<u32>,
    /// The last `rows % LANES` rows as one zero-padded strip in the
    /// same layout; empty if `LANES` divides `rows`.
    tail: Vec<u32>,
    /// One norm bound per strip, the tail strip's last.
    norms: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl RowStrips {
    /// Splits `m` into strips in place (see the type docs). Allocates
    /// the block-sized scratch, the norm bounds (one per strip) and, if
    /// `LANES` does not divide `m.rows()`, the tail strip; never a
    /// second catalog.
    pub fn new(m: Matrix) -> Self {
        let (rows, cols) = m.shape();
        let mut words: Vec<u32> = m.into_data().into_iter().map(f32::to_bits).collect();
        let strip = LANES * cols;
        let full = rows / LANES;
        let mut norms = Vec::with_capacity(rows.div_ceil(LANES));
        let mut scratch = vec![0u32; SPLIT_BLOCK.min(full) * strip];
        for b0 in (0..full).step_by(SPLIT_BLOCK) {
            let m = SPLIT_BLOCK.min(full - b0);
            let block = &mut words[b0 * strip..(b0 + m) * strip];
            split_block(&mut scratch[..m * strip], block, m, cols, &mut norms);
            block.copy_from_slice(&scratch[..m * strip]);
        }
        let mut tail = Vec::new();
        if full * LANES < rows {
            let mut padded = words.split_off(full * strip);
            padded.resize(strip, 0);
            tail = vec![0; strip];
            split_block(&mut tail, &padded, 1, cols, &mut norms);
        }
        RowStrips { words, tail, norms, rows, cols }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element `(r, c)`, its two halves joined.
    ///
    /// # Panics
    /// If `r` or `c` is out of range.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        let (s, lane) = self.strip_of(r);
        assert!(c < self.cols, "RowStrips: column {c} out of range for {} columns", self.cols);
        let (high, low) = self.halves(s);
        let w = c * HALF_LANES + lane % HALF_LANES;
        let (a, b) = transpose_halves(high[w], low[w]);
        f32::from_bits(if lane < HALF_LANES { a } else { b })
    }

    /// The canonical lane-order dot of `query` with row `r`, bitwise
    /// [`dot`]`(query, row r)`: the row's strip rebuilt in this thread's
    /// pack buffer and scored through the sweep's exact kernel, of
    /// which row `r`'s dot is kept. Allocates nothing once the thread's
    /// pack buffer holds a strip.
    ///
    /// # Panics
    /// If `r` is out of range or `query` is not `cols` wide.
    pub fn dot_row(&self, query: &[f32], r: usize) -> f32 {
        let (s, lane) = self.strip_of(r);
        assert_eq!(query.len(), self.cols, "RowStrips::dot_row: query length {} != {} cols", query.len(), self.cols);
        with_pack_buf(LANES * self.cols, |strip| {
            self.decode_strip(s, strip);
            strip_dots(query, strip)[lane]
        })
    }

    /// The strip holding row `r` and the row's lane in it; checks `r`
    /// first, so an id past the last row never reads tail padding.
    fn strip_of(&self, r: usize) -> (usize, usize) {
        assert!(r < self.rows, "RowStrips: row {r} out of range for {} rows", self.rows);
        (r / LANES, r % LANES)
    }

    /// The high and low halves of strip `s`, `HALF_LANES * cols` words
    /// each: from its block of the full strips, or the padded tail past
    /// the last one.
    #[inline(always)]
    fn halves(&self, s: usize) -> (&[u32], &[u32]) {
        let half = HALF_LANES * self.cols;
        let full = self.rows / LANES;
        if s < full {
            let (b0, j) = (s - s % SPLIT_BLOCK, s % SPLIT_BLOCK);
            let m = SPLIT_BLOCK.min(full - b0);
            let block = &self.words[2 * b0 * half..2 * (b0 + m) * half];
            (&block[j * half..(j + 1) * half], &block[(m + j) * half..(m + j + 1) * half])
        } else {
            self.tail.split_at(half)
        }
    }

    /// Rebuilds strip `s` into `dst` (`LANES * cols` floats) in
    /// [`pack_bt_strip`]'s layout, every float its two halves joined.
    #[inline(always)]
    fn decode_strip(&self, s: usize, dst: &mut [f32]) {
        let (high, low) = self.halves(s);
        let ((high, _), (low, _)) = (high.as_chunks::<HALF_LANES>(), low.as_chunks::<HALF_LANES>());
        for ((out, h), l) in dst.chunks_exact_mut(LANES).zip(high).zip(low) {
            for p in 0..HALF_LANES {
                let (a, b) = transpose_halves(h[p], l[p]);
                out[p] = f32::from_bits(a);
                out[p + HALF_LANES] = f32::from_bits(b);
            }
        }
    }
}

/// Reusable scratch for [`rank_rows_into`]: a few words of state per
/// query (its exclusion cursor, heap fill count and heap root, and its
/// coarse-width terms; the heaps themselves live in the output rows),
/// one strip rebuilt from both halves, and the count of (strip, query)
/// pairs rescored exactly. Mint one per scoring thread (the serve crate
/// keeps one in thread-local storage, like `with_pack_buf`); it grows
/// to the largest batch ranked and steady-state calls allocate nothing.
pub struct RankScratch {
    selections: Vec<Selection>,
    bounds: Vec<QueryBound>,
    strip: Vec<f32>,
    rescored: u64,
}

impl RankScratch {
    /// An empty scratch; the first ranking call sizes it. `const` so
    /// thread-local scratch slots can be statically initialized.
    pub const fn new() -> Self {
        RankScratch { selections: Vec::new(), bounds: Vec::new(), strip: Vec::new(), rescored: 0 }
    }

    /// The (strip, query) pairs this scratch's calls have scored
    /// exactly since it was made: those whose coarse bounds did not all
    /// fall below the query's heap root (see [`RowStrips`]).
    pub fn rescored(&self) -> u64 {
        self.rescored
    }
}

impl Default for RankScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Ranks the rows of `items` for a batch of queries in one pass over
/// the catalog, on the calling thread: query `i` is row `ids[i]` of
/// `queries`, with the ascending exclusion list `exclude(i)`
/// (duplicates and indices past the catalog are fine). Row `i` of
/// `out` (`out[i * k..(i + 1) * k]`) receives query `i`'s top-`k`
/// `(row, score)` pairs in the deterministic `(score desc, row asc)`
/// order, padded with `(u32::MAX, f32::NEG_INFINITY)` when fewer than
/// `k` rows remain.
///
/// Every strip of `items` is read once for the whole batch, its high
/// halves for every query and its low halves only where a query's
/// coarse bound reaches that query's heap root. Each query's scores
/// against a strip are the canonical lane-order [`dot`]`(query, row)`
/// (query times row, like `ServeIndex::score` and `Gnmr::score_pair`),
/// streamed in ascending row order straight into that query's bounded
/// heap (`select_step`), which lives in its output row; a strip is
/// skipped only where no exact score of it could enter the heap. So
/// each list is bitwise the one a full `(score desc, row asc)` sort of
/// those dots gives, at any batch size, and once `scratch` has seen the
/// largest batch the call allocates nothing. [`row_dots`] multiplies
/// row times query instead; IEEE arithmetic commutes except in which
/// payload an operation on two NaNs keeps, so its scores are these bits
/// unless two NaNs of different payloads meet.
///
/// # Panics
/// If widths or `out`'s length disagree, an id is out of range, an
/// exclusion list is not ascending, or `items` has `u32::MAX` rows or
/// more.
pub fn rank_rows_into<'e>(
    out: &mut [(u32, f32)],
    items: &RowStrips,
    queries: &Matrix,
    ids: &[u32],
    k: usize,
    exclude: impl Fn(usize) -> &'e [u32],
    scratch: &mut RankScratch,
) {
    const OP: &str = "rank_rows_into";
    assert_eq!(items.cols(), queries.cols(), "{OP}: query width {} != {} cols", queries.cols(), items.cols());
    assert_eq!(out.len(), ids.len() * k, "{OP}: out length {} != {} queries x k {k}", out.len(), ids.len());
    assert_catalog_fits(items.rows(), OP);
    for (i, &id) in ids.iter().enumerate() {
        assert!((id as usize) < queries.rows(), "{OP}: query id {id} out of range for {} rows", queries.rows());
        assert_sorted_exclusions(exclude(i), OP);
    }
    if k == 0 {
        return;
    }
    rank_rows_sweep(out, items, queries.data(), ids, k, &exclude, scratch);
}

/// The top-`k` rows of `items` by their canonical dot with `query`, as
/// `(row, score)` pairs in the deterministic `(score desc, row asc)`
/// order, skipping the ascending `exclude` list: [`rank_rows_into`]'s
/// sweep with one query, on the calling thread, without padding. The
/// one path from representation rows to a top-k list, shared by
/// `Gnmr::recommend` and the serve crate.
///
/// # Panics
/// As [`rank_rows_into`].
pub fn rank_rows(items: &RowStrips, query: &[f32], k: usize, exclude: &[u32]) -> Vec<(u32, f32)> {
    const OP: &str = "rank_rows";
    assert_eq!(items.cols(), query.len(), "{OP}: query length {} != {} cols", query.len(), items.cols());
    assert_catalog_fits(items.rows(), OP);
    assert_sorted_exclusions(exclude, OP);
    let k = k.min(items.rows());
    let mut out = vec![NO_ITEM; k];
    if k > 0 {
        let mut scratch = RankScratch::new();
        rank_rows_sweep(&mut out, items, query, &[0], k, &|_| exclude, &mut scratch);
        out.truncate(scratch.selections[0].filled);
    }
    out
}

/// Whether a strip's scores can all be skipped against a full heap
/// whose root scores `worst`: every one is below it under IEEE `<`.
/// Conservative under `total_cmp`, the selector's order: a score that
/// order could rank before the root (+0.0 against a −0.0 root, a NaN)
/// fails `<` and still reaches [`select_step`]. Before the heap is full
/// its root is [`NO_ITEM`], scoring −inf, so nothing is skipped.
#[inline(always)]
fn all_below(scores: &[f32; LANES], worst: f32) -> bool {
    scores.iter().all(|&v| v < worst)
}

/// The loop behind [`rank_rows_into`] and [`rank_rows`]: the strips of
/// `items` in the outer loop, ascending, queries (rows `ids` of
/// `queries`, each as wide as a row) in the inner loop. Each (strip,
/// query) pair first runs [`coarse_dots`] over the strip's high halves
/// and adds [`coarse_width`]; if those upper bounds all fall below the
/// query's heap root ([`all_below`]), the pair is done. Otherwise the
/// strip is rebuilt from both halves into `scratch` (once per strip),
/// scored exactly by [`strip_dots`], and its real rows go through
/// [`select_step`] in ascending order into the query's heap,
/// `out[i * k..][..min(k, n)]`, with its state `scratch.selections[i]`.
/// A skipped strip leaves the exclusion cursor behind; it is a forward
/// merge, so it catches up at the next candidate it is offered. Then
/// every row is sorted and padded. `k` must be positive.
fn rank_rows_sweep<'e>(
    out: &mut [(u32, f32)],
    items: &RowStrips,
    queries: &[f32],
    ids: &[u32],
    k: usize,
    exclude: &impl Fn(usize) -> &'e [u32],
    scratch: &mut RankScratch,
) {
    let (n, d) = (items.rows(), items.cols());
    let cap = k.min(n);
    let eps = coarse_eps(d);
    let RankScratch { selections, bounds, strip, rescored } = scratch;
    selections.clear();
    selections.resize(ids.len(), Selection::START);
    bounds.clear();
    bounds.extend(ids.iter().map(|&id| QueryBound::of(&queries[id as usize * d..][..d])));
    strip.resize(LANES * d, 0.0);
    for (s, &strip_norm) in items.norms.iter().enumerate() {
        let (high, _) = items.halves(s);
        let r0 = s * LANES;
        let width = LANES.min(n - r0);
        let mut rebuilt = false;
        let states = out.chunks_exact_mut(k).zip(selections.iter_mut().zip(bounds.iter()));
        for (i, (&id, (heap, (sel, &bound)))) in ids.iter().zip(states).enumerate() {
            let query = &queries[id as usize * d..][..d];
            let w = coarse_width(eps, bound, strip_norm);
            if all_below(&coarse_dots(query, high).map(|c| c + w), sel.worst.1) {
                continue;
            }
            if !rebuilt {
                items.decode_strip(s, strip);
                rebuilt = true;
            }
            *rescored += 1;
            let scores = strip_dots(query, strip);
            for (c, &v) in scores[..width].iter().enumerate() {
                select_step(&mut heap[..cap], sel, || exclude(i), ((r0 + c) as u32, v));
            }
        }
    }
    for (row, sel) in out.chunks_exact_mut(k).zip(selections.iter()) {
        row[..sel.filled].sort_unstable_by(sel_cmp);
        row[sel.filled..].fill(NO_ITEM);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 7) as f32 * 0.13 + seed).sin())
    }

    #[test]
    fn matmul_variants_agree_bitwise() {
        let a = mat(9, 17, 0.1);
        let b = mat(17, 23, 0.7);
        let reference = matmul_serial(&a, &b);
        assert_eq!(a.matmul(&b).data(), reference.data());
        // On a dirty destination the tiled kernel is the i-k-j loop
        // started from the destination's values.
        let dst0 = mat(9, 23, 0.3);
        let mut got = dst0.clone();
        matmul_acc(&mut got, &a, &b);
        let mut want = dst0.clone();
        matmul_rows_serial(a.data(), 9, 17, b.data(), 23, want.data_mut());
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn tiled_path_covers_multiple_blocks() {
        // Shapes straddling the tile sizes so the blocked loops execute
        // partial edge tiles.
        let a = mat(5, TILE_K + 3, 0.2);
        let b = mat(TILE_K + 3, TILE_J + 5, 0.4);
        let reference = matmul_serial(&a, &b);
        assert_eq!(a.matmul(&b).data(), reference.data());
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose() {
        let a = mat(8, 6, 0.3);
        let b = mat(8, 5, 0.9);
        let mut tn = Matrix::zeros(6, 5);
        matmul_tn_acc(&mut tn, &a, &b);
        assert!(tn.approx_eq(&a.transpose().matmul(&b), 1e-5));
        let c = mat(10, 6, 0.5);
        let mut nt = Matrix::ones(8, 10);
        matmul_nt_into(&mut nt, &a, &c, Store::Assign);
        assert!(nt.approx_eq(&a.matmul(&c.transpose()), 1e-5));
    }

    #[test]
    fn spmm_partition_is_exact() {
        let csr = Csr::from_triplets(
            6,
            5,
            &[(0, 1, 1.0), (0, 4, -2.0), (2, 0, 3.0), (2, 1, 0.5), (5, 4, 1.5), (5, 0, -1.0)],
        );
        // `spmm` splits the entries by row: each output row adds its CSR
        // row's entries, in order, into a zeroed row.
        let x = mat(5, 7, 0.6);
        let mut reference = Matrix::zeros(6, 7);
        for (r, c, v) in csr.iter() {
            for j in 0..7 {
                reference[(r as usize, j)] += v * x.get(c as usize, j);
            }
        }
        assert_eq!(csr.spmm(&x).data(), reference.data());
        // `spmm_t` splits them by column: the transposed CSR's rows hold
        // each column's entries in ascending row order, the order the
        // scatter adds them in.
        let xt = mat(6, 7, 0.8);
        let mut got = Matrix::zeros(5, 7);
        spmm_t_acc(&mut got, &csr, &xt);
        assert_eq!(got.data(), csr.transpose().spmm(&xt).data());
    }

    #[test]
    fn scatter_add_duplicates_accumulate() {
        let mut dst = Matrix::zeros(4, 2);
        let src = mat(3, 2, 0.0);
        scatter_add_rows(&mut dst, &[1, 1, 3], &src);
        let mut expected = Matrix::zeros(4, 2);
        for (o, &idx) in [1u32, 1, 3].iter().enumerate() {
            for c in 0..2 {
                expected[(idx as usize, c)] += src.get(o, c);
            }
        }
        assert!(dst.approx_eq(&expected, 0.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn scatter_add_rejects_bad_index() {
        let mut dst = Matrix::zeros(2, 2);
        let src = Matrix::ones(1, 2);
        scatter_add_rows(&mut dst, &[5], &src);
    }

    #[test]
    fn strip_cutoff_passes_every_score_total_order_may_admit() {
        // The sweep skips a strip only if `select_step` would reject all
        // of its scores: below the root under IEEE `<`. Dots start their
        // lanes at +0.0 and never return −0.0, so the sweep cannot reach
        // the signed-zero case; the predicate is pinned here instead.
        let mut scores = [-1.0f32; LANES];
        assert!(all_below(&scores, 0.5), "a strip wholly below the root is skipped");
        scores[3] = 0.0;
        assert!(!all_below(&scores, -0.0), "+0.0 ranks before a -0.0 root under total_cmp");
        scores[3] = f32::NAN;
        assert!(!all_below(&scores, 0.5), "a NaN score is offered");
        assert!(!all_below(&[-1.0; LANES], f32::NAN), "a NaN root skips nothing");
        assert!(!all_below(&[f32::MIN; LANES], NO_ITEM.1), "nothing is skipped before the heap fills");
    }

    #[test]
    fn coarse_width_covers_each_case() {
        // The width of `RowStrips`' coarse bound, case by case.
        let eps = coarse_eps(48);
        let gamma = 48.0 * 2f64.powi(-24) / (1.0 - 48.0 * 2f64.powi(-24));
        assert!(f64::from(eps) >= 2f64.powi(-7) + 2.0 * gamma, "truncation and both dots' rounding");
        let q = QueryBound::of(&[1.0; 48]);
        assert!(q.norm >= 48f32.sqrt() && q.floor > 0.0, "norm rounded up, absolute term positive");
        let w = coarse_width(eps, q, 2.0);
        assert!(f64::from(w) >= f64::from(q.norm) * 2.0 * (2f64.powi(-7) + 2.0 * gamma), "eps * |q| * nu");
        assert!(coarse_width(eps, q, 0.0) >= q.floor, "the absolute term alone at a zero strip");
        // Past 2^126 a partial sum could overflow: +inf, though finite.
        let huge = f32::from_bits(252 << 23);
        assert!(f64::from(q.norm) * f64::from(huge) > 2f64.powi(126));
        assert_eq!(coarse_width(eps, q, huge), f32::INFINITY, "overflow guard");
        assert!(coarse_width(eps, q, huge / 8.0).is_finite(), "below the guard");
        // Non-finite norms, and a zero norm against an infinite one.
        assert_eq!(coarse_width(eps, q, f32::INFINITY), f32::INFINITY);
        let nan_query = QueryBound::of(&[1.0, f32::NAN]);
        assert_eq!(nan_query.norm, f32::INFINITY);
        assert_eq!(coarse_width(eps, nan_query, 1.0), f32::INFINITY);
        assert_eq!(coarse_width(eps, QueryBound::of(&[0.0; 4]), f32::INFINITY), f32::INFINITY);
        assert_eq!(coarse_eps(1 << 23), f32::INFINITY, "no gamma_d past d * 2^-24 = 1/2");
    }

    #[test]
    fn coarse_bound_covers_every_exact_score() {
        // The inequality the sweep's skip rests on, checked lane by
        // lane: the exact lane-order dot is at most `ĉ + w` (or that
        // bound is +inf or NaN, which the skip test never passes), on
        // rows and queries of every magnitude: full mantissas, tiny and
        // subnormal values, values near `f32::MAX`, and any bits at all.
        use rand::RngCore;
        let mut rng = crate::rng::seeded(0xb0_0d);
        let mut value = |regime: u32| {
            let bits = rng.next_u32();
            let exponent = match regime {
                0 => 110 + bits % 31,
                1 => bits % 4,
                2 => 240 + bits % 15,
                _ => bits % 256,
            };
            f32::from_bits((bits & 0x807F_FFFF) | exponent << 23)
        };
        for case in 0..4000u32 {
            let d = 1 + case as usize % 50;
            let m = Matrix::from_fn(LANES, d, |_, _| value(case % 4));
            let query: Vec<f32> = (0..d).map(|_| value(case / 4 % 4)).collect();
            let strips = RowStrips::new(m);
            let (high, _) = strips.halves(0);
            let w = coarse_width(coarse_eps(d), QueryBound::of(&query), strips.norms[0]);
            let upper = coarse_dots(&query, high).map(|c| c + w);
            let mut strip = vec![0.0; LANES * d];
            strips.decode_strip(0, &mut strip);
            let exact = strip_dots(&query, &strip);
            for (c, (&u, &e)) in upper.iter().zip(&exact).enumerate() {
                let covered = u.is_nan() || u == f32::INFINITY || (!e.is_nan() && e <= u);
                assert!(covered, "case {case}, row {c}: exact {e:e} above its bound {u:e}");
            }
        }
    }

    #[test]
    fn halves_round_trip_and_norms_bound_rows() {
        for bits in [0u32, 0x8000_0000, 0x3f80_0001, 0x0000_ffff, 0x7f80_0000, 0x7fc0_1234, 0xff7f_ffff] {
            let other = bits.rotate_left(16) ^ 0x5a5a_a5a5;
            let (high, low) = transpose_halves(bits, other);
            assert_eq!(high >> 16, bits >> 16);
            assert_eq!(high & 0xffff, other >> 16);
            assert_eq!(transpose_halves(high, low), (bits, other));
        }
        let m = Matrix::from_fn(11, 5, |r, c| if (r, c) == (9, 2) { f32::NAN } else { (r * 5 + c) as f32 - 20.0 });
        let strips = RowStrips::new(m.clone());
        assert_eq!(strips.norms.len(), 2);
        let largest = (0..8).map(|r| m.row(r).iter().map(|x| x * x).sum::<f32>().sqrt()).fold(0.0, f32::max);
        assert!(strips.norms[0] >= largest && strips.norms[0] <= largest * 1.001);
        assert_eq!(strips.norms[1], f32::INFINITY, "a NaN row makes its strip's bound infinite");
    }

    #[test]
    fn row_dots_matches_manual() {
        let m = mat(12, 5, 0.4);
        let v: Vec<f32> = (0..5).map(|i| i as f32 * 0.2 - 0.3).collect();
        let got = row_dots(&m, &v);
        for (r, &g) in got.iter().enumerate() {
            let expect: f32 = m.row(r).iter().zip(&v).map(|(a, b)| a * b).sum();
            assert!((g - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_shapes_are_fine() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        assert_eq!(a.matmul(&b).shape(), (0, 4));
        let c = Matrix::zeros(3, 0);
        assert_eq!(b.transpose().matmul(&c).shape(), (4, 0));
        let e = Csr::empty(0, 0);
        let mut y = Matrix::zeros(0, 2);
        spmm_acc(&mut y, &e, &Matrix::zeros(0, 2));
        spmm_t_acc(&mut y, &e, &Matrix::zeros(0, 2));
        assert_eq!(e.spmm(&Matrix::zeros(0, 2)).shape(), (0, 2));
    }
}
