//! The kernel layer: tiled, vectorized implementations of the
//! workspace's hot linear-algebra loops, plus the serial matmul
//! reference the tiled path is tested against. Training runs every
//! kernel on the calling thread; only the ranking sweeps dispatch on
//! the persistent worker pool in [`crate::par`], so even
//! sub-millisecond sweeps pay only a few microseconds of handoff rather
//! than per-call thread spawns.
//!
//! [`Matrix`] and [`Csr`] delegate their
//! public ops here, so this module is the single landing zone for future
//! SIMD / backend work. Entry points follow one convention:
//!
//! * Kernels write into caller storage: `_acc` adds into `dst`, `_into`
//!   overwrites it, `_assign` updates it in place. On a zeroed `dst`, an
//!   `_acc` product is the serial product.
//! * Every kernel the training step calls runs on the calling thread
//!   and has only its bare name: the forward's products ([`matmul_acc`],
//!   [`spmm_acc`]), the backward's transposed products
//!   ([`matmul_tn_acc`], [`matmul_nt_into`], [`matmul_nt_acc`],
//!   [`spmm_t_acc`]), the scatter-add ([`scatter_add_rows`]), the
//!   elementwise family ([`add_assign`], [`axpy`], [`scale_into`],
//!   [`scale_assign`], [`zip_map_into`], [`zip_map_acc`]) and the
//!   row-wise backward kernels ([`row_dot_into`], `mul_col_broadcast_*`,
//!   `softmax_rows_backward_*`); so does [`row_dots_into`]. A product
//!   at the model's width is tens of microseconds, too little to pay for
//!   a dispatch, and a step that never dispatches allocates the same at
//!   any thread count. Each of these loops takes its operands as
//!   slices, like `spmm_t_scatter`.
//! * Only the ranking sweeps dispatch: [`row_dots`] and [`rank_rows`]
//!   resolve the thread count from [`crate::par`] and run on one thread
//!   below [`min_work`] (default [`PAR_MIN_WORK`]); [`row_dots_with`]
//!   and [`rank_rows_with`] take an explicit one (used by the
//!   equivalence tests, the benches and the serving batch).
//! * [`matmul_serial`] is the one reference loop (plain i-k-j), kept for
//!   the tests and benches to compare the tiled [`matmul_acc`] against.
//! * Allocating forms live on `Matrix` and `Csr` (`Matrix::matmul` and
//!   `Csr::spmm`/`spmm_t` build a zeroed output and call [`matmul_acc`],
//!   [`spmm_acc`] or [`spmm_t_acc`]); here only `row_dots`/
//!   [`row_dots_with`] return new storage.
//!
//! # Determinism and the canonical lane order
//!
//! Every kernel accumulates into each output element in one fixed
//! order, and the ranking sweeps partition *output rows* across
//! workers, so their results are bitwise identical to their one-thread
//! run at every thread count and under every chunk plan.
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
//! same lanes, the same order and the same tree. Streaming
//! kernels (`matmul`, `matmul_tn`, `spmm`, the elementwise family, the
//! optimizer steps) keep one accumulator per output element advancing
//! in ascending inner order, so their bytes never depended on the lane
//! width at all. Both schemes are defined purely by loop structure —
//! no hardware feature detection, no FMA contraction (rustc never
//! contracts `a * b + c` on its own) — so the bytes are identical
//! across machines as well as across thread counts.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::dense::Matrix;
use crate::par;
use crate::sparse::Csr;

/// Work threshold (in multiply-add units) below which the ranking
/// sweeps ([`row_dots`], [`rank_rows`]) and the serving batch stay on
/// the calling thread: handing chunks to the persistent pool costs a
/// few microseconds per call (condvar wake + completion wait — far
/// below the old per-call thread spawn, but not free), so only sweeps
/// with enough arithmetic to amortize it go parallel.
pub const PAR_MIN_WORK: usize = 64 * 1024;

/// Override for the parallel work threshold; 0 means "use
/// [`PAR_MIN_WORK`]".
static MIN_WORK_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or with `None` clears) the parallel work threshold the
/// ranking sweeps ([`row_dots`], [`rank_rows`]) and the serving batch
/// compare against. `Some(1)` (the floor — `Some(0)` is clamped to it)
/// sends each of them through its parallel route regardless of size,
/// which is how the equivalence and determinism suites exercise those
/// routes on test-sized shapes. Training's kernels never dispatch, so
/// it does not reach them. Real tuning would raise or lower the
/// threshold a few binary orders of magnitude around the default.
pub fn set_min_work(threshold: Option<usize>) {
    MIN_WORK_OVERRIDE.store(threshold.map_or(0, |t| t.max(1)), Ordering::Relaxed);
}

/// The active parallel work threshold of the ranking sweeps
/// ([`PAR_MIN_WORK`] unless overridden via [`set_min_work`]).
pub fn min_work() -> usize {
    let o = MIN_WORK_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 { o } else { PAR_MIN_WORK }
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
/// sequence, or replays it column by column (`matmul_nt`, see
/// [`nt_strip_lanes`]).
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
    /// B^T strips for `matmul_nt`. Minted lazily, grows monotonically to
    /// the largest panel a thread ever packs (`TILE_K * TILE_J` f32s =
    /// 128 KiB at most; a `matmul_nt` strip holds at most
    /// [`NT_PANEL_K`] rows of [`LANES`] f32s, the same 128 KiB), and is
    /// reused for every subsequent call — the steady-state training step
    /// packs with zero heap traffic, which the train-step bench gate
    /// checks explicitly.
    static PACK_BUF: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's pack scratch, grown to at least `len`
/// floats (callers ask for at most 128 KiB — see [`PACK_BUF`]). Growth
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

/// Resolves the thread count for a ranking sweep: serial below
/// [`min_work`], otherwise the shared [`par::num_threads`] config.
#[inline]
fn auto_threads(work: usize) -> usize {
    if work < min_work() {
        1
    } else {
        par::num_threads()
    }
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

/// Writes `a * b^T` into `dst` (overwriting every element) on the
/// calling thread, without materializing the transpose. Every output
/// element is an independent dot product in the canonical lane order
/// (see [`LANES`]), assigned once, so `dst`'s prior contents never
/// matter (dirty checkouts are fine).
pub fn matmul_nt_into(dst: &mut Matrix, a: &Matrix, b: &Matrix) {
    assert_matmul_nt(a, b);
    let (m, k, p) = (a.rows(), a.cols(), b.rows());
    assert_eq!(dst.shape(), (m, p), "matmul_nt_into: dst is {}x{}, product is {m}x{p}", dst.rows(), dst.cols());
    matmul_nt_rows(a.data(), m, k, b.data(), p, dst.data_mut(), |o, v| *o = v);
}

/// Accumulates `a * b^T` into `dst` (`dst += a * b^T`) on the calling
/// thread. Each output element's dot product is fully accumulated in
/// registers (exactly the [`matmul_nt_into`] lane order) and then
/// folded into `dst` with a single add — bitwise identical to
/// materializing the product and `add_assign`ing it, for **any** `dst`
/// contents, without allocating.
pub fn matmul_nt_acc(dst: &mut Matrix, a: &Matrix, b: &Matrix) {
    assert_matmul_nt(a, b);
    let (m, k, p) = (a.rows(), a.cols(), b.rows());
    assert_eq!(dst.shape(), (m, p), "matmul_nt_acc: dst is {}x{}, product is {m}x{p}", dst.rows(), dst.cols());
    matmul_nt_rows(a.data(), m, k, b.data(), p, dst.data_mut(), |o, v| *o += v);
}

/// `a (m x k) * b^T` (`b` is `p x k`) into `out`, handing each finished
/// element to `store` (assign for `_into`, one add for `_acc`).
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
// Every kernel below hands each output element exactly one
// fully-formed value (assigned by the `*_into` forms, folded in with a
// single add by the `*_acc`/axpy forms), so results are bitwise
// identical to the allocating two-step sequence for any destination
// contents. They run on the calling thread, each loop behind a
// slice-parameter function like `spmm_t_scatter`: `add_lanes` called
// straight from `add_assign`, over the matrices' own storage, ran
// about 2.6x slower (900 x 16, one process, both forms interleaved, a
// 2-core x86-64 host).

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

/// In-place `dst += s * src` (axpy).
pub fn axpy(dst: &mut Matrix, src: &Matrix, s: f32) {
    assert_same_shape(dst, src, "axpy");
    axpy_slices(dst.data_mut(), src.data(), s);
}

/// `dst = s * src` (overwriting every element, so dirty arena
/// checkouts are fine).
pub fn scale_into(dst: &mut Matrix, src: &Matrix, s: f32) {
    assert_same_shape(dst, src, "scale_into");
    scale_store_slices(dst.data_mut(), src.data(), s);
}

/// In-place `dst *= s`.
pub fn scale_assign(dst: &mut Matrix, s: f32) {
    scale_slices(dst.data_mut(), s);
}

/// `dst[i] = f(a[i], b[i])` (overwrites every element; dirty arena
/// checkouts are fine).
pub fn zip_map_into<F>(dst: &mut Matrix, a: &Matrix, b: &Matrix, f: F)
where
    F: Fn(f32, f32) -> f32,
{
    assert_same_shape(dst, a, "zip_map_into");
    assert_same_shape(a, b, "zip_map_into");
    zip_map_slices(dst.data_mut(), a.data(), b.data(), f, |o, v| *o = v);
}

/// `dst[i] += f(a[i], b[i])` — one add of a fully-formed value per
/// element, bitwise-equal to materializing `f(a, b)` and
/// `add_assign`ing it.
pub fn zip_map_acc<F>(dst: &mut Matrix, a: &Matrix, b: &Matrix, f: F)
where
    F: Fn(f32, f32) -> f32,
{
    assert_same_shape(dst, a, "zip_map_acc");
    assert_same_shape(a, b, "zip_map_acc");
    zip_map_slices(dst.data_mut(), a.data(), b.data(), f, |o, v| *o += v);
}

/// The loop behind [`add_assign`]. `src` is cut to `out`'s length so
/// the compiler sees two equal lengths; uncut, the loop ran about 2.5%
/// slower in the same A/B.
fn add_slices(out: &mut [f32], src: &[f32]) {
    add_lanes(out, &src[..out.len()]);
}

/// The loop behind [`axpy`].
fn axpy_slices(out: &mut [f32], src: &[f32], s: f32) {
    axpy_lanes(out, src, s);
}

/// The loop behind [`scale_assign`].
fn scale_slices(out: &mut [f32], s: f32) {
    scale_lanes(out, s);
}

/// The loop behind [`scale_into`].
fn scale_store_slices(out: &mut [f32], src: &[f32], s: f32) {
    scale_store_lanes(out, src, s);
}

/// The loop behind [`zip_map_into`] and [`zip_map_acc`]: hands
/// `f(a[i], b[i])` to `store` (assign or one add) for every element of
/// `out`, in index order.
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

fn assert_mul_col(dst: &Matrix, src: &Matrix, col: &Matrix, op: &str) {
    assert_eq!(dst.shape(), src.shape(), "{op}: dst/src shape mismatch");
    assert_eq!(col.shape(), (src.rows(), 1), "{op}: col must be {}x1", src.rows());
}

/// `dst[r, c] = src[r, c] * col[r]` — the assign form of
/// `src.mul_col_broadcast(col)` (overwrites every element; dirty arena
/// checkouts are fine). Serial: the tape's broadcast backward rows are
/// too small to amortize dispatch.
pub fn mul_col_broadcast_into(dst: &mut Matrix, src: &Matrix, col: &Matrix) {
    assert_mul_col(dst, src, col, "mul_col_broadcast_into");
    for r in 0..src.rows() {
        let s = col.get(r, 0);
        scale_store_lanes(dst.row_mut(r), src.row(r), s);
    }
}

/// `dst[r, c] += src[r, c] * col[r]` — one add of a fully-formed value
/// per element, bitwise-equal to materializing the broadcast product
/// and `add_assign`ing it.
pub fn mul_col_broadcast_acc(dst: &mut Matrix, src: &Matrix, col: &Matrix) {
    assert_mul_col(dst, src, col, "mul_col_broadcast_acc");
    for r in 0..src.rows() {
        let s = col.get(r, 0);
        axpy_lanes(dst.row_mut(r), src.row(r), s);
    }
}

/// `dst[r, 0] = sum_c a[r, c] * b[r, c]` — the assign form of
/// `a.row_dot(b)`, each row a `dot_lanes` dot in the canonical lane
/// order (which `Matrix::row_dot` itself delegates to).
pub fn row_dot_into(dst: &mut Matrix, a: &Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "row_dot_into: operand shape mismatch");
    assert_eq!(dst.shape(), (a.rows(), 1), "row_dot_into: dst must be {}x1", a.rows());
    for r in 0..a.rows() {
        dst.data_mut()[r] = dot_lanes(a.row(r), b.row(r));
    }
}

fn assert_softmax_backward(dst: &Matrix, g: &Matrix, y: &Matrix, op: &str) {
    assert_eq!(g.shape(), y.shape(), "{op}: grad/output shape mismatch");
    assert_eq!(dst.shape(), y.shape(), "{op}: dst shape mismatch");
}

/// Row-softmax backward, assign form: `dst = y * (g - rowsum(g * y))`.
/// The row total is a `dot_lanes` accumulation of `g[c] * y[c]` in
/// the canonical lane order — since the lane rewrite, this (not a
/// scalar `g.hadamard(y).row_sums()` sweep) is the reference sequence
/// the equivalence suite replays.
pub fn softmax_rows_backward_into(dst: &mut Matrix, g: &Matrix, y: &Matrix) {
    assert_softmax_backward(dst, g, y, "softmax_rows_backward_into");
    for r in 0..y.rows() {
        let (yrow, grow) = (y.row(r), g.row(r));
        let t = dot_lanes(grow, yrow);
        let drow = dst.row_mut(r);
        for c in 0..yrow.len() {
            drow[c] = yrow[c] * (grow[c] - t);
        }
    }
}

/// Row-softmax backward, accumulate form: `dst += y * (g - rowsum(g *
/// y))`, one add of a fully-formed value per element. Same
/// canonical-lane row total as [`softmax_rows_backward_into`].
pub fn softmax_rows_backward_acc(dst: &mut Matrix, g: &Matrix, y: &Matrix) {
    assert_softmax_backward(dst, g, y, "softmax_rows_backward_acc");
    for r in 0..y.rows() {
        let (yrow, grow) = (y.row(r), g.row(r));
        let t = dot_lanes(grow, yrow);
        let drow = dst.row_mut(r);
        for c in 0..yrow.len() {
            drow[c] += yrow[c] * (grow[c] - t);
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

/// The full-catalog sweep behind [`row_dots_with`], [`row_dots_into`]
/// and [`rank_rows_with`]: `dst[r] = <mat.row(r), vec>`, each row a
/// [`dot_lanes`] dot in the canonical lane order, rows partitioned
/// across `threads` (one thread runs inline).
fn row_dots_sweep(dst: &mut [f32], mat: &Matrix, vec: &[f32], threads: usize) {
    assert_eq!(mat.cols(), vec.len(), "row_dots: vector length {} != {} cols", vec.len(), mat.cols());
    assert_eq!(dst.len(), mat.rows(), "row_dots: dst length {} != {} rows", dst.len(), mat.rows());
    let d = mat.cols();
    let md = mat.data();
    par::for_each_row_chunk(dst, mat.rows(), threads, |range, chunk| {
        for (o, r) in chunk.iter_mut().zip(range) {
            *o = dot_lanes(&md[r * d..(r + 1) * d], vec);
        }
    });
}

/// Dot product of every row of `mat` against `vec`, on an explicit
/// number of threads. This is the full-catalog scoring primitive; each
/// row is a `dot_lanes` dot in the canonical lane order.
pub fn row_dots_with(mat: &Matrix, vec: &[f32], threads: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; mat.rows()];
    row_dots_sweep(&mut out, mat, vec, threads);
    out
}

/// Row dots with the shared thread-count config.
pub fn row_dots(mat: &Matrix, vec: &[f32]) -> Vec<f32> {
    row_dots_with(mat, vec, auto_threads(mat.len()))
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

/// Serial [`row_dots`] into a caller-provided buffer:
/// `dst[r] = <mat.row(r), vec>` in the canonical lane order, allocating
/// nothing. Meant for callers already inside a pool worker, where a
/// nested dispatch would run inline anyway.
pub fn row_dots_into(dst: &mut [f32], mat: &Matrix, vec: &[f32]) {
    row_dots_sweep(dst, mat, vec, 1);
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
// prefix a full `(score desc, index asc)` sort would produce.
//
// Scores are compared with `f32::total_cmp`, so NaNs are *ordered*
// (positive NaN above +inf) instead of poisoning the comparison the way
// the historical `partial_cmp().unwrap_or(Equal)` full sort did.

/// Reusable scratch for [`top_k_select_excluding`]. Mint one per
/// scoring thread (or one [`RankScratch`], which holds one) and
/// steady-state selection performs zero heap allocations: the buffer
/// grows to `min(k, candidates)` entries once and is reused thereafter.
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

/// Core selection: fills `buf` with the top-`k` non-excluded candidates
/// in the deterministic `(score desc, index asc)` order. `exclude` must
/// be ascending (duplicates allowed); candidates are streamed in index
/// order against a single merge-walk cursor, so exclusion costs
/// O(n + e) regardless of list sizes.
fn select_into_buf(scores: &[f32], k: usize, exclude: &[u32], buf: &mut Vec<(u32, f32)>) {
    buf.clear();
    if k == 0 {
        return;
    }
    // Admit the first k candidates, then only those ranking before the
    // current worst (the root).
    let mut p = 0usize;
    for (i, &s) in scores.iter().enumerate() {
        let idx = i as u32;
        while p < exclude.len() && exclude[p] < idx {
            p += 1;
        }
        if p < exclude.len() && exclude[p] == idx {
            continue;
        }
        let cand = (idx, s);
        if buf.len() < k {
            buf.push(cand);
            if buf.len() == k {
                build_worst_heap(buf);
            }
        } else if sel_before(cand, buf[0]) {
            buf[0] = cand;
            sift_down_worst(buf, 0);
        }
    }
    buf.sort_unstable_by(sel_cmp);
}

/// Top-`k` indices and scores of `scores`, in the deterministic
/// `(score desc, index asc)` order, via a bounded heap — one
/// comparison per candidate plus O(log k) per admitted one, instead of
/// the full-catalog argsort — skipping the ascending exclusion list
/// `exclude` (seen items, training interactions; pass `&[]` for none).
/// Returns fewer than `k` entries when fewer candidates remain; the
/// result is exactly the prefix a full `(score desc, index asc)` sort
/// of the non-excluded candidates would produce.
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
    assert!(
        exclude.windows(2).all(|w| w[0] <= w[1]),
        "top_k_select_excluding: exclusion list must be sorted ascending"
    );
    select_into_buf(scores, k, exclude, &mut scratch.buf);
    &scratch.buf
}

// ----- ranking: representation rows to a top-k list -------------------

/// Reusable scratch for [`rank_rows_with`]: a catalog-sized score
/// buffer plus the selection heap. Mint one per scoring thread (the
/// serve crate keeps one in thread-local storage, like
/// `with_pack_buf`); the score buffer grows to the largest catalog
/// ranked and steady-state calls allocate nothing.
pub struct RankScratch {
    scores: Vec<f32>,
    topk: TopKScratch,
}

impl RankScratch {
    /// An empty scratch; the first ranking call sizes it. `const` so
    /// thread-local scratch slots can be statically initialized.
    pub const fn new() -> Self {
        RankScratch { scores: Vec::new(), topk: TopKScratch::new() }
    }
}

impl Default for RankScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The top-`k` rows of `mat` by their canonical dot with `query`, as
/// `(row, score)` pairs in the deterministic `(score desc, row asc)`
/// order, skipping the ascending `exclude` list. The one path from
/// representation rows to a top-k list: the [`row_dots_with`] sweep on
/// `threads` into `scratch`, then [`top_k_select_excluding`].
pub fn rank_rows_with<'s>(
    mat: &Matrix,
    query: &[f32],
    k: usize,
    exclude: &[u32],
    scratch: &'s mut RankScratch,
    threads: usize,
) -> &'s [(u32, f32)] {
    let n = mat.rows();
    if scratch.scores.len() < n {
        scratch.scores.resize(n, 0.0);
    }
    let scores = &mut scratch.scores[..n];
    row_dots_sweep(scores, mat, query, threads);
    top_k_select_excluding(scores, k, exclude, &mut scratch.topk)
}

/// [`rank_rows_with`] with the shared thread-count config (the
/// [`row_dots`] rule).
pub fn rank_rows<'s>(
    mat: &Matrix,
    query: &[f32],
    k: usize,
    exclude: &[u32],
    scratch: &'s mut RankScratch,
) -> &'s [(u32, f32)] {
    rank_rows_with(mat, query, k, exclude, scratch, auto_threads(mat.len()))
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
        matmul_nt_into(&mut nt, &a, &c);
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
    fn row_dots_matches_manual() {
        let m = mat(12, 5, 0.4);
        let v: Vec<f32> = (0..5).map(|i| i as f32 * 0.2 - 0.3).collect();
        let got = row_dots_with(&m, &v, 3);
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
