//! The kernel layer: tiled, thread-parallel implementations of the
//! workspace's hot linear-algebra loops, plus the serial matmul
//! reference the tiled path is tested against. Parallel dispatch runs on
//! the persistent worker pool in [`crate::par`], so even sub-millisecond
//! kernels pay only a few microseconds of handoff rather than per-call
//! thread spawns.
//!
//! [`Matrix`] and [`Csr`] delegate their
//! public ops here, so this module is the single landing zone for future
//! SIMD / backend work. Entry points follow one convention:
//!
//! * `*_with` takes an explicit thread count (used by the equivalence
//!   tests and benches); the bare name resolves the thread count from
//!   [`crate::par`] and runs on one thread below [`min_work`] (default
//!   [`PAR_MIN_WORK`]).
//! * Kernels write into caller storage: `_acc` adds into `dst`, `_into`
//!   overwrites it, `_assign` updates it in place. On a zeroed `dst`,
//!   `*_acc_with(.., 1)` is the serial product. The row-wise backward kernels (`row_dot_*`,
//!   `mul_col_broadcast_*`, `softmax_rows_backward_*`, `transpose_*`)
//!   and [`row_dots_into`] are serial and have only these forms.
//! * [`matmul_serial`] is the one reference loop (plain i-k-j), kept for
//!   the tests and benches to compare the tiled matmul against.
//! * Allocating forms live on `Matrix` and `Csr` (`Csr::spmm`/`spmm_t`
//!   build a zeroed output and call [`spmm_acc`]/[`spmm_t_acc`]); here
//!   only `matmul`/[`matmul_with`] and `row_dots`/[`row_dots_with`]
//!   return new storage.
//!
//! # Cost-model dispatch
//!
//! Sparse kernels (`spmm`, `spmm_t`, scatter-add, CSR normalization /
//! construction) do not assume rows are equally expensive. Each
//! parallel call has one plan: nnz-weighted chunks, four per thread
//! (fewer on machines with fewer cores), which the pool's threads
//! claim one at a time from a shared counter. A thread held up on a
//! hub chunk (one user owning most of a behavior's interactions — the
//! normal case on power-law graphs) just claims fewer of the rest. The
//! plan decides who computes which rows and when — never what the
//! bytes are.
//!
//! # Determinism and the canonical lane order
//!
//! Every parallel kernel partitions *output rows* across workers and
//! accumulates into each output element in exactly the order of its
//! one-thread run, so results are bitwise identical to that run at
//! every thread count and under every chunk plan.
//!
//! Since the fixed-lane SIMD rewrite, the reference order itself is
//! the **canonical lane order** (see [`LANES`]): reduction-style
//! kernels (`matmul_nt`, `row_dot*`, `row_dots`, the softmax-backward
//! row totals) accumulate into a fixed block of `LANES` partial sums —
//! lane `l` owns the terms whose index is congruent to `l` modulo
//! `LANES` — and collapse it with a fixed pairwise tree. Streaming
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

/// Work threshold (in multiply-add units) below which kernels stay on
/// the serial path: handing chunks to the persistent pool costs a few
/// microseconds per call (condvar wake + completion wait — far below
/// the old per-call thread spawn, but not free), so only kernels with
/// enough arithmetic to amortize it go parallel.
pub const PAR_MIN_WORK: usize = 64 * 1024;

/// Override for the parallel work threshold; 0 means "use
/// [`PAR_MIN_WORK`]".
static MIN_WORK_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or with `None` clears) the parallel work threshold the
/// auto-dispatch entry points compare against. `Some(1)` (the floor —
/// `Some(0)` is clamped to it) forces every kernel through the
/// parallel routes regardless of size, which is how the
/// equivalence and gradcheck suites exercise those routes on
/// test-sized shapes; real tuning would raise or lower the threshold a
/// few binary orders of magnitude around the default.
pub fn set_min_work(threshold: Option<usize>) {
    MIN_WORK_OVERRIDE.store(threshold.map_or(0, |t| t.max(1)), Ordering::Relaxed);
}

/// The active parallel work threshold ([`PAR_MIN_WORK`] unless
/// overridden via [`set_min_work`]).
pub fn min_work() -> usize {
    let o = MIN_WORK_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 { o } else { PAR_MIN_WORK }
}

// ----- cost-model chunk planning --------------------------------------

/// How many chunks per thread a parallel sparse call cuts. Threads claim
/// chunks one at a time from the job's shared counter, so a thread held
/// up on a hub chunk just claims fewer of the rest; finer chunks smooth
/// skew better but each costs one claim, and 4 per thread leaves the
/// other threads enough chunks to absorb a hub's neighbors.
const CHUNKS_PER_THREAD: usize = 4;

/// Plans parallel chunks for a span-weighted workload (`spans` is a
/// CSR `indptr`-style table: row `r` weighs `spans[r+1] - spans[r]`):
/// entry-balanced chunks ([`par::partition_weighted`]), cut
/// [`CHUNKS_PER_THREAD`]× finer than the thread count. Every row
/// belongs to exactly one chunk, so the plan never affects the bytes
/// produced — only who computes them when.
pub(crate) fn span_plan(spans: &[usize], threads: usize) -> Vec<Range<usize>> {
    // Chunk granularity scales with the parallelism the machine can
    // actually deliver: fine chunks only pay off when they can land on
    // distinct cores, while on an oversubscribed box (threads beyond
    // hardware) each extra chunk boundary is one more context switch
    // for zero concurrency. hw == 1 therefore degenerates to one
    // weighted chunk per thread — still nnz-balanced.
    let granularity = CHUNKS_PER_THREAD.min(par::hardware_threads());
    par::partition_weighted(spans, threads.saturating_mul(granularity))
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
/// sequence (or replays it per column, see [`dot_lanes_x4`]).
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

/// Four simultaneous [`dot_lanes`] against a shared left operand: the
/// register-blocked body of the `matmul_nt` microkernel. Each column's
/// lane block sees exactly the per-column [`dot_lanes`] sequence, so
/// the unrolled and single-column paths produce identical bytes.
#[inline(always)]
fn dot_lanes_x4(x: &[f32], y0: &[f32], y1: &[f32], y2: &[f32], y3: &[f32]) -> [f32; 4] {
    let mut a0 = [0.0f32; LANES];
    let mut a1 = [0.0f32; LANES];
    let mut a2 = [0.0f32; LANES];
    let mut a3 = [0.0f32; LANES];
    let mut xc = x.chunks_exact(LANES);
    let mut c0 = y0.chunks_exact(LANES);
    let mut c1 = y1.chunks_exact(LANES);
    let mut c2 = y2.chunks_exact(LANES);
    let mut c3 = y3.chunks_exact(LANES);
    for ((((xb, b0), b1), b2), b3) in
        (&mut xc).zip(&mut c0).zip(&mut c1).zip(&mut c2).zip(&mut c3)
    {
        for l in 0..LANES {
            a0[l] += xb[l] * b0[l];
            a1[l] += xb[l] * b1[l];
            a2[l] += xb[l] * b2[l];
            a3[l] += xb[l] * b3[l];
        }
    }
    let (r0, r1, r2, r3) = (c0.remainder(), c1.remainder(), c2.remainder(), c3.remainder());
    for (l, &xv) in xc.remainder().iter().enumerate() {
        a0[l] += xv * r0[l];
        a1[l] += xv * r1[l];
        a2[l] += xv * r2[l];
        a3[l] += xv * r3[l];
    }
    [lane_sum(a0), lane_sum(a1), lane_sum(a2), lane_sum(a3)]
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

// ----- B-panel packing ------------------------------------------------

std::thread_local! {
    /// Per-thread reusable B-panel pack buffer for the tiled matmul.
    /// Minted lazily, grows monotonically to the largest panel a thread
    /// ever packs (`TILE_K * TILE_J` f32s = 128 KiB at most), and is
    /// reused for every subsequent call — the steady-state training
    /// step packs with zero heap traffic, which the train-step bench
    /// gate checks explicitly.
    static PACK_BUF: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's pack scratch, grown to at least `len`
/// floats. Growth is a once-per-thread event (see [`PACK_BUF`]);
/// steady-state calls are allocation-free.
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
/// contiguous run, reused across every 4-row block of the chunk.
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

/// Resolves the thread count for a kernel invocation: serial below
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

/// Row-partitioned dispatch for the dense kernels, with the same
/// oversubscription guard the sparse kernels inherit from their
/// `span_plan` route: dense rows are uniform, so the only planning
/// question is whether the requested threads will actually run
/// concurrently. Below two effective threads the row kernel runs
/// inline over the full range — no chunk planning, no pool handoff —
/// which is what turned the 1-CPU `matmul_tn` parallel cells from
/// "pay dispatch for nothing" into the serial path.
#[inline]
fn dense_rows_dispatch<F>(out: &mut [f32], rows: usize, threads: usize, f: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    let threads = par::effective_parallelism(threads);
    if threads <= 1 {
        f(0..rows, out);
        return;
    }
    par::for_each_row_chunk(out, rows, threads, f);
}

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
    matmul_rows_serial(a.data(), k, b.data(), n, 0..m, out.data_mut());
    out
}

/// Shared zeroed-target dispatch of [`matmul_with`] /
/// [`matmul_into_with`]: serial i-k-j below the work threshold,
/// packed-tiled otherwise, row-partitioned across the pool when more
/// than one effective thread will run.
fn matmul_dispatch(ad: &[f32], k: usize, bd: &[f32], n: usize, m: usize, threads: usize, out: &mut [f32]) {
    let threads = par::effective_parallelism(threads);
    if threads <= 1 {
        if m * k * n < PAR_MIN_WORK {
            matmul_rows_serial(ad, k, bd, n, 0..m, out);
        } else {
            matmul_rows_tiled(ad, k, bd, n, 0..m, out);
        }
        return;
    }
    par::for_each_row_chunk(out, m, threads, |rows, chunk| {
        matmul_rows_tiled(ad, k, bd, n, rows, chunk);
    });
}

/// `a * b` on an explicit number of threads (packed-tiled when
/// parallel or large).
pub fn matmul_with(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
    assert_matmul(a, b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    matmul_dispatch(a.data(), k, b.data(), n, m, threads, out.data_mut());
    out
}

/// `a * b` with the shared thread-count config (serial for small
/// shapes).
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_matmul(a, b);
    matmul_with(a, b, auto_threads(a.rows() * a.cols() * b.cols()))
}

/// Writes `a * b` into `dst` (overwriting every element — dirty arena
/// checkouts are fine) on an explicit number of threads: the
/// allocation-free form of [`matmul_with`], and the steady-state entry
/// point for the packed tiled path (the per-thread pack scratch is
/// minted once and reused — see `PACK_BUF`). Bitwise identical to
/// [`matmul_serial`].
pub fn matmul_into_with(dst: &mut Matrix, a: &Matrix, b: &Matrix, threads: usize) {
    assert_matmul(a, b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(dst.shape(), (m, n), "matmul_into: dst is {}x{}, product is {m}x{n}", dst.rows(), dst.cols());
    dst.data_mut().fill(0.0);
    matmul_dispatch(a.data(), k, b.data(), n, m, threads, dst.data_mut());
}

/// Computes output rows `rows` of `a (m x k) * b (k x n)` into the
/// row-aligned chunk `out` (`rows.len() x n`).
fn matmul_rows_serial(a: &[f32], k: usize, b: &[f32], n: usize, rows: Range<usize>, out: &mut [f32]) {
    for (local, i) in rows.enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[local * n..(local + 1) * n];
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

/// Cache-blocked, panel-packed variant of [`matmul_rows_serial`]:
/// identical accumulation order per output element (k-blocks advance
/// in k order, one add per k step into that element's accumulator —
/// held in a register tile loaded from / stored back to the output
/// row), so results are bitwise equal to the serial reference.
///
/// Per (k-tile, j-tile) the full [`LANES`]-wide column strips of `b`
/// are packed k-major into a per-thread scratch ([`pack_b_panel`]) and
/// streamed contiguously by the 4x8 register microkernel, reused
/// across every 4-row block of the chunk. Leftover rows run a 1x8
/// microkernel over the same panel; leftover columns (tile width not a
/// multiple of [`LANES`]) fall back to the plain streaming loop
/// straight from `b`, which accumulates in the same order.
fn matmul_rows_tiled(a: &[f32], k: usize, b: &[f32], n: usize, rows: Range<usize>, out: &mut [f32]) {
    let nrows = rows.len();
    if nrows == 0 || n == 0 || k == 0 {
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
                let mut local = 0usize;
                while local + MICRO_MR <= nrows {
                    let i = rows.start + local;
                    // Four disjoint output-row slices of the block's columns.
                    let (r0, rest) = out[local * n..].split_at_mut(n);
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
                    local += MICRO_MR;
                }
                for local in local..nrows {
                    let i = rows.start + local;
                    for s in 0..strips {
                        let js = j0 + s * LANES;
                        let panel = &pack[s * kt * LANES..(s + 1) * kt * LANES];
                        matmul_micro_1x8(a, k, i, k0..k1, panel, &mut out[local * n + js..local * n + js + LANES]);
                    }
                    if jt < j1 {
                        let arow = &a[i * k + k0..i * k + k1];
                        let orow = &mut out[local * n + jt..local * n + j1];
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
/// chunk. Same per-element order, same panel.
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

/// Accumulates `a^T * b` into `dst` on an explicit number of threads,
/// without materializing the transpose and allocating nothing. Output
/// rows (columns of `a`) are partitioned across workers.
///
/// The kernel streams partial sums into `dst` (one add per `i` step,
/// ascending), so **on a zeroed `dst` the result is bitwise
/// `matmul_serial(&a.transpose(), b)`** at every thread count — the
/// checkout pattern the autodiff tape uses ([`crate::arena`]). A
/// non-zero `dst` folds the partial sums into the existing values
/// progressively; callers needing the exact
/// materialize-then-`add_assign` float sequence on a non-zero target
/// should accumulate into a zeroed scratch checkout and `add_assign`
/// it, which is what the tape does.
pub fn matmul_tn_acc_with(dst: &mut Matrix, a: &Matrix, b: &Matrix, threads: usize) {
    assert_matmul_tn(a, b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(dst.shape(), (k, n), "matmul_tn_acc: dst is {}x{}, product is {k}x{n}", dst.rows(), dst.cols());
    let (ad, bd) = (a.data(), b.data());
    dense_rows_dispatch(dst.data_mut(), k, threads, |krows, chunk| {
        matmul_tn_rows(ad, m, k, bd, n, krows, chunk);
    });
}

/// Accumulates `a^T * b` into `dst` with the shared thread-count
/// config.
pub fn matmul_tn_acc(dst: &mut Matrix, a: &Matrix, b: &Matrix) {
    matmul_tn_acc_with(dst, a, b, auto_threads(a.rows() * a.cols() * b.cols()));
}

/// Computes output rows `krows` (columns of `a`) of `a^T (k x m) *
/// b (m x n)` into the chunk `out`. Per output element the accumulation
/// runs over `i` in increasing order, matching [`matmul_serial`] on the
/// explicit transpose.
fn matmul_tn_rows(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    krows: Range<usize>,
    out: &mut [f32],
) {
    // Accumulation runs over `i` in ascending order per output element
    // (matching the old streaming reference bytes exactly), but the
    // element now lives in a 4x8 register tile for the whole `i` sweep
    // — loaded from the output once, stored once — instead of
    // re-streaming the output rows through memory per `i`. The four
    // tile rows are adjacent columns of `a`; the eight tile columns
    // are one lane block of `b`'s row.
    let kn = krows.len();
    if kn == 0 || n == 0 {
        return;
    }
    let strips = n / LANES;
    let jt = strips * LANES;
    let mut local = 0usize;
    while local + MICRO_MR <= kn {
        let c = krows.start + local;
        let (r0, rest) = out[local * n..].split_at_mut(n);
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
        local += MICRO_MR;
    }
    for local in local..kn {
        let c = krows.start + local;
        let orow = &mut out[local * n..(local + 1) * n];
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

/// Writes `a * b^T` into `dst` (overwriting every element) on an
/// explicit number of threads, without materializing the transpose.
/// Every output element is an independent dot product in the canonical
/// lane order (see [`LANES`]), assigned once, so `dst`'s prior contents
/// never matter (dirty checkouts are fine) and the bytes are the same
/// at every thread count.
pub fn matmul_nt_into_with(dst: &mut Matrix, a: &Matrix, b: &Matrix, threads: usize) {
    assert_matmul_nt(a, b);
    let (m, k, p) = (a.rows(), a.cols(), b.rows());
    assert_eq!(dst.shape(), (m, p), "matmul_nt_into: dst is {}x{}, product is {m}x{p}", dst.rows(), dst.cols());
    let (ad, bd) = (a.data(), b.data());
    dense_rows_dispatch(dst.data_mut(), m, threads, |rows, chunk| {
        matmul_nt_rows(ad, k, bd, p, rows, chunk);
    });
}

/// Writes `a * b^T` into `dst` with the shared thread-count config.
pub fn matmul_nt_into(dst: &mut Matrix, a: &Matrix, b: &Matrix) {
    matmul_nt_into_with(dst, a, b, auto_threads(a.rows() * a.cols() * b.rows()));
}

/// Accumulates `a * b^T` into `dst` (`dst += a * b^T`) on an explicit
/// number of threads. Each output element's dot product is fully
/// accumulated in registers (exactly the [`matmul_nt_into_with`] lane
/// order) and then folded into `dst` with a single add — bitwise
/// identical to materializing the product and `add_assign`ing it, for
/// **any** `dst` contents, without allocating.
pub fn matmul_nt_acc_with(dst: &mut Matrix, a: &Matrix, b: &Matrix, threads: usize) {
    assert_matmul_nt(a, b);
    let (m, k, p) = (a.rows(), a.cols(), b.rows());
    assert_eq!(dst.shape(), (m, p), "matmul_nt_acc: dst is {}x{}, product is {m}x{p}", dst.rows(), dst.cols());
    let (ad, bd) = (a.data(), b.data());
    dense_rows_dispatch(dst.data_mut(), m, threads, |rows, chunk| {
        matmul_nt_acc_rows(ad, k, bd, p, rows, chunk);
    });
}

/// Accumulates `a * b^T` into `dst` with the shared thread-count
/// config.
pub fn matmul_nt_acc(dst: &mut Matrix, a: &Matrix, b: &Matrix) {
    matmul_nt_acc_with(dst, a, b, auto_threads(a.rows() * a.cols() * b.rows()));
}

/// Each output element is an independent [`dot_lanes`] dot product in
/// the canonical lane order; the 4×-unrolled body ([`dot_lanes_x4`])
/// computes four adjacent output columns per pass so `arow` is re-read
/// from registers/L1 instead of streamed once per column. Per-element
/// lane sequences are unchanged between the unrolled and remainder
/// paths, so they produce identical bytes.
fn matmul_nt_rows(a: &[f32], k: usize, b: &[f32], p: usize, rows: Range<usize>, out: &mut [f32]) {
    for (local, i) in rows.enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[local * p..(local + 1) * p];
        let mut j = 0usize;
        while j + MICRO_MR <= p {
            let d = dot_lanes_x4(
                arow,
                &b[j * k..(j + 1) * k],
                &b[(j + 1) * k..(j + 2) * k],
                &b[(j + 2) * k..(j + 3) * k],
                &b[(j + 3) * k..(j + 4) * k],
            );
            orow[j] = d[0];
            orow[j + 1] = d[1];
            orow[j + 2] = d[2];
            orow[j + 3] = d[3];
            j += MICRO_MR;
        }
        for j in j..p {
            orow[j] = dot_lanes(arow, &b[j * k..(j + 1) * k]);
        }
    }
}

/// The accumulate twin of [`matmul_nt_rows`]: identical lane dot
/// products (same 4× unroll, same canonical lane order), but the
/// fully-formed dot is *added* to the output element instead of
/// assigned — one add per element, matching the
/// materialize-then-`add_assign` float sequence exactly.
fn matmul_nt_acc_rows(a: &[f32], k: usize, b: &[f32], p: usize, rows: Range<usize>, out: &mut [f32]) {
    for (local, i) in rows.enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[local * p..(local + 1) * p];
        let mut j = 0usize;
        while j + MICRO_MR <= p {
            let d = dot_lanes_x4(
                arow,
                &b[j * k..(j + 1) * k],
                &b[(j + 1) * k..(j + 2) * k],
                &b[(j + 2) * k..(j + 3) * k],
                &b[(j + 3) * k..(j + 4) * k],
            );
            orow[j] += d[0];
            orow[j + 1] += d[1];
            orow[j + 2] += d[2];
            orow[j + 3] += d[3];
            j += MICRO_MR;
        }
        for j in j..p {
            orow[j] += dot_lanes(arow, &b[j * k..(j + 1) * k]);
        }
    }
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

/// Accumulates the sparse x dense product into `dst` on an explicit
/// number of threads, allocating nothing but the chunk plan. Output
/// rows are partitioned into nnz-balanced chunks, several per thread;
/// each CSR row is consumed by exactly one worker.
///
/// Each output row streams one add per stored entry, in ascending
/// entry order, so **on a zeroed `dst` the result is bitwise the plain
/// scalar loop over the CSR entries** at every thread count (the
/// tape's checkout pattern); accumulate into a zeroed scratch and
/// `add_assign` for the materialize-then-add float sequence on a
/// non-zero target.
pub fn spmm_acc_with(dst: &mut Matrix, csr: &Csr, dense: &Matrix, threads: usize) {
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
    let dd = dense.data();
    if threads <= 1 || csr.rows() == 0 {
        spmm_rows(csr, dd, d, 0..csr.rows(), dst.data_mut());
        return;
    }
    let ranges = span_plan(csr.indptr(), threads);
    par::for_each_row_chunk_ranges(dst.data_mut(), csr.rows(), &ranges, threads, |rows, chunk| {
        spmm_rows(csr, dd, d, rows, chunk);
    });
}

/// Accumulates the sparse x dense product into `dst` with the shared
/// thread-count config.
pub fn spmm_acc(dst: &mut Matrix, csr: &Csr, dense: &Matrix) {
    spmm_acc_with(dst, csr, dense, auto_threads(csr.nnz() * dense.cols()));
}

fn spmm_rows(csr: &Csr, dense: &[f32], d: usize, rows: Range<usize>, out: &mut [f32]) {
    // One lane-blocked axpy per entry: each output element still
    // receives exactly one add per entry, in ascending entry order, so
    // bytes are unchanged by the lane restructuring. (Unrolling across
    // entries would reassociate the per-element sums — deliberately
    // not done.)
    for (local, r) in rows.enumerate() {
        let (cols, vals) = csr.row(r);
        let orow = &mut out[local * d..(local + 1) * d];
        for (&c, &v) in cols.iter().zip(vals) {
            let drow = &dense[c as usize * d..(c as usize + 1) * d];
            axpy_lanes(orow, drow, v);
        }
    }
}

fn assert_spmm_t(csr: &Csr, dense: &Matrix) {
    assert_eq!(
        csr.rows(),
        dense.rows(),
        "spmm_t: row counts differ ({}x{} vs {}x{})",
        csr.rows(),
        csr.cols(),
        dense.rows(),
        dense.cols()
    );
}

/// Accumulates `csr^T * dense` into `dst` on an explicit number of
/// threads, allocating nothing beyond the chunk plan and the lazily
/// cached column-major index the parallel path streams.
///
/// Output rows correspond to CSR *columns*. On one thread this is the
/// plain scatter: each CSR row adds its dense row into the output rows
/// its entries name. On more, the call streams the matrix's
/// column-major companion index (`Csr::csc`, built once per matrix;
/// see [`Csr::prewarm_spmm_t`]): each output row is one contiguous
/// entry span, so a worker touches only its own columns' entries and a
/// hub column costs exactly its nnz; chunks are column-nnz-balanced.
/// Entries within a column are ordered by ascending CSR row, exactly
/// the scatter's accumulation order, so the bitwise contract is
/// [`spmm_acc_with`]'s: on a zeroed `dst`, the plain scalar loop over
/// the CSR entries, at every thread count.
pub fn spmm_t_acc_with(dst: &mut Matrix, csr: &Csr, dense: &Matrix, threads: usize) {
    assert_spmm_t(csr, dense);
    let d = dense.cols();
    assert_eq!(
        dst.shape(),
        (csr.cols(), d),
        "spmm_t_acc: dst is {}x{}, product is {}x{d}",
        dst.rows(),
        dst.cols(),
        csr.cols()
    );
    let dd = dense.data();
    // Decide with the parallelism the call will actually get — the same
    // count `Csr::prewarm_spmm_t` decides with, so a prewarmed index is
    // exactly the one a parallel call reads. A call the oversubscription
    // guard would run on one thread anyway takes the serial scatter
    // (each CSR row's dense operand stays register/L1-resident) and
    // never builds the index.
    let threads = par::effective_parallelism(threads);
    if threads <= 1 || csr.nnz() == 0 || d == 0 {
        spmm_t_scatter(csr, dd, d, dst.data_mut());
        return;
    }
    let csc = csr.csc();
    let ranges = span_plan(&csc.col_ptr, threads);
    par::for_each_row_chunk_ranges(dst.data_mut(), csr.cols(), &ranges, threads, |crange, chunk| {
        // Running split cursors instead of per-column range slicing: on
        // wide catalogs most columns hold zero or one entry, so
        // per-column bookkeeping (not arithmetic) is what this loop
        // mostly executes — keep it to one `split_at` per array per
        // column.
        let ptrs = &csc.col_ptr[crange.start..crange.end + 1];
        let last = ptrs.len() - 1;
        let mut rrows = &csc.rows[ptrs[0]..ptrs[last]];
        let mut rvals = &csc.values[ptrs[0]..ptrs[last]];
        for (orow, w) in chunk.chunks_exact_mut(d).zip(ptrs.windows(2)) {
            let take = w[1] - w[0];
            let (hr, tr) = rrows.split_at(take);
            let (hv, tv) = rvals.split_at(take);
            (rrows, rvals) = (tr, tv);
            for (&r, &v) in hr.iter().zip(hv) {
                let drow = &dd[r as usize * d..(r as usize + 1) * d];
                axpy_lanes(orow, drow, v);
            }
        }
    });
}

/// Accumulates `csr^T * dense` into `dst` with the shared thread-count
/// config.
pub fn spmm_t_acc(dst: &mut Matrix, csr: &Csr, dense: &Matrix) {
    spmm_t_acc_with(dst, csr, dense, auto_threads(csr.nnz() * dense.cols()));
}

/// The one-thread `spmm_t`: every CSR row scatters its dense row into
/// the output rows its entries name, rows ascending.
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

/// In-place `dst += src` on an explicit number of threads.
pub fn add_assign_with(dst: &mut Matrix, src: &Matrix, threads: usize) {
    assert_eq!(
        dst.shape(),
        src.shape(),
        "add_assign: shape mismatch {}x{} vs {}x{}",
        dst.rows(),
        dst.cols(),
        src.rows(),
        src.cols()
    );
    let n = dst.len();
    let sd = src.data();
    par::for_each_row_chunk(dst.data_mut(), n, threads, |range, chunk| {
        add_lanes(chunk, &sd[range]);
    });
}

/// In-place `dst += src` with the shared thread-count config. This is
/// the gradient-accumulation primitive of the autodiff tape.
pub fn add_assign(dst: &mut Matrix, src: &Matrix) {
    let work = dst.len();
    add_assign_with(dst, src, auto_threads(work));
}

// ----- fused in-place elementwise kernels -----------------------------
//
// The arena-backed backward pass replaces its allocate-then-combine
// pattern (`tmp = f(g); dst.add_assign(&tmp)`) with these fused forms.
// Every kernel below hands each output element exactly one
// fully-formed value (assigned by the `*_into` forms, folded in with a
// single add by the `*_acc`/axpy forms), so results are bitwise
// identical to the allocating two-step sequence at every thread count
// and for any destination contents. Elementwise work is
// embarrassingly parallel: chunks partition the flat buffer and any
// partition yields the same bytes.

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

/// In-place `dst += s * src` (axpy) on an explicit number of threads.
pub fn axpy_with(dst: &mut Matrix, src: &Matrix, s: f32, threads: usize) {
    assert_same_shape(dst, src, "axpy");
    let n = dst.len();
    let sd = src.data();
    par::for_each_row_chunk(dst.data_mut(), n, threads, |range, chunk| {
        axpy_lanes(chunk, &sd[range], s);
    });
}

/// In-place `dst += s * src` with the shared thread-count config.
pub fn axpy(dst: &mut Matrix, src: &Matrix, s: f32) {
    let work = dst.len();
    axpy_with(dst, src, s, auto_threads(work));
}

/// `dst = s * src` (overwriting every element, so dirty arena
/// checkouts are fine) on an explicit number of threads.
pub fn scale_into_with(dst: &mut Matrix, src: &Matrix, s: f32, threads: usize) {
    assert_same_shape(dst, src, "scale_into");
    let n = dst.len();
    let sd = src.data();
    par::for_each_row_chunk(dst.data_mut(), n, threads, |range, chunk| {
        scale_store_lanes(chunk, &sd[range], s);
    });
}

/// `dst = s * src` with the shared thread-count config.
pub fn scale_into(dst: &mut Matrix, src: &Matrix, s: f32) {
    let work = dst.len();
    scale_into_with(dst, src, s, auto_threads(work));
}

/// In-place `dst *= s` on an explicit number of threads.
pub fn scale_assign_with(dst: &mut Matrix, s: f32, threads: usize) {
    let n = dst.len();
    par::for_each_row_chunk(dst.data_mut(), n, threads, |_, chunk| {
        scale_lanes(chunk, s);
    });
}

/// In-place `dst *= s` with the shared thread-count config.
pub fn scale_assign(dst: &mut Matrix, s: f32) {
    let work = dst.len();
    scale_assign_with(dst, s, auto_threads(work));
}

/// `dst[i] = f(a[i], b[i])` (overwrites every element; dirty arena
/// checkouts are fine) on an explicit number of threads.
pub fn zip_map_into_with<F>(dst: &mut Matrix, a: &Matrix, b: &Matrix, f: F, threads: usize)
where
    F: Fn(f32, f32) -> f32 + Sync,
{
    assert_same_shape(dst, a, "zip_map_into");
    assert_same_shape(a, b, "zip_map_into");
    let n = dst.len();
    let (ad, bd) = (a.data(), b.data());
    par::for_each_row_chunk(dst.data_mut(), n, threads, |range, chunk| {
        // gnmr-analyze: allow(hot-alloc) -- Range<usize>::clone is a stack copy of two words, no heap traffic
        for ((o, &x), &y) in chunk.iter_mut().zip(&ad[range.clone()]).zip(&bd[range]) {
            *o = f(x, y);
        }
    });
}

/// `dst[i] = f(a[i], b[i])` with the shared thread-count config.
pub fn zip_map_into<F>(dst: &mut Matrix, a: &Matrix, b: &Matrix, f: F)
where
    F: Fn(f32, f32) -> f32 + Sync,
{
    let work = dst.len();
    zip_map_into_with(dst, a, b, f, auto_threads(work));
}

/// `dst[i] += f(a[i], b[i])` — one add of a fully-formed value per
/// element, bitwise-equal to materializing `f(a, b)` and
/// `add_assign`ing it — on an explicit number of threads.
pub fn zip_map_acc_with<F>(dst: &mut Matrix, a: &Matrix, b: &Matrix, f: F, threads: usize)
where
    F: Fn(f32, f32) -> f32 + Sync,
{
    assert_same_shape(dst, a, "zip_map_acc");
    assert_same_shape(a, b, "zip_map_acc");
    let n = dst.len();
    let (ad, bd) = (a.data(), b.data());
    par::for_each_row_chunk(dst.data_mut(), n, threads, |range, chunk| {
        // gnmr-analyze: allow(hot-alloc) -- Range<usize>::clone is a stack copy of two words, no heap traffic
        for ((o, &x), &y) in chunk.iter_mut().zip(&ad[range.clone()]).zip(&bd[range]) {
            *o += f(x, y);
        }
    });
}

/// `dst[i] += f(a[i], b[i])` with the shared thread-count config.
pub fn zip_map_acc<F>(dst: &mut Matrix, a: &Matrix, b: &Matrix, f: F)
where
    F: Fn(f32, f32) -> f32 + Sync,
{
    let work = dst.len();
    zip_map_acc_with(dst, a, b, f, auto_threads(work));
}

/// `dst = src^T` (overwrites every element) — the assign form of the
/// transpose backward contribution.
pub fn transpose_into(dst: &mut Matrix, src: &Matrix) {
    assert_eq!(
        (dst.rows(), dst.cols()),
        (src.cols(), src.rows()),
        "transpose_into: dst is {}x{}, transpose is {}x{}",
        dst.rows(),
        dst.cols(),
        src.cols(),
        src.rows()
    );
    let (r, c) = (src.rows(), src.cols());
    let sd = src.data();
    let dd = dst.data_mut();
    for i in 0..r {
        for j in 0..c {
            dd[j * r + i] = sd[i * c + j];
        }
    }
}

/// `dst += src^T` — one add of a fully-formed value per element,
/// bitwise-equal to materializing the transpose and `add_assign`ing.
pub fn transpose_acc(dst: &mut Matrix, src: &Matrix) {
    assert_eq!(
        (dst.rows(), dst.cols()),
        (src.cols(), src.rows()),
        "transpose_acc: dst is {}x{}, transpose is {}x{}",
        dst.rows(),
        dst.cols(),
        src.cols(),
        src.rows()
    );
    let (r, c) = (src.rows(), src.cols());
    let sd = src.data();
    let dd = dst.data_mut();
    for i in 0..r {
        for j in 0..c {
            dd[j * r + i] += sd[i * c + j];
        }
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

fn assert_row_dot(dst: &Matrix, a: &Matrix, b: &Matrix, op: &str) {
    assert_eq!(a.shape(), b.shape(), "{op}: operand shape mismatch");
    assert_eq!(dst.shape(), (a.rows(), 1), "{op}: dst must be {}x1", a.rows());
}

/// `dst[r, 0] = sum_c a[r, c] * b[r, c]` — the assign form of
/// `a.row_dot(b)`, each row a `dot_lanes` dot in the canonical lane
/// order (which `Matrix::row_dot` itself delegates to).
pub fn row_dot_into(dst: &mut Matrix, a: &Matrix, b: &Matrix) {
    assert_row_dot(dst, a, b, "row_dot_into");
    for r in 0..a.rows() {
        dst.data_mut()[r] = dot_lanes(a.row(r), b.row(r));
    }
}

/// `dst[r, 0] += sum_c a[r, c] * b[r, c]` — the fully-formed dot is
/// folded in with a single add per row, bitwise-equal to materializing
/// `a.row_dot(b)` and `add_assign`ing it.
pub fn row_dot_acc(dst: &mut Matrix, a: &Matrix, b: &Matrix) {
    assert_row_dot(dst, a, b, "row_dot_acc");
    for r in 0..a.rows() {
        dst.data_mut()[r] += dot_lanes(a.row(r), b.row(r));
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

/// Scatter-add: `dst.row(indices[o]) += src.row(o)` for every `o`, on
/// an explicit number of threads (this is the backward pass of
/// `gather_rows`).
///
/// The parallel path first buckets the source positions by destination
/// row with a stable counting sort (O(indices + rows), once per call),
/// so each worker touches only the updates landing in its own row
/// range — the old kernel re-scanned the whole index list per chunk,
/// which scaled with the thread count. Chunks are update-count
/// balanced, several per thread, so one hot embedding row drawing most
/// updates does not serialize the call. Duplicate
/// indices accumulate in their original order (the counting sort is
/// stable), so results are bitwise identical to the serial loop.
///
/// # Panics
/// If shapes disagree or any index is out of bounds.
pub fn scatter_add_rows_with(dst: &mut Matrix, indices: &[u32], src: &Matrix, threads: usize) {
    assert_eq!(src.rows(), indices.len(), "scatter_add_rows: index count mismatch");
    assert_eq!(src.cols(), dst.cols(), "scatter_add_rows: column count mismatch");
    let rows = dst.rows();
    for &idx in indices {
        assert!((idx as usize) < rows, "scatter_add_rows: index {idx} out of bounds for {rows} rows");
    }
    let d = dst.cols();
    let sd = src.data();
    if threads <= 1 || rows == 0 || indices.is_empty() {
        // Serial reference: straight scatter in source order. Per
        // destination row this is ascending source order — the same
        // order the bucketed parallel path replays.
        let dd = dst.data_mut();
        for (o, &idx) in indices.iter().enumerate() {
            let orow = &mut dd[idx as usize * d..(idx as usize + 1) * d];
            add_lanes(orow, &sd[o * d..(o + 1) * d]);
        }
        return;
    }
    // Bucket source positions by destination row, preserving source
    // order within each bucket (stable counting sort).
    let mut spans = vec![0usize; rows + 1];
    for &idx in indices {
        spans[idx as usize + 1] += 1;
    }
    for r in 0..rows {
        spans[r + 1] += spans[r];
    }
    let mut order = vec![0u32; indices.len()];
    let mut cursor = spans.clone();
    for (o, &idx) in indices.iter().enumerate() {
        order[cursor[idx as usize]] = o as u32;
        cursor[idx as usize] += 1;
    }
    let ranges = span_plan(&spans, threads);
    par::for_each_row_chunk_ranges(dst.data_mut(), rows, &ranges, threads, |range, chunk| {
        for r in range.clone() {
            let orow = &mut chunk[(r - range.start) * d..][..d];
            for &o in &order[spans[r]..spans[r + 1]] {
                add_lanes(orow, &sd[o as usize * d..(o as usize + 1) * d]);
            }
        }
    });
}

/// Scatter-add with the shared thread-count config.
pub fn scatter_add_rows(dst: &mut Matrix, indices: &[u32], src: &Matrix) {
    let work = indices.len() * dst.cols();
    scatter_add_rows_with(dst, indices, src, auto_threads(work));
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
// ties), WITHOUT sorting the full catalog. Two algorithms behind one
// entry point, both producing exactly the sequence a full
// `(score desc, index asc)` sort would — the order is total (ties are
// broken by the unique index), so the top-k sequence is unique and
// "same algorithm ⇒ same bytes" holds trivially across paths:
//
// * a bounded worst-at-root binary heap for small `k`: one comparison
//   against the current cutoff per candidate (O(n) total, almost all
//   failing fast) plus O(log k) maintenance per admitted candidate;
// * deterministic quickselect (median-of-three pivots, no entropy,
//   introsort-style depth bound collapsing to `sort_unstable_by`) once
//   `k` is a sizable fraction of the candidates, where per-candidate
//   heap maintenance would thrash.
//
// Scores are compared with `f32::total_cmp`, so NaNs are *ordered*
// (positive NaN above +inf) instead of poisoning the comparison the way
// the historical `partial_cmp().unwrap_or(Equal)` full sort did.

/// `k`-to-candidate ratio at which selection switches from the bounded
/// heap to quickselect: heap while `k * QUICKSELECT_RATIO < n`. At that
/// point roughly 1/8 of candidates displace the heap root, so expected
/// maintenance (`n/8 · log k`) starts rivaling quickselect's copy +
/// partition passes.
const QUICKSELECT_RATIO: usize = 8;

/// Reusable scratch for [`top_k_select_excluding`]. Mint one per
/// scoring thread (or one [`RankScratch`], which holds one) and
/// steady-state selection performs zero heap allocations: the buffer
/// grows to `max(k, candidates)` entries once and is reused thereafter.
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

/// Deterministic median-of-three pivot index for [`quickselect_topk`].
#[inline]
fn median_of_three(v: &[(u32, f32)], lo: usize, hi: usize) -> usize {
    let mid = lo + (hi - lo) / 2;
    let (a, b, c) = (v[lo], v[mid], v[hi - 1]);
    if sel_before(a, b) {
        if sel_before(b, c) {
            mid
        } else if sel_before(a, c) {
            hi - 1
        } else {
            lo
        }
    } else if sel_before(a, c) {
        lo
    } else if sel_before(b, c) {
        hi - 1
    } else {
        mid
    }
}

/// Partitions `v` so its first `k` slots hold the `k` best-ranked
/// candidates (in arbitrary order). Median-of-three pivots keep the
/// choice deterministic without entropy; an introsort-style depth bound
/// collapses pathological pivot runs to a guaranteed-`O(n log n)`
/// unstable sort. All keys are distinct under [`sel_before`] (the index
/// breaks every score tie), so no equal-key partition pathology exists.
fn quickselect_topk(v: &mut [(u32, f32)], k: usize) {
    let mut lo = 0usize;
    let mut hi = v.len();
    debug_assert!(k < hi);
    let mut depth = 2 * (usize::BITS - v.len().leading_zeros()) as usize;
    while hi - lo > 1 {
        if depth == 0 {
            v[lo..hi].sort_unstable_by(sel_cmp);
            return;
        }
        depth -= 1;
        let p = median_of_three(v, lo, hi);
        v.swap(p, hi - 1);
        let pivot = v[hi - 1];
        let mut store = lo;
        for i in lo..hi - 1 {
            if sel_before(v[i], pivot) {
                v.swap(i, store);
                store += 1;
            }
        }
        v.swap(store, hi - 1);
        // v[lo..store] rank before the pivot (now at `store`), the rest
        // after it.
        if k < store {
            hi = store;
        } else if k <= store + 1 {
            // The first k slots are exactly the k best.
            return;
        } else {
            lo = store + 1;
        }
    }
}

/// Core selection: fills `buf` with the top-`k` non-excluded candidates
/// in the deterministic `(score desc, index asc)` order. `exclude` must
/// be ascending (duplicates allowed); candidates are streamed in index
/// order against a single merge-walk cursor, so exclusion costs
/// O(n + e) regardless of list sizes.
fn select_into_buf(scores: &[f32], k: usize, exclude: &[u32], buf: &mut Vec<(u32, f32)>) {
    buf.clear();
    if k == 0 || scores.is_empty() {
        return;
    }
    let n = scores.len();
    let mut p = 0usize;
    if k.saturating_mul(QUICKSELECT_RATIO) < n {
        // Bounded heap: admit the first k candidates, then only those
        // ranking before the current worst (the root).
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
    } else {
        // k is a sizable fraction of the candidates: gather them all
        // and partial-select in place.
        for (i, &s) in scores.iter().enumerate() {
            let idx = i as u32;
            while p < exclude.len() && exclude[p] < idx {
                p += 1;
            }
            if p < exclude.len() && exclude[p] == idx {
                continue;
            }
            buf.push((idx, s));
        }
        if buf.len() > k {
            quickselect_topk(buf, k);
            buf.truncate(k);
        }
    }
    buf.sort_unstable_by(sel_cmp);
}

/// Top-`k` indices and scores of `scores`, in the deterministic
/// `(score desc, index asc)` order, via bounded partial selection —
/// O(n + k log k) instead of the full-catalog argsort — skipping the
/// ascending exclusion list `exclude` (seen items, training
/// interactions; pass `&[]` for none). Returns fewer than `k` entries
/// when fewer candidates remain; the result is exactly the prefix a
/// full `(score desc, index asc)` sort of the non-excluded candidates
/// would produce.
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
        for threads in [1, 2, 3, 4] {
            let got = matmul_with(&a, &b, threads);
            assert_eq!(got.data(), reference.data(), "threads={threads}");
        }
    }

    #[test]
    fn tiled_path_covers_multiple_blocks() {
        // Shapes straddling the tile sizes so the blocked loops execute
        // partial edge tiles.
        let a = mat(5, TILE_K + 3, 0.2);
        let b = mat(TILE_K + 3, TILE_J + 5, 0.4);
        let reference = matmul_serial(&a, &b);
        let got = matmul_with(&a, &b, 2);
        assert_eq!(got.data(), reference.data());
    }

    #[test]
    fn matmul_into_overwrites_dirty_dst() {
        let a = mat(7, 9, 0.2);
        let b = mat(9, 11, 0.5);
        let reference = matmul_serial(&a, &b);
        for threads in [1, 3] {
            let mut dst = Matrix::ones(7, 11);
            matmul_into_with(&mut dst, &a, &b, threads);
            assert_eq!(dst.data(), reference.data(), "threads={threads}");
        }
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose() {
        let a = mat(8, 6, 0.3);
        let b = mat(8, 5, 0.9);
        let mut tn = Matrix::zeros(6, 5);
        matmul_tn_acc_with(&mut tn, &a, &b, 3);
        assert!(tn.approx_eq(&a.transpose().matmul(&b), 1e-5));
        let c = mat(10, 6, 0.5);
        let mut nt = Matrix::ones(8, 10);
        matmul_nt_into_with(&mut nt, &a, &c, 3);
        assert!(nt.approx_eq(&a.matmul(&c.transpose()), 1e-5));
    }

    #[test]
    fn spmm_partition_is_exact() {
        let csr = Csr::from_triplets(
            6,
            5,
            &[(0, 1, 1.0), (0, 4, -2.0), (2, 0, 3.0), (2, 1, 0.5), (5, 4, 1.5), (5, 0, -1.0)],
        );
        let x = mat(5, 7, 0.6);
        let reference = csr.spmm(&x);
        for threads in [1, 2, 4] {
            let mut got = Matrix::zeros(6, 7);
            spmm_acc_with(&mut got, &csr, &x, threads);
            assert_eq!(got.data(), reference.data());
        }
        let xt = mat(6, 7, 0.8);
        let reference_t = csr.spmm_t(&xt);
        for threads in [1, 2, 4] {
            let mut got = Matrix::zeros(5, 7);
            spmm_t_acc_with(&mut got, &csr, &xt, threads);
            assert_eq!(got.data(), reference_t.data());
        }
    }

    #[test]
    fn scatter_add_duplicates_accumulate() {
        let mut dst = Matrix::zeros(4, 2);
        let src = mat(3, 2, 0.0);
        scatter_add_rows_with(&mut dst, &[1, 1, 3], &src, 4);
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
        assert_eq!(matmul_with(&a, &b, 4).shape(), (0, 4));
        let c = Matrix::zeros(3, 0);
        assert_eq!(matmul_with(&b.transpose(), &c, 4).shape(), (4, 0));
        let e = Csr::empty(0, 0);
        let mut y = Matrix::zeros(0, 2);
        spmm_acc_with(&mut y, &e, &Matrix::zeros(0, 2), 4);
        spmm_t_acc_with(&mut y, &e, &Matrix::zeros(0, 2), 4);
        assert_eq!(e.spmm(&Matrix::zeros(0, 2)).shape(), (0, 2));
    }
}
