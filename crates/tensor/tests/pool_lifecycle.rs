//! Lifecycle tests for the persistent worker pool and property tests
//! for `par::partition`. Every case drives the pool through
//! `par::for_each_row_chunk`, its one dispatch entry point: most score
//! a catalog with one `kernels::dot` per row ([`scores_at`]), the
//! skewed cases multiply a power-law CSR row by row ([`spmm_at`]).
//!
//! The pool is process-global, so every test that observes or mutates
//! its size serializes on [`POOL_LOCK`] — tests in this binary may run
//! on parallel test threads, and worker counts would otherwise race.
//! (Other test binaries run as separate processes with their own
//! pools.)

use std::sync::Mutex;

use gnmr_tensor::{kernels, par, Csr, Matrix};
use proptest::prelude::*;

static POOL_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A deterministic `rows x cols` catalog and a query to score it with.
fn catalog(rows: usize, cols: usize, seed: f32) -> (Matrix, Vec<f32>) {
    let m = Matrix::from_fn(rows, cols, |r, c| {
        ((r * 13 + c * 31) as f32 * 0.017 + seed).sin()
    });
    let q = (0..cols)
        .map(|c| ((c * 7) as f32 * 0.029 - seed).cos())
        .collect();
    (m, q)
}

/// The serial scores of `catalog`: one `kernels::dot` per row.
fn serial_scores(m: &Matrix, q: &[f32]) -> Vec<f32> {
    (0..m.rows()).map(|r| kernels::dot(m.row(r), q)).collect()
}

/// The same scores with the rows split over `threads` participants by
/// `par::for_each_row_chunk`; any split gives [`serial_scores`]' bytes.
fn scores_at(m: &Matrix, q: &[f32], threads: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m.rows()];
    par::for_each_row_chunk(&mut out, m.rows(), threads, |range, chunk| {
        for (o, r) in chunk.iter_mut().zip(range) {
            *o = kernels::dot(m.row(r), q);
        }
    });
    out
}

proptest! {
    #[test]
    fn partition_invariants(rows in 0usize..5000, parts in 0usize..64) {
        let ranges = par::partition(rows, parts);
        // Empty input -> no ranges at all (not a spurious 0..0 chunk).
        if rows == 0 {
            prop_assert!(ranges.is_empty());
            return Ok(());
        }
        // Never more ranges than rows or than requested parts.
        prop_assert!(ranges.len() <= rows);
        prop_assert!(ranges.len() <= parts.max(1));
        // Contiguous, disjoint, covering 0..rows in order.
        let mut next = 0;
        for r in &ranges {
            prop_assert_eq!(r.start, next, "gap or overlap at {:?}", r);
            prop_assert!(r.end > r.start, "empty range {:?}", r);
            next = r.end;
        }
        prop_assert_eq!(next, rows);
        // Balanced within one row.
        let min = ranges.iter().map(|r| r.len()).min().unwrap();
        let max = ranges.iter().map(|r| r.len()).max().unwrap();
        prop_assert!(max - min <= 1, "unbalanced: min {} max {}", min, max);
    }
}

#[test]
fn hundred_calls_reuse_one_pool() {
    // One pool instance must survive (and stay correct across) many
    // dispatches: reuse/teardown bugs — stale queue entries, lost
    // wakeups, worker leakage — show up as wrong bytes or a hang here.
    let _g = lock();
    let (m, q) = catalog(37, 53, 0.0);
    let reference = serial_scores(&m, &q);
    let _ = scores_at(&m, &q, 4); // warm: pool exists hereafter
    let workers_before = par::pool_workers();
    for call in 0..100 {
        let got = scores_at(&m, &q, 4);
        assert_eq!(got, reference, "call {call} diverged");
    }
    assert_eq!(par::pool_workers(), workers_before, "pool leaked or lost workers across calls");
}

/// How many distinct threads ran the chunks of one 64-row dispatch at
/// `threads` participants. Each chunk records its thread's id and then
/// lasts a millisecond, long enough for every worker the dispatch woke
/// to claim a chunk, so a dispatch that woke too many would show them.
fn threads_used(threads: usize) -> usize {
    let ids = Mutex::new(Vec::new());
    let mut data = vec![0u8; 64];
    par::for_each_row_chunk(&mut data, 64, threads, |_range, _chunk| {
        let id = std::thread::current().id();
        {
            let mut ids = ids.lock().unwrap();
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    });
    ids.into_inner().unwrap().len()
}

#[test]
fn explicit_dispatch_runs_on_at_most_its_participants() {
    // The pool never shrinks, so the participant count is enforced per
    // dispatch: a narrow dispatch right after a wider one grew the pool
    // still runs on at most its own participants.
    let _g = lock();
    par::set_threads(Some(6));
    for t in [6usize, 2, 3, 6, 1] {
        for _ in 0..20 {
            let used = threads_used(t);
            assert!(used <= t, "a dispatch at {t} participants ran on {used} threads");
        }
    }
    par::set_threads(None);
}

#[test]
fn clearing_the_override_keeps_the_implicit_cap() {
    // Under implicit configuration (`GNMR_THREADS` or the hardware
    // default) a dispatch wakes at most `hardware_threads() - 1`
    // workers, even when an explicit override grew the pool past that
    // before it was cleared. The cap binds only when `GNMR_THREADS`
    // exceeds the core count, so CI also runs this binary with it two
    // above `nproc`.
    let _g = lock();
    par::set_threads(Some(par::hardware_threads() + 2));
    let _ = threads_used(par::num_threads()); // grows the pool past the cap
    par::set_threads(None);
    let t = par::num_threads();
    let cap = t.min(par::hardware_threads());
    for _ in 0..20 {
        let used = threads_used(t);
        assert!(used <= cap, "an implicit dispatch at {t} participants ran on {used} threads, cap {cap}");
    }
}

#[test]
fn nested_parallel_calls_complete_and_match() {
    // A chunk closure that itself dispatches must neither deadlock nor
    // change bytes: a nested call queues like any other dispatch and
    // completes because its caller drains its own chunks.
    let _g = lock();
    let rows = 32;
    let width = 16;
    let mut nested = vec![0u32; rows * width];
    par::for_each_row_chunk(&mut nested, rows, 4, |range, chunk| {
        let local_rows = range.len();
        par::for_each_row_chunk(chunk, local_rows, 4, |inner, inner_chunk| {
            for (local, r) in inner.enumerate() {
                let global = range.start + r;
                for v in &mut inner_chunk[local * width..(local + 1) * width] {
                    *v = global as u32 * 7 + 1;
                }
            }
        });
    });
    let mut serial = vec![0u32; rows * width];
    for r in 0..rows {
        for v in &mut serial[r * width..(r + 1) * width] {
            *v = r as u32 * 7 + 1;
        }
    }
    assert_eq!(nested, serial);
}

/// `csr * x` row by row on `threads` participants. Each output row
/// adds its entries in order into a zeroed row, so every thread count
/// gives `csr.spmm(x)`'s bytes.
fn spmm_at(csr: &Csr, x: &Matrix, threads: usize) -> Matrix {
    let (rows, d) = (csr.rows(), x.cols());
    let mut out = Matrix::zeros(rows, d);
    par::for_each_row_chunk(out.data_mut(), rows, threads, |range, chunk| {
        for (local, r) in range.enumerate() {
            let (cols, vals) = csr.row(r);
            let orow = &mut chunk[local * d..(local + 1) * d];
            for (&c, &v) in cols.iter().zip(vals) {
                for (o, &xv) in orow.iter_mut().zip(x.row(c as usize)) {
                    *o += v * xv;
                }
            }
        }
    });
    out
}

/// A deterministic skewed CSR: row 3 owns ~90% of the entries and the
/// column draw is log-uniform, so the chunk holding the hub row is far
/// heavier than the others.
fn skewed_csr() -> Csr {
    let mut triplets = Vec::with_capacity(1200);
    for i in 0..1200u32 {
        let r = if i % 10 < 9 { 3 } else { (i * 37) % 80 };
        let c = (((i as f32 * 0.913).sin().abs() * 4.5).exp() as u32).min(59);
        triplets.push((r, c, ((i as f32) * 0.11).cos()));
    }
    Csr::from_triplets(80, 60, &triplets)
}

#[test]
fn skewed_dispatch_self_drains_with_no_free_workers() {
    // A skewed dispatch obeys the same zero-worker bound as any
    // other: job notifications pushed to the pool are capped by
    // the workers actually alive, and the dispatching caller claims
    // chunks until none remain, so a dispatch completes even when no
    // worker ever shows up (the model checker's `zero-workers`
    // scenario runs that case with spawning failing). Observable here:
    // a threads=1 call stays inline and must not grow the pool; wider
    // calls grow it on demand and still produce serial bytes.
    let _g = lock();
    let csr = skewed_csr();
    let x = Matrix::from_fn(60, 8, |r, c| ((r * 7 + c) as f32 * 0.05).sin());
    let reference = csr.spmm(&x);
    par::set_threads(Some(3));
    let before = par::pool_workers();

    // threads=1: inline, no growth, no queue traffic.
    assert_eq!(spmm_at(&csr, &x, 1).data(), reference.data());
    assert_eq!(par::pool_workers(), before, "a width-1 call must not grow the pool");

    // A wider dispatch grows the pool on demand (the set_threads
    // override is active, so the hardware cap on implicit growth does
    // not apply) and the bytes still match serial exactly.
    assert_eq!(spmm_at(&csr, &x, 3).data(), reference.data());
    assert!(par::pool_workers() <= before.max(2), "skewed dispatch over-grew the pool");

    par::set_threads(None);
}

#[test]
fn skewed_callers_drain_their_own_plans_on_a_starved_pool() {
    // Two live workers, four concurrent dispatchers each cutting three
    // chunks: most notifications wait behind another caller's job, so
    // each caller finishes only by claiming the chunks no worker took.
    // A caller that stopped claiming early would hang here; wrong claim
    // bookkeeping would corrupt bytes.
    let _g = lock();
    par::set_threads(Some(2));
    let csr = skewed_csr();
    let x = Matrix::from_fn(60, 8, |r, c| ((r * 3 + c) as f32 * 0.06).sin());
    let reference = csr.spmm(&x);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..20 {
                    assert_eq!(spmm_at(&csr, &x, 3).data(), reference.data());
                }
            });
        }
    });
    par::set_threads(None);
}

#[test]
fn nested_skewed_calls_complete() {
    // A skewed dispatch issued from inside a pool worker queues behind
    // the busy workers like any nested call and completes by draining
    // its own chunks, with the serial bytes.
    let _g = lock();
    let csr = skewed_csr();
    let x = Matrix::from_fn(60, 4, |r, c| ((r + c) as f32 * 0.02).sin());
    let reference = csr.spmm(&x);
    let results = std::sync::Mutex::new(Vec::new());
    let mut outer = vec![0u8; 4];
    par::for_each_row_chunk(&mut outer, 4, 4, |_range, _chunk| {
        let inner = spmm_at(&csr, &x, 4);
        results.lock().unwrap().push(inner);
    });
    for (i, got) in results.into_inner().unwrap().iter().enumerate() {
        assert_eq!(got.data(), reference.data(), "nested call {i} diverged");
    }
}

#[test]
fn pool_survives_concurrent_dispatchers() {
    // Several caller threads sharing the one pool must each get their
    // own correct results (jobs are independent; notifications are
    // advisory).
    let _g = lock();
    let (m, q) = catalog(48, 32, 0.75);
    let reference = serial_scores(&m, &q);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..25 {
                    assert_eq!(scores_at(&m, &q, 3), reference);
                }
            });
        }
    });
}
