//! Lifecycle tests for the persistent worker pool and property tests
//! for `par::partition`. The pool's callers are the ranking sweeps, so
//! most cases dispatch `kernels::row_dots_with`; the fine-plan cases
//! drive `par::for_each_row_chunk_ranges` directly.
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

/// A deterministic `rows x cols` catalog and a query for `row_dots`.
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
    let _ = kernels::row_dots_with(&m, &q, 4); // warm: pool exists hereafter
    let workers_before = par::pool_workers();
    for call in 0..100 {
        let got = kernels::row_dots_with(&m, &q, 4);
        assert_eq!(got, reference, "call {call} diverged");
    }
    assert_eq!(par::pool_workers(), workers_before, "pool leaked or lost workers across calls");
}

#[test]
fn pool_resizes_with_set_threads() {
    let _g = lock();
    let (m, q) = catalog(24, 8, 0.5);
    let reference = kernels::row_dots_with(&m, &q, 1);

    // Normalize: if an earlier test grew the pool past 3 workers, this
    // shrinks it; if the pool does not exist yet, it is a no-op and the
    // dispatch below lazily spawns exactly the workers it needs (the
    // caller itself runs one chunk).
    par::set_threads(Some(4));
    assert_eq!(kernels::row_dots_with(&m, &q, 4), reference);
    assert_eq!(par::pool_workers(), 3);

    // Shrinks retire and join surplus workers immediately...
    par::set_threads(Some(2));
    assert_eq!(par::pool_workers(), 1);
    // ...and the shrunken pool still computes the right bytes.
    assert_eq!(kernels::row_dots_with(&m, &q, 2), reference);
    assert_eq!(par::pool_workers(), 1, "a 2-chunk dispatch must not grow a 1-worker pool");

    // An explicit wider dispatch grows the pool on demand. (The
    // hardware-parallelism cap on dispatch-driven growth does not
    // apply here: a programmatic set_threads override is active, and
    // explicit overrides are honored exactly so this suite exercises
    // the full cross-thread machinery on any machine.)
    assert_eq!(kernels::row_dots_with(&m, &q, 4), reference);
    assert_eq!(par::pool_workers(), 3);

    // Raising the configured count grows unconditionally once the pool
    // exists: set_threads is the explicit override and provisions
    // exactly what was asked for.
    par::set_threads(Some(2));
    assert_eq!(par::pool_workers(), 1);
    par::set_threads(Some(4));
    assert_eq!(par::pool_workers(), 3);

    par::set_threads(None);
    assert_eq!(kernels::row_dots_with(&m, &q, 2), reference);
}

#[test]
fn nested_parallel_calls_run_inline_and_match() {
    // A chunk closure that itself dispatches must neither deadlock nor
    // change bytes: nested calls run inline on the worker.
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

#[test]
fn concurrent_resize_and_dispatch_do_not_hang() {
    // Regression test: retirement is by token, not worker identity. An
    // id-based scheme deadlocks here — a shrink waits on a specific
    // worker while a concurrent dispatch re-raises the target, so that
    // worker never observes retirement. Tokens are counted, any worker
    // can acknowledge one, and grows cancel pending tokens, so this
    // must run to completion at every interleaving.
    let _g = lock();
    let (m, q) = catalog(40, 24, 0.25);
    let reference = serial_scores(&m, &q);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for i in 0..40 {
                    par::set_threads(Some(1 + (i % 4)));
                }
            });
        }
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..40 {
                    assert_eq!(kernels::row_dots_with(&m, &q, 4), reference);
                }
            });
        }
    });
    par::set_threads(None);
}

/// `csr * x` row by row on `threads` over a fine plan: `par::partition`
/// cut four chunks per thread, claimed one at a time. Each output row
/// adds its entries in order into a zeroed row, so every plan and
/// thread count gives `csr.spmm(x)`'s bytes.
fn spmm_at(csr: &Csr, x: &Matrix, threads: usize) -> Matrix {
    let (rows, d) = (csr.rows(), x.cols());
    let mut out = Matrix::zeros(rows, d);
    let plan = par::partition(rows, threads * 4);
    par::for_each_row_chunk_ranges(out.data_mut(), rows, &plan, threads, |range, chunk| {
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
/// heavier than the rest of a fine plan.
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
    // A fine plan obeys the same zero-worker bound as any
    // other dispatch: job notifications pushed to the pool are capped by
    // the workers actually alive, and the dispatching caller claims
    // chunks until none remain, so a dispatch completes even when no
    // worker ever shows up. Observable half of that contract: with the
    // pool shrunk to zero workers, a threads=1 call stays inline and
    // must not grow the pool or park notifications nobody will pop;
    // wider calls grow on demand and still produce serial bytes.
    let _g = lock();
    let csr = skewed_csr();
    let x = Matrix::from_fn(60, 8, |r, c| ((r * 7 + c) as f32 * 0.05).sin());
    let reference = csr.spmm(&x);

    let (m, q) = catalog(16, 8, 0.0);
    let _ = kernels::row_dots_with(&m, &q, 4); // pool exists
    par::set_threads(Some(1));
    assert_eq!(par::pool_workers(), 0, "set_threads(1) must retire every worker");

    // threads=1: inline, no growth, no queue traffic.
    assert_eq!(spmm_at(&csr, &x, 1).data(), reference.data());
    assert_eq!(par::pool_workers(), 0, "a width-1 call must not grow a drained pool");

    // A wider dispatch grows the pool on demand (the set_threads
    // override is active, so the hardware cap on implicit growth does
    // not apply) and the bytes still match serial exactly.
    assert_eq!(spmm_at(&csr, &x, 3).data(), reference.data());
    assert!(par::pool_workers() <= 2, "skewed dispatch over-grew the pool");

    par::set_threads(None);
}

#[test]
fn skewed_callers_drain_their_own_plans_on_a_starved_pool() {
    // One live worker, four concurrent dispatchers each cutting several
    // chunks per thread: most notifications never reach a
    // worker, so each caller finishes only by claiming the chunks no
    // worker took. A caller that stopped claiming early would hang
    // here; wrong claim bookkeeping would corrupt bytes.
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
fn nested_skewed_calls_run_inline() {
    // A fine-plan dispatch issued from inside a pool worker must run
    // inline (serial chunk order) rather than re-entering the queue —
    // same rule as any nested call, same bytes.
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
                    assert_eq!(kernels::row_dots_with(&m, &q, 3), reference);
                }
            });
        }
    });
}
