//! Serving-path benchmarks: batched top-k throughput (users/sec) at
//! catalog sizes 10^5–10^7, plus the **exact allocation count** of a
//! steady-state batch request.
//!
//! Like the other families it runs on `gnmr_bench::harness`. It builds
//! a synthetic frozen [`ServeIndex`] (seeded uniform
//! representations — serving cost depends only on shapes, not on how
//! the embeddings were trained; the index packs the item matrix into
//! 8-row strips in place as it is built) and drives the batched
//! scoring path `recommend_batch_into_with`: each worker reads the
//! catalog's strips once for all of its users, scores each strip
//! against each user with `matmul_nt`'s inner loop, and streams the
//! scores into that user's top-k heap, which lives in the caller's
//! output slice. Batch sizes shrink as catalogs grow so a measurement
//! iteration stays near constant work.
//!
//! The `serve_alloc` row is the inference-side arena discipline made
//! checkable: after one warmup request (which mints each worker's
//! per-user selection state), a batch request must perform **zero**
//! heap allocations. Counts come from the counting global allocator and
//! are exact integers, so the CI `--regression-gate` compares them
//! directly — no timing noise on a shared 1-CPU runner.
//!
//! Run with `cargo bench -p gnmr-bench --bench serve`. `-- --quick-smoke`
//! short-runs the smallest catalog and leaves the archive untouched;
//! `-- --regression-gate` re-measures the steady-state allocation count
//! against the committed `serve_alloc` row in `results/bench_serve.json`.

use std::hint::black_box;

use gnmr::prelude::*;
use gnmr::tensor::{init, par, rng};
use gnmr_bench::harness::{self, Budget, Mode, Reading};

/// Representation width (sum over propagation orders; 16 matches the
/// default config's `dim` at one order and keeps the 10^7 catalog at
/// 640 MB of f32s).
const DIM: usize = 16;

/// Users known to the index; batches stride through this pool.
const N_USERS: usize = 2048;

/// Top-k size per request.
const K: usize = 10;

/// Excluded (already-seen) items per user — exercises the sorted-merge
/// exclusion walk at a realistic interaction-history size.
const EXCLUDES_PER_USER: usize = 32;

/// Thread counts measured per catalog (the container has 1 CPU; the
/// 2-thread cell measures dispatch + partitioning overhead, as in the
/// kernels family).
const THREAD_COUNTS: [usize; 2] = [1, 2];

/// Target wall-clock per measurement cell.
const TARGET_MS: u128 = 300;

/// Minimum batches per timed block.
const MIN_ITERS: u128 = 2;

/// `(catalog, batch)` cells: batch sizes shrink with catalog so one
/// iteration stays near-constant work (~2.5e7 user·item pairs).
const CELLS: [(usize, usize); 3] = [(100_000, 256), (1_000_000, 64), (10_000_000, 8)];

struct Record {
    catalog: usize,
    batch: usize,
    threads: usize,
    ns_per_user: u128,
    users_per_sec: u128,
}

struct Workload {
    index: ServeIndex,
    excludes: ExcludeLists,
    users: Vec<u32>,
    out: Vec<(u32, f32)>,
}

fn workload(catalog: usize, batch: usize) -> Workload {
    let mut r = rng::seeded(0x5e7e + catalog as u64);
    let user_repr = init::uniform(N_USERS, DIM, -1.0, 1.0, &mut r);
    let item_repr = init::uniform(catalog, DIM, -1.0, 1.0, &mut r);
    let index = ServeIndex::new(user_repr, item_repr);
    // Deterministic pseudo-random interaction histories (duplicates are
    // fine — the exclusion walk tolerates them).
    let rows: Vec<Vec<u32>> = (0..N_USERS as u64)
        .map(|u| {
            (0..EXCLUDES_PER_USER as u64)
                .map(|j| ((u.wrapping_mul(2_654_435_761).wrapping_add(j.wrapping_mul(40_503))) % catalog as u64) as u32)
                .collect()
        })
        .collect();
    let excludes = ExcludeLists::from_rows(&rows);
    let users: Vec<u32> = (0..batch).map(|i| ((i * 977) % N_USERS) as u32).collect();
    let out = vec![(0u32, 0.0f32); batch * K];
    Workload { index, excludes, users, out }
}

/// One batch request at `threads`.
fn serve_batch(w: &mut Workload, threads: usize) {
    w.index.recommend_batch_into_with(&w.users, K, &w.excludes, &mut w.out, threads);
    black_box(&w.out);
}

/// Allocation count of one batch request after per-thread scratch
/// warmup, at 1 thread (the profile the committed baseline records).
/// Must be 0: the per-user selection state is minted by the warmup call
/// and reused forever after, and the heaps live in the output rows.
fn steady_batch_allocs(w: &mut Workload) -> u64 {
    harness::steady_allocations(|| serve_batch(w, 1))
}

/// `--regression-gate`: re-measures the steady-state allocation count
/// of a warm batch request and fails (exit 1) if it exceeds the
/// committed `serve_alloc` row in `results/bench_serve.json`. Counts
/// are exact (the committed baseline is 0), so any regression is a real
/// allocation reintroduced into the serving hot path — a dropped
/// scratch reuse, an accidental per-request Vec, a selection path that
/// forgot its buffer.
fn regression_gate() -> ! {
    let baseline = harness::baseline("bench_serve.json", &[("op", "serve_alloc")], "allocs_per_batch");
    // Pin one thread so the measured profile is exactly the serial one
    // the baseline recorded, regardless of the runner's GNMR_THREADS.
    par::set_threads(Some(1));
    let (catalog, batch) = CELLS[0];
    let fresh = steady_batch_allocs(&mut workload(catalog, batch));
    println!("serve allocation gate: catalog {catalog}, batch {batch}, k {K}, 1 thread");
    harness::finish_gate(
        "serve allocation gate",
        &[Reading { what: "warm batch request allocs", base: baseline, fresh: fresh.into(), budget: Budget::Exact }],
    )
}

fn main() {
    let mode = Mode::from_args();
    if mode == Mode::RegressionGate {
        regression_gate();
    }
    let smoke = mode == Mode::QuickSmoke;
    let timer = mode.timer(TARGET_MS, MIN_ITERS);

    println!(
        "serve benches — machine parallelism: {}{}",
        par::hardware_threads(),
        if smoke { " (quick smoke — smallest catalog only)" } else { "" }
    );

    // Smoke runs only the smallest catalog: the larger indexes take
    // seconds just to construct, and the smoke's job is to exercise the
    // dispatch/scratch/selection machinery, not to produce numbers.
    let cells: &[(usize, usize)] = if smoke { &CELLS[..1] } else { &CELLS };

    let mut records = Vec::new();
    let mut alloc_cell = (0usize, 0usize, 0u64);
    for &(catalog, batch) in cells {
        let mut w = workload(catalog, batch);
        if catalog == CELLS[0].0 {
            alloc_cell = (catalog, batch, steady_batch_allocs(&mut w));
        }
        let best: [u128; THREAD_COUNTS.len()] =
            timer.min_of_rounds(|cell| timer.block(&mut || serve_batch(&mut w, THREAD_COUNTS[cell])));
        for (ti, &t) in THREAD_COUNTS.iter().enumerate() {
            let ns_per_user = best[ti] / batch as u128;
            records.push(Record {
                catalog,
                batch,
                threads: t,
                ns_per_user,
                users_per_sec: 1_000_000_000 / ns_per_user.max(1),
            });
        }
    }

    println!("\n{:<12} {:>8} {:>8} {:>14} {:>14}", "catalog", "batch", "threads", "ns/user", "users/sec");
    for r in &records {
        println!(
            "{:<12} {:>8} {:>8} {:>14} {:>14}",
            r.catalog, r.batch, r.threads, r.ns_per_user, r.users_per_sec
        );
    }
    let (ac, ab, allocs) = alloc_cell;
    println!("\nsteady-state batch request (catalog {ac}, batch {ab}, 1 thread): {allocs} allocs");
    if allocs == 0 {
        println!("steady-state serving is allocation-free ✓");
    } else {
        println!("WARNING: steady-state serving performs {allocs} allocations per batch");
    }

    let mut rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"op\": \"serve_batch\", \"catalog\": {}, \"dim\": {DIM}, \"batch\": {}, \
                 \"k\": {K}, \"threads\": {}, \"ns_per_user\": {}, \"users_per_sec\": {}}}",
                r.catalog, r.batch, r.threads, r.ns_per_user, r.users_per_sec
            )
        })
        .collect();
    rows.push(format!(
        "{{\"op\": \"serve_alloc\", \"catalog\": {ac}, \"dim\": {DIM}, \"batch\": {ab}, \
         \"k\": {K}, \"threads\": 1, \"allocs_per_batch\": {allocs}}}"
    ));
    harness::archive(mode, "bench_serve.json", &rows);
}
