//! Training-step benchmarks: wall-clock **and exact allocation counts**
//! for the tape backward + optimizer path, before/after the buffer
//! arena.
//!
//! Like the other families it runs on `gnmr_bench::harness`. It drives
//! the real GNMR training step (`Gnmr::step_loss`, the loss `Gnmr::fit`
//! steps on, then the arena-backed backward and fused Adam) on a small
//! fixed dataset and batch, in two variants:
//!
//! * `fresh_arena` — a new arena and gradient map every step. Every
//!   backward buffer is a fresh heap allocation, reproducing the
//!   pre-arena allocate-per-op behavior (the **before** row).
//! * `steady_arena` — one arena and gradient map across all steps, the
//!   way `Gnmr::fit` holds them. After the first warm-up step the
//!   backward + optimizer region must perform **zero** heap
//!   allocations (the **after** row).
//!
//! Allocation counts come from the counting global allocator installed
//! by `gnmr_bench::alloc`, taken as a before/after delta around the
//!   `grads_into` → `clip` → `opt.step` region. Counts are exact
//! integers, so `results/bench_train_step.json` rows are comparable
//! across machines — which is why the CI allocation gate
//! (`--regression-gate`) checks *counts*, not timings, and stays
//! stable on a shared 1-CPU container.
//!
//! Run with `cargo bench -p gnmr-bench --bench train_step`.
//! `-- --quick-smoke` short-runs every cell and leaves the archive
//! untouched; `-- --regression-gate` re-measures the steady-state
//! allocation count, at one pool thread and again at two, and fails if
//! either exceeds the committed baseline, or if the forward allocates
//! more at two pool threads than at one.

use std::hint::black_box;

use gnmr::autograd::{Adam, Arena, Ctx, Grads};
use gnmr::graph::{BatchSampler, TrainBatch};
use gnmr::prelude::*;
use gnmr::tensor::{init, kernels, par, rng, Matrix};
use gnmr_bench::alloc;
use gnmr_bench::harness::{self, Budget, Mode, Reading};

/// Target wall-clock per measurement cell.
const TARGET_MS: u128 = 300;

/// Minimum calls per timed block.
const MIN_ITERS: u128 = 5;

/// Steps run before measuring the steady-state variant (warms the
/// arena, the gradient map, and Adam's moment buffers).
const WARMUP_STEPS: usize = 3;

struct Record {
    variant: &'static str,
    ns_per_iter: u128,
    allocs_backward_opt: u64,
}

/// The fixed training workload: a tiny MovieLens-like model plus one
/// pre-sampled batch, so every measured step does identical work.
struct Workload {
    model: Gnmr,
    batch: TrainBatch,
    opt: Adam,
}

fn workload() -> Workload {
    let data = gnmr::data::presets::tiny_movielens(3);
    let cfg = GnmrConfig { pretrain: false, seed: 7, ..GnmrConfig::default() };
    let model = Gnmr::new(&data.graph, cfg);
    let sampler = BatchSampler::new(&data.graph);
    let tcfg = TrainConfig::fast_test();
    let mut rng = gnmr::tensor::rng::substream(7, 0x7212);
    let batch = sampler.sample(tcfg.batch_users, tcfg.samples_per_user, &mut rng);
    assert!(!batch.is_empty(), "train_step bench: empty batch");
    let opt = Adam::new(tcfg.lr).with_weight_decay(tcfg.weight_decay);
    Workload { model, batch, opt }
}

/// One training step on `Gnmr::fit`'s loss, returning the allocation
/// delta of the backward + optimizer region.
fn train_step(w: &mut Workload, arena: &Arena, grads: &mut Grads) -> u64 {
    let mut ctx = Ctx::new(w.model.params());
    let loss = w.model.step_loss(&mut ctx, &w.batch);

    let before = alloc::allocations();
    ctx.grads_into(loss, arena, grads);
    drop(ctx);
    grads.clip_global_norm(5.0);
    w.opt.step(w.model.params_mut(), grads);
    alloc::allocations() - before
}

/// Runs the steady-arena workload to a settled state and returns the
/// allocation count of one steady step. Shared by the bench rows and
/// the regression gate.
fn steady_state_allocs(w: &mut Workload, arena: &Arena, grads: &mut Grads) -> u64 {
    let mut allocs = 0;
    for _ in 0..WARMUP_STEPS {
        allocs = train_step(w, arena, grads);
    }
    allocs
}

/// The packed-matmul probe: `matmul_acc` runs the B-panel-packed tiled
/// kernel, whose pack scratch is a once-per-thread thread-local.
/// 256x96 * 96x128 packs 16 full 8-wide strips. Its steady state (the
/// one `Gnmr::fit` sees) must allocate nothing.
fn pack_workload() -> (Matrix, Matrix, Matrix) {
    let a = init::uniform(256, 96, -1.0, 1.0, &mut rng::seeded(31));
    let b = init::uniform(96, 128, -1.0, 1.0, &mut rng::seeded(32));
    let dst = Matrix::zeros(256, 128);
    (a, b, dst)
}

/// Heap allocations of one warm forward: `Ctx::new` plus
/// `Gnmr::step_loss`, the values `fit`'s step builds before its
/// backward.
fn forward_allocs(w: &Workload) -> u64 {
    harness::steady_allocations(|| {
        let mut ctx = Ctx::new(w.model.params());
        black_box(w.model.step_loss(&mut ctx, &w.batch));
    })
}

/// `--regression-gate`: re-measures the steady-state allocation count
/// of the backward + optimizer region, at one pool thread and at two,
/// and of the packed tiled matmul path (whose pack scratch is minted
/// once per thread), and fails (exit 1) if any exceeds its committed
/// row in `results/bench_train_step.json`. Counts are exact (the
/// committed baselines are 0), so this gate is immune to timing noise
/// and machine class — any regression is a real allocation someone
/// reintroduced into the hot path. A fourth reading pins that the
/// forward does not dispatch: its allocations at two pool threads must
/// equal the count at one thread taken in the same run (a forward
/// kernel that dispatched would add its chunk plan and the pool's job
/// per call).
fn regression_gate() -> ! {
    let file = "bench_train_step.json";
    let baseline = harness::baseline(file, &[("variant", "steady_arena")], "allocs_backward_opt");
    let pack_baseline = harness::baseline(file, &[("variant", "steady_matmul_pack")], "allocs_backward_opt");
    // Pin one thread: an explicit override keeps kernel dispatch inline
    // so the measurement is exactly the serial allocation profile the
    // baseline recorded, regardless of the runner's GNMR_THREADS.
    par::set_threads(Some(1));
    let mut w = workload();
    let arena = Arena::new();
    let mut grads = Grads::default();
    let fresh = steady_state_allocs(&mut w, &arena, &mut grads);
    let forward_one = forward_allocs(&w);
    // The same readings at two pool threads (a kernel that dispatched
    // would allocate its chunk plan and the pool's job). Training's
    // kernels run on the calling thread, so neither the backward region
    // nor the forward may allocate more than at one thread.
    par::set_threads(Some(2));
    let fresh_two = steady_state_allocs(&mut w, &arena, &mut grads);
    let forward_two = forward_allocs(&w);
    par::set_threads(Some(1));
    let (pa, pb, mut pdst) = pack_workload();
    let pack_fresh = harness::steady_allocations(|| kernels::matmul_acc(&mut pdst, &pa, &pb));
    harness::finish_gate(
        "allocation gate",
        &[
            Reading {
                what: "steady-state backward + optimizer allocs/step (1 thread)",
                base: baseline,
                fresh: fresh.into(),
                budget: Budget::Exact,
            },
            Reading {
                what: "steady-state backward + optimizer allocs/step (2 threads)",
                base: baseline,
                fresh: fresh_two.into(),
                budget: Budget::Exact,
            },
            Reading {
                what: "packed matmul allocs/warm call",
                base: pack_baseline,
                fresh: pack_fresh.into(),
                budget: Budget::Exact,
            },
            Reading {
                what: "forward allocs/step at 2 threads (base: 1 thread, this run)",
                base: forward_one.into(),
                fresh: forward_two.into(),
                budget: Budget::Exact,
            },
        ],
    )
}

fn main() {
    let mode = Mode::from_args();
    if mode == Mode::RegressionGate {
        regression_gate();
    }
    let smoke = mode == Mode::QuickSmoke;
    let timer = mode.timer(TARGET_MS, MIN_ITERS);

    // One thread, like the gate's first reading; training's kernels run
    // on the calling thread at any count, and dispatch-overhead
    // comparisons belong to the kernels bench.
    par::set_threads(Some(1));
    println!(
        "train_step benches — machine parallelism: {} (measuring at 1 thread){}",
        par::hardware_threads(),
        if smoke { " (quick smoke)" } else { "" }
    );

    // Before variant: a cold arena every step reproduces the historical
    // allocate-per-op backward (every gradient buffer minted fresh).
    // After variant: the fit-shaped steady state — one arena, one
    // gradient map, buffers recycled forever. Both are measured in
    // interleaved rounds, plus the packed-matmul probe; each step
    // cell keeps the allocation count of its last step.
    let mut w_fresh = workload();
    let mut w_steady = workload();
    let arena = Arena::new();
    let mut grads = Grads::default();
    let warm = steady_state_allocs(&mut w_steady, &arena, &mut grads);
    let (pa, pb, mut pdst) = pack_workload();
    let pack_allocs = harness::steady_allocations(|| kernels::matmul_acc(&mut pdst, &pa, &pb));

    let mut fresh_allocs = 0;
    let mut steady_allocs = 0;
    let best: [u128; 3] = timer.min_of_rounds(|cell| match cell {
        0 => timer.block(&mut || {
            let arena = Arena::new();
            let mut grads = Grads::default();
            fresh_allocs = black_box(train_step(&mut w_fresh, &arena, &mut grads));
        }),
        1 => timer.block(&mut || steady_allocs = black_box(train_step(&mut w_steady, &arena, &mut grads))),
        _ => timer.block(&mut || {
            kernels::matmul_acc(&mut pdst, &pa, &pb);
            black_box(&pdst);
        }),
    });
    assert_eq!(warm, steady_allocs, "steady state drifted between warm-up and measurement");
    let records = [
        Record { variant: "fresh_arena", ns_per_iter: best[0], allocs_backward_opt: fresh_allocs },
        Record { variant: "steady_arena", ns_per_iter: best[1], allocs_backward_opt: steady_allocs },
        Record { variant: "steady_matmul_pack", ns_per_iter: best[2], allocs_backward_opt: pack_allocs },
    ];

    println!("\n{:<18} {:>14} {:>22}", "variant", "ns/step", "allocs (bwd+opt)/step");
    for r in &records {
        println!("{:<18} {:>14} {:>22}", r.variant, r.ns_per_iter, r.allocs_backward_opt);
    }
    if steady_allocs == 0 && pack_allocs == 0 {
        println!("\nsteady-state backward + optimizer (and packed matmul) is allocation-free ✓");
    } else {
        println!(
            "\nWARNING: steady-state allocations — backward+opt {steady_allocs}, packed matmul {pack_allocs}"
        );
    }

    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"op\": \"train_step\", \"variant\": \"{}\", \"threads\": 1, \
                 \"ns_per_iter\": {}, \"allocs_backward_opt\": {}}}",
                r.variant, r.ns_per_iter, r.allocs_backward_opt
            )
        })
        .collect();
    harness::archive(mode, "bench_train_step.json", &rows);
}
