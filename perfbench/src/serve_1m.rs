//! `serve_1m`: the memory-bound catalog sweep. A seeded synthetic index
//! at the trained representation width (48 = 16 × 3 orders) over 10^6
//! items — a 192 MB item matrix, far beyond any cache — and 4,096 users
//! with 32 sorted excludes each. Two clients, one per core, each send
//! 2-user `recommend_batch_into` requests (k = 10) in a closed loop to a
//! 1-thread pool, so each sweeps on its own core. Serving cost depends
//! only on shapes, so nothing is trained here.

use std::thread;
use std::time::Instant;

use gnmr_serve::{ExcludeLists, ServeIndex};
use gnmr_tensor::{init, par, rng, Matrix};

use crate::report::{median, metric, peak_rss_mb, Layers, Outcome};
use crate::serving::{
    self, all_users, closed_loop, request_stream, seeded_exclude_rows, Kept, LoopStats, Parts, ServeBreakdown, K,
};
use crate::trace::{self, median_ms, Tracer};
use crate::Args;

/// Pool threads. One: each client's requests run on its own core. Each
/// of the measuring host's two cores slows down independently of the
/// other, and a request split over both waits for the slower one.
const THREADS: usize = 1;
/// Clients side by side, one per core; the faster one's figures are
/// reported.
const CLIENTS: usize = 2;
const USERS: usize = 4096;
const CATALOG: usize = 1_000_000;
const DIM: usize = 48;
const EXCLUDES: usize = 32;
const REQUEST_USERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests per client per `--seconds` (one takes ~60–70 ms, so the
/// loop measures for about half of `--seconds`), and the floor that
/// keeps at least 10 samples beyond p95.
const REQUESTS_PER_SECOND: usize = 8;
const MIN_REQUESTS: usize = 220;
/// Requests per client checked against the full-sort reference (each
/// check sorts the whole catalog twice).
const CHECKED_REQUESTS: usize = 2;
const WARMUP_REQUESTS: usize = 4;

/// The index's matrices and seen-item rows: a pure function of the seed.
fn inputs(seed: u64) -> (Matrix, Matrix, Vec<Vec<u32>>) {
    (
        init::uniform(USERS, DIM, -1.0, 1.0, &mut rng::substream(seed, 1)),
        init::uniform(CATALOG, DIM, -1.0, 1.0, &mut rng::substream(seed, 2)),
        seeded_exclude_rows(seed, USERS, CATALOG, EXCLUDES),
    )
}

/// Requests per client.
fn requests(args: &Args) -> usize {
    (REQUESTS_PER_SECOND * args.seconds as usize).max(MIN_REQUESTS)
}

/// Every client's requests, one after the other.
fn stream(args: &Args) -> Vec<u32> {
    request_stream(args.seed, &all_users(USERS), REQUEST_USERS, CLIENTS * requests(args))
}

/// Serves a few requests so every pool thread has minted its
/// catalog-sized scratch before the clock starts.
fn warm_up(index: &ServeIndex, excludes: &ExcludeLists, stream: &[u32]) {
    let mut out = vec![(0u32, 0.0f32); REQUEST_USERS * K];
    for users in stream.chunks(REQUEST_USERS).take(WARMUP_REQUESTS) {
        index.recommend_batch_into(users, K, excludes, &mut out);
    }
}

pub fn run(args: &Args) -> Outcome {
    par::set_threads(Some(THREADS));
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

fn untraced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let stream = stream(args);
    let requests = requests(args);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        let (user_repr, item_repr, rows) = inputs(args.seed);
        let excludes = ExcludeLists::from_rows(&rows);
        let index = ServeIndex::new(user_repr, item_repr);
        warm_up(&index, &excludes, &stream);
        setups.push(t.elapsed().as_secs_f64());
        state = Some((index, excludes));
    }
    let (index, excludes) = state.expect("at least one set-up");
    let every = requests / CHECKED_REQUESTS;
    let clients: Vec<(LoopStats, Kept)> = thread::scope(|s| {
        let handles: Vec<_> = stream
            .chunks(requests * REQUEST_USERS)
            .map(|part| {
                let (index, excludes) = (&index, &excludes);
                s.spawn(move || {
                    warm_up(index, excludes, part);
                    closed_loop(index, excludes, part, REQUEST_USERS, 1, |i| i % every == 0)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let peak = peak_rss_mb();
    drop(index);
    // The reference reads the same matrices, rebuilt from the seed once
    // the index is gone, so the check adds no resident memory.
    let (user_repr, item_repr, _) = inputs(args.seed);
    let parts = Parts { user_repr: &user_repr, item_repr: &item_repr, excludes: &excludes };
    let mut rounds = Vec::new();
    for ((stats, kept), part) in clients.into_iter().zip(stream.chunks(requests * REQUEST_USERS)) {
        serving::check_kept(&mut out, &parts, part, REQUEST_USERS, &kept);
        rounds.extend(stats.rounds);
    }
    let stats = LoopStats { rounds };

    out.metrics.push(metric("setup_s", "s", median(&setups)));
    out.metrics.push(metric("phase_s", "s", stats.fastest().wall_s));
    stats.report(&mut out);
    out.metrics.push(metric("peak_rss_mb", "MiB", peak));
    out.detail.push(metric("error_rate", "fraction", out.checks.error_rate()));
    out.provenance.extend(shapes(requests));
    out.provenance.push(("setup_repeats", SETUPS.to_string()));
    out.provenance.push(("clients", CLIENTS.to_string()));
    out.provenance.push(("checked_requests", (CLIENTS * requests.div_ceil(every)).to_string()));
    out
}

fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let requests = requests(args);
    let stream = &stream(args)[..requests * REQUEST_USERS];
    let (user_repr, item_repr, rows) = inputs(args.seed);
    // The replica and the reference read these; the index gets its own
    // copy, as it would from a snapshot.
    let (u, v) = (user_repr.clone(), item_repr.clone());
    let tracer = Tracer::new();
    let span = tracer.begin("serve.index_build", None, 0);
    let excludes = ExcludeLists::from_rows(&rows);
    let index = ServeIndex::new(u, v);
    tracer.end(span);
    warm_up(&index, &excludes, stream);
    let parts = Parts { user_repr: &user_repr, item_repr: &item_repr, excludes: &excludes };
    let check_every = (requests / 2 / CHECKED_REQUESTS).max(1);
    let served = serving::traced_serving(&tracer, &mut out, &index, &parts, stream, REQUEST_USERS, check_every);

    let spans = tracer.into_spans();
    trace::save(&mut out, args, &spans);
    let serve = ServeBreakdown::from_spans(&spans, (CATALOG * DIM * 4) as f64, REQUEST_USERS.div_ceil(THREADS));
    serve.detail(served.untraced_ms, &mut out);
    out.metrics = Layers {
        shares: trace::layer_shares(&spans),
        serve,
        index_build_ms: median_ms(&spans, "serve.index_build"),
        forward_allocs: 0,
        backward_allocs: 0,
        batch_allocs: served.batch_allocs,
        bytes_written: 0,
        reloads: 0,
        reload_failures: 0,
        overhead_pct: (serve.batch_ms / served.untraced_ms - 1.0) * 100.0,
        reconcile_pct: serve.reconcile_pct,
    }
    .into_metrics();
    out.provenance.extend(shapes(requests));
    out
}

fn shapes(requests: usize) -> Vec<(&'static str, String)> {
    vec![
        ("users", USERS.to_string()),
        ("items", CATALOG.to_string()),
        ("dim", DIM.to_string()),
        ("excludes_per_user", EXCLUDES.to_string()),
        ("request_users", REQUEST_USERS.to_string()),
        ("requests", requests.to_string()),
        ("k", K.to_string()),
    ]
}
