//! `serve_reload`: writes beside reads on the serving layer. Two seeded
//! model generations at 2·10^4 items (3.8 MB of item rows, cache
//! resident) and 4,096 users. A client thread serves a fixed number of
//! 16-user requests from `ServeHandle::index()` in a closed loop on a
//! 1-thread pool while the deployer (this thread) cycles the generations
//! until the client is done: `ModelSnapshot::save`,
//! `ServeHandle::reload_from_path`, then the first batch on the new
//! generation. Every batch must equal exactly one generation's reference.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Instant;

use gnmr_bench::alloc::allocations;
use gnmr_serve::{ExcludeLists, ModelSnapshot, ServeHandle, ServeIndex};
use gnmr_tensor::fio::{self, FaultPlan};
use gnmr_tensor::{init, kernels, par, rng};

use crate::check::{reference_row, row_equals};
use crate::pair;
use crate::report::{median, metric, out_dir, peak_rss_mb, percentile, Layers, Outcome};
use crate::serving::{
    self, all_users, request_stream, seeded_exclude_rows, LoopStats, Parts, RoundClock, ServeBreakdown, K,
};
use crate::trace::{self, median_ms, record, Span, Tracer};
use crate::Args;

const USERS: usize = 4096;
const CATALOG: usize = 20_000;
const DIM: usize = 48;
const EXCLUDES: usize = 32;
const REQUEST_USERS: usize = 16;
/// Distinct users the client draws from, which bounds the post-run
/// reference check to a few hundred full sorts per generation.
const HOT_USERS: usize = 256;
/// Requests in the client's stream; it wraps around.
const STREAM_REQUESTS: usize = 4096;
/// Pairs of set-ups per run, each pair side by side; `setup_s` is the
/// median over pairs of the faster set-up.
const SETUP_PAIRS: usize = 8;
/// Client requests per `--seconds` (one takes ~5 ms beside the deployer).
const REQUESTS_PER_SECOND: usize = 150;
/// Requests per client round (~1.2 s), the fewest that put at least 10
/// beyond the round's p95. The fastest round gives `users_per_s` and
/// `latency_p95_ms`; short rounds catch the quiet spells between the
/// host's slow ones, which come and go over a few seconds.
const ROUND_REQUESTS: usize = 220;
/// Deploy cycles (~35 ms each) per timed round; `phase_s` is the fastest
/// complete round.
const CYCLES_PER_ROUND: usize = 20;
/// The deployer runs at least this many cycles, however fast the client.
const MIN_CYCLES: usize = 2 * CYCLES_PER_ROUND;
/// Client request ids start here, above every deploy cycle id.
const CLIENT_IDS: u64 = 1 << 32;

/// The deploy cycle's stages: span name and detail-line name.
const STAGES: [(&str, &str); 7] = [
    ("serve.encode", "serve.encode_ms"),
    ("fio.write", "fio.write_ms"),
    ("fio.read", "fio.read_ms"),
    ("serve.decode", "serve.decode_ms"),
    ("serve.index_build", "serve.index_build_ms"),
    ("serve.swap", "serve.swap_ms"),
    ("serve.first_batch", "serve.first_batch_ms"),
];

/// The two generations, the shared exclusion lists, the serving handle
/// and the client's request stream.
struct World {
    gens: [ModelSnapshot; 2],
    excludes: ExcludeLists,
    handle: ServeHandle,
    stream: Vec<u32>,
}

fn generation(seed: u64, which: u64) -> ModelSnapshot {
    ModelSnapshot::new(
        Vec::new(),
        init::uniform(USERS, DIM, -1.0, 1.0, &mut rng::substream(seed, 10 + which)),
        init::uniform(CATALOG, DIM, -1.0, 1.0, &mut rng::substream(seed, 20 + which)),
    )
}

fn build(seed: u64) -> World {
    let gens = [generation(seed, 0), generation(seed, 1)];
    let excludes = ExcludeLists::from_rows(&seeded_exclude_rows(seed, USERS, CATALOG, EXCLUDES));
    let handle = ServeHandle::new(ServeIndex::from_snapshot(&gens[0]));
    let hot = request_stream(seed ^ 0x407, &all_users(USERS), 1, HOT_USERS);
    let stream = request_stream(seed, &hot, REQUEST_USERS, STREAM_REQUESTS);
    let mut out = vec![(0u32, 0.0f32); REQUEST_USERS * K];
    for users in stream.chunks(REQUEST_USERS).take(4) {
        handle.index().recommend_batch_into(users, K, &excludes, &mut out);
    }
    World { gens, excludes, handle, stream }
}

impl World {
    fn request(&self, i: usize) -> &[u32] {
        let r = i % STREAM_REQUESTS;
        &self.stream[r * REQUEST_USERS..(r + 1) * REQUEST_USERS]
    }

    fn parts(&self, gen: usize) -> Parts<'_> {
        Parts { user_repr: self.gens[gen].user_repr(), item_repr: self.gens[gen].item_repr(), excludes: &self.excludes }
    }

    /// Which generation an index serves, told apart by one score.
    fn generation_of(&self, index: &ServeIndex) -> usize {
        let gen0 = kernels::dot(self.gens[0].user_repr().row(0), self.gens[0].item_repr().row(0));
        usize::from(index.score(0, 0).to_bits() != gen0.to_bits())
    }
}

/// What the client thread saw.
struct ClientLog {
    stats: LoopStats,
    /// Every served batch, `REQUEST_USERS * K` entries each, in order.
    served: Vec<(u32, f32)>,
    /// Traced requests whose replica disagreed with the real call.
    replica_mismatches: Vec<usize>,
}

/// One client in a closed loop of `requests` requests on
/// `ServeHandle::index()`. With a tracer, every odd request is traced.
fn run_client(w: &World, requests: usize, tracer: Option<&Tracer>) -> ClientLog {
    let mut served = Vec::with_capacity(requests * REQUEST_USERS * K);
    let mut replica_mismatches = Vec::new();
    let mut out = vec![(0u32, 0.0f32); REQUEST_USERS * K];
    let mut twin = out.clone();
    let mut clock = RoundClock::new(requests, (requests / ROUND_REQUESTS).max(1));
    for i in 0..requests {
        let users = w.request(i);
        let t = Instant::now();
        let index = w.handle.index();
        match tracer.filter(|_| i % 2 == 1) {
            None => index.recommend_batch_into(users, K, &w.excludes, &mut out),
            Some(tracer) => {
                let parts = w.parts(w.generation_of(&index));
                let id = CLIENT_IDS + i as u64;
                if !serving::traced_request(tracer, id, &index, &parts, users, &mut out, &mut twin) {
                    replica_mismatches.push(i);
                }
            }
        }
        clock.served(users.len(), t.elapsed().as_secs_f64() * 1e3);
        served.extend_from_slice(&out);
    }
    ClientLog { stats: clock.finish(), served, replica_mismatches }
}

/// What the deployer did.
#[derive(Default)]
struct Deploys {
    /// Save start to first batch answered by the new generation, per
    /// successful cycle.
    cycle_ms: Vec<f64>,
    /// Whether each successful cycle was traced.
    traced: Vec<bool>,
    /// The generation each successful cycle deployed, and its first batch.
    first: Vec<(usize, Vec<(u32, f32)>)>,
    failures: Vec<String>,
    bytes_written: u64,
    /// Wall-clock of each complete round of `CYCLES_PER_ROUND` cycles.
    rounds_s: Vec<f64>,
}

impl Deploys {
    fn cycles(&self) -> usize {
        self.cycle_ms.len() + self.failures.len()
    }
}

/// Deploy cycles until the client is `done`, and at least `MIN_CYCLES`.
/// With a tracer, every odd cycle is traced.
fn run_deployer(w: &World, path: &Path, done: &AtomicBool, tracer: Option<&Tracer>) -> Deploys {
    let mut d = Deploys::default();
    let mut out = vec![(0u32, 0.0f32); REQUEST_USERS * K];
    let mut round = Instant::now();
    // ORDERING: Acquire pairs with the client's Release store, so the
    // deployer stops after the client's last request.
    while d.cycles() < MIN_CYCLES || !done.load(Ordering::Acquire) {
        let c = d.cycles();
        let next = (c + 1) % 2;
        let t = Instant::now();
        let traced = tracer.filter(|_| c % 2 == 1);
        let result = match traced {
            None => deploy(w, next, path, &mut out).map(|()| 0),
            Some(tracer) => deploy_traced(tracer, c as u64, w, next, path, &mut out),
        };
        match result {
            Ok(bytes) => {
                d.cycle_ms.push(t.elapsed().as_secs_f64() * 1e3);
                d.traced.push(traced.is_some());
                d.first.push((next, out.clone()));
                d.bytes_written = d.bytes_written.max(bytes as u64);
            }
            Err(e) => d.failures.push(format!("cycle {c}: {e}")),
        }
        if d.cycles() % CYCLES_PER_ROUND == 0 {
            d.rounds_s.push(round.elapsed().as_secs_f64());
            round = Instant::now();
        }
    }
    d
}

/// One deploy cycle: save generation `next`, reload it from the file,
/// answer the first batch on it.
fn deploy(w: &World, next: usize, path: &Path, out: &mut [(u32, f32)]) -> Result<(), String> {
    w.gens[next].save(path).map_err(|e| format!("save: {e}"))?;
    w.handle.reload_from_path(path).map_err(|e| e.to_string())?;
    w.handle.index().recommend_batch_into(w.request(0), K, &w.excludes, out);
    Ok(())
}

/// [`deploy`] split into the calls `ModelSnapshot::save` and
/// `ServeHandle::reload_from_path` make — `to_bytes` and
/// `fio::atomic_write`; `fio::read_bytes`, `from_bytes`,
/// `ServeIndex::from_snapshot` and `ServeHandle::reload` — with a span
/// around each. Returns the bytes written.
fn deploy_traced(
    tracer: &Tracer,
    c: u64,
    w: &World,
    next: usize,
    path: &Path,
    out: &mut [(u32, f32)],
) -> Result<usize, String> {
    let cycle = tracer.begin("serve.cycle", None, c);
    let (t, p) = (Some(tracer), Some(cycle));
    let result = (|| -> Result<usize, String> {
        let bytes = record(t, "serve.encode", p, c, true, || w.gens[next].to_bytes());
        record(t, "fio.write", p, c, true, || fio::atomic_write(path, &bytes, &mut FaultPlan::none()))
            .map_err(|e| format!("write: {e}"))?;
        let read = record(t, "fio.read", p, c, true, || fio::read_bytes(path, &mut FaultPlan::none()))
            .map_err(|e| format!("read: {e}"))?;
        let snapshot = record(t, "serve.decode", p, c, true, || ModelSnapshot::from_bytes(&read))
            .map_err(|e| format!("decode: {e}"))?;
        let index = record(t, "serve.index_build", p, c, true, || ServeIndex::from_snapshot(&snapshot));
        record(t, "serve.swap", p, c, true, || w.handle.reload(index)).map_err(|e| e.to_string())?;
        record(t, "serve.first_batch", p, c, true, || {
            w.handle.index().recommend_batch_into(w.request(0), K, &w.excludes, out)
        });
        Ok(bytes.len())
    })();
    tracer.end(cycle);
    result
}

/// Tells the deployer to stop when the client finishes, even by panicking.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        // ORDERING: Release pairs with the deployer's Acquire load.
        self.0.store(true, Ordering::Release);
    }
}

/// The client's `requests` on a thread of their own beside deploy cycles
/// on this one; both threads end before this returns.
fn phase(w: &World, path: &Path, requests: usize, tracer: Option<&Tracer>) -> (ClientLog, Deploys) {
    let done = AtomicBool::new(false);
    thread::scope(|scope| {
        let client = scope.spawn(|| {
            let _stop = StopOnDrop(&done);
            run_client(w, requests, tracer)
        });
        let deploys = run_deployer(w, path, &done, tracer);
        (client.join().expect("client thread panicked"), deploys)
    })
}

/// Memoized full-sort references per (generation, user).
struct References<'a> {
    world: &'a World,
    memo: BTreeMap<(usize, u32), Vec<(u32, f32)>>,
}

impl References<'_> {
    /// Whether a served batch equals generation `gen`'s reference for
    /// every user.
    fn batch_is(&mut self, gen: usize, users: &[u32], served: &[(u32, f32)]) -> bool {
        let w = self.world;
        users.iter().zip(served.chunks(K)).all(|(&u, row)| {
            let reference = self.memo.entry((gen, u)).or_insert_with(|| {
                let snap = &w.gens[gen];
                reference_row(snap.item_repr(), snap.user_repr().row(u as usize), w.excludes.row(u as usize), K)
            });
            row_equals(row, reference)
        })
    }
}

/// Every client batch must equal exactly one generation's reference, and
/// every cycle's first batch the generation just deployed.
fn verify(out: &mut Outcome, w: &World, client: &ClientLog, deploys: &Deploys) {
    let mut refs = References { world: w, memo: BTreeMap::new() };
    for (i, served) in client.served.chunks(REQUEST_USERS * K).enumerate() {
        let users = w.request(i);
        let one_generation = refs.batch_is(0, users, served) || refs.batch_is(1, users, served);
        let replica = client.replica_mismatches.binary_search(&i).is_err();
        out.checks.record(one_generation && replica, || {
            format!("client request {i}: not exactly one generation's reference, or the replica disagrees")
        });
    }
    for (c, (gen, served)) in deploys.first.iter().enumerate() {
        out.checks.record(refs.batch_is(*gen, w.request(0), served), || {
            format!("deploy {c}: first batch is not generation {gen}")
        });
    }
    for failure in &deploys.failures {
        out.checks.record(false, || failure.clone());
    }
}

pub fn run(args: &Args) -> Outcome {
    par::set_threads(Some(1));
    let path = out_dir().join(format!("serve_reload-{}.snap", std::process::id()));
    let out = if args.trace { traced(args, &path) } else { untraced(args, &path) };
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(fio::temp_path(&path));
    out
}

fn requests(args: &Args) -> usize {
    (REQUESTS_PER_SECOND * args.seconds as usize).max(ROUND_REQUESTS)
}

fn untraced(args: &Args, path: &Path) -> Outcome {
    let mut out = Outcome::default();
    let (setups, mut worlds) = pair::setups(SETUP_PAIRS, 1, || build(args.seed));
    let w = worlds.pop().expect("at least one set-up");
    let requests = requests(args);
    let (client, deploys) = phase(&w, path, requests, None);
    let peak = peak_rss_mb();
    let snapshot_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    verify(&mut out, &w, &client, &deploys);

    out.metrics.push(metric("setup_s", "s", median(&setups)));
    out.metrics.push(metric("phase_s", "s", deploys.rounds_s.iter().copied().fold(f64::INFINITY, f64::min)));
    client.stats.report(&mut out);
    out.metrics.push(metric("peak_rss_mb", "MiB", peak));
    let (reload_p95, beyond) = percentile(&deploys.cycle_ms, 0.95);
    out.detail.extend([
        metric("reload_ms", "ms", median(&deploys.cycle_ms)),
        metric("reload_p95_ms", "ms", reload_p95),
        metric("reloads", "count", deploys.cycle_ms.len() as f64),
        metric("reload_failures", "count", deploys.failures.len() as f64),
        metric("client_requests", "count", (client.served.len() / (REQUEST_USERS * K)) as f64),
        metric("error_rate", "fraction", out.checks.error_rate()),
    ]);
    out.provenance.extend(shapes(requests, deploys.cycles()));
    let rounds: Vec<String> = deploys.rounds_s.iter().map(|s| format!("{s:.3}")).collect();
    out.provenance.push(("deploy_round_s", format!("[{}]", rounds.join(", "))));
    out.provenance.push(("reload_beyond_p95", beyond.to_string()));
    out.provenance.push(("snapshot_bytes", snapshot_bytes.to_string()));
    out.provenance.push(("setup_pairs", SETUP_PAIRS.to_string()));
    out
}

fn traced(args: &Args, path: &Path) -> Outcome {
    let mut out = Outcome::default();
    let w = build(args.seed);
    let mut buf = vec![(0u32, 0.0f32); REQUEST_USERS * K];
    let index = w.handle.index();
    index.recommend_batch_into(w.request(0), K, &w.excludes, &mut buf);
    let before = allocations();
    index.recommend_batch_into(w.request(0), K, &w.excludes, &mut buf);
    let batch_allocs = allocations() - before;
    drop(index);

    // Requests and cycles alternate between untraced (the baseline for
    // overhead and reconciliation) and traced, so both kinds see the same
    // machine.
    let requests = requests(args);
    let tracer = Tracer::new();
    let (client, deploys) = phase(&w, path, requests, Some(&tracer));
    verify(&mut out, &w, &client, &deploys);

    let spans = tracer.into_spans();
    trace::save(&mut out, args, &spans);
    let cycles = |traced: bool| -> Vec<f64> {
        deploys.cycle_ms.iter().zip(&deploys.traced).filter(|(_, &t)| t == traced).map(|(&ms, _)| ms).collect()
    };
    let untraced_cycle = median(&cycles(false));
    let traced_cycle = median(&cycles(true));
    let stage_ms: Vec<f64> = STAGES.iter().map(|(span, _)| median_ms(&spans, span)).collect();
    let stage_sum: f64 = stage_ms.iter().sum();
    let serve = ServeBreakdown::from_spans(&spans, (CATALOG * DIM * 4) as f64, REQUEST_USERS);
    for ((_, name), ms) in STAGES.iter().zip(&stage_ms) {
        out.detail.push(metric(name, "ms", *ms));
    }
    let (overlap, quiet) = split_batches(&spans);
    for (name, batches) in [("serve.batch_overlap_ms", &overlap), ("serve.batch_quiet_ms", &quiet)] {
        if !batches.is_empty() {
            out.detail.push(metric(name, "ms", median(batches)));
        }
    }
    out.detail.extend([
        metric("serve.batches_overlap", "count", overlap.len() as f64),
        metric("serve.batches_quiet", "count", quiet.len() as f64),
        metric("reload_untraced_ms", "ms", untraced_cycle),
        metric("reload_traced_ms", "ms", traced_cycle),
        metric("trace.reconcile_pct", "%", 100.0 * stage_sum / untraced_cycle),
    ]);
    let untraced_requests: Vec<f64> = client.stats.latencies_ms().into_iter().step_by(2).collect();
    serve.detail(median(&untraced_requests), &mut out);
    out.metrics = Layers {
        shares: trace::layer_shares(&spans),
        serve,
        index_build_ms: median_ms(&spans, "serve.index_build"),
        forward_allocs: 0,
        backward_allocs: 0,
        batch_allocs,
        bytes_written: deploys.bytes_written,
        reloads: deploys.cycle_ms.len() as u64,
        reload_failures: deploys.failures.len() as u64,
        overhead_pct: (traced_cycle / untraced_cycle - 1.0) * 100.0,
        reconcile_pct: 100.0 * stage_sum / untraced_cycle,
    }
    .into_metrics();
    out.provenance.extend(shapes(requests, deploys.cycles()));
    out
}

/// Whole-call batch times of client requests that overlap a reload — a
/// cycle's `reload_from_path` part, from `fio.read` start to `serve.swap`
/// end — and of those that do not (they overlap the save or the first
/// batch instead, since cycles run back to back).
fn split_batches(spans: &[Span]) -> (Vec<f64>, Vec<f64>) {
    let starts: BTreeMap<u64, u64> =
        spans.iter().filter(|s| s.name == "fio.read").map(|s| (s.request, s.start_ns)).collect();
    let reloads: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == "serve.swap")
        .filter_map(|s| starts.get(&s.request).map(|&a| (a, s.end_ns)))
        .collect();
    let (overlap, quiet): (Vec<&Span>, Vec<&Span>) = spans
        .iter()
        .filter(|s| s.name == "serve.batch")
        .partition(|s| reloads.iter().any(|&(a, b)| s.start_ns < b && a < s.end_ns));
    (overlap.iter().map(|s| s.ms()).collect(), quiet.iter().map(|s| s.ms()).collect())
}

fn shapes(requests: usize, cycles: usize) -> Vec<(&'static str, String)> {
    vec![
        ("users", USERS.to_string()),
        ("items", CATALOG.to_string()),
        ("dim", DIM.to_string()),
        ("excludes_per_user", EXCLUDES.to_string()),
        ("request_users", REQUEST_USERS.to_string()),
        ("hot_users", HOT_USERS.to_string()),
        ("requests", requests.to_string()),
        ("cycles", cycles.to_string()),
        ("k", K.to_string()),
    ]
}
