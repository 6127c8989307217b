//! The serving client both serving workloads share: seeded request streams
//! and exclusion lists, the closed loop that times
//! `ServeIndex::recommend_batch_into`, and the traced replica of that
//! call, which puts a span around the pool dispatch and each kernel call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use gnmr_bench::alloc::allocations;
use gnmr_serve::{ExcludeLists, ServeIndex};
use gnmr_tensor::{kernels, par, rng, Matrix};

use crate::check::{batch_equals, bits_equal};
use crate::report::{median, metric, percentile, Outcome};
use crate::trace::{self, durations_ms, Span, SpanId, Tracer};

/// Top-k size of every request.
pub const K: usize = 10;

/// Outputs kept for checking after the clock stops: (request, rows).
pub type Kept = Vec<(usize, Vec<(u32, f32)>)>;

/// The `i`-th draw below `n` of the stream named by `seed`.
fn draw(seed: u64, i: u64, n: usize) -> usize {
    (rng::derive(seed, i) % n as u64) as usize
}

/// User ids `0..n`.
pub fn all_users(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

/// `requests` requests of `batch` users each, drawn from `pool`,
/// flattened.
pub fn request_stream(seed: u64, pool: &[u32], batch: usize, requests: usize) -> Vec<u32> {
    (0..(batch * requests) as u64).map(|i| pool[draw(seed ^ 0x5e4e, i, pool.len())]).collect()
}

/// `per_user` pseudo-random seen items per user over a `catalog`-item
/// catalog. Duplicates are allowed; the exclusion walk tolerates them.
pub fn seeded_exclude_rows(seed: u64, n_users: usize, catalog: usize, per_user: usize) -> Vec<Vec<u32>> {
    (0..n_users)
        .map(|u| (0..per_user).map(|j| draw(seed ^ 0xe8c1, (u * per_user + j) as u64, catalog) as u32).collect())
        .collect()
}

/// The matrices and exclusion lists an index serves from, which the
/// replica and the reference read.
pub struct Parts<'a> {
    pub user_repr: &'a Matrix,
    pub item_repr: &'a Matrix,
    pub excludes: &'a ExcludeLists,
}

/// One timed stretch of a closed loop: a round of requests, or a
/// replica's whole loop.
pub struct Round {
    pub wall_s: f64,
    pub users: usize,
    pub latencies_ms: Vec<f64>,
}

impl Round {
    pub fn users_per_s(&self) -> f64 {
        self.users as f64 / self.wall_s
    }
}

/// A closed loop's timings, in rounds.
///
/// The measuring host is shared, and each of its two cores slows down by
/// up to 1.6x, independently of the other, for seconds to minutes at a
/// time. That only ever adds time, so the end-to-end figures come from
/// the fastest round, and each round holds enough requests for its own
/// p95.
pub struct LoopStats {
    pub rounds: Vec<Round>,
}

impl LoopStats {
    /// The round that served the most users per second.
    pub fn fastest(&self) -> &Round {
        self.rounds.iter().max_by(|a, b| a.users_per_s().total_cmp(&b.users_per_s())).expect("a loop has a round")
    }

    /// Pushes `users_per_s` and the latency figures ([`report_latency`])
    /// of the fastest round.
    ///
    /// The median latency is not in the metric set: it jumps between the
    /// host's two speeds from run to run (a 30% spread on `train_ml`'s
    /// steps).
    pub fn report(&self, out: &mut Outcome) {
        let best = self.fastest();
        out.metrics.push(metric("users_per_s", "1/s", best.users_per_s()));
        report_latency(out, &best.latencies_ms);
        let rates: Vec<String> = self.rounds.iter().map(|r| format!("{:.1}", r.users_per_s())).collect();
        out.provenance.push(("round_users_per_s", format!("[{}]", rates.join(", "))));
    }

    /// Every request's latency, all rounds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.rounds.iter().flat_map(|r| r.latencies_ms.iter().copied()).collect()
    }
}

/// Times a closed loop of `requests` requests in `rounds` rounds of
/// equal request counts.
pub struct RoundClock {
    per_round: usize,
    start: Instant,
    current: Round,
    rounds: Vec<Round>,
}

impl RoundClock {
    pub fn new(requests: usize, rounds: usize) -> Self {
        let per_round = requests.div_ceil(rounds.max(1)).max(1);
        let current = Round { wall_s: 0.0, users: 0, latencies_ms: Vec::with_capacity(per_round) };
        RoundClock { per_round, start: Instant::now(), current, rounds: Vec::with_capacity(rounds) }
    }

    /// Counts one served request of `users` users that took `ms`.
    pub fn served(&mut self, users: usize, ms: f64) {
        self.current.users += users;
        self.current.latencies_ms.push(ms);
        if self.current.latencies_ms.len() == self.per_round {
            self.close();
        }
    }

    fn close(&mut self) {
        let next = Round { wall_s: 0.0, users: 0, latencies_ms: Vec::with_capacity(self.per_round) };
        let mut round = std::mem::replace(&mut self.current, next);
        round.wall_s = self.start.elapsed().as_secs_f64();
        self.rounds.push(round);
        self.start = Instant::now();
    }

    /// The rounds, a short last one included.
    pub fn finish(mut self) -> LoopStats {
        if !self.current.latencies_ms.is_empty() {
            self.close();
        }
        LoopStats { rounds: self.rounds }
    }
}

/// Pushes `latency_p95_ms`, puts the median on the detail line, and
/// records the samples behind the percentiles; fewer than 10 samples
/// beyond p95 fail the run.
pub fn report_latency(out: &mut Outcome, latencies_ms: &[f64]) {
    let (p95, beyond) = percentile(latencies_ms, 0.95);
    out.checks.record(beyond >= 10, || format!("only {beyond} latency samples beyond p95"));
    out.metrics.push(metric("latency_p95_ms", "ms", p95));
    out.detail.push(metric("latency_p50_ms", "ms", median(latencies_ms)));
    out.provenance.push(("latency_samples", latencies_ms.len().to_string()));
    out.provenance.push(("latency_beyond_p95", beyond.to_string()));
}

/// One client in a closed loop — each request is sent when the previous
/// one has returned — serving `stream` in requests of `batch` users,
/// timed in `rounds` rounds. Keeps the output of every request `keep`
/// selects for checking after the clock stops.
pub fn closed_loop(
    index: &ServeIndex,
    excludes: &ExcludeLists,
    stream: &[u32],
    batch: usize,
    rounds: usize,
    keep: impl Fn(usize) -> bool,
) -> (LoopStats, Kept) {
    let mut out = vec![(0u32, 0.0f32); batch * K];
    let mut kept = Vec::new();
    let mut clock = RoundClock::new(stream.len() / batch, rounds);
    for (i, users) in stream.chunks(batch).enumerate() {
        let t = Instant::now();
        index.recommend_batch_into(users, K, excludes, &mut out);
        clock.served(users.len(), t.elapsed().as_secs_f64() * 1e3);
        if keep(i) {
            kept.push((i, out.clone()));
        }
    }
    (clock.finish(), kept)
}

/// Checks the kept requests against the reference; the rest count as
/// operations that were not checked.
pub fn check_kept(out: &mut Outcome, parts: &Parts<'_>, stream: &[u32], batch: usize, kept: &Kept) {
    for (i, served) in kept {
        let users = &stream[i * batch..(i + 1) * batch];
        out.checks.record(
            batch_equals(parts.item_repr, parts.user_repr, parts.excludes, users, K, served),
            || format!("request {i}: served rows differ from the full-sort reference"),
        );
    }
    out.checks.unchecked(stream.len() / batch - kept.len());
}

thread_local! {
    /// Per-thread replica scratch: a catalog-sized score buffer and the
    /// selection heap, as the serving path keeps its own.
    static SCRATCH: RefCell<(Vec<f32>, kernels::TopKScratch)> =
        const { RefCell::new((Vec::new(), kernels::TopKScratch::new())) };
}

/// `ServeIndex::recommend_batch_into` rebuilt from its public parts —
/// the same thread-count rule, `par::for_each_row_chunk` partition,
/// `kernels::row_dots_into` sweep and `kernels::top_k_select_excluding`
/// selection — with a span around the dispatch and each kernel call.
pub fn replica_batch(tracer: &Tracer, request: u64, parts: &Parts<'_>, users: &[u32], out: &mut [(u32, f32)]) {
    let catalog = parts.item_repr.rows();
    let work = users.len() * parts.item_repr.len();
    let threads = if work < kernels::min_work() { 1 } else { par::num_threads() };
    let top = tracer.begin("serve.replica", None, request);
    let dispatch = tracer.begin("par.batch", Some(top), request);
    par::for_each_row_chunk(out, users.len(), threads, |range, chunk| {
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let (scores, topk) = &mut *scratch;
            if scores.len() < catalog {
                scores.resize(catalog, 0.0);
            }
            let scores = &mut scores[..catalog];
            for (row, &user) in chunk.chunks_mut(K).zip(&users[range]) {
                let span = tracer.begin("kernels.row_dots", Some(dispatch), request);
                kernels::row_dots_into(scores, parts.item_repr, parts.user_repr.row(user as usize));
                tracer.end(span);
                let span = tracer.begin("kernels.topk", Some(dispatch), request);
                let sel = kernels::top_k_select_excluding(scores, K, parts.excludes.row(user as usize), topk);
                row[..sel.len()].copy_from_slice(sel);
                row[sel.len()..].fill((u32::MAX, f32::NEG_INFINITY));
                tracer.end(span);
            }
        });
    });
    tracer.end(dispatch);
    tracer.end(top);
}

/// One traced request: the public batch call timed whole (its work is
/// the replica's, so it stays out of layer self times), then the replica
/// on the same users. Returns whether the two outputs agree bit for bit.
pub fn traced_request(
    tracer: &Tracer,
    request: u64,
    index: &ServeIndex,
    parts: &Parts<'_>,
    users: &[u32],
    out: &mut [(u32, f32)],
    twin: &mut [(u32, f32)],
) -> bool {
    trace::record(Some(tracer), "serve.batch", None, request, false, || {
        index.recommend_batch_into(users, K, parts.excludes, out)
    });
    replica_batch(tracer, request, parts, users, twin);
    bits_equal(out, twin)
}

/// What the traced serving phase measured outside the spans.
pub struct TracedServing {
    /// Median untraced request.
    pub untraced_ms: f64,
    /// Heap allocations of one warm batch.
    pub batch_allocs: u64,
}

/// The traced run's serving phase over `stream`. Requests alternate
/// between untraced, timed whole (the baseline for tracing overhead),
/// and traced, so both kinds see the same machine. Each traced request's
/// output is checked against the replica, and every `check_every`-th
/// traced request's against the reference. Then the allocation count of
/// one warm batch.
pub fn traced_serving(
    tracer: &Tracer,
    out: &mut Outcome,
    index: &ServeIndex,
    parts: &Parts<'_>,
    stream: &[u32],
    batch: usize,
    check_every: usize,
) -> TracedServing {
    let mut untraced_ms = Vec::with_capacity(stream.len() / batch / 2 + 1);
    let mut served = vec![(0u32, 0.0f32); batch * K];
    let mut twin = served.clone();
    for (i, users) in stream.chunks(batch).enumerate() {
        if i % 2 == 0 {
            let t = Instant::now();
            index.recommend_batch_into(users, K, parts.excludes, &mut served);
            untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.checks.unchecked(1);
            continue;
        }
        let same = traced_request(tracer, i as u64, index, parts, users, &mut served, &mut twin);
        let referenced = (i / 2) % check_every != 0
            || batch_equals(parts.item_repr, parts.user_repr, parts.excludes, users, K, &served);
        out.checks.record(same && referenced, || format!("traced request {i}: replica or reference mismatch"));
    }
    let users = &stream[..batch];
    index.recommend_batch_into(users, K, parts.excludes, &mut served);
    let before = allocations();
    index.recommend_batch_into(users, K, parts.excludes, &mut served);
    let batch_allocs = allocations() - before;
    TracedServing { untraced_ms: median(&untraced_ms), batch_allocs }
}

/// Serving per-layer figures from the spans of traced requests; all 0 on
/// a workload that serves nothing.
#[derive(Clone, Copy, Default)]
pub struct ServeBreakdown {
    /// Median whole `recommend_batch_into` call.
    pub batch_ms: f64,
    /// Median per-user catalog sweep.
    pub row_dots_ms: f64,
    /// Median per-user selection.
    pub topk_ms: f64,
    /// Catalog bytes one sweep reads, computed from the shapes as items
    /// × width × 4, over the median sweep time.
    pub row_dots_gbps: f64,
    /// Median per request of the replica's dispatch time minus its
    /// busiest thread's kernel time: pool dispatch and imbalance.
    pub residual_ms: f64,
    /// Users per thread × (sweep + selection medians) + residual, as a
    /// percentage of `batch_ms`.
    pub reconcile_pct: f64,
}

impl ServeBreakdown {
    pub fn from_spans(spans: &[Span], catalog_bytes: f64, users_per_thread: usize) -> Self {
        let batch_ms = median(&durations_ms(spans, "serve.batch"));
        let row_dots_ms = median(&durations_ms(spans, "kernels.row_dots"));
        let topk_ms = median(&durations_ms(spans, "kernels.topk"));
        let mut kernel_ns: BTreeMap<(SpanId, u32), u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.layer() == "kernels") {
            if let Some(p) = s.parent {
                *kernel_ns.entry((p, s.thread)).or_default() += s.dur_ns();
            }
        }
        let residuals: Vec<f64> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "par.batch")
            .map(|(i, s)| {
                let busiest = kernel_ns.range((i, 0)..=(i, u32::MAX)).map(|(_, &ns)| ns).max().unwrap_or(0);
                s.dur_ns().saturating_sub(busiest) as f64 / 1e6
            })
            .collect();
        let residual_ms = median(&residuals);
        ServeBreakdown {
            batch_ms,
            row_dots_ms,
            topk_ms,
            row_dots_gbps: catalog_bytes / (row_dots_ms / 1e3) / 1e9,
            residual_ms,
            reconcile_pct: 100.0 * (users_per_thread as f64 * (row_dots_ms + topk_ms) + residual_ms) / batch_ms,
        }
    }

    /// The serving figures that stay on the detail line.
    pub fn detail(&self, untraced_ms: f64, out: &mut Outcome) {
        out.detail.extend([
            metric("serve.untraced_batch_ms", "ms", untraced_ms),
            metric("serve.overhead_pct", "%", (self.batch_ms / untraced_ms - 1.0) * 100.0),
            metric("serve.reconcile_pct", "%", self.reconcile_pct),
        ]);
    }
}
