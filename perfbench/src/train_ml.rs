//! `train_ml`: the paper's workload. The MovieLens-like harness preset
//! (900 users × 700 items, 3 behaviors), `Gnmr::new` at the paper's
//! defaults (d = 16, L = 2, pre-training on), `Gnmr::fit` (30 epochs × 8
//! steps) and HR@10/NDCG@10 under the 99-negative protocol. Beside each
//! fit, on the other core, the fit is replayed from its public calls on
//! a second model, one timed training step at a time, and must land on
//! `fit`'s bytes. The traced run puts a span around each stage of that
//! replay. Nothing is served.

use std::sync::Arc;
use std::time::Instant;

use gnmr_autograd::{Adam, Arena, Ctx, Grads};
use gnmr_bench::alloc::allocations;
use gnmr_core::{pretrain_embeddings, Gnmr, GnmrConfig, TrainConfig, TrainReport};
use gnmr_data::{presets, Dataset};
use gnmr_eval::{evaluate, evaluate_auto, EvalReport};
use gnmr_graph::{BatchSampler, MultiBehaviorGraph};
use gnmr_tensor::rng::StateRng;
use gnmr_tensor::{par, Matrix};

use crate::pair::{self, side_by_side};
use crate::report::{median, metric, peak_rss_mb, Layers, Outcome};
use crate::serving::{report_latency, ServeBreakdown};
use crate::trace::{self, durations_ms, median_ms, record, Span, Tracer};
use crate::Args;

/// Pool threads. One: each of the measuring host's two cores slows down
/// by up to 1.6x, independently of the other, for seconds to minutes at
/// a time, and a 2-thread fit waits for the slower core (median 11.3 s
/// against 9.4 s at one thread, and four times the spread).
const THREADS: usize = 1;
/// Rounds of a fit beside a replay of it, one per core. `phase_s` and
/// `users_per_s` come from the fastest fit, `latency_p95_ms` from the
/// fastest copy of each replayed step.
const ROUNDS: usize = 4;
/// Models each run builds, one set-up each, in pairs side by side: two
/// per round. `setup_s` is the median over pairs of the faster set-up.
const SETUPS: usize = 2 * ROUNDS;
/// Epochs of the throwaway replay that warms the traced run's process
/// (heap, page cache) and whose last step gives the allocation counts.
const WARMUP_EPOCHS: usize = 2;
/// Evaluation cutoff.
const CUTOFF: usize = 10;
/// How far, in percent, the traced stages may sum from an untraced step
/// before the run counts as failed.
const RECONCILE_TOLERANCE_PCT: f64 = 10.0;

/// The replayed training stages run every step: span name and
/// detail-line name.
const STAGES: [(&str, &str); 6] = [
    ("graph.sample", "graph.sample_ms"),
    ("core.forward", "core.forward_ms"),
    ("autograd.loss", "autograd.loss_ms"),
    ("autograd.backward", "autograd.backward_ms"),
    ("autograd.clip", "autograd.clip_ms"),
    ("autograd.adam", "autograd.adam_ms"),
];
/// The replayed stages run once per epoch or once per fit.
const SPARSE_STAGES: [&str; 2] = ["autograd.decay_lr", "core.refresh"];

fn configs(seed: u64) -> (GnmrConfig, TrainConfig) {
    (GnmrConfig { seed, ..GnmrConfig::default() }, TrainConfig { seed, ..TrainConfig::default() })
}

pub fn run(args: &Args) -> Outcome {
    par::set_threads(Some(THREADS));
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

/// One timed fit and evaluation.
struct Fitted {
    model: Gnmr,
    fit: TrainReport,
    eval: EvalReport,
    fit_s: f64,
    /// `fit` + `evaluate`.
    phase_s: f64,
}

fn fit_and_evaluate(data: &Dataset, mut model: Gnmr, tcfg: &TrainConfig) -> Fitted {
    let t = Instant::now();
    let fit = model.fit(&data.graph, tcfg);
    let fit_s = t.elapsed().as_secs_f64();
    let eval = evaluate(&model, &data.test, &[CUTOFF]);
    Fitted { model, fit, eval, fit_s, phase_s: t.elapsed().as_secs_f64() }
}

/// A timed replay on `model`.
fn timed_replay(mut model: Gnmr, graph: &MultiBehaviorGraph, tcfg: &TrainConfig) -> (Gnmr, Replay, f64) {
    let t = Instant::now();
    let replay = replay_fit(None, &mut model, graph, tcfg);
    (model, replay, t.elapsed().as_secs_f64())
}

fn untraced(args: &Args) -> Outcome {
    let (gcfg, tcfg) = configs(args.seed);
    let mut out = Outcome::default();
    let (setups, built) = pair::setups(SETUPS / 2, SETUPS, || {
        let data = presets::movielens_small(args.seed);
        let model = Gnmr::new(&data.graph, gcfg);
        (data, model)
    });
    let (datasets, mut models): (Vec<Dataset>, Vec<Gnmr>) = built.into_iter().unzip();
    let data = datasets.into_iter().last().expect("at least one set-up");
    let graph = &data.graph;

    // Each round, a fit beside the training client: the fit replayed
    // from its public calls, timed per step. Only the first fit's model
    // is kept; every other fit and every replay is checked against it.
    let mut times = Vec::with_capacity(ROUNDS);
    let mut first: Option<Fitted> = None;
    let mut replays: Vec<(Replay, f64)> = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let (f, r) = (models.pop().expect("a model per fit"), models.pop().expect("a model per replay"));
        let fit = || fit_and_evaluate(&data, f, &tcfg);
        let replay = || timed_replay(r, graph, &tcfg);
        // The fit and the replay swap threads, and so cores, each round.
        let (fitted, (replayed, replay, replay_s)) = if round % 2 == 0 {
            side_by_side(fit, replay)
        } else {
            let (replayed, fitted) = side_by_side(replay, fit);
            (fitted, replayed)
        };
        times.push((fitted.fit_s, fitted.phase_s));
        let first = first.get_or_insert(fitted);
        check_replay(&mut out, &first.model, &first.fit, &replayed, &replay);
        replays.push((replay, replay_s));
    }
    let peak = peak_rss_mb();
    let first = first.expect("at least one fit");
    out.checks.record(first.fit.epoch_losses.iter().all(|l| l.is_finite()) && first.model.is_ready(), || {
        "fit: non-finite epoch loss or no representations".into()
    });
    out.checks.record(first.eval == evaluate_auto(&first.model, &data.test, &[CUTOFF]), || {
        "evaluate and evaluate_auto disagree".into()
    });

    let &(fit_s, phase_s) = times.iter().min_by(|x, y| x.0.total_cmp(&y.0)).expect("at least one fit");
    // Every replay does the same work step for step, so the fastest copy
    // of each step is that step without the other tenants' contention.
    let steps = replays.iter().map(|(r, _)| r.step_ms.len()).min().unwrap_or(0);
    let step_ms: Vec<f64> = (0..steps)
        .map(|i| replays.iter().map(|(r, _)| r.step_ms[i]).fold(f64::INFINITY, f64::min))
        .collect();
    out.metrics.extend([
        metric("setup_s", "s", median(&setups)),
        metric("phase_s", "s", phase_s),
        metric("users_per_s", "1/s", (first.fit.steps * tcfg.batch_users) as f64 / fit_s),
        metric("peak_rss_mb", "MiB", peak),
    ]);
    report_latency(&mut out, &step_ms);
    let fit_times: Vec<f64> = times.iter().map(|t| t.0).collect();
    out.detail.extend([
        metric("fit_s", "s", fit_s),
        metric("fit_median_s", "s", median(&fit_times)),
        metric("eval_s", "s", phase_s - fit_s),
        metric("replay_s", "s", replays.iter().map(|r| r.1).fold(f64::INFINITY, f64::min)),
        metric("hr10", "fraction", first.eval.hr_at(CUTOFF)),
        metric("ndcg10", "fraction", first.eval.ndcg_at(CUTOFF)),
        metric("final_loss", "hinge", f64::from(first.fit.final_loss())),
        metric("error_rate", "fraction", out.checks.error_rate()),
    ]);
    out.provenance.extend(shapes(&data, &gcfg, &tcfg, first.fit.steps));
    out.provenance.push(("setup_pairs", (SETUPS / 2).to_string()));
    out.provenance.push(("fits", times.len().to_string()));
    out.provenance.push(("replays", replays.len().to_string()));
    out
}

fn traced(args: &Args) -> Outcome {
    let (gcfg, tcfg) = configs(args.seed);
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let tr = Some(&tracer);
    let data = record(tr, "data.generate", None, 0, true, || presets::movielens_small(args.seed));
    let graph = &data.graph;
    // `Gnmr::new` pre-trains inside; this probe times that part alone and
    // stays out of layer self times, which `core.new` already holds.
    record(tr, "core.pretrain", None, 0, false, || {
        pretrain_embeddings(graph, gcfg.dim, gcfg.pretrain_epochs, gcfg.seed)
    });
    let mut fitted = record(tr, "core.new", None, 0, true, || Gnmr::new(graph, gcfg));
    let mut replayed = Gnmr::new(graph, gcfg);
    // Warms the process; its last step, alone in the process, gives the
    // exact allocation counts of a steady step.
    let warm = replay_fit(None, &mut Gnmr::new(graph, gcfg), graph, &TrainConfig { epochs: WARMUP_EPOCHS, ..tcfg });

    // The untraced fit and the traced replay run side by side, one per
    // core, so both see the same machine: on the shared host, two fits
    // one after the other differed by up to 30%.
    let ((fit, fit_s), (replay, replay_s)) = side_by_side(
        || {
            let t = Instant::now();
            let fit = record(tr, "core.fit", None, 0, false, || fitted.fit(graph, &tcfg));
            (fit, t.elapsed().as_secs_f64())
        },
        || {
            let t = Instant::now();
            let replay = replay_fit(tr, &mut replayed, graph, &tcfg);
            (replay, t.elapsed().as_secs_f64())
        },
    );
    check_replay(&mut out, &fitted, &fit, &replayed, &replay);
    let eval = evaluate(&fitted, &data.test, &[CUTOFF]);
    out.checks.record(eval == evaluate_auto(&fitted, &data.test, &[CUTOFF]), || {
        "evaluate and evaluate_auto disagree".into()
    });

    let spans = tracer.into_spans();
    trace::save(&mut out, args, &spans);
    // Traced (odd) and untraced (even) steps alternate on one thread, so
    // they are compared under the same contention. The fit beside them
    // runs on the other core, whose speed on this host can differ by
    // 30%, so its figures are reported but not checked.
    let steps_where = |traced: bool| -> Vec<f64> {
        replay.step_ms.iter().enumerate().filter(|(i, _)| (i % 2 == 1) == traced).map(|(_, &ms)| ms).collect()
    };
    let (traced_steps, untraced_steps) = (steps_where(true), steps_where(false));
    let untraced_ms = mean(&untraced_steps);
    let stage_median_ms: Vec<f64> = STAGES.iter().map(|(span, _)| median_ms(&spans, span)).collect();
    let median_sum = stage_median_ms.iter().sum::<f64>();
    let mean_sum = STAGES.iter().map(|(span, _)| total_ms(&spans, span)).sum::<f64>() / traced_steps.len() as f64;
    let reconcile_pct = 100.0 * mean_sum / untraced_ms;
    out.checks.record((reconcile_pct - 100.0).abs() <= RECONCILE_TOLERANCE_PCT, || {
        format!("traced stages sum to {reconcile_pct:.1}% of an untraced step")
    });
    let steps = replay.steps as f64;
    let fit_step_ms = fit_s * 1e3 / steps;
    let sparse_ms: f64 = SPARSE_STAGES.iter().map(|span| total_ms(&spans, span)).sum::<f64>() / steps;
    for ((_, name), ms) in STAGES.iter().zip(&stage_median_ms) {
        out.detail.push(metric(name, "ms", *ms));
    }
    out.detail.extend([
        metric("data.generate_ms", "ms", median_ms(&spans, "data.generate")),
        metric("core.pretrain_ms", "ms", median_ms(&spans, "core.pretrain")),
        metric("core.new_ms", "ms", median_ms(&spans, "core.new")),
        metric("core.refresh_ms", "ms", median_ms(&spans, "core.refresh")),
        metric("fit_s", "s", fit_s),
        metric("replay_s", "s", replay_s),
        metric("fit_step_ms", "ms", fit_step_ms),
        metric("untraced_step_ms", "ms", untraced_ms),
        metric("traced_step_ms", "ms", mean(&traced_steps)),
        metric("stage_median_sum_ms", "ms", median_sum),
        metric("stage_mean_sum_ms", "ms", mean_sum),
        metric("trace.reconcile_pct", "%", reconcile_pct),
        metric("stages_over_fit_pct", "%", 100.0 * (mean_sum + sparse_ms) / fit_step_ms),
        metric("hr10", "fraction", eval.hr_at(CUTOFF)),
        metric("ndcg10", "fraction", eval.ndcg_at(CUTOFF)),
    ]);
    out.metrics = Layers {
        shares: trace::layer_shares(&spans),
        serve: ServeBreakdown::default(),
        index_build_ms: 0.0,
        forward_allocs: warm.forward_allocs,
        backward_allocs: warm.backward_allocs,
        batch_allocs: 0,
        bytes_written: 0,
        reloads: 0,
        reload_failures: 0,
        overhead_pct: (mean(&traced_steps) / untraced_ms - 1.0) * 100.0,
        reconcile_pct,
    }
    .into_metrics();
    out.provenance.extend(shapes(&data, &gcfg, &tcfg, replay.steps));
    out.provenance.push(("alloc_count_step", warm.steps.to_string()));
    out
}

/// Total duration in milliseconds of the spans called `name`.
fn total_ms(spans: &[Span], name: &str) -> f64 {
    durations_ms(spans, name).iter().sum()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// What the replay saw.
#[derive(Default)]
struct Replay {
    losses: Vec<f32>,
    steps: usize,
    /// Wall-clock of each step, sampling through the Adam update.
    step_ms: Vec<f64>,
    /// Heap allocations of `Ctx::new` + `Gnmr::forward` in the last step.
    forward_allocs: u64,
    /// Heap allocations of `Ctx::grads_into` in the last step.
    backward_allocs: u64,
}

/// `Gnmr::fit` replayed from its public parts, in its order, timing each
/// step and, when tracing, putting a span around each stage of every odd
/// step:
/// `BatchSampler::sample` on the trainer's sampler stream,
/// `Gnmr::forward`, the loss ops on the tape, `Ctx::grads_into`,
/// `Grads::clip_global_norm`, `Adam::step` (and `decay_lr` per epoch),
/// then `refresh_representations`. Its own arena is bitwise-neutral:
/// warm and fresh arenas produce the same bytes.
fn replay_fit(
    tracer: Option<&Tracer>,
    model: &mut Gnmr,
    graph: &MultiBehaviorGraph,
    tcfg: &TrainConfig,
) -> Replay {
    let sampler = BatchSampler::new(graph);
    let mut opt = Adam::new(tcfg.lr).with_weight_decay(tcfg.weight_decay);
    let mut rng = StateRng::substream(tcfg.seed, 0x7212);
    let steps_per_epoch = sampler.eligible_users().len().div_ceil(tcfg.batch_users.max(1)).max(1);
    let arena = Arena::new();
    let mut grads = Grads::default();
    let mut replay = Replay::default();
    for _ in 0..tcfg.epochs {
        let (mut epoch_loss, mut counted) = (0.0, 0usize);
        for _ in 0..steps_per_epoch {
            let step = replay.steps as u64;
            // When tracing, every other step is traced; the untraced steps
            // between them, on the same thread, are the baseline.
            let tracer = tracer.filter(|_| step % 2 == 1);
            let t = Instant::now();
            let batch = record(tracer, "graph.sample", None, step, true, || {
                sampler.sample(tcfg.batch_users, tcfg.samples_per_user, &mut rng)
            });
            if batch.is_empty() {
                continue;
            }
            let (mut ctx, (user_orders, item_orders)) = record(tracer, "core.forward", None, step, true, || {
                let before = allocations();
                let mut ctx = Ctx::new(model.params());
                let orders = model.forward(&mut ctx);
                replay.forward_allocs = allocations() - before;
                (ctx, orders)
            });
            let loss = record(tracer, "autograd.loss", None, step, true, || {
                let user_all = ctx.g.concat_cols(&user_orders);
                let item_all = ctx.g.concat_cols(&item_orders);
                let u = ctx.g.gather_rows(user_all, Arc::new(batch.users));
                let p = ctx.g.gather_rows(item_all, Arc::new(batch.pos_items));
                let n = ctx.g.gather_rows(item_all, Arc::new(batch.neg_items));
                let pos_scores = ctx.g.row_dot(u, p);
                let neg_scores = ctx.g.row_dot(u, n);
                let diff = ctx.g.sub(neg_scores, pos_scores);
                let margin = ctx.g.add_scalar(diff, 1.0);
                let hinge = ctx.g.relu(margin);
                let loss = ctx.g.mean(hinge);
                epoch_loss += ctx.g.value(loss).scalar_value();
                loss
            });
            counted += 1;
            record(tracer, "autograd.backward", None, step, true, || {
                let before = allocations();
                ctx.grads_into(loss, &arena, &mut grads);
                replay.backward_allocs = allocations() - before;
                drop(ctx);
            });
            if tcfg.grad_clip > 0.0 {
                record(tracer, "autograd.clip", None, step, true, || grads.clip_global_norm(tcfg.grad_clip));
            }
            record(tracer, "autograd.adam", None, step, true, || opt.step(model.params_mut(), &grads));
            replay.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
            replay.steps += 1;
        }
        record(tracer, "autograd.decay_lr", None, replay.steps as u64, true, || opt.decay_lr());
        replay.losses.push(if counted > 0 { epoch_loss / counted as f32 } else { f32::NAN });
    }
    grads.recycle(&arena);
    record(tracer, "core.refresh", None, replay.steps as u64, true, || model.refresh_representations());
    replay
}

/// Records whether the replay landed on `fit`'s bytes: parameters,
/// epoch losses, step count and representations.
fn check_replay(out: &mut Outcome, fitted: &Gnmr, fit: &TrainReport, replayed: &Gnmr, replay: &Replay) {
    out.checks.record(same_params(fitted, replayed), || "replay: parameters differ from fit's".into());
    let same_losses = fit.epoch_losses.len() == replay.losses.len()
        && fit.epoch_losses.iter().zip(&replay.losses).all(|(a, b)| a.to_bits() == b.to_bits());
    out.checks.record(same_losses && fit.steps == replay.steps, || {
        "replay: epoch losses or step count differ from fit's".into()
    });
    out.checks.record(same_reprs(fitted, replayed), || "replay: representations differ from fit's".into());
}

fn same_matrix(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_params(a: &Gnmr, b: &Gnmr) -> bool {
    a.params().len() == b.params().len()
        && a.params().iter().zip(b.params().iter()).all(|((na, ma), (nb, mb))| na == nb && same_matrix(ma, mb))
}

fn same_reprs(a: &Gnmr, b: &Gnmr) -> bool {
    match (a.representations(), b.representations()) {
        (Some((ua, va)), Some((ub, vb))) => same_matrix(ua, ub) && same_matrix(va, vb),
        _ => false,
    }
}

fn shapes(
    data: &Dataset,
    gcfg: &GnmrConfig,
    tcfg: &TrainConfig,
    steps: usize,
) -> Vec<(&'static str, String)> {
    let g = &data.graph;
    vec![
        ("users", g.n_users().to_string()),
        ("items", g.n_items().to_string()),
        ("behaviors", g.n_behaviors().to_string()),
        ("test_users", data.test.len().to_string()),
        ("dim", gcfg.dim.to_string()),
        ("layers", gcfg.layers.to_string()),
        ("repr_width", (gcfg.dim * (gcfg.layers + 1)).to_string()),
        ("pretrain_epochs", gcfg.pretrain_epochs.to_string()),
        ("epochs", tcfg.epochs.to_string()),
        ("steps", steps.to_string()),
        ("batch_users", tcfg.batch_users.to_string()),
        ("samples_per_user", tcfg.samples_per_user.to_string()),
    ]
}
