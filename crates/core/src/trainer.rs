//! GNMR's fit (paper Algorithm 1 and Eq. 7) on the shared
//! [`Trainer`].
//!
//! Each step samples seed users with `S` positive and `S` negative
//! items each, scores the pairs by multi-order matching, and minimizes
//! the pairwise hinge loss `max(0, 1 - Pr_{i,pos} + Pr_{i,neg})` plus
//! Frobenius regularization (as Adam weight decay) with per-epoch
//! learning-rate decay 0.96. The step propagates orders `0 .. L-1` over
//! the whole graph and the last layer only for the batch's users and
//! items, the rows the loss reads ([`Gnmr::step_loss`]); its loss and
//! gradients are bitwise those of the full-graph forward.

use std::io;
use std::sync::Arc;

use gnmr_autograd::{pairwise_hinge, Adam, Ctx, Trainer, Var};
use gnmr_graph::{BatchSampler, MultiBehaviorGraph, TrainBatch};
use gnmr_tensor::rng::StateRng;
use gnmr_tensor::{wire, Csr};

use crate::checkpoint::{Checkpointing, TrainCheckpoint};
use crate::config::TrainConfig;
use crate::model::{Gnmr, Net};

/// Summary of one training run.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Mean hinge loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Total optimization steps taken.
    pub steps: usize,
}

impl TrainReport {
    /// The final epoch's mean loss.
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }
}

impl Gnmr {
    /// Trains the model on `graph` (which must be the graph the model was
    /// constructed over) and caches representations for scoring.
    ///
    /// # Panics
    /// If the graph dimensions do not match the model.
    pub fn fit(&mut self, graph: &MultiBehaviorGraph, tcfg: &TrainConfig) -> TrainReport {
        assert_eq!(graph.n_behaviors(), self.n_behaviors(), "fit: behavior count mismatch");
        self.fit_with_labels(graph, tcfg)
    }

    /// One training step's loss on `ctx`, a [`Ctx`] over
    /// [`Gnmr::params`], as [`Gnmr::fit`] computes it: Eq. 7's pairwise
    /// hinge over the batch's (user, positive, negative) triples, each
    /// pair scored by multi-order matching (the row dot of the
    /// concatenated orders `H^(0) ... H^(L)`).
    ///
    /// The hinge reads the orders only at the batch's users and items,
    /// so the last propagation layer runs only for those rows: the
    /// batch's distinct users and distinct items, in ascending id
    /// order, through row selections of the adjacencies. Orders
    /// `0 ... L-1` run over the whole graph, because the last layer's
    /// messages read them, and are gathered to the same rows.
    ///
    /// The loss and every parameter gradient are bitwise those of the
    /// full forward ([`Gnmr::forward`], the concatenation, row gathers,
    /// row dots and the hinge). Every op of a layer is row-wise except
    /// its sums over rows (weight-gradient products, the transposed
    /// SpMM, bias sums and gather scatter-adds); those start at +0.0 and
    /// run over rows in ascending order, and a row the loss does not
    /// read only ever adds ±0.0 to them.
    pub fn step_loss(&self, ctx: &mut Ctx<'_>, batch: &TrainBatch) -> Var {
        self.net.step_loss(ctx, batch)
    }

    /// Like [`Gnmr::fit`], but allows the *label* graph (where positives
    /// and negatives are sampled) to differ in behavior set from the
    /// propagation graph the model was built on. Used by the Table IV
    /// "w/o like" ablation, where the target channel is removed from
    /// message passing but training labels still come from it.
    pub fn fit_with_labels(&mut self, labels: &MultiBehaviorGraph, tcfg: &TrainConfig) -> TrainReport {
        match self.fit_inner(labels, tcfg, None) {
            Ok(report) => report,
            // Without a checkpointing policy the loop performs no I/O,
            // so no error path exists.
            Err(e) => unreachable!("fit without checkpointing performed I/O: {e}"),
        }
    }

    /// [`Gnmr::fit`] with crash safety: atomically writes a
    /// [`TrainCheckpoint`] to `ck.path` every `ck.every` completed
    /// epochs, and, when that file exists at the start, resumes from
    /// it instead of starting over. A resumed run is
    /// **bitwise identical** to the uninterrupted run — parameters,
    /// representations, recommendations, eval output — because the
    /// checkpoint freezes every evolving input (params, Adam moments
    /// and decayed lr as exact bits, sampler RNG state, epoch counter)
    /// and everything else is pure configuration or bitwise-neutral
    /// (`tests/determinism.rs` pins this at thread counts 1/2/4).
    ///
    /// Errors surface an `every` of 0 ([`io::ErrorKind::InvalidInput`],
    /// before any I/O), checkpoint I/O failures (including injected
    /// faults from `ck.plan`) and resume-validation failures
    /// ([`io::ErrorKind::InvalidData`] when the checkpoint does not
    /// match this model's parameters or the training config). On a
    /// mid-training write error the model is left partially trained
    /// without refreshed representations; the on-disk checkpoint is
    /// still whole (old or new generation, never a blend).
    ///
    /// # Panics
    /// If the graph dimensions do not match the model.
    pub fn fit_checkpointed(
        &mut self,
        graph: &MultiBehaviorGraph,
        tcfg: &TrainConfig,
        ck: &mut Checkpointing,
    ) -> io::Result<TrainReport> {
        assert_eq!(graph.n_behaviors(), self.n_behaviors(), "fit: behavior count mismatch");
        if ck.every == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "Checkpointing: `every` must be at least 1",
            ));
        }
        self.fit_inner(graph, tcfg, Some(ck))
    }

    /// Every fit's epochs on the shared [`Trainer`], with checkpoint
    /// resume and capture at the epoch boundaries; `ck` is the only
    /// source of I/O (and therefore of errors).
    fn fit_inner(
        &mut self,
        labels: &MultiBehaviorGraph,
        tcfg: &TrainConfig,
        mut ck: Option<&mut Checkpointing>,
    ) -> io::Result<TrainReport> {
        let graph = labels;
        assert_eq!(graph.n_users(), self.n_users(), "fit: user count mismatch");
        assert_eq!(graph.n_items(), self.n_items(), "fit: item count mismatch");

        let sampler = BatchSampler::new(graph);
        let mut opt = Adam::new(tcfg.lr).with_weight_decay(tcfg.weight_decay);
        let mut sample_rng = StateRng::substream(tcfg.seed, 0x7212);
        let steps_per_epoch = sampler
            .eligible_users()
            .len()
            .div_ceil(tcfg.batch_users.max(1))
            .max(1);

        let mut report = TrainReport::default();
        let mut start_epoch = 0usize;
        if let Some(ck) = ck.as_deref_mut() {
            if ck.path.exists() {
                let c = TrainCheckpoint::load_with(&ck.path, &mut ck.plan)?;
                self.restore_checkpoint(&c, tcfg, &mut opt, &mut sample_rng, &mut report)?;
                start_epoch = c.epochs_done as usize;
            }
        }
        // The trainer's arena lives for this fit: after the first step
        // warms it, the backward + optimizer path of every later step
        // performs zero heap allocations (the `train_step` bench's
        // allocation gate pins this). Warm and fresh arenas give the
        // same bytes, which is why resume needs no arena state.
        let mut trainer = Trainer::new(opt, tcfg.grad_clip);
        for epoch in start_epoch..tcfg.epochs {
            let (loss, steps) = trainer.epoch(&mut self.store, steps_per_epoch, |ctx| {
                let batch = sampler.sample(tcfg.batch_users, tcfg.samples_per_user, &mut sample_rng);
                (!batch.is_empty()).then(|| self.net.step_loss(ctx, &batch))
            });
            report.epoch_losses.push(loss);
            report.steps += steps;
            if let Some(ck) = ck.as_deref_mut() {
                // Epoch boundaries are the only coherent cut points:
                // the RNG sits between epochs, the lr decay has been
                // applied, and the loss history is whole.
                if (epoch + 1) % ck.every == 0 {
                    let c = TrainCheckpoint::capture(&self.store, trainer.opt(), &sample_rng, epoch + 1, &report);
                    c.save_with(&ck.path, &mut ck.plan)?;
                }
            }
        }

        debug_assert!(self.store.all_finite(), "parameters diverged");
        self.refresh_representations();
        Ok(report)
    }

    /// Validates a loaded checkpoint against this model and the run
    /// config, then installs it into the training state. Mismatches —
    /// a checkpoint from a different model or config — are
    /// [`io::ErrorKind::InvalidData`], never a panic: a stale file on
    /// disk is data, not a programmer error.
    fn restore_checkpoint(
        &mut self,
        c: &TrainCheckpoint,
        tcfg: &TrainConfig,
        opt: &mut Adam,
        sample_rng: &mut StateRng,
        report: &mut TrainReport,
    ) -> io::Result<()> {
        if c.epochs_done as usize > tcfg.epochs {
            return Err(wire::bad(format!(
                "checkpoint: {} completed epochs exceeds the configured {}",
                c.epochs_done, tcfg.epochs
            )));
        }
        if c.params.len() != self.store.len() {
            return Err(wire::bad(format!(
                "checkpoint: {} parameters, model has {} — wrong model or config",
                c.params.len(),
                self.store.len()
            )));
        }
        for (name, m) in &c.params {
            if !self.store.contains(name) {
                return Err(wire::bad(format!("checkpoint: parameter {name:?} not in this model")));
            }
            let w = self.store.get(name);
            if w.shape() != m.shape() {
                return Err(wire::bad(format!(
                    "checkpoint: parameter {name:?} has shape {:?}, model expects {:?}",
                    m.shape(),
                    w.shape()
                )));
            }
        }
        for (name, m, _) in &c.opt.moments {
            if !self.store.contains(name) || self.store.get(name).shape() != m.shape() {
                return Err(wire::bad(format!(
                    "checkpoint: moment {name:?} does not match a model parameter"
                )));
            }
        }
        for (name, m) in &c.params {
            *self.store.get_mut(name) = m.clone();
        }
        opt.restore_state(c.opt.clone());
        *sample_rng = StateRng::from_state(c.rng_state);
        report.steps = c.steps as usize;
        report.epoch_losses = c.epoch_losses.clone();
        Ok(())
    }
}

impl Net {
    /// [`Gnmr::step_loss`].
    pub(crate) fn step_loss(&self, ctx: &mut Ctx<'_>, batch: &TrainBatch) -> Var {
        let users = Arc::new(ascending_distinct(batch.users.iter()));
        let items = Arc::new(ascending_distinct(batch.pos_items.iter().chain(&batch.neg_items)));
        let layers = self.cfg.layers;
        let (user_orders, item_orders) = self.orders(ctx, layers.saturating_sub(1));
        let last = (layers > 0).then(|| {
            let select = |adj: &[Arc<Csr>], rows: &[u32]| -> Vec<Arc<Csr>> {
                adj.iter().map(|a| Arc::new(a.select_rows(rows))).collect()
            };
            let below = (user_orders[layers - 1], item_orders[layers - 1]);
            let (adj_ui, adj_iu) = (select(&self.adj_user_item, &users), select(&self.adj_item_user, &items));
            self.layer(ctx, layers - 1, below, &adj_ui, &adj_iu)
        });

        // Orders 0 .. L-1 at the same rows, then the matching over the
        // concatenation, indexed by position in `users` / `items`.
        let mut user_parts: Vec<Var> =
            user_orders.iter().map(|&o| ctx.g.gather_rows(o, Arc::clone(&users))).collect();
        let mut item_parts: Vec<Var> =
            item_orders.iter().map(|&o| ctx.g.gather_rows(o, Arc::clone(&items))).collect();
        if let Some((u, v)) = last {
            user_parts.push(u);
            item_parts.push(v);
        }
        let user_all = ctx.g.concat_cols(&user_parts);
        let item_all = ctx.g.concat_cols(&item_parts);

        let u = ctx.g.gather_rows(user_all, positions(&users, &batch.users));
        let p = ctx.g.gather_rows(item_all, positions(&items, &batch.pos_items));
        let n = ctx.g.gather_rows(item_all, positions(&items, &batch.neg_items));
        let pos_scores = ctx.g.row_dot(u, p);
        let neg_scores = ctx.g.row_dot(u, n);
        pairwise_hinge(&mut ctx.g, pos_scores, neg_scores)
    }
}

/// The distinct ids, ascending.
fn ascending_distinct<'a>(ids: impl Iterator<Item = &'a u32>) -> Vec<u32> {
    let mut rows: Vec<u32> = ids.copied().collect();
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// Each of `ids`' position in `rows` (ascending, holding every id).
fn positions(rows: &[u32], ids: &[u32]) -> Arc<Vec<u32>> {
    Arc::new(ids.iter().map(|id| rows.binary_search(id).expect("id among the rows") as u32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GnmrConfig, GnmrVariant};
    use gnmr_autograd::{max_grad_error, Grads};
    use gnmr_data::presets;
    use gnmr_eval::{evaluate, PopularityRecommender, RandomRecommender};
    use gnmr_graph::{Interaction, InteractionLog};

    fn quick_cfg(variant: GnmrVariant) -> GnmrConfig {
        GnmrConfig {
            dim: 8,
            memory_dims: 4,
            heads: 2,
            layers: 2,
            fusion_hidden: 8,
            variant,
            pretrain: false,
            seed: 5,
            ..GnmrConfig::default()
        }
    }

    #[test]
    fn loss_decreases_during_training() {
        let d = presets::tiny_movielens(3);
        let mut model = Gnmr::new(&d.graph, quick_cfg(GnmrVariant::full()));
        let report = model.fit(&d.graph, &TrainConfig { epochs: 10, ..TrainConfig::fast_test() });
        assert_eq!(report.epoch_losses.len(), 10);
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(last < first * 0.9, "loss did not drop: {first} -> {last}");
        assert!(model.is_ready());
    }

    #[test]
    fn trained_model_beats_random_and_popularity() {
        let d = presets::tiny_movielens(3);
        let mut model = Gnmr::new(&d.graph, quick_cfg(GnmrVariant::full()));
        model.fit(&d.graph, &TrainConfig { epochs: 40, ..TrainConfig::fast_test() });
        let ns = [10];
        let gnmr = evaluate(&model, &d.test, &ns);
        let random = evaluate(&RandomRecommender::new(1), &d.test, &ns);
        let pop = evaluate(&PopularityRecommender::fit(&d.graph), &d.test, &ns);
        assert!(
            gnmr.hr_at(10) > random.hr_at(10) + 0.1,
            "GNMR {:.3} vs random {:.3}",
            gnmr.hr_at(10),
            random.hr_at(10)
        );
        // Popularity is an unusually strong floor at tiny scale (Zipf
        // exposure + uniform negatives); require GNMR to be at least
        // competitive with it. The harness-scale comparison is Table II
        // (`repro table2`).
        assert!(
            gnmr.hr_at(10) > pop.hr_at(10) - 0.05,
            "GNMR {:.3} far below popularity {:.3}",
            gnmr.hr_at(10),
            pop.hr_at(10)
        );
    }

    #[test]
    fn ablated_variants_still_train() {
        let d = presets::tiny_movielens(3);
        for variant in [
            GnmrVariant::without_type_embedding(),
            GnmrVariant::without_message_aggregation(),
        ] {
            let mut model = Gnmr::new(&d.graph, quick_cfg(variant));
            let report = model.fit(&d.graph, &TrainConfig::fast_test());
            assert!(report.final_loss().is_finite(), "{} diverged", variant.label());
            assert!(model.is_ready());
        }
    }

    #[test]
    fn training_is_deterministic() {
        let d = presets::tiny_movielens(3);
        let run = || {
            let mut m = Gnmr::new(&d.graph, quick_cfg(GnmrVariant::full()));
            m.fit(&d.graph, &TrainConfig { epochs: 3, ..TrainConfig::fast_test() });
            m.score_pair(0, 0)
        };
        assert_eq!(run(), run());
    }

    /// 6 users x 5 items, behaviors `view` and `buy`; every user and
    /// item has an edge.
    fn hand_built_graph() -> MultiBehaviorGraph {
        let edges = [
            (0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 2, 0), (1, 3, 1), (2, 0, 1), (2, 4, 0),
            (3, 3, 0), (3, 4, 1), (4, 1, 0), (4, 2, 1), (5, 0, 0), (5, 3, 0), (5, 4, 1),
        ];
        let events = edges
            .iter()
            .enumerate()
            .map(|(ts, &(user, item, behavior))| Interaction { user, item, behavior, ts: ts as u32 })
            .collect();
        let log = InteractionLog::new(6, 5, vec!["view".into(), "buy".into()], events).unwrap();
        MultiBehaviorGraph::from_log(&log, "buy")
    }

    /// The full model and its four ablations.
    fn all_variants() -> [GnmrVariant; 5] {
        [
            GnmrVariant::full(),
            GnmrVariant::without_type_embedding(),
            GnmrVariant::without_message_aggregation(),
            GnmrVariant { cross_attention: false, ..GnmrVariant::full() },
            GnmrVariant { gated_fusion: false, ..GnmrVariant::full() },
        ]
    }

    /// Largest finite-difference error of one training step's loss
    /// over every parameter of a d 4, C 2, S 2, L 2 model.
    fn whole_model_grad_error(graph: &MultiBehaviorGraph, variant: GnmrVariant) -> f32 {
        let cfg = GnmrConfig {
            dim: 4,
            memory_dims: 2,
            heads: 2,
            layers: 2,
            fusion_hidden: 4,
            variant,
            pretrain: false,
            seed: 9,
            ..GnmrConfig::default()
        };
        let model = Gnmr::new(graph, cfg);
        // Small initial scores keep every hinge margin near 1, far from
        // the kink at 0.
        let batch = TrainBatch {
            users: vec![0, 1, 2, 3, 4, 5],
            pos_items: vec![1, 3, 0, 4, 2, 4],
            neg_items: vec![2, 0, 3, 1, 4, 1],
        };
        max_grad_error(model.params(), 5e-3, |ctx| model.step_loss(ctx, &batch))
    }

    #[test]
    fn whole_model_gradients_check_out() {
        // Every variant on the serial route, then again with the work
        // threshold floored and three threads configured, so every
        // forward kernel that dispatches crosses the pool's parallel
        // paths (the backward runs on the calling thread either way).
        // Serialized on the crate-wide config lock; globals restored
        // even on panic.
        let graph = hand_built_graph();
        let variants = all_variants();
        let _config = crate::PAR_CONFIG_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for variant in variants {
            let err = whole_model_grad_error(&graph, variant);
            assert!(err < 1e-2, "{} serial: err {err}", variant.label());
        }
        gnmr_tensor::kernels::set_min_work(Some(1));
        gnmr_tensor::par::set_threads(Some(3));
        let result = std::panic::catch_unwind(|| {
            variants.map(|variant| whole_model_grad_error(&graph, variant))
        });
        gnmr_tensor::kernels::set_min_work(None);
        gnmr_tensor::par::set_threads(None);
        let errs = result.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        for (variant, err) in variants.iter().zip(errs) {
            assert!(err < 1e-2, "{} parallel: err {err}", variant.label());
        }
    }

    /// The step's loss over the full forward, written out: every order
    /// over the whole graph, concatenated, and gathered by id.
    fn full_forward_loss(model: &Gnmr, ctx: &mut Ctx<'_>, batch: &TrainBatch) -> Var {
        let (user_orders, item_orders) = model.forward(ctx);
        let user_all = ctx.g.concat_cols(&user_orders);
        let item_all = ctx.g.concat_cols(&item_orders);
        let u = ctx.g.gather_rows(user_all, Arc::new(batch.users.clone()));
        let p = ctx.g.gather_rows(item_all, Arc::new(batch.pos_items.clone()));
        let n = ctx.g.gather_rows(item_all, Arc::new(batch.neg_items.clone()));
        let pos_scores = ctx.g.row_dot(u, p);
        let neg_scores = ctx.g.row_dot(u, n);
        pairwise_hinge(&mut ctx.g, pos_scores, neg_scores)
    }

    /// The bits of a loss and of every parameter gradient, by name.
    type StepBits = (u32, Vec<(String, Vec<u32>)>);

    /// Every variant at L 0 to 3 on `data`: a few sampled batches and
    /// one made by hand, each stepping Adam so later batches see moved
    /// parameters. Returns, per batch, the restricted step's bits and
    /// the full forward's.
    fn step_bits(data: &gnmr_data::Dataset, variants: &[GnmrVariant]) -> Vec<(String, StepBits, StepBits)> {
        let tcfg = TrainConfig::fast_test();
        let sampler = BatchSampler::new(&data.graph);
        // User 3 three times, item 2 both a positive and a negative,
        // item 5 a positive twice.
        let by_hand = TrainBatch {
            users: vec![3, 0, 3, 7, 3],
            pos_items: vec![5, 2, 9, 5, 1],
            neg_items: vec![2, 11, 4, 6, 8],
        };
        let mut out = Vec::new();
        for &variant in variants {
            for layers in 0..=3 {
                let mut model = Gnmr::new(&data.graph, GnmrConfig { layers, ..quick_cfg(variant) });
                let mut rng = StateRng::substream(11, 0x7212);
                let mut batches: Vec<TrainBatch> =
                    (0..3).map(|_| sampler.sample(tcfg.batch_users, tcfg.samples_per_user, &mut rng)).collect();
                batches.push(by_hand.clone());
                let mut opt = Adam::new(tcfg.lr);
                for (b, batch) in batches.iter().enumerate() {
                    let run = |model: &Gnmr, loss: &dyn Fn(&mut Ctx<'_>) -> Var| {
                        let mut ctx = Ctx::new(model.params());
                        let loss = loss(&mut ctx);
                        let value = ctx.g.value(loss).scalar_value();
                        (value, ctx.grads(loss))
                    };
                    let (got, grads) = run(&model, &|ctx| model.step_loss(ctx, batch));
                    let (want, want_grads) = run(&model, &|ctx| full_forward_loss(&model, ctx, batch));
                    let bits = |loss: f32, grads: &Grads| -> StepBits {
                        let grads = grads.iter().map(|(name, m)| {
                            (name.to_string(), m.data().iter().map(|v| v.to_bits()).collect())
                        });
                        (loss.to_bits(), grads.collect())
                    };
                    let case = format!("{} L {layers} batch {b}", variant.label());
                    out.push((case, bits(got, &grads), bits(want, &want_grads)));
                    opt.step(model.params_mut(), &grads);
                }
            }
        }
        out
    }

    #[test]
    fn step_loss_is_bitwise_the_full_forward_loss() {
        // One thread, then the work threshold floored and three threads
        // configured, so every forward kernel that dispatches crosses
        // the pool's parallel paths; the backward runs on the calling
        // thread either way. Serialized on the crate-wide config lock;
        // globals restored even on panic.
        let variants = all_variants();
        let datasets = [presets::tiny_movielens(3), presets::tiny_taobao(3)];
        let _config = crate::PAR_CONFIG_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        gnmr_tensor::par::set_threads(Some(1));
        let serial = std::panic::catch_unwind(|| datasets.each_ref().map(|d| step_bits(d, &variants)));
        gnmr_tensor::kernels::set_min_work(Some(1));
        gnmr_tensor::par::set_threads(Some(3));
        let parallel = std::panic::catch_unwind(|| datasets.each_ref().map(|d| step_bits(d, &variants)));
        gnmr_tensor::kernels::set_min_work(None);
        gnmr_tensor::par::set_threads(None);
        for result in [serial, parallel] {
            let cases = result.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (case, got, want) in cases.iter().flatten() {
                assert_eq!(got.0, want.0, "{case}: loss bits differ");
                assert_eq!(got.1.len(), want.1.len(), "{case}: gradient sets differ");
                for ((name, g), (want_name, w)) in got.1.iter().zip(&want.1) {
                    assert_eq!(name, want_name, "{case}: gradient sets differ");
                    assert!(g == w, "{case}: gradient of {name} differs");
                }
            }
        }
    }

    #[test]
    fn users_without_a_negative_are_skipped() {
        // 6 users x 4 items where user 0 bought every item: it has no
        // negative, so it cannot seed a pair.
        let mut edges: Vec<(u32, u32, u8)> = (0..4).map(|item| (0, item, 1)).collect();
        for user in 1..6 {
            edges.extend([(user, user % 4, 0), (user, (user + 1) % 4, 1)]);
        }
        let events = edges
            .into_iter()
            .map(|(user, item, behavior)| Interaction { user, item, behavior, ts: item })
            .collect();
        let log = InteractionLog::new(6, 4, vec!["view".into(), "buy".into()], events).unwrap();
        let graph = MultiBehaviorGraph::from_log(&log, "buy");
        let mut model = Gnmr::new(&graph, quick_cfg(GnmrVariant::full()));
        let report = model.fit(&graph, &TrainConfig { epochs: 2, ..TrainConfig::fast_test() });
        assert_eq!(report.epoch_losses.len(), 2);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()), "{:?}", report.epoch_losses);
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn fit_on_wrong_graph_panics() {
        let d1 = presets::tiny_movielens(3);
        let d2 = presets::tiny_taobao(3);
        let mut model = Gnmr::new(&d1.graph, quick_cfg(GnmrVariant::full()));
        model.fit(&d2.graph, &TrainConfig::fast_test());
    }
}
