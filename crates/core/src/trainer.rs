//! GNMR's fit (paper Algorithm 1 and Eq. 7) on the shared
//! [`Trainer`].
//!
//! Each step performs a full-graph forward pass, samples seed users with
//! `S` positive and `S` negative items each, scores the pairs by
//! multi-order matching, and minimizes the pairwise hinge loss
//! `max(0, 1 - Pr_{i,pos} + Pr_{i,neg})` plus Frobenius regularization
//! (as Adam weight decay) with per-epoch learning-rate decay 0.96.

use std::io;
use std::sync::Arc;

use gnmr_autograd::{pairwise_hinge, Adam, Ctx, Trainer, Var};
use gnmr_graph::{BatchSampler, MultiBehaviorGraph, TrainBatch};
use gnmr_tensor::rng::StateRng;
use gnmr_tensor::wire;

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
                (!batch.is_empty()).then(|| self.net.hinge_loss(ctx, batch))
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
    /// One step's loss on `ctx`: the full-graph forward, multi-order
    /// matching scores (`row_dot` of the concatenated orders) of the
    /// batch's (user, positive, negative) triples, and the Eq. 7
    /// pairwise hinge.
    pub(crate) fn hinge_loss(&self, ctx: &mut Ctx<'_>, batch: TrainBatch) -> Var {
        let (user_orders, item_orders) = self.forward(ctx);
        let user_all = ctx.g.concat_cols(&user_orders);
        let item_all = ctx.g.concat_cols(&item_orders);

        let u = ctx.g.gather_rows(user_all, Arc::new(batch.users));
        let p = ctx.g.gather_rows(item_all, Arc::new(batch.pos_items));
        let n = ctx.g.gather_rows(item_all, Arc::new(batch.neg_items));
        let pos_scores = ctx.g.row_dot(u, p);
        let neg_scores = ctx.g.row_dot(u, n);
        pairwise_hinge(&mut ctx.g, pos_scores, neg_scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GnmrConfig, GnmrVariant};
    use gnmr_autograd::max_grad_error;
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
        let batch = || TrainBatch {
            users: vec![0, 1, 2, 3, 4, 5],
            pos_items: vec![1, 3, 0, 4, 2, 4],
            neg_items: vec![2, 0, 3, 1, 4, 1],
        };
        max_grad_error(model.params(), 5e-3, |ctx| model.net.hinge_loss(ctx, batch()))
    }

    #[test]
    fn whole_model_gradients_check_out() {
        // Every variant on the serial route, then again with the work
        // threshold floored and three threads configured, so every
        // kernel of the forward and backward crosses the pool's
        // parallel paths. Serialized on the crate-wide config lock;
        // globals restored even on panic.
        let graph = hand_built_graph();
        let variants = [
            GnmrVariant::full(),
            GnmrVariant::without_type_embedding(),
            GnmrVariant::without_message_aggregation(),
            GnmrVariant { cross_attention: false, ..GnmrVariant::full() },
            GnmrVariant { gated_fusion: false, ..GnmrVariant::full() },
        ];
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
