//! AutoRec (Sedhain et al., WWW 2015): autoencoder collaborative
//! filtering. User-based variant: the user's target-behavior interaction
//! profile is encoded to a hidden representation and decoded back; the
//! reconstruction at an item's coordinate is its score.
//!
//! For implicit feedback the reconstruction loss is computed on observed
//! positives plus sampled negatives (as in the paper's binary protocol).

use std::sync::Arc;

use gnmr_autograd::{Activation, Ctx, Linear, ParamStore};
use gnmr_eval::Recommender;
use gnmr_graph::{BatchSampler, MultiBehaviorGraph};
use gnmr_tensor::{rng, Matrix};
use rand::Rng;

use crate::common::{dense_rows, trainer, BaselineConfig};

/// A trained AutoRec model: the full reconstruction matrix.
pub struct AutoRec {
    reconstruction: Matrix,
    /// Per-epoch training losses.
    pub losses: Vec<f32>,
}

impl AutoRec {
    /// Trains user-based AutoRec on the target behavior.
    pub fn fit(graph: &MultiBehaviorGraph, cfg: &BaselineConfig) -> Self {
        let mut store = ParamStore::new();
        let mut init_rng = rng::substream(cfg.seed, 0xA07);
        let j = graph.n_items();
        let enc = Linear::new(&mut store, &mut init_rng, "enc", j, cfg.dim * 2);
        let dec = Linear::new(&mut store, &mut init_rng, "dec", cfg.dim * 2, j);

        let ui = Arc::clone(graph.target_user_item());
        let sampler = BatchSampler::new(graph);
        let mut sample_rng = rng::substream(cfg.seed, 0xA08);
        let users_per_step = cfg.batch_users.max(1);
        let steps = sampler.eligible_users().len().div_ceil(users_per_step).max(1);
        let mut trainer = trainer(cfg);
        let mut losses = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            let (loss, _) = trainer.epoch(&mut store, steps, |ctx| {
                let eligible = sampler.eligible_users();
                if eligible.is_empty() {
                    return None;
                }
                let batch: Vec<u32> = (0..users_per_step)
                    .map(|_| eligible[sample_rng.gen_range(0..eligible.len())])
                    .collect();
                let x = dense_rows(&ui, &batch);
                // Mask: positives + an equal number of sampled negatives.
                let mut mask = x.clone();
                for (r, &u) in batch.iter().enumerate() {
                    let n_pos = ui.row_nnz(u as usize);
                    for _ in 0..n_pos.max(1) {
                        let candidate = sample_rng.gen_range(0..j);
                        mask.row_mut(r)[candidate] = 1.0;
                    }
                }
                let xv = ctx.constant(x);
                let maskv = ctx.constant(mask);
                let hidden_pre = enc.apply(ctx, xv);
                let hidden = Activation::Sigmoid.apply(ctx, hidden_pre);
                let recon = dec.apply(ctx, hidden);
                let diff = ctx.g.sub(recon, xv);
                let sq = ctx.g.sqr(diff);
                let masked = ctx.g.mul(sq, maskv);
                Some(ctx.g.mean(masked))
            });
            losses.push(loss);
        }

        // Reconstruct every user once.
        let all: Vec<u32> = (0..graph.n_users() as u32).collect();
        let mut reconstruction = Matrix::zeros(graph.n_users(), j);
        for chunk in all.chunks(512) {
            let mut ctx = Ctx::new(&store);
            let x = ctx.constant(dense_rows(&ui, chunk));
            let hidden_pre = enc.apply(&mut ctx, x);
            let hidden = Activation::Sigmoid.apply(&mut ctx, hidden_pre);
            let recon = dec.apply(&mut ctx, hidden);
            let r = ctx.g.value(recon);
            for (row, &u) in chunk.iter().enumerate() {
                reconstruction.row_mut(u as usize).copy_from_slice(r.row(row));
            }
        }
        Self { reconstruction, losses }
    }
}

impl Recommender for AutoRec {
    fn score(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let row = self.reconstruction.row(user as usize);
        items.iter().map(|&i| row[i as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnmr_data::presets;
    use gnmr_eval::{evaluate, RandomRecommender};

    #[test]
    fn trains_and_beats_random() {
        let d = presets::tiny_movielens(3);
        let m = AutoRec::fit(&d.graph, &BaselineConfig { epochs: 15, ..BaselineConfig::fast_test() });
        assert!(m.losses.last().unwrap().is_finite());
        let r = evaluate(&m, &d.test, &[10]);
        let rnd = evaluate(&RandomRecommender::new(1), &d.test, &[10]);
        assert!(r.hr_at(10) > rnd.hr_at(10), "AutoRec {:.3} vs random {:.3}", r.hr_at(10), rnd.hr_at(10));
    }

    #[test]
    fn reconstruction_favors_observed_items() {
        let d = presets::tiny_movielens(3);
        let m = AutoRec::fit(&d.graph, &BaselineConfig { epochs: 15, ..BaselineConfig::fast_test() });
        // Mean reconstruction at interacted coordinates must exceed the
        // global mean (the autoencoder has learned the profile support).
        let ui = d.graph.target_user_item();
        let mut on = Vec::new();
        for (u, i, _) in ui.iter().take(500) {
            on.push(m.reconstruction.get(u as usize, i as usize));
        }
        let on_mean = gnmr_tensor::stats::mean(&on);
        let global = m.reconstruction.mean();
        assert!(on_mean > global, "on {on_mean} vs global {global}");
    }

    #[test]
    fn epochs_without_a_step_report_nan() {
        // Views only: no user has a target interaction, so no epoch
        // takes a step, and a mean over zero steps is NaN, not 0.
        let view = gnmr_graph::Interaction { user: 0, item: 1, behavior: 0, ts: 0 };
        let log = gnmr_graph::InteractionLog::new(3, 4, vec!["view".into(), "buy".into()], vec![view]).unwrap();
        let graph = MultiBehaviorGraph::from_log(&log, "buy");
        let m = AutoRec::fit(&graph, &BaselineConfig { epochs: 2, ..BaselineConfig::fast_test() });
        assert_eq!(m.losses.len(), 2);
        assert!(m.losses.iter().all(|l| l.is_nan()), "{:?}", m.losses);
    }
}
