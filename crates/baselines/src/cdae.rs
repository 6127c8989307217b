//! CDAE (Wu et al., WSDM 2016): collaborative denoising autoencoder.
//! Like user-based AutoRec but with (a) input corruption (dropout on the
//! observed profile) and (b) a per-user embedding added to the hidden
//! layer.

use std::sync::Arc;

use gnmr_autograd::{Activation, Ctx, Linear, ParamStore};
use gnmr_eval::Recommender;
use gnmr_graph::{BatchSampler, MultiBehaviorGraph};
use gnmr_tensor::{init, rng, Matrix};
use rand::Rng;

use crate::common::{dense_rows, trainer, BaselineConfig};

/// A trained CDAE model.
pub struct Cdae {
    reconstruction: Matrix,
    /// Per-epoch training losses.
    pub losses: Vec<f32>,
}

impl Cdae {
    /// Trains CDAE on the target behavior with corruption level `0.2`.
    pub fn fit(graph: &MultiBehaviorGraph, cfg: &BaselineConfig) -> Self {
        let corruption = 0.2f32;
        let mut store = ParamStore::new();
        let mut init_rng = rng::substream(cfg.seed, 0xCDAE);
        let j = graph.n_items();
        let hidden_dim = cfg.dim * 2;
        let enc = Linear::new(&mut store, &mut init_rng, "enc", j, hidden_dim);
        let dec = Linear::new(&mut store, &mut init_rng, "dec", hidden_dim, j);
        store.insert("user_emb", init::normal(graph.n_users(), hidden_dim, 0.0, 0.1, &mut init_rng));

        let ui = Arc::clone(graph.target_user_item());
        let sampler = BatchSampler::new(graph);
        let mut sample_rng = rng::substream(cfg.seed, 0xCDAF);
        let users_per_step = cfg.batch_users.max(1);
        let steps = sampler.eligible_users().len().div_ceil(users_per_step).max(1);
        let keep_scale = 1.0 / (1.0 - corruption);
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
                let clean = dense_rows(&ui, &batch);
                // Corrupt: drop observed entries with prob `corruption`,
                // rescaling survivors (inverted dropout).
                let mut corrupted = clean.clone();
                for v in corrupted.data_mut() {
                    if *v != 0.0 {
                        if sample_rng.gen_range(0.0f32..1.0) < corruption {
                            *v = 0.0;
                        } else {
                            *v *= keep_scale;
                        }
                    }
                }
                // Mask: positives + sampled negatives.
                let mut mask = clean.clone();
                for (r, &u) in batch.iter().enumerate() {
                    let n_pos = ui.row_nnz(u as usize);
                    for _ in 0..n_pos.max(1) {
                        let candidate = sample_rng.gen_range(0..j);
                        mask.row_mut(r)[candidate] = 1.0;
                    }
                }
                let x_clean = ctx.constant(clean);
                let x_cor = ctx.constant(corrupted);
                let maskv = ctx.constant(mask);
                let user_emb = ctx.param("user_emb");
                let u_vec = ctx.g.gather_rows(user_emb, Arc::new(batch));
                let enc_pre = enc.apply(ctx, x_cor);
                let with_user = ctx.g.add(enc_pre, u_vec);
                let hidden = Activation::Sigmoid.apply(ctx, with_user);
                let recon = dec.apply(ctx, hidden);
                let diff = ctx.g.sub(recon, x_clean);
                let sq = ctx.g.sqr(diff);
                let masked = ctx.g.mul(sq, maskv);
                Some(ctx.g.mean(masked))
            });
            losses.push(loss);
        }

        // Clean-input reconstruction for scoring.
        let all: Vec<u32> = (0..graph.n_users() as u32).collect();
        let mut reconstruction = Matrix::zeros(graph.n_users(), j);
        for chunk in all.chunks(512) {
            let chunk_arc = Arc::new(chunk.to_vec());
            let mut ctx = Ctx::new(&store);
            let x = ctx.constant(dense_rows(&ui, chunk));
            let user_emb = ctx.param("user_emb");
            let u_vec = ctx.g.gather_rows(user_emb, chunk_arc);
            let enc_pre = enc.apply(&mut ctx, x);
            let with_user = ctx.g.add(enc_pre, u_vec);
            let hidden = Activation::Sigmoid.apply(&mut ctx, with_user);
            let recon = dec.apply(&mut ctx, hidden);
            let r = ctx.g.value(recon);
            for (row, &u) in chunk.iter().enumerate() {
                reconstruction.row_mut(u as usize).copy_from_slice(r.row(row));
            }
        }
        Self { reconstruction, losses }
    }
}

impl Recommender for Cdae {
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
        let m = Cdae::fit(&d.graph, &BaselineConfig { epochs: 15, ..BaselineConfig::fast_test() });
        assert!(m.losses.last().unwrap().is_finite());
        let r = evaluate(&m, &d.test, &[10]);
        let rnd = evaluate(&RandomRecommender::new(1), &d.test, &[10]);
        assert!(r.hr_at(10) > rnd.hr_at(10), "CDAE {:.3} vs random {:.3}", r.hr_at(10), rnd.hr_at(10));
    }

    #[test]
    fn user_embedding_personalizes_reconstruction() {
        // Two users with disjoint profiles must get different
        // reconstructions.
        let d = presets::tiny_movielens(3);
        let m = Cdae::fit(&d.graph, &BaselineConfig { epochs: 5, ..BaselineConfig::fast_test() });
        let a = m.reconstruction.row(0);
        let b = m.reconstruction.row(1);
        assert!(a != b, "reconstructions identical");
    }

    #[test]
    fn epochs_without_a_step_report_nan() {
        // Views only: no user has a target interaction, so no epoch
        // takes a step, and a mean over zero steps is NaN, not 0.
        let view = gnmr_graph::Interaction { user: 0, item: 1, behavior: 0, ts: 0 };
        let log = gnmr_graph::InteractionLog::new(3, 4, vec!["view".into(), "buy".into()], vec![view]).unwrap();
        let graph = MultiBehaviorGraph::from_log(&log, "buy");
        let m = Cdae::fit(&graph, &BaselineConfig { epochs: 2, ..BaselineConfig::fast_test() });
        assert_eq!(m.losses.len(), 2);
        assert!(m.losses.iter().all(|l| l.is_nan()), "{:?}", m.losses);
    }
}
