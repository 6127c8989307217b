//! NADE (Zheng et al., ICML 2016): neural autoregressive collaborative
//! filtering with parameter sharing.
//!
//! Implicit-feedback reduction: a single conditional step given the
//! user's observed item set. The hidden state is
//! `h_u = tanh(c + sum_{j in obs(u)} W_j)` — computed for all users at
//! once as `tanh(A W + c)` with the target adjacency `A` — and an item's
//! conditional score is `b_i + V_i . h_u`. The weight-sharing,
//! set-conditional character of CF-NADE is preserved; the per-ordering
//! chain rule is collapsed to one step for tractability.

use std::sync::Arc;

use gnmr_autograd::{Ctx, ParamStore, Var};
use gnmr_eval::Recommender;
use gnmr_graph::MultiBehaviorGraph;
use gnmr_tensor::{init, rng, Matrix};

use crate::common::{train_pairwise, BaselineConfig};

/// A trained NADE model.
pub struct Nade {
    hidden: Matrix,
    item_out: Matrix,
    item_bias: Matrix,
    /// Per-epoch training losses.
    pub losses: Vec<f32>,
}

impl Nade {
    /// Trains NADE on the target behavior.
    pub fn fit(graph: &MultiBehaviorGraph, cfg: &BaselineConfig) -> Self {
        let mut store = ParamStore::new();
        let mut init_rng = rng::substream(cfg.seed, 0x4ADE);
        store.insert("w_in", init::normal(graph.n_items(), cfg.dim, 0.0, 0.1, &mut init_rng));
        store.insert("v_out", init::normal(graph.n_items(), cfg.dim, 0.0, 0.1, &mut init_rng));
        store.insert("b_item", Matrix::zeros(graph.n_items(), 1));
        store.insert("c", Matrix::zeros(1, cfg.dim));

        let adj = Arc::clone(graph.target_user_item());
        // Degree-normalize the profile sum so very active users do not
        // saturate tanh.
        let adj_norm = Arc::new(adj.row_normalized());

        let hidden_of = |ctx: &mut Ctx<'_>| -> Var {
            let w_in = ctx.param("w_in");
            let c = ctx.param("c");
            let agg = ctx.g.spmm(Arc::clone(&adj_norm), w_in);
            let shifted = ctx.g.add_row_broadcast(agg, c);
            ctx.g.tanh(shifted)
        };

        let losses = train_pairwise(graph, &mut store, cfg, 0xBA5E, |ctx, users, pos, neg| {
            let h = hidden_of(ctx);
            let v_out = ctx.param("v_out");
            let b = ctx.param("b_item");
            let hu = ctx.g.gather_rows(h, users);
            let score = |ctx: &mut Ctx<'_>, items: Arc<Vec<u32>>| {
                let vi = ctx.g.gather_rows(v_out, items.clone());
                let bi = ctx.g.gather_rows(b, items);
                let dot = ctx.g.row_dot(hu, vi);
                ctx.g.add(dot, bi)
            };
            let p = score(ctx, pos);
            let n = score(ctx, neg);
            (p, n)
        });

        // Materialize the hidden states for scoring.
        let hidden = {
            let mut ctx = Ctx::new(&store);
            let h = hidden_of(&mut ctx);
            ctx.g.value(h).clone()
        };
        Self {
            hidden,
            item_out: store.get("v_out").clone(),
            item_bias: store.get("b_item").clone(),
            losses,
        }
    }
}

impl Recommender for Nade {
    fn score(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let h = self.hidden.row(user as usize);
        items
            .iter()
            .map(|&i| {
                let dot: f32 = h.iter().zip(self.item_out.row(i as usize)).map(|(a, b)| a * b).sum();
                dot + self.item_bias.get(i as usize, 0)
            })
            .collect()
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
        let m = Nade::fit(&d.graph, &BaselineConfig { epochs: 20, ..BaselineConfig::fast_test() });
        assert!(m.losses.last().unwrap() < &m.losses[0]);
        let r = evaluate(&m, &d.test, &[10]);
        let rnd = evaluate(&RandomRecommender::new(1), &d.test, &[10]);
        assert!(r.hr_at(10) > rnd.hr_at(10), "NADE {:.3} vs random {:.3}", r.hr_at(10), rnd.hr_at(10));
    }

    #[test]
    fn hidden_states_are_bounded_by_tanh() {
        let d = presets::tiny_movielens(3);
        let m = Nade::fit(&d.graph, &BaselineConfig { epochs: 2, ..BaselineConfig::fast_test() });
        assert!(m.hidden.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }
}
