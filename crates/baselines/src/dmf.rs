//! DMF (Xue et al., IJCAI 2017): deep matrix factorization — two MLP
//! towers over the raw user/item interaction profiles of the target
//! behavior, matched by inner product in the projected space.

use std::sync::Arc;

use gnmr_autograd::{Activation, Mlp, ParamStore};
use gnmr_eval::Recommender;
use gnmr_graph::MultiBehaviorGraph;
use gnmr_tensor::{rng, Matrix};

use crate::common::{dense_rows, train_pairwise, BaselineConfig};

/// A trained DMF model: the projected user and item representations.
pub struct Dmf {
    user_repr: Matrix,
    item_repr: Matrix,
    /// Per-epoch training losses.
    pub losses: Vec<f32>,
}

impl Dmf {
    /// Trains DMF on the target behavior of `graph`.
    pub fn fit(graph: &MultiBehaviorGraph, cfg: &BaselineConfig) -> Self {
        let mut store = ParamStore::new();
        let mut init_rng = rng::substream(cfg.seed, 0xD3F);
        let hidden = (cfg.dim * 4).max(32);
        let user_tower = Mlp::new(
            &mut store,
            &mut init_rng,
            "ut",
            &[graph.n_items(), hidden, cfg.dim],
            Activation::Relu,
            Activation::None,
        );
        let item_tower = Mlp::new(
            &mut store,
            &mut init_rng,
            "it",
            &[graph.n_users(), hidden, cfg.dim],
            Activation::Relu,
            Activation::None,
        );

        let ui = Arc::clone(graph.target_user_item());
        let iu = Arc::new(graph.target_user_item().transpose());

        let losses = train_pairwise(graph, &mut store, cfg, 0xBA5E, |ctx, users, pos, neg| {
            let u_profiles = ctx.constant(dense_rows(&ui, &users));
            let p_profiles = ctx.constant(dense_rows(&iu, &pos));
            let n_profiles = ctx.constant(dense_rows(&iu, &neg));
            let u_repr = user_tower.apply(ctx, u_profiles);
            let p_repr = item_tower.apply(ctx, p_profiles);
            let n_repr = item_tower.apply(ctx, n_profiles);
            let p = ctx.g.row_dot(u_repr, p_repr);
            let n = ctx.g.row_dot(u_repr, n_repr);
            (p, n)
        });

        // Project every user and item once for fast scoring.
        let all_users: Vec<u32> = (0..graph.n_users() as u32).collect();
        let all_items: Vec<u32> = (0..graph.n_items() as u32).collect();
        let user_repr = {
            let mut ctx = gnmr_autograd::Ctx::new(&store);
            let x = ctx.constant(dense_rows(&ui, &all_users));
            let r = user_tower.apply(&mut ctx, x);
            ctx.g.value(r).clone()
        };
        let item_repr = {
            let mut ctx = gnmr_autograd::Ctx::new(&store);
            let x = ctx.constant(dense_rows(&iu, &all_items));
            let r = item_tower.apply(&mut ctx, x);
            ctx.g.value(r).clone()
        };
        Self { user_repr, item_repr, losses }
    }
}

impl Recommender for Dmf {
    fn score(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let urow = self.user_repr.row(user as usize);
        items
            .iter()
            .map(|&i| urow.iter().zip(self.item_repr.row(i as usize)).map(|(a, b)| a * b).sum())
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
        let m = Dmf::fit(&d.graph, &BaselineConfig { epochs: 15, ..BaselineConfig::fast_test() });
        assert!(m.losses.last().unwrap() < &m.losses[0], "no learning: {:?}", m.losses);
        let r = evaluate(&m, &d.test, &[10]);
        let rnd = evaluate(&RandomRecommender::new(1), &d.test, &[10]);
        assert!(r.hr_at(10) > rnd.hr_at(10), "DMF {:.3} vs random {:.3}", r.hr_at(10), rnd.hr_at(10));
    }

    #[test]
    fn representations_have_model_dim() {
        let d = presets::tiny_movielens(3);
        let m = Dmf::fit(&d.graph, &BaselineConfig { epochs: 2, dim: 8, ..BaselineConfig::fast_test() });
        assert_eq!(m.user_repr.shape(), (d.graph.n_users(), 8));
        assert_eq!(m.item_repr.shape(), (d.graph.n_items(), 8));
        assert!(m.user_repr.is_finite());
    }
}
