//! BiasMF (Koren et al., 2009): matrix factorization with user and item
//! bias terms, trained with the unified pairwise ranking objective on the
//! target behavior.

use gnmr_autograd::ParamStore;
use gnmr_eval::Recommender;
use gnmr_graph::MultiBehaviorGraph;
use gnmr_tensor::{init, rng, Matrix};

use crate::common::{train_pairwise, BaselineConfig};

/// A trained BiasMF model.
pub struct BiasMf {
    user_emb: Matrix,
    item_emb: Matrix,
    user_bias: Matrix,
    item_bias: Matrix,
    /// Per-epoch training losses (for diagnostics).
    pub losses: Vec<f32>,
}

impl BiasMf {
    /// Trains BiasMF on the target behavior of `graph`.
    pub fn fit(graph: &MultiBehaviorGraph, cfg: &BaselineConfig) -> Self {
        let mut store = ParamStore::new();
        let mut init_rng = rng::substream(cfg.seed, 0xB1A5);
        store.insert("u", init::normal(graph.n_users(), cfg.dim, 0.0, 0.1, &mut init_rng));
        store.insert("v", init::normal(graph.n_items(), cfg.dim, 0.0, 0.1, &mut init_rng));
        store.insert("bu", Matrix::zeros(graph.n_users(), 1));
        store.insert("bi", Matrix::zeros(graph.n_items(), 1));

        let losses = train_pairwise(graph, &mut store, cfg, 0xBA5E, |ctx, users, pos, neg| {
            let u = ctx.param("u");
            let v = ctx.param("v");
            let bu = ctx.param("bu");
            let bi = ctx.param("bi");
            let ue = ctx.g.gather_rows(u, users.clone());
            let bue = ctx.g.gather_rows(bu, users);

            let score = |ctx: &mut gnmr_autograd::Ctx<'_>, items: std::sync::Arc<Vec<u32>>| {
                let ie = ctx.g.gather_rows(v, items.clone());
                let bie = ctx.g.gather_rows(bi, items);
                let dot = ctx.g.row_dot(ue, ie);
                let with_user = ctx.g.add(dot, bue);
                ctx.g.add(with_user, bie)
            };
            let p = score(ctx, pos);
            let n = score(ctx, neg);
            (p, n)
        });

        Self {
            user_emb: store.get("u").clone(),
            item_emb: store.get("v").clone(),
            user_bias: store.get("bu").clone(),
            item_bias: store.get("bi").clone(),
            losses,
        }
    }
}

impl Recommender for BiasMf {
    fn score(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let urow = self.user_emb.row(user as usize);
        let ub = self.user_bias.get(user as usize, 0);
        items
            .iter()
            .map(|&i| {
                let dot: f32 = urow.iter().zip(self.item_emb.row(i as usize)).map(|(a, b)| a * b).sum();
                dot + ub + self.item_bias.get(i as usize, 0)
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
        let m = BiasMf::fit(&d.graph, &BaselineConfig { epochs: 25, ..BaselineConfig::fast_test() });
        assert!(m.losses.last().unwrap() < &m.losses[0]);
        let r = evaluate(&m, &d.test, &[10]);
        let rnd = evaluate(&RandomRecommender::new(1), &d.test, &[10]);
        assert!(r.hr_at(10) > rnd.hr_at(10) + 0.1, "BiasMF {:.3} vs random {:.3}", r.hr_at(10), rnd.hr_at(10));
    }

    #[test]
    fn bias_terms_affect_scores() {
        let d = presets::tiny_movielens(3);
        let m = BiasMf::fit(&d.graph, &BaselineConfig { epochs: 5, ..BaselineConfig::fast_test() });
        // Popular items should on average have larger biases than never-
        // interacted ones after training.
        let target = d.graph.target_user_item();
        let (mut pop_b, mut cold_b) = (Vec::new(), Vec::new());
        let mut degrees = vec![0usize; d.graph.n_items()];
        for (_, i, _) in target.iter() {
            degrees[i as usize] += 1;
        }
        for (i, &deg) in degrees.iter().enumerate() {
            if deg >= 5 {
                pop_b.push(m.item_bias.get(i, 0));
            } else if deg == 0 {
                cold_b.push(m.item_bias.get(i, 0));
            }
        }
        if !pop_b.is_empty() && !cold_b.is_empty() {
            assert!(gnmr_tensor::stats::mean(&pop_b) > gnmr_tensor::stats::mean(&cold_b));
        }
    }

    #[test]
    fn deterministic() {
        let d = presets::tiny_movielens(3);
        let cfg = BaselineConfig { epochs: 3, ..BaselineConfig::fast_test() };
        let a = BiasMf::fit(&d.graph, &cfg);
        let b = BiasMf::fit(&d.graph, &cfg);
        assert_eq!(a.score(0, &[1, 2, 3]), b.score(0, &[1, 2, 3]));
    }
}
