//! NGCF (Wang et al., SIGIR 2019): neural graph collaborative filtering
//! on the target-behavior interaction graph.
//!
//! Each layer propagates `m_u = A_norm E_v` with the bi-interaction term:
//! `e_u' = LeakyReLU((e_u + m_u) W1 + (m_u ⊙ e_u) W2)` (and symmetrically
//! for items); per-order embeddings are concatenated for scoring, as in
//! the original.

use std::sync::Arc;

use gnmr_autograd::{Ctx, ParamStore, Var};
use gnmr_eval::Recommender;
use gnmr_graph::MultiBehaviorGraph;
use gnmr_tensor::{init, rng, Csr, Matrix};

use crate::common::{train_pairwise, BaselineConfig};

/// A trained NGCF model.
pub struct Ngcf {
    user_repr: Matrix,
    item_repr: Matrix,
    /// Per-epoch training losses.
    pub losses: Vec<f32>,
}

struct NgcfNet {
    layers: usize,
    adj_ui: Arc<Csr>,
    adj_iu: Arc<Csr>,
}

impl NgcfNet {
    fn forward(&self, ctx: &mut Ctx<'_>) -> (Var, Var) {
        let mut e_u = ctx.param("emb.user");
        let mut e_v = ctx.param("emb.item");
        let mut user_orders = vec![e_u];
        let mut item_orders = vec![e_v];
        for l in 0..self.layers {
            let w1 = ctx.param(&format!("l{l}.w1"));
            let w2 = ctx.param(&format!("l{l}.w2"));
            let m_u = ctx.g.spmm(Arc::clone(&self.adj_ui), e_v);
            let m_v = ctx.g.spmm(Arc::clone(&self.adj_iu), e_u);

            let side = |ctx: &mut Ctx<'_>, e: Var, m: Var| -> Var {
                let self_plus_msg = ctx.g.add(e, m);
                let lin = ctx.g.matmul(self_plus_msg, w1);
                let bi = ctx.g.mul(m, e);
                let bi_lin = ctx.g.matmul(bi, w2);
                let s = ctx.g.add(lin, bi_lin);
                ctx.g.leaky_relu(s, 0.2)
            };
            let nu = side(ctx, e_u, m_u);
            let nv = side(ctx, e_v, m_v);
            user_orders.push(nu);
            item_orders.push(nv);
            e_u = nu;
            e_v = nv;
        }
        (ctx.g.concat_cols(&user_orders), ctx.g.concat_cols(&item_orders))
    }
}

impl Ngcf {
    /// Trains a 2-layer NGCF on the target behavior.
    pub fn fit(graph: &MultiBehaviorGraph, cfg: &BaselineConfig) -> Self {
        let layers = 2;
        let mut store = ParamStore::new();
        let mut init_rng = rng::substream(cfg.seed, 0x46CF);
        store.insert("emb.user", init::normal(graph.n_users(), cfg.dim, 0.0, 0.1, &mut init_rng));
        store.insert("emb.item", init::normal(graph.n_items(), cfg.dim, 0.0, 0.1, &mut init_rng));
        for l in 0..layers {
            store.insert(format!("l{l}.w1"), init::xavier_uniform(cfg.dim, cfg.dim, &mut init_rng));
            store.insert(format!("l{l}.w2"), init::xavier_uniform(cfg.dim, cfg.dim, &mut init_rng));
        }
        let net = NgcfNet {
            layers,
            adj_ui: Arc::new(graph.target_user_item().sym_normalized()),
            adj_iu: Arc::new(graph.item_user(graph.target()).sym_normalized()),
        };

        let losses = train_pairwise(graph, &mut store, cfg, 0xBA5E, |ctx, users, pos, neg| {
            let (u_all, v_all) = net.forward(ctx);
            let ue = ctx.g.gather_rows(u_all, users);
            let pe = ctx.g.gather_rows(v_all, pos);
            let ne = ctx.g.gather_rows(v_all, neg);
            (ctx.g.row_dot(ue, pe), ctx.g.row_dot(ue, ne))
        });

        let (user_repr, item_repr) = {
            let mut ctx = Ctx::new(&store);
            let (u, v) = net.forward(&mut ctx);
            (ctx.g.value(u).clone(), ctx.g.value(v).clone())
        };
        Self { user_repr, item_repr, losses }
    }
}

impl Recommender for Ngcf {
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
        let m = Ngcf::fit(&d.graph, &BaselineConfig { epochs: 25, ..BaselineConfig::fast_test() });
        assert!(m.losses.last().unwrap() < &m.losses[0]);
        let r = evaluate(&m, &d.test, &[10]);
        let rnd = evaluate(&RandomRecommender::new(1), &d.test, &[10]);
        assert!(r.hr_at(10) > rnd.hr_at(10) + 0.1, "NGCF {:.3} vs random {:.3}", r.hr_at(10), rnd.hr_at(10));
    }

    #[test]
    fn representation_width_is_orders_times_dim() {
        let d = presets::tiny_movielens(3);
        let m = Ngcf::fit(&d.graph, &BaselineConfig { epochs: 1, dim: 8, ..BaselineConfig::fast_test() });
        assert_eq!(m.user_repr.cols(), 8 * 3); // order 0 + 2 layers
        assert_eq!(m.item_repr.cols(), 8 * 3);
        assert!(m.user_repr.is_finite());
    }
}
