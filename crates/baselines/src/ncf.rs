//! NCF (He et al., WWW 2017): neural collaborative filtering in its three
//! variants from the paper's Table II:
//!
//! * **NCF-G** (GMF): weighted element-wise product of embeddings;
//! * **NCF-M** (MLP): a multi-layer perceptron over concatenated
//!   embeddings;
//! * **NCF-N** (NeuMF): fusion of GMF and MLP with separate embedding
//!   tables.

use std::sync::Arc;

use gnmr_autograd::{Activation, Ctx, Mlp, ParamStore, Var};
use gnmr_eval::Recommender;
use gnmr_graph::MultiBehaviorGraph;
use gnmr_tensor::{init, rng};

use crate::common::{train_pairwise, BaselineConfig};

/// Which NCF interaction function to use.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NcfVariant {
    /// Generalized matrix factorization (element-wise product).
    Gmf,
    /// Multi-layer perceptron over concatenated embeddings.
    Mlp,
    /// NeuMF: GMF and MLP fused.
    NeuMf,
}

impl NcfVariant {
    /// The paper's label for this variant.
    pub fn label(&self) -> &'static str {
        match self {
            NcfVariant::Gmf => "NCF-G",
            NcfVariant::Mlp => "NCF-M",
            NcfVariant::NeuMf => "NCF-N",
        }
    }
}

struct NcfNet {
    variant: NcfVariant,
    mlp: Option<Mlp>,
}

impl NcfNet {
    fn build(store: &mut ParamStore, graph: &MultiBehaviorGraph, cfg: &BaselineConfig, variant: NcfVariant) -> Self {
        let mut init_rng = rng::substream(cfg.seed, 0x4E43);
        let d = cfg.dim;
        if matches!(variant, NcfVariant::Gmf | NcfVariant::NeuMf) {
            store.insert("gmf.u", init::normal(graph.n_users(), d, 0.0, 0.1, &mut init_rng));
            store.insert("gmf.v", init::normal(graph.n_items(), d, 0.0, 0.1, &mut init_rng));
            store.insert("gmf.w", init::xavier_uniform(d, 1, &mut init_rng));
        }
        let mlp = if matches!(variant, NcfVariant::Mlp | NcfVariant::NeuMf) {
            store.insert("mlp.u", init::normal(graph.n_users(), d, 0.0, 0.1, &mut init_rng));
            store.insert("mlp.v", init::normal(graph.n_items(), d, 0.0, 0.1, &mut init_rng));
            Some(Mlp::new(
                store,
                &mut init_rng,
                "mlp.tower",
                &[2 * d, 2 * d, d, 1],
                Activation::Relu,
                Activation::None,
            ))
        } else {
            None
        };
        Self { variant, mlp }
    }

    /// Scores a batch of `(user, item)` pairs on the tape.
    fn score_batch(&self, ctx: &mut Ctx<'_>, users: Arc<Vec<u32>>, items: Arc<Vec<u32>>) -> Var {
        let gmf_part = matches!(self.variant, NcfVariant::Gmf | NcfVariant::NeuMf).then(|| {
            let u = ctx.param("gmf.u");
            let v = ctx.param("gmf.v");
            let w = ctx.param("gmf.w");
            let ue = ctx.g.gather_rows(u, users.clone());
            let ie = ctx.g.gather_rows(v, items.clone());
            let prod = ctx.g.mul(ue, ie);
            ctx.g.matmul(prod, w)
        });
        let mlp_part = self.mlp.as_ref().map(|mlp| {
            let u = ctx.param("mlp.u");
            let v = ctx.param("mlp.v");
            let ue = ctx.g.gather_rows(u, users.clone());
            let ie = ctx.g.gather_rows(v, items.clone());
            let cat = ctx.g.concat_cols(&[ue, ie]);
            mlp.apply(ctx, cat)
        });
        match (gmf_part, mlp_part) {
            (Some(g), Some(m)) => ctx.g.add(g, m),
            (Some(g), None) => g,
            (None, Some(m)) => m,
            (None, None) => unreachable!("NCF net must have at least one branch"),
        }
    }
}

/// A trained NCF model.
pub struct Ncf {
    store: ParamStore,
    net: NcfNet,
    /// Per-epoch training losses.
    pub losses: Vec<f32>,
}

impl Ncf {
    /// Trains the requested NCF variant on the target behavior.
    pub fn fit(graph: &MultiBehaviorGraph, cfg: &BaselineConfig, variant: NcfVariant) -> Self {
        let mut store = ParamStore::new();
        let net = NcfNet::build(&mut store, graph, cfg, variant);
        let losses = train_pairwise(graph, &mut store, cfg, 0xBA5E, |ctx, users, pos, neg| {
            let p = net.score_batch(ctx, users.clone(), pos);
            let n = net.score_batch(ctx, users, neg);
            (p, n)
        });
        Self { store, net, losses }
    }

    /// The trained variant.
    pub fn variant(&self) -> NcfVariant {
        self.net.variant
    }
}

impl Recommender for Ncf {
    fn score(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let users = Arc::new(vec![user; items.len()]);
        let items = Arc::new(items.to_vec());
        let mut ctx = Ctx::new(&self.store);
        let s = self.net.score_batch(&mut ctx, users, items);
        ctx.g.value(s).clone().into_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnmr_data::presets;
    use gnmr_eval::{evaluate, RandomRecommender};

    #[test]
    fn all_variants_train_and_beat_random() {
        let d = presets::tiny_movielens(3);
        let rnd = evaluate(&RandomRecommender::new(1), &d.test, &[10]).hr_at(10);
        for variant in [NcfVariant::Gmf, NcfVariant::Mlp, NcfVariant::NeuMf] {
            let m = Ncf::fit(&d.graph, &BaselineConfig { epochs: 20, ..BaselineConfig::fast_test() }, variant);
            assert!(m.losses.last().unwrap().is_finite());
            let hr = evaluate(&m, &d.test, &[10]).hr_at(10);
            assert!(hr > rnd, "{} {hr:.3} vs random {rnd:.3}", variant.label());
            assert_eq!(m.variant(), variant);
        }
    }

    #[test]
    fn variant_labels_match_paper() {
        assert_eq!(NcfVariant::Gmf.label(), "NCF-G");
        assert_eq!(NcfVariant::Mlp.label(), "NCF-M");
        assert_eq!(NcfVariant::NeuMf.label(), "NCF-N");
    }

    #[test]
    fn neumf_has_both_branches() {
        let d = presets::tiny_movielens(3);
        let m = Ncf::fit(&d.graph, &BaselineConfig { epochs: 1, ..BaselineConfig::fast_test() }, NcfVariant::NeuMf);
        assert!(m.store.contains("gmf.u"));
        assert!(m.store.contains("mlp.u"));
        let g = Ncf::fit(&d.graph, &BaselineConfig { epochs: 1, ..BaselineConfig::fast_test() }, NcfVariant::Gmf);
        assert!(!g.store.contains("mlp.u"));
    }
}
