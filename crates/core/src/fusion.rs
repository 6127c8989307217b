//! The gated message aggregation psi (paper Eq. 4-5).
//!
//! Each node weighs its K behavior-type embeddings with a softmax over
//! per-behavior importance scores
//! `gamma_k = w2^T ReLU(W3 h_k + b2) + b3`, then sums.

use gnmr_autograd::{Ctx, ParamStore, Var};
use gnmr_tensor::{init, Matrix};
use rand::Rng;

use crate::config::GnmrConfig;

/// Registers the psi parameters under `prefix`.
pub(crate) fn register(store: &mut ParamStore, rng: &mut impl Rng, prefix: &str, cfg: &GnmrConfig) {
    let (d, dh) = (cfg.dim, cfg.fusion_hidden);
    store.insert(format!("{prefix}.w3"), init::xavier_uniform(d, dh, rng));
    store.insert(format!("{prefix}.b2"), Matrix::zeros(1, dh));
    store.insert(format!("{prefix}.w2"), init::xavier_uniform(dh, 1, rng));
    store.insert(format!("{prefix}.b3"), Matrix::zeros(1, 1));
}

/// Applies gated fusion over the K behavior embeddings, returning `(n, d)`.
pub(crate) fn apply(ctx: &mut Ctx<'_>, prefix: &str, behaviors: &[Var]) -> Var {
    debug_assert!(!behaviors.is_empty());
    let w3 = ctx.param(&format!("{prefix}.w3"));
    let b2 = ctx.param(&format!("{prefix}.b2"));
    let w2 = ctx.param(&format!("{prefix}.w2"));
    let b3 = ctx.param(&format!("{prefix}.b3"));

    let mut gamma_cols = Vec::with_capacity(behaviors.len());
    for &h in behaviors {
        let hidden_pre = ctx.g.matmul(h, w3);
        let hidden_pre = ctx.g.add_row_broadcast(hidden_pre, b2);
        let hidden = ctx.g.relu(hidden_pre); // (n, d')
        let score = ctx.g.matmul(hidden, w2); // (n, 1)
        gamma_cols.push(ctx.g.add_row_broadcast(score, b3));
    }
    let gamma = ctx.g.concat_cols(&gamma_cols); // (n, K)
    let weights = ctx.g.softmax_rows(gamma);
    ctx.g.weighted_sum(weights, behaviors)
}

/// The fallback used by the GNMR-ma ablation: a uniform average over
/// behavior embeddings.
pub(crate) fn uniform(ctx: &mut Ctx<'_>, behaviors: &[Var]) -> Var {
    debug_assert!(!behaviors.is_empty());
    let mut acc = behaviors[0];
    for &h in &behaviors[1..] {
        acc = ctx.g.add(acc, h);
    }
    ctx.g.scale(acc, 1.0 / behaviors.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnmr_autograd::max_grad_error;
    use gnmr_tensor::rng::seeded;

    fn cfg() -> GnmrConfig {
        GnmrConfig { dim: 6, fusion_hidden: 5, heads: 2, ..GnmrConfig::default() }
    }

    #[test]
    fn registers_four_parameters() {
        let mut store = ParamStore::new();
        register(&mut store, &mut seeded(1), "psi", &cfg());
        for p in ["w3", "b2", "w2", "b3"] {
            assert!(store.contains(&format!("psi.{p}")));
        }
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn fused_output_is_convex_combination() {
        // With identical behavior embeddings, the softmax-weighted sum must
        // reproduce the input exactly (weights sum to 1).
        let c = cfg();
        let mut store = ParamStore::new();
        register(&mut store, &mut seeded(2), "psi", &c);
        let mut ctx = Ctx::new(&store);
        let h = ctx.constant(init::uniform(4, 6, -1.0, 1.0, &mut seeded(3)));
        let out = apply(&mut ctx, "psi", &[h, h, h]);
        let hv = ctx.g.value(h).clone();
        assert!(ctx.g.value(out).approx_eq(&hv, 1e-5));
    }

    #[test]
    fn output_within_behavior_envelope() {
        // Each output coordinate must lie between the min and max of the
        // behavior embeddings at that coordinate (convex combination).
        let c = cfg();
        let mut store = ParamStore::new();
        register(&mut store, &mut seeded(4), "psi", &c);
        let mut ctx = Ctx::new(&store);
        let a = ctx.constant(init::uniform(5, 6, -1.0, 0.0, &mut seeded(5)));
        let b = ctx.constant(init::uniform(5, 6, 0.0, 1.0, &mut seeded(6)));
        let out = apply(&mut ctx, "psi", &[a, b]);
        let (av, bv, ov) = (
            ctx.g.value(a).clone(),
            ctx.g.value(b).clone(),
            ctx.g.value(out).clone(),
        );
        for i in 0..av.len() {
            let lo = av.data()[i].min(bv.data()[i]) - 1e-5;
            let hi = av.data()[i].max(bv.data()[i]) + 1e-5;
            let o = ov.data()[i];
            assert!((lo..=hi).contains(&o), "coordinate {i}: {o} not in [{lo}, {hi}]");
        }
    }

    #[test]
    fn uniform_fusion_is_plain_mean() {
        let mut store = ParamStore::new();
        let mut ctx = Ctx::new(&store);
        let a = ctx.constant(Matrix::filled(2, 3, 1.0));
        let b = ctx.constant(Matrix::filled(2, 3, 3.0));
        let out = uniform(&mut ctx, &[a, b]);
        assert!(ctx.g.value(out).approx_eq(&Matrix::filled(2, 3, 2.0), 1e-6));
        store.insert("unused", Matrix::zeros(1, 1)); // silence unused warnings
        let _ = store;
    }

    #[test]
    fn gradients_check_out() {
        let c = cfg();
        let mut store = ParamStore::new();
        register(&mut store, &mut seeded(7), "psi", &c);
        store.insert("h0", init::uniform(3, 6, -1.0, 1.0, &mut seeded(8)));
        store.insert("h1", init::uniform(3, 6, -1.0, 1.0, &mut seeded(9)));
        let err = max_grad_error(&store, 5e-3, |ctx| {
            let h0 = ctx.param("h0");
            let h1 = ctx.param("h1");
            let out = apply(ctx, "psi", &[h0, h1]);
            let sq = ctx.g.sqr(out);
            ctx.g.mean(sq)
        });
        assert!(err < 1e-2, "err {err}");
    }
}
