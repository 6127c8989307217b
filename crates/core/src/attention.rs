//! The cross-behavior relation attention xi (paper Eq. 3).
//!
//! For every node, the K behavior-type embeddings attend over each other
//! in S projection subspaces:
//! `beta^s_{k,k'} = (Q_s h_k) . (K_s h_k') / sqrt(d/S)`, softmax over
//! `k'`, heads concatenated, then a residual connection with the original
//! embedding.
//!
//! The paper's text adds the residual twice (`attn + 2h`); the model adds
//! it once (`attn + h`).

use gnmr_autograd::{Ctx, ParamStore, Var};
use gnmr_tensor::init;
use rand::Rng;

use crate::config::GnmrConfig;

/// Registers the attention parameters (`Q_s`, `K_s`, `V_s` per head).
pub(crate) fn register(store: &mut ParamStore, rng: &mut impl Rng, prefix: &str, cfg: &GnmrConfig) {
    let (d, dh) = (cfg.dim, cfg.head_dim());
    for s in 0..cfg.heads {
        store.insert(format!("{prefix}.q.{s}"), init::xavier_uniform(d, dh, rng));
        store.insert(format!("{prefix}.k.{s}"), init::xavier_uniform(d, dh, rng));
        store.insert(format!("{prefix}.v.{s}"), init::xavier_uniform(d, dh, rng));
    }
}

/// Applies cross-behavior attention to the K behavior embeddings
/// (each `(n, d)`), returning K recalibrated embeddings `(n, d)`.
pub(crate) fn apply(ctx: &mut Ctx<'_>, prefix: &str, behaviors: &[Var], cfg: &GnmrConfig) -> Vec<Var> {
    let k_types = behaviors.len();
    debug_assert!(k_types > 0);
    let scale = 1.0 / (cfg.head_dim() as f32).sqrt();

    // Per-head projections of every behavior embedding.
    let mut queries = vec![Vec::with_capacity(k_types); cfg.heads];
    let mut keys = vec![Vec::with_capacity(k_types); cfg.heads];
    let mut values = vec![Vec::with_capacity(k_types); cfg.heads];
    for s in 0..cfg.heads {
        let q = ctx.param(&format!("{prefix}.q.{s}"));
        let kk = ctx.param(&format!("{prefix}.k.{s}"));
        let v = ctx.param(&format!("{prefix}.v.{s}"));
        for &h in behaviors {
            queries[s].push(ctx.g.matmul(h, q));
            keys[s].push(ctx.g.matmul(h, kk));
            values[s].push(ctx.g.matmul(h, v));
        }
    }

    let mut outputs = Vec::with_capacity(k_types);
    for (k, &h_k) in behaviors.iter().enumerate() {
        let mut head_outputs = Vec::with_capacity(cfg.heads);
        for s in 0..cfg.heads {
            // Per-node relevance of k against every k'.
            let mut score_cols = Vec::with_capacity(k_types);
            for &key in &keys[s] {
                let dot = ctx.g.row_dot(queries[s][k], key); // (n, 1)
                score_cols.push(ctx.g.scale(dot, scale));
            }
            let scores = ctx.g.concat_cols(&score_cols); // (n, K)
            let beta = ctx.g.softmax_rows(scores);
            // Weighted combination of the value projections.
            head_outputs.push(ctx.g.weighted_sum(beta, &values[s]));
        }
        let concat = ctx.g.concat_cols(&head_outputs); // (n, d)
        outputs.push(ctx.g.add(concat, h_k));
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnmr_autograd::max_grad_error;
    use gnmr_tensor::rng::seeded;

    fn cfg() -> GnmrConfig {
        GnmrConfig { dim: 8, heads: 2, ..GnmrConfig::default() }
    }

    #[test]
    fn registers_qkv_per_head() {
        let mut store = ParamStore::new();
        register(&mut store, &mut seeded(1), "att", &cfg());
        for s in 0..2 {
            for p in ["q", "k", "v"] {
                assert!(store.contains(&format!("att.{p}.{s}")));
            }
        }
        assert_eq!(store.len(), 6);
    }

    #[test]
    fn preserves_shapes_for_each_behavior() {
        let c = cfg();
        let mut store = ParamStore::new();
        register(&mut store, &mut seeded(2), "att", &c);
        let mut ctx = Ctx::new(&store);
        let hs: Vec<Var> = (0..3)
            .map(|i| ctx.constant(init::uniform(5, 8, -1.0, 1.0, &mut seeded(10 + i))))
            .collect();
        let outs = apply(&mut ctx, "att", &hs, &c);
        assert_eq!(outs.len(), 3);
        for &o in &outs {
            assert_eq!(ctx.g.shape(o), (5, 8));
            assert!(ctx.g.value(o).is_finite());
        }
    }

    #[test]
    fn identical_behaviors_get_identical_outputs() {
        // With all behavior embeddings equal, attention is symmetric and
        // every output must coincide.
        let c = cfg();
        let mut store = ParamStore::new();
        register(&mut store, &mut seeded(3), "att", &c);
        let mut ctx = Ctx::new(&store);
        let h = ctx.constant(init::uniform(4, 8, -1.0, 1.0, &mut seeded(4)));
        let outs = apply(&mut ctx, "att", &[h, h, h], &c);
        let v0 = ctx.g.value(outs[0]).clone();
        for &o in &outs[1..] {
            assert!(ctx.g.value(o).approx_eq(&v0, 1e-5));
        }
    }

    #[test]
    fn gradients_check_out() {
        let c = cfg();
        let mut store = ParamStore::new();
        register(&mut store, &mut seeded(7), "att", &c);
        store.insert("h0", init::uniform(3, 8, -1.0, 1.0, &mut seeded(8)));
        store.insert("h1", init::uniform(3, 8, -1.0, 1.0, &mut seeded(9)));
        let err = max_grad_error(&store, 5e-3, |ctx| {
            let h0 = ctx.param("h0");
            let h1 = ctx.param("h1");
            let outs = apply(ctx, "att", &[h0, h1], &c);
            let cat = ctx.g.concat_cols(&outs);
            let sq = ctx.g.sqr(cat);
            ctx.g.mean(sq)
        });
        assert!(err < 1e-2, "err {err}");
    }
}
