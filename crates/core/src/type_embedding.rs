//! The type-specific behavior embedding layer eta (paper Eq. 2).
//!
//! Given the aggregated neighbor message `m_k` of behavior type `k`, the
//! layer computes `C` gating coefficients
//! `alpha_{c,k} = ReLU(W1 m_k + b1)_c` and recalibrates the message as
//! `sum_c alpha_{c,k} * (m_k W2_c)`. The paper calls `C` the latent
//! dimensions of its "memory neural module" (C = 8).

use gnmr_autograd::{Ctx, ParamStore, Var};
use gnmr_tensor::{init, Matrix};
use rand::Rng;

use crate::config::GnmrConfig;

/// Registers the eta parameters under `prefix`.
pub(crate) fn register(store: &mut ParamStore, rng: &mut impl Rng, prefix: &str, cfg: &GnmrConfig) {
    let (d, c) = (cfg.dim, cfg.memory_dims);
    store.insert(format!("{prefix}.w1"), init::xavier_uniform(d, c, rng));
    // Gate bias starts at 0.5 so alpha is active at initialization;
    // with a zero bias the layer output is quadratically small in the
    // message magnitude and gradients vanish early in training.
    store.insert(format!("{prefix}.b1"), Matrix::filled(1, c, 0.5));
    for ci in 0..c {
        store.insert(format!("{prefix}.w2.{ci}"), init::xavier_uniform(d, d, rng));
    }
}

/// Applies eta to an aggregated message `(n, d)`, returning `(n, d)`.
pub(crate) fn apply(ctx: &mut Ctx<'_>, prefix: &str, message: Var, cfg: &GnmrConfig) -> Var {
    let w1 = ctx.param(&format!("{prefix}.w1"));
    let b1 = ctx.param(&format!("{prefix}.b1"));
    let gate_pre = ctx.g.matmul(message, w1);
    let gate_pre = ctx.g.add_row_broadcast(gate_pre, b1);
    let alpha = ctx.g.relu(gate_pre); // (n, C)

    let projected: Vec<Var> = (0..cfg.memory_dims)
        .map(|ci| {
            let w2 = ctx.param(&format!("{prefix}.w2.{ci}"));
            ctx.g.matmul(message, w2) // (n, d)
        })
        .collect();
    // Average (rather than Eq. 2's literal sum) over the C memory
    // dimensions: with active gates a plain sum scales the output by
    // ~C/2 per layer, so higher orders explode and drown the order-0
    // personalization signal in the multi-order matching score.
    let acc = ctx.g.weighted_sum(alpha, &projected);
    ctx.g.scale(acc, 1.0 / cfg.memory_dims as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnmr_autograd::max_grad_error;
    use gnmr_tensor::rng::seeded;

    fn cfg() -> GnmrConfig {
        GnmrConfig { dim: 6, memory_dims: 3, heads: 2, ..GnmrConfig::default() }
    }

    #[test]
    fn registers_expected_parameters() {
        let mut store = ParamStore::new();
        register(&mut store, &mut seeded(1), "l0.eta", &cfg());
        assert!(store.contains("l0.eta.w1"));
        assert!(store.contains("l0.eta.b1"));
        for c in 0..3 {
            assert!(store.contains(&format!("l0.eta.w2.{c}")));
        }
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn output_shape_matches_input() {
        let c = cfg();
        let mut store = ParamStore::new();
        register(&mut store, &mut seeded(2), "eta", &c);
        let mut ctx = Ctx::new(&store);
        let m = ctx.constant(init::uniform(7, 6, -1.0, 1.0, &mut seeded(3)));
        let out = apply(&mut ctx, "eta", m, &c);
        assert_eq!(ctx.g.shape(out), (7, 6));
        assert!(ctx.g.value(out).is_finite());
    }

    #[test]
    fn zero_message_yields_zero_output() {
        // alpha = ReLU(b1) and the projection of a zero message is zero, so
        // the recalibrated output must be exactly zero.
        let c = cfg();
        let mut store = ParamStore::new();
        register(&mut store, &mut seeded(4), "eta", &c);
        let mut ctx = Ctx::new(&store);
        let m = ctx.constant(Matrix::zeros(4, 6));
        let out = apply(&mut ctx, "eta", m, &c);
        assert_eq!(ctx.g.value(out).max_abs(), 0.0);
    }

    #[test]
    fn gradients_check_out() {
        let c = cfg();
        let mut store = ParamStore::new();
        register(&mut store, &mut seeded(5), "eta", &c);
        store.insert("msg", init::uniform(3, 6, -1.0, 1.0, &mut seeded(6)));
        let err = max_grad_error(&store, 5e-3, |ctx| {
            let m = ctx.param("msg");
            let out = apply(ctx, "eta", m, &c);
            let sq = ctx.g.sqr(out);
            ctx.g.mean(sq)
        });
        assert!(err < 1e-2, "err {err}");
    }

    #[test]
    fn gating_differentiates_behaviors() {
        // Two different messages must in general produce non-proportional
        // outputs (the gate is input-dependent).
        let c = cfg();
        let mut store = ParamStore::new();
        register(&mut store, &mut seeded(7), "eta", &c);
        let mut ctx = Ctx::new(&store);
        let m1 = ctx.constant(init::uniform(1, 6, 0.5, 1.0, &mut seeded(8)));
        let m2 = ctx.constant(init::uniform(1, 6, -1.0, -0.5, &mut seeded(9)));
        let o1 = apply(&mut ctx, "eta", m1, &c);
        let o2 = apply(&mut ctx, "eta", m2, &c);
        let v1 = ctx.g.value(o1).clone();
        let v2 = ctx.g.value(o2).clone();
        // Cosine of outputs differs from +-1 (not simply scaled copies).
        let dot: f32 = v1.data().iter().zip(v2.data()).map(|(a, b)| a * b).sum();
        let cos = dot / (v1.frobenius_norm() * v2.frobenius_norm()).max(1e-9);
        assert!(cos.abs() < 0.999, "outputs are proportional (cos {cos})");
    }
}
