//! Finite-difference gradient checking.
//!
//! Used throughout the test suites to validate every autodiff op and every
//! model layer: the analytic gradient from the tape is compared against a
//! central finite difference of the scalar loss.

use crate::params::{Ctx, ParamStore};
use crate::tape::Var;

/// Compares analytic and numeric gradients of `loss_fn` with respect to
/// every scalar in `store`, returning the largest relative error.
///
/// `loss_fn` must be a pure function of the store contents (bind params via
/// [`Ctx::param`]) and return a `1 x 1` loss node. `eps` is the central
/// difference step; `5e-3`..`1e-2` works well in `f32`.
pub fn max_grad_error<F>(store: &ParamStore, eps: f32, loss_fn: F) -> f32
where
    F: Fn(&mut Ctx) -> Var,
{
    // Analytic gradients.
    let mut ctx = Ctx::new(store);
    let loss = loss_fn(&mut ctx);
    let analytic = ctx.grads(loss);

    let eval = |s: &ParamStore| -> f32 {
        let mut ctx = Ctx::new(s);
        let l = loss_fn(&mut ctx);
        ctx.g.value(l).scalar_value()
    };

    let mut worst = 0.0f32;
    let names: Vec<String> = store.names().map(str::to_string).collect();
    let mut perturbed = store.clone();
    for name in &names {
        let n_elems = store.get(name).len();
        for i in 0..n_elems {
            let original = store.get(name).data()[i];
            perturbed.get_mut(name).data_mut()[i] = original + eps;
            let up = eval(&perturbed);
            perturbed.get_mut(name).data_mut()[i] = original - eps;
            let down = eval(&perturbed);
            perturbed.get_mut(name).data_mut()[i] = original;

            let numeric = (up - down) / (2.0 * eps);
            let a = analytic.get(name).map_or(0.0, |g| g.data()[i]);
            let err = (a - numeric).abs() / (1.0 + a.abs().max(numeric.abs()));
            worst = worst.max(err);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnmr_tensor::{init, rng::seeded, Matrix};

    fn random_store(shapes: &[(&str, usize, usize)], seed: u64) -> ParamStore {
        let mut rng = seeded(seed);
        let mut store = ParamStore::new();
        for (name, r, c) in shapes {
            store.insert(*name, init::uniform(*r, *c, -0.9, 0.9, &mut rng));
        }
        store
    }

    const TOL: f32 = 5e-3;

    #[test]
    fn gradcheck_elementwise_chain() {
        let store = random_store(&[("a", 3, 4), ("b", 3, 4)], 1);
        let err = max_grad_error(&store, 5e-3, |ctx| {
            let a = ctx.param("a");
            let b = ctx.param("b");
            let m = ctx.g.mul(a, b);
            let s = ctx.g.sigmoid(m);
            let t = ctx.g.tanh(a);
            let sum = ctx.g.add(s, t);
            ctx.g.mean(sum)
        });
        assert!(err < TOL, "err {err}");
    }

    #[test]
    fn gradcheck_matmul_mlp() {
        let store = random_store(&[("w1", 4, 5), ("w2", 5, 2), ("x", 3, 4), ("b", 1, 5)], 2);
        let err = max_grad_error(&store, 5e-3, |ctx| {
            let x = ctx.param("x");
            let w1 = ctx.param("w1");
            let w2 = ctx.param("w2");
            let b = ctx.param("b");
            let h = ctx.g.matmul(x, w1);
            let h = ctx.g.add_row_broadcast(h, b);
            let h = ctx.g.relu(h);
            let o = ctx.g.matmul(h, w2);
            let sq = ctx.g.sqr(o);
            ctx.g.mean(sq)
        });
        assert!(err < TOL, "err {err}");
    }

    #[test]
    fn gradcheck_softmax_attention_like() {
        // Keys are stored transposed (3 x 4), so `q · kt` is `Q Kᵀ`.
        let store = random_store(&[("q", 4, 3), ("kt", 3, 4), ("v", 4, 3)], 3);
        let err = max_grad_error(&store, 5e-3, |ctx| {
            let q = ctx.param("q");
            let kt = ctx.param("kt");
            let v = ctx.param("v");
            let scores = ctx.g.matmul(q, kt);
            let scaled = ctx.g.scale(scores, 1.0 / (3.0f32).sqrt());
            let attn = ctx.g.softmax_rows(scaled);
            let out = ctx.g.matmul(attn, v);
            let sq = ctx.g.sqr(out);
            ctx.g.mean(sq)
        });
        assert!(err < TOL, "err {err}");
    }

    #[test]
    fn gradcheck_broadcast_and_rowdot() {
        let store = random_store(&[("a", 5, 3), ("col", 5, 1), ("row", 1, 3)], 4);
        let err = max_grad_error(&store, 5e-3, |ctx| {
            let a = ctx.param("a");
            let col = ctx.param("col");
            let row = ctx.param("row");
            let x = ctx.g.add_row_broadcast(a, row);
            let y = ctx.g.weighted_sum(col, &[x]);
            let d = ctx.g.row_dot(y, a);
            let s = ctx.g.sigmoid(d);
            ctx.g.mean(s)
        });
        assert!(err < TOL, "err {err}");
    }

    #[test]
    fn gradcheck_gather_concat_slice() {
        let store = random_store(&[("table", 6, 4)], 5);
        let err = max_grad_error(&store, 5e-3, |ctx| {
            let t = ctx.param("table");
            let g1 = ctx.g.gather_rows(t, std::sync::Arc::new(vec![0, 2, 2, 5]));
            let g2 = ctx.g.gather_rows(t, std::sync::Arc::new(vec![1, 1, 3, 4]));
            let cat = ctx.g.concat_cols(&[g1, g2]);
            // Columns [2, 7) through a 0/1 selection matrix.
            let select = Matrix::from_fn(8, 5, |r, c| if r == c + 2 { 1.0 } else { 0.0 });
            let select = ctx.constant(select);
            let sl = ctx.g.matmul(cat, select);
            let e = ctx.g.sqr(sl);
            ctx.g.mean(e)
        });
        assert!(err < TOL, "err {err}");
    }

    #[test]
    fn gradcheck_spmm() {
        use gnmr_tensor::Csr;
        let store = random_store(&[("x", 4, 3)], 6);
        let csr = std::sync::Arc::new(Csr::from_triplets(
            5,
            4,
            &[(0, 0, 0.5), (1, 2, -1.0), (2, 1, 2.0), (4, 3, 1.5), (4, 0, -0.5)],
        ));
        let csr_t = std::sync::Arc::new(csr.transpose());
        let err = max_grad_error(&store, 5e-3, |ctx| {
            let x = ctx.param("x");
            let y = ctx.g.spmm(std::sync::Arc::clone(&csr), x);
            let yt = ctx.g.spmm(std::sync::Arc::clone(&csr_t), y);
            let s = ctx.g.sqr(yt);
            ctx.g.mean(s)
        });
        assert!(err < TOL, "err {err}");
    }

    #[test]
    fn gradcheck_reductions_and_unaries() {
        let store = random_store(&[("a", 3, 3)], 7);
        let err = max_grad_error(&store, 2e-3, |ctx| {
            let a = ctx.param("a");
            let s = ctx.g.sigmoid(a);
            let t = ctx.g.tanh(a);
            let n = ctx.g.neg(t);
            // Row sums as row dots with ones, column sums as a ones-row
            // matmul.
            let ones_col = ctx.constant(Matrix::ones(3, 3));
            let rs = ctx.g.row_dot(s, ones_col);
            let ones_row = ctx.constant(Matrix::ones(1, 3));
            let cs = ctx.g.matmul(ones_row, n);
            let s1 = ctx.g.sum(rs);
            let s2 = ctx.g.mean(cs);
            let total = ctx.g.add(s1, s2);
            ctx.g.scale(total, 0.25)
        });
        assert!(err < TOL, "err {err}");
    }

    #[test]
    fn gradcheck_weighted_sum() {
        // C = 3 over two parts, `p0` passed twice.
        let store = random_store(&[("w", 4, 3), ("p0", 4, 5), ("p1", 4, 5)], 11);
        let err = max_grad_error(&store, 5e-3, |ctx| {
            let w = ctx.param("w");
            let p0 = ctx.param("p0");
            let p1 = ctx.param("p1");
            let ws = ctx.g.weighted_sum(w, &[p0, p1, p0]);
            let sq = ctx.g.sqr(ws);
            ctx.g.mean(sq)
        });
        assert!(err < TOL, "C = 3 err {err}");

        let store = random_store(&[("w", 4, 1), ("p0", 4, 5)], 12);
        let err = max_grad_error(&store, 5e-3, |ctx| {
            let w = ctx.param("w");
            let p0 = ctx.param("p0");
            let ws = ctx.g.weighted_sum(w, &[p0]);
            let sq = ctx.g.sqr(ws);
            ctx.g.mean(sq)
        });
        assert!(err < TOL, "C = 1 err {err}");
    }

    #[test]
    fn gradcheck_hinge_loss_shape() {
        // The paper's pairwise hinge: mean(relu(1 - pos + neg)).
        let mut store = random_store(&[("pos", 6, 1), ("neg", 6, 1)], 8);
        // Move away from the hinge kink to keep finite differences valid.
        store.get_mut("pos").map_inplace(|x| x * 3.0 + 0.4);
        store.get_mut("neg").map_inplace(|x| x * 3.0 - 0.4);
        let err = max_grad_error(&store, 1e-3, |ctx| {
            let pos = ctx.param("pos");
            let neg = ctx.param("neg");
            crate::pairwise_hinge(&mut ctx.g, pos, neg)
        });
        assert!(err < 2e-2, "err {err}");
    }

    #[test]
    fn gradcheck_leaky_relu_and_one_minus() {
        let store = random_store(&[("a", 4, 4)], 9);
        let err = max_grad_error(&store, 1e-3, |ctx| {
            let a = ctx.param("a");
            let l = ctx.g.leaky_relu(a, 0.2);
            let o = ctx.g.one_minus(l);
            let s = ctx.g.sqr(o);
            ctx.g.mean(s)
        });
        assert!(err < 2e-2, "err {err}");
    }

    #[test]
    fn wrong_gradient_is_detected() {
        // The checker must be able to fail. `sum(a ⊙ c)` with `c` a
        // constant copy of `a`'s value: the tape's gradient is `c = a`,
        // but the finite differences perturb `a` inside `c` too and see
        // the true gradient of `sum(a²)`, `2a`.
        let store = random_store(&[("a", 2, 2)], 10);
        let err = max_grad_error(&store, 5e-3, |ctx| {
            let a = ctx.param("a");
            let c = ctx.constant(ctx.g.value(a).clone());
            let m = ctx.g.mul(a, c);
            ctx.g.sum(m)
        });
        assert!(err > 0.1, "a wrong gradient passed the check: err {err}");
    }
}
