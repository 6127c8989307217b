//! Property-based gradient checks: every differentiable op family is
//! validated against central finite differences on random shapes and
//! values.

use gnmr_autograd::{max_grad_error, Ctx, ParamStore, Var};
use gnmr_tensor::Matrix;
use proptest::prelude::*;

const TOL: f32 = 2e-2;

fn param_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-0.9f32..0.9, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

fn store1(m: Matrix) -> ParamStore {
    let mut s = ParamStore::new();
    s.insert("a", m);
    s
}

fn store2(a: Matrix, b: Matrix) -> ParamStore {
    let mut s = store1(a);
    s.insert("b", b);
    s
}

/// Applies a smooth elementwise op chain and returns the loss.
fn smooth_loss(ctx: &mut Ctx<'_>, which: u8) -> Var {
    let a = ctx.param("a");
    let x = match which % 6 {
        0 => ctx.g.sigmoid(a),
        1 => ctx.g.tanh(a),
        2 => {
            let s = ctx.g.one_minus(a);
            ctx.g.sigmoid(s)
        }
        3 => {
            let s = ctx.g.scale(a, 0.5);
            ctx.g.tanh(s)
        }
        4 => ctx.g.sqr(a),
        _ => {
            let s = ctx.g.sqr(a);
            let s = ctx.g.add_scalar(s, 0.5);
            ctx.g.sigmoid(s)
        }
    };
    ctx.g.mean(x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn elementwise_unary_grads(
        m in (1usize..5, 1usize..5).prop_flat_map(|(r, c)| param_matrix(r, c)),
        which in 0u8..6,
    ) {
        let store = store1(m);
        let err = max_grad_error(&store, 2e-3, |ctx| smooth_loss(ctx, which));
        prop_assert!(err < TOL, "op {} err {}", which, err);
    }

    #[test]
    fn binary_op_grads(
        dims in (1usize..5, 1usize..5),
        which in 0u8..3,
    ) {
        let (r, c) = dims;
        let store = (param_matrix(r, c), param_matrix(r, c));
        // Materialize two concrete matrices deterministically from strategy
        // outputs via a fixed runner.
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let a = store.0.new_tree(&mut runner).unwrap().current();
        let b = store.1.new_tree(&mut runner).unwrap().current();
        let store = store2(a, b);
        let err = max_grad_error(&store, 2e-3, |ctx| {
            let a = ctx.param("a");
            let b = ctx.param("b");
            let x = match which % 3 {
                0 => ctx.g.add(a, b),
                1 => ctx.g.sub(a, b),
                _ => ctx.g.mul(a, b),
            };
            let s = ctx.g.sqr(x);
            ctx.g.mean(s)
        });
        prop_assert!(err < TOL, "binary op {} err {}", which, err);
    }

    #[test]
    fn matmul_grads(m in 1usize..4, k in 1usize..4, n in 1usize..4) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let a = param_matrix(m, k).new_tree(&mut runner).unwrap().current();
        let b = param_matrix(k, n).new_tree(&mut runner).unwrap().current();
        let store = store2(a, b);
        let err = max_grad_error(&store, 2e-3, |ctx| {
            let a = ctx.param("a");
            let b = ctx.param("b");
            let x = ctx.g.matmul(a, b);
            let s = ctx.g.sqr(x);
            ctx.g.mean(s)
        });
        prop_assert!(err < TOL, "matmul err {}", err);
    }

    #[test]
    fn reduction_grads(r in 1usize..5, c in 1usize..5, which in 0u8..4) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let a = param_matrix(r, c).new_tree(&mut runner).unwrap().current();
        let store = store1(a);
        let err = max_grad_error(&store, 2e-3, |ctx| {
            let a = ctx.param("a");
            match which % 4 {
                0 => {
                    let s = ctx.g.sqr(a);
                    ctx.g.sum(s)
                }
                1 => {
                    let s = ctx.g.sqr(a);
                    ctx.g.mean(s)
                }
                2 => {
                    // Per-row sums of squares.
                    let rs = ctx.g.row_dot(a, a);
                    let s = ctx.g.sqr(rs);
                    ctx.g.mean(s)
                }
                _ => {
                    // Column sums as a ones-row matmul.
                    let ones = ctx.constant(Matrix::ones(1, r));
                    let cs = ctx.g.matmul(ones, a);
                    let s = ctx.g.sqr(cs);
                    ctx.g.mean(s)
                }
            }
        });
        prop_assert!(err < TOL, "reduction {} err {}", which, err);
    }

    #[test]
    fn softmax_attention_grads(r in 1usize..5, c in 2usize..5) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let a = param_matrix(r, c).new_tree(&mut runner).unwrap().current();
        let w = param_matrix(r, c).new_tree(&mut runner).unwrap().current();
        let store = store2(a, w);
        let err = max_grad_error(&store, 2e-3, |ctx| {
            let a = ctx.param("a");
            let b = ctx.param("b");
            let sm = ctx.g.softmax_rows(a);
            let weighted = ctx.g.mul(sm, b);
            ctx.g.mean(weighted)
        });
        prop_assert!(err < TOL, "softmax err {}", err);
    }

    #[test]
    fn gather_broadcast_grads(rows in 2usize..6, c in 1usize..4, pick in 1usize..6) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let a = param_matrix(rows, c).new_tree(&mut runner).unwrap().current();
        let col = param_matrix(pick, 1).new_tree(&mut runner).unwrap().current();
        let store = store2(a, col);
        let idx: Vec<u32> = (0..pick as u32).map(|i| i % rows as u32).collect();
        let err = max_grad_error(&store, 2e-3, move |ctx| {
            let a = ctx.param("a");
            let colv = ctx.param("b");
            let g = ctx.g.gather_rows(a, std::sync::Arc::new(idx.clone()));
            let scaled = ctx.g.weighted_sum(colv, &[g]);
            let s = ctx.g.sqr(scaled);
            ctx.g.mean(s)
        });
        prop_assert!(err < TOL, "gather err {}", err);
    }

    #[test]
    fn weighted_sum_grads(n in 1usize..5, d in 1usize..4, c in 1usize..4) {
        // `c` weight columns over two parts taken alternately, so every
        // `c >= 3` passes `p0` more than once.
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let mut store = ParamStore::new();
        store.insert("w", param_matrix(n, c).new_tree(&mut runner).unwrap().current());
        store.insert("p0", param_matrix(n, d).new_tree(&mut runner).unwrap().current());
        store.insert("p1", param_matrix(n, d).new_tree(&mut runner).unwrap().current());
        let err = max_grad_error(&store, 2e-3, |ctx| {
            let w = ctx.param("w");
            let parts = [ctx.param("p0"), ctx.param("p1")];
            let picked: Vec<Var> = (0..c).map(|i| parts[i % 2]).collect();
            let ws = ctx.g.weighted_sum(w, &picked);
            let s = ctx.g.sqr(ws);
            ctx.g.mean(s)
        });
        prop_assert!(err < TOL, "weighted_sum n={} d={} C={} err {}", n, d, c, err);
    }
}
