//! The reverse-mode autodiff tape.
//!
//! [`Graph`] is a define-by-run tape: every operation eagerly computes its
//! value and records how to backpropagate through it. A fresh graph is
//! built for every training step (parameters live outside the graph in a
//! [`crate::params::ParamStore`] and are bound as leaves each step).
//!
//! Shapes are validated eagerly when an op is recorded, so a mis-shaped
//! model fails at construction time with a clear message rather than
//! during backward.
//!
//! Forward values and backward contributions are produced by
//! [`gnmr_tensor`] ops wherever a kernel exists, and every op runs on
//! the calling thread. The forward's dense products and `spmm` use the
//! tiled `gnmr_tensor::kernels::matmul_acc` and `spmm_acc`; the
//! backward's transposed products, the backward scatters (`spmm`'s
//! transposed product, the `gather_rows` scatter-add) and the
//! elementwise kernels (`add_assign` and the `_into` family) are serial
//! too, since each call at the model's width is tens of microseconds,
//! too little to pay for a dispatch. `weighted_sum` scales its parts by
//! weight columns with `kernels::mul_col_broadcast_into`, and its weight
//! gradients are `kernels::row_dot_into` row dots, in the canonical lane
//! order; `concat_cols` copies rows in place.
//!
//! The backward pass is **allocation-free in the steady state**, at
//! every pool thread count: gradient accumulators come from a
//! width-keyed, best-fit [`Arena`] ([`Graph::backward_with`]),
//! contributions are applied through the fused in-place kernels (the
//! `_into` family, each told by a [`Store`] whether to assign or add,
//! and the `matmul_tn`/`spmm_t` accumulate forms), and every buffer is
//! returned to the arena for the next step.
//! The in-place paths reproduce the historical allocate-then-combine
//! float sequences exactly, so training bytes are unchanged (see the
//! kernel docs; `tests/determinism.rs` and `tests/golden.rs` pin them).

use std::sync::Arc;

use gnmr_tensor::kernels::{self, Store};
use gnmr_tensor::{stats, Arena, Csr, Matrix};

/// A handle to a node in a [`Graph`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// How a node was produced; drives the backward pass.
#[derive(Clone)]
enum Op {
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    // The scalar is applied eagerly in the forward pass and the gradient
    // passes through unchanged, so only the parent is stored.
    AddScalar(Var),
    MatMul(Var, Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Sigmoid(Var),
    Tanh(Var),
    Sqr(Var),
    SoftmaxRows(Var),
    SumAll(Var),
    MeanAll(Var),
    ConcatCols(Vec<Var>),
    GatherRows(Var, Arc<Vec<u32>>),
    AddRowBroadcast(Var, Var),
    // Weights (n x C), then the C parts (each n x d).
    WeightedSum(Var, Vec<Var>),
    RowDot(Var, Var),
    Spmm(Arc<Csr>, Var),
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
}

/// A reverse-mode autodiff tape over [`Matrix`] values.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        debug_assert!(value.is_finite() || cfg!(not(debug_assertions)), "non-finite value recorded on tape");
        self.nodes.push(Node { value, grad: None, op });
        Var(self.nodes.len() - 1)
    }

    /// Records a leaf holding `m`. Gradients accumulate on leaves and can
    /// be read back with [`Graph::grad`] after [`Graph::backward`].
    pub fn input(&mut self, m: Matrix) -> Var {
        self.push(m, Op::Leaf)
    }

    /// The value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The gradient of a node (available after [`Graph::backward`] if the
    /// node participated in the loss).
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// The shape of a node's value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    // ----- elementwise binary ---------------------------------------------

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).hadamard(self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    // ----- elementwise unary ----------------------------------------------

    /// Multiplication by a constant.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).scale(s);
        self.push(v, Op::Scale(a, s))
    }

    /// Addition of a constant to every element.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).map(|x| x + s);
        self.push(v, Op::AddScalar(a))
    }

    /// Negation: [`Graph::scale`] by −1.
    pub fn neg(&mut self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    /// `1 - x` (composite of [`Graph::neg`] and [`Graph::add_scalar`]).
    pub fn one_minus(&mut self, a: Var) -> Var {
        let n = self.neg(a);
        self.add_scalar(n, 1.0)
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(stats::relu);
        self.push(v, Op::Relu(a))
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let v = self.value(a).map(|x| stats::leaky_relu(x, slope));
        self.push(v, Op::LeakyRelu(a, slope))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(stats::sigmoid);
        self.push(v, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Element-wise square.
    pub fn sqr(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x * x);
        self.push(v, Op::Sqr(a))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = stats::softmax_rows(self.value(a));
        self.push(v, Op::SoftmaxRows(a))
    }

    // ----- linear algebra ---------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Sparse x dense product with a constant CSR (no gradient flows into
    /// the sparse matrix).
    pub fn spmm(&mut self, csr: Arc<Csr>, x: Var) -> Var {
        let v = csr.spmm(self.value(x));
        self.push(v, Op::Spmm(csr, x))
    }

    // ----- reductions ---------------------------------------------------

    /// Sum of all elements, as a `1 x 1` node.
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Matrix::scalar(self.value(a).sum());
        self.push(v, Op::SumAll(a))
    }

    /// Mean of all elements, as a `1 x 1` node.
    pub fn mean(&mut self, a: Var) -> Var {
        let v = Matrix::scalar(self.value(a).mean());
        self.push(v, Op::MeanAll(a))
    }

    // ----- shape ---------------------------------------------------------

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols: no parts");
        let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Matrix::concat_cols(&mats);
        self.push(v, Op::ConcatCols(parts.to_vec()))
    }

    /// Gathers rows of `a` by index (embedding lookup). Gradients
    /// scatter-add back into the source rows.
    pub fn gather_rows(&mut self, a: Var, indices: Arc<Vec<u32>>) -> Var {
        let v = self.value(a).gather_rows(&indices);
        self.push(v, Op::GatherRows(a, indices))
    }

    // ----- broadcasts ------------------------------------------------------

    /// Adds a `1 x d` row vector to every row of an `n x d` matrix.
    pub fn add_row_broadcast(&mut self, a: Var, row: Var) -> Var {
        let v = self.value(a).add_row_broadcast(self.value(row));
        self.push(v, Op::AddRowBroadcast(a, row))
    }

    /// Per-row weighted sum of `C` parts: `weights` is `n x C`, every
    /// part is `n x d`, and row `r` of the result is
    /// `sum_c weights[r, c] * parts[c][r]`, folded left
    /// (`p0·w0 + p1·w1 + …`). A part may appear more than once. This is
    /// the closing step of eta (Eq. 2), xi (Eq. 3) and psi (Eq. 5).
    ///
    /// # Panics
    /// If `parts` is empty, its length is not `C`, or a part is not
    /// `n x d`.
    pub fn weighted_sum(&mut self, weights: Var, parts: &[Var]) -> Var {
        let (n, c) = self.shape(weights);
        assert!(!parts.is_empty(), "weighted_sum: no parts");
        assert_eq!(parts.len(), c, "weighted_sum: {} parts for {c} weight columns", parts.len());
        let d = self.shape(parts[0]).1;
        let mut v = Matrix::zeros(n, d);
        for (ci, &p) in parts.iter().enumerate() {
            let (w, pv) = (self.value(weights), self.value(p));
            assert_eq!(pv.shape(), (n, d), "weighted_sum: part {ci} is {:?}, not {n}x{d}", pv.shape());
            // The first part assigns, so the sum starts from its exact
            // products (no `0.0 +` turning a -0.0 into +0.0).
            let store = if ci == 0 { Store::Assign } else { Store::Add };
            kernels::mul_col_broadcast_into(&mut v, pv, w, ci, store);
        }
        self.push(v, Op::WeightedSum(weights, parts.to_vec()))
    }

    /// Row-wise dot product of two `n x d` matrices, giving `n x 1`.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).row_dot(self.value(b));
        self.push(v, Op::RowDot(a, b))
    }

    // ----- backward -------------------------------------------------------

    /// Backpropagates from `loss` (must be `1 x 1`), filling gradients of
    /// every node that `loss` depends on.
    ///
    /// Allocates gradient buffers from a throwaway arena; steady-state
    /// training loops should call [`Graph::backward_with`] with a
    /// long-lived [`Arena`] instead, which recycles every buffer and
    /// performs zero heap allocations after its first pass.
    pub fn backward(&mut self, loss: Var) {
        let arena = Arena::new();
        self.backward_with(loss, &arena);
    }

    /// Like [`Graph::backward`], but checks every gradient buffer out of
    /// `arena` and returns replaced ones to it, so a warm arena makes the
    /// whole backward pass allocation-free.
    ///
    /// Gradients are accumulated **in place** through the fused kernels
    /// in [`gnmr_tensor::kernels`]: the first contribution to a node is
    /// written into a checkout (a map-style kernel stores with
    /// [`Store::Assign`] into a dirty buffer, a streaming accumulator
    /// runs on a zeroed one — both produce exactly the bytes the old
    /// freshly-allocated contribution held), and every further
    /// contribution either folds in fully-formed values with one add per
    /// element ([`Store::Add`]) or goes through a zeroed scratch checkout
    /// plus `add_assign`, replicating the historical allocate-then-combine
    /// float sequence. Results are therefore bitwise identical to the
    /// pre-arena tape at every thread count.
    pub fn backward_with(&mut self, loss: Var, arena: &Arena) {
        assert_eq!(self.shape(loss), (1, 1), "backward: loss must be 1x1, got {:?}", self.shape(loss));
        for n in &mut self.nodes {
            if let Some(g) = n.grad.take() {
                arena.checkin(g);
            }
        }
        let mut seed = arena.checkout(1, 1);
        seed.data_mut()[0] = 1.0;
        self.nodes[loss.0].grad = Some(seed);

        for i in (0..=loss.0).rev() {
            // Parents always precede their node on the tape, so splitting
            // at `i` lets the node's grad/op/value be read from `tail`
            // while parent accumulators in `head` are taken and replaced
            // — no `op.clone()` (including `ConcatCols`'s `Vec`) and no
            // `grad.clone()` per node.
            let (head, tail) = self.nodes.split_at_mut(i);
            let node = &tail[0];
            let Some(g) = node.grad.as_ref() else { continue };
            let out = &node.value;
            match &node.op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    for p in [*a, *b] {
                        apply_map(head, arena, p, g.shape(), |_, d, s| kernels::copy_into(d, g, s));
                    }
                }
                Op::Sub(a, b) => {
                    apply_map(head, arena, *a, g.shape(), |_, d, s| kernels::copy_into(d, g, s));
                    apply_map(head, arena, *b, g.shape(), |_, d, s| kernels::scale_into(d, g, -1.0, s));
                }
                Op::Mul(a, b) => {
                    for (p, o) in [(*a, *b), (*b, *a)] {
                        apply_map(head, arena, p, g.shape(), |h, d, s| {
                            kernels::zip_map_into(d, g, &h[o.0].value, |gi, vi| gi * vi, s)
                        });
                    }
                }
                Op::Scale(a, k) => {
                    let k = *k;
                    apply_map(head, arena, *a, g.shape(), |_, d, s| kernels::scale_into(d, g, k, s));
                }
                Op::AddScalar(a) => {
                    apply_map(head, arena, *a, g.shape(), |_, d, s| kernels::copy_into(d, g, s));
                }
                Op::MatMul(a, b) => {
                    let da_shape = head[a.0].value.shape();
                    apply_map(head, arena, *a, da_shape, |h, d, s| kernels::matmul_nt_into(d, g, &h[b.0].value, s));
                    let db_shape = head[b.0].value.shape();
                    apply_sum(head, arena, *b, db_shape, |h, d| {
                        kernels::matmul_tn_acc(d, &h[a.0].value, g)
                    });
                }
                Op::Relu(a) => {
                    let f = |gi: f32, yi: f32| if yi > 0.0 { gi } else { 0.0 };
                    apply_map(head, arena, *a, g.shape(), |_, d, s| kernels::zip_map_into(d, g, out, f, s));
                }
                Op::LeakyRelu(a, slope) => {
                    let slope = *slope;
                    let f = move |gi: f32, xi: f32| if xi > 0.0 { gi } else { gi * slope };
                    apply_map(head, arena, *a, g.shape(), |h, d, s| kernels::zip_map_into(d, g, &h[a.0].value, f, s));
                }
                Op::Sigmoid(a) => {
                    let f = |gi: f32, yi: f32| gi * yi * (1.0 - yi);
                    apply_map(head, arena, *a, g.shape(), |_, d, s| kernels::zip_map_into(d, g, out, f, s));
                }
                Op::Tanh(a) => {
                    let f = |gi: f32, yi: f32| gi * (1.0 - yi * yi);
                    apply_map(head, arena, *a, g.shape(), |_, d, s| kernels::zip_map_into(d, g, out, f, s));
                }
                Op::Sqr(a) => {
                    let f = |gi: f32, xi: f32| 2.0 * gi * xi;
                    apply_map(head, arena, *a, g.shape(), |h, d, s| kernels::zip_map_into(d, g, &h[a.0].value, f, s));
                }
                Op::SoftmaxRows(a) => {
                    apply_map(head, arena, *a, g.shape(), |_, d, s| kernels::softmax_rows_backward_into(d, g, out, s));
                }
                Op::SumAll(a) | Op::MeanAll(a) => {
                    let shape = head[a.0].value.shape();
                    let mut val = g.scalar_value();
                    if let Op::MeanAll(_) = node.op {
                        val /= (shape.0 * shape.1) as f32;
                    }
                    apply_map(head, arena, *a, shape, |_, d, s| match s {
                        Store::Assign => d.fill(val),
                        Store::Add => {
                            for o in d.data_mut() {
                                *o += val;
                            }
                        }
                    });
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for &p in parts {
                        let (pr, w) = head[p.0].value.shape();
                        apply_map(head, arena, p, (pr, w), |_, d, s| {
                            for r in 0..pr {
                                let (dst, src) = (d.row_mut(r), &g.row(r)[offset..offset + w]);
                                match s {
                                    Store::Assign => dst.copy_from_slice(src),
                                    Store::Add => dst.iter_mut().zip(src).for_each(|(o, &x)| *o += x),
                                }
                            }
                        });
                        offset += w;
                    }
                }
                Op::GatherRows(a, indices) => {
                    // The kernel layer's scatter-add, in source order.
                    let shape = head[a.0].value.shape();
                    apply_sum(head, arena, *a, shape, |_, d| {
                        kernels::scatter_add_rows(d, indices, g)
                    });
                }
                Op::AddRowBroadcast(a, row) => {
                    apply_map(head, arena, *a, g.shape(), |_, d, s| kernels::copy_into(d, g, s));
                    apply_sum(head, arena, *row, (1, g.cols()), |_, d| {
                        for r in 0..g.rows() {
                            for (o, &x) in d.row_mut(0).iter_mut().zip(g.row(r)) {
                                *o += x;
                            }
                        }
                    });
                }
                Op::WeightedSum(weights, parts) => {
                    // Part c gets `g` scaled per row by weight column c.
                    // Parts are visited last to first, the order a
                    // reverse pass reaches the terms of the left fold,
                    // so a part passed twice accumulates in that order.
                    for (ci, &p) in parts.iter().enumerate().rev() {
                        apply_map(head, arena, p, g.shape(), |h, d, s| {
                            kernels::mul_col_broadcast_into(d, g, &h[weights.0].value, ci, s)
                        });
                    }
                    // Weight column c gets the row dots of `g` with part c.
                    let shape = head[weights.0].value.shape();
                    apply_map(head, arena, *weights, shape, |h, d, s| {
                        for (ci, p) in parts.iter().enumerate() {
                            kernels::row_dot_into(d, ci, g, &h[p.0].value, s);
                        }
                    });
                }
                Op::RowDot(a, b) => {
                    for (p, o) in [(*a, *b), (*b, *a)] {
                        let shape = head[o.0].value.shape();
                        apply_map(head, arena, p, shape, |h, d, s| {
                            kernels::mul_col_broadcast_into(d, &h[o.0].value, g, 0, s)
                        });
                    }
                }
                Op::Spmm(csr, x) => {
                    let shape = head[x.0].value.shape();
                    apply_sum(head, arena, *x, shape, |_, d| kernels::spmm_t_acc(d, csr, g));
                }
            }
        }
    }

    /// Moves a node's gradient out of the tape (used by the arena-backed
    /// gradient extraction to avoid cloning parameter gradients).
    pub(crate) fn take_grad(&mut self, v: Var) -> Option<Matrix> {
        self.nodes[v.0].grad.take()
    }

    /// Returns every remaining gradient buffer to `arena`, so the next
    /// [`Graph::backward_with`] pass checks them out again instead of
    /// allocating.
    pub fn recycle_grads(&mut self, arena: &Arena) {
        for n in &mut self.nodes {
            if let Some(g) = n.grad.take() {
                arena.checkin(g);
            }
        }
    }
}

// ----- backward accumulation helpers ----------------------------------

/// Takes the parent's gradient accumulator out of `head`, or checks a
/// buffer of the right shape out of the arena (contents unspecified).
/// The store says which: [`Store::Assign`] for a fresh checkout (the
/// node's first contribution), [`Store::Add`] for an accumulator that
/// already holds one.
fn take_or_checkout(head: &mut [Node], arena: &Arena, v: Var, (rows, cols): (usize, usize)) -> (Matrix, Store) {
    match head[v.0].grad.take() {
        Some(d) => (d, Store::Add),
        None => (arena.checkout(rows, cols), Store::Assign),
    }
}

/// Applies a *map-style* contribution, where every element of the
/// contribution is one fully-formed value: `contribute` stores it as
/// the store says, assigning every element of a (dirty) checkout on
/// the first contribution and folding the identical values in with one
/// add per element after — bitwise-equal to materializing the
/// contribution and `add_assign`ing it.
fn apply_map(
    head: &mut [Node],
    arena: &Arena,
    v: Var,
    shape: (usize, usize),
    contribute: impl FnOnce(&[Node], &mut Matrix, Store),
) {
    let (mut dst, store) = take_or_checkout(head, arena, v, shape);
    contribute(head, &mut dst, store);
    head[v.0].grad = Some(dst);
}

/// Applies a *sum-style* contribution, where the kernel streams partial
/// sums and therefore must start from zero bytes: the first
/// contribution streams into a zeroed checkout (exactly the old
/// freshly-allocated contribution), and later contributions stream into
/// a zeroed scratch checkout that is `add_assign`ed and returned to the
/// arena — the historical allocate-then-combine float sequence, minus
/// the allocation.
fn apply_sum(
    head: &mut [Node],
    arena: &Arena,
    v: Var,
    shape: (usize, usize),
    compute: impl FnOnce(&[Node], &mut Matrix),
) {
    let (mut dst, store) = take_or_checkout(head, arena, v, shape);
    match store {
        Store::Assign => {
            dst.fill(0.0);
            compute(head, &mut dst);
        }
        Store::Add => {
            let mut scratch = arena.checkout_zeroed(shape.0, shape.1);
            compute(head, &mut scratch);
            kernels::add_assign(&mut dst, &scratch);
            arena.checkin(scratch);
        }
    }
    head[v.0].grad = Some(dst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values() {
        let mut g = Graph::new();
        let a = g.input(Matrix::from_vec(1, 2, vec![2.0, -3.0]));
        let r = g.relu(a);
        assert_eq!(g.value(r).data(), &[2.0, 0.0]);
        let s = g.sigmoid(a);
        assert!((g.value(s).get(0, 0) - stats::sigmoid(2.0)).abs() < 1e-6);
        let sum = g.sum(a);
        assert_eq!(g.value(sum).scalar_value(), -1.0);
    }

    #[test]
    fn backward_through_simple_chain() {
        // loss = sum((a * b) + a) => dl/da = b + 1, dl/db = a
        let mut g = Graph::new();
        let a = g.input(Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let b = g.input(Matrix::from_vec(1, 2, vec![5.0, -1.0]));
        let ab = g.mul(a, b);
        let s = g.add(ab, a);
        let loss = g.sum(s);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data(), &[6.0, 0.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn backward_matmul() {
        // loss = sum(A @ B); dA = ones @ B^T, dB = A^T @ ones
        let mut g = Graph::new();
        let a = g.input(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = g.input(Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let c = g.matmul(a, b);
        let loss = g.sum(c);
        g.backward(loss);
        let da = g.grad(a).unwrap();
        // ones(2x2) @ B^T: each row = [5+6, 7+8] = [11, 15]
        assert_eq!(da.row(0), &[11.0, 15.0]);
        assert_eq!(da.row(1), &[11.0, 15.0]);
        let db = g.grad(b).unwrap();
        // A^T @ ones: row k = sum of A[:,k] repeated
        assert_eq!(db.row(0), &[4.0, 4.0]);
        assert_eq!(db.row(1), &[6.0, 6.0]);
    }

    #[test]
    fn gradient_accumulates_across_uses() {
        // loss = sum(a) + sum(a) => da = 2
        let mut g = Graph::new();
        let a = g.input(Matrix::ones(2, 2));
        let s1 = g.sum(a);
        let s2 = g.sum(a);
        let loss = g.add(s1, s2);
        g.backward(loss);
        assert!(g.grad(a).unwrap().approx_eq(&Matrix::filled(2, 2, 2.0), 1e-6));
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut g = Graph::new();
        let table = g.input(Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32));
        let picked = g.gather_rows(table, Arc::new(vec![1, 1, 3]));
        assert_eq!(g.value(picked).row(0), &[2.0, 3.0]);
        let loss = g.sum(picked);
        g.backward(loss);
        let grad = g.grad(table).unwrap();
        // Row 1 was used twice, row 3 once, rows 0/2 never.
        assert_eq!(grad.row(0), &[0.0, 0.0]);
        assert_eq!(grad.row(1), &[2.0, 2.0]);
        assert_eq!(grad.row(2), &[0.0, 0.0]);
        assert_eq!(grad.row(3), &[1.0, 1.0]);
    }

    #[test]
    fn spmm_backward_matches_dense() {
        let csr = Arc::new(Csr::from_triplets(3, 2, &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, -1.0)]));
        let xm = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);

        let mut g = Graph::new();
        let x = g.input(xm.clone());
        let y = g.spmm(Arc::clone(&csr), x);
        let loss = g.sum(y);
        g.backward(loss);
        let sparse_grad = g.grad(x).unwrap().clone();

        let mut g2 = Graph::new();
        let dense_a = g2.input(csr.to_dense());
        let x2 = g2.input(xm);
        let y2 = g2.matmul(dense_a, x2);
        let loss2 = g2.sum(y2);
        g2.backward(loss2);
        assert!(sparse_grad.approx_eq(g2.grad(x2).unwrap(), 1e-5));
    }

    #[test]
    fn softmax_rows_grad_sums_to_zero() {
        // Softmax output is shift-invariant, so grads along each row sum to 0
        // when downstream grad is arbitrary.
        let mut g = Graph::new();
        let a = g.input(Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.0, 0.1, 0.2]));
        let s = g.softmax_rows(a);
        let w = g.input(Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 3.0, 0.0, 1.0]));
        let p = g.mul(s, w);
        let loss = g.sum(p);
        g.backward(loss);
        let da = g.grad(a).unwrap();
        for r in 0..2 {
            let s: f32 = da.row(r).iter().sum();
            assert!(s.abs() < 1e-5, "row {r} grad sum {s}");
        }
    }

    #[test]
    fn broadcast_ops_backward_shapes() {
        let mut g = Graph::new();
        let a = g.input(Matrix::ones(3, 2));
        let bias = g.input(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let col = g.input(Matrix::from_vec(3, 1, vec![2.0, 3.0, 4.0]));
        let x = g.add_row_broadcast(a, bias);
        let y = g.weighted_sum(col, &[x]);
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(g.grad(bias).unwrap().shape(), (1, 2));
        assert_eq!(g.grad(col).unwrap().shape(), (3, 1));
        // d/dbias = sum over rows of col = 2+3+4 = 9 for each bias column.
        assert_eq!(g.grad(bias).unwrap().data(), &[9.0, 9.0]);
        // d/dcol[r] = sum of (a+bias) row r = (1+1) + (1+2) = 5.
        assert_eq!(g.grad(col).unwrap().data(), &[5.0, 5.0, 5.0]);
    }

    #[test]
    fn concat_slice_backward() {
        let mut g = Graph::new();
        let a = g.input(Matrix::ones(2, 2));
        let b = g.input(Matrix::ones(2, 3));
        let c = g.concat_cols(&[a, b]);
        // Columns [1, 4) through a 0/1 selection matrix.
        let select = g.input(Matrix::from_fn(5, 3, |r, c| if r == c + 1 { 1.0 } else { 0.0 }));
        let sl = g.matmul(c, select);
        let loss = g.sum(sl);
        g.backward(loss);
        // Columns 1 of a and 0..2 of b are in the slice.
        assert_eq!(g.grad(a).unwrap().row(0), &[0.0, 1.0]);
        assert_eq!(g.grad(b).unwrap().row(0), &[1.0, 1.0, 0.0]);
    }

    #[test]
    fn row_dot_backward() {
        let mut g = Graph::new();
        let a = g.input(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = g.input(Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let d = g.row_dot(a, b);
        assert_eq!(g.value(d).data(), &[17.0, 53.0]);
        let loss = g.sum(d);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data(), &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be 1x1")]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let a = g.input(Matrix::ones(2, 2));
        g.backward(a);
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn weighted_sum_matches_matrix_reference_bitwise() {
        // Three weight columns over two parts, `p0` passed twice. The
        // last row has zero weights over negative parts and a negative
        // upstream gradient, so its value and part gradients are -0.0:
        // a sum started from +0.0 instead of the first term would flip
        // their sign bits.
        let (n, d, last) = (5, 3, 4);
        let pick = |r: usize, at_last: f32, x: f32| if r == last { at_last } else { x };
        let w = Matrix::from_fn(n, 3, |r, c| pick(r, 0.0, ((r * 3 + c) as f32 * 0.7).sin()));
        let p0 = Matrix::from_fn(n, d, |r, c| pick(r, -1.0, ((r * 5 + c) as f32 * 0.3).cos() - 0.5));
        let p1 = Matrix::from_fn(n, d, |r, c| pick(r, -2.0, -((r + 2 * c) as f32 * 0.9).sin()));
        let up = Matrix::from_fn(n, d, |r, c| pick(r, -0.5, ((r * 7 + c) as f32 * 0.45).sin()));
        let col = |c: usize| Matrix::from_fn(n, 1, |r, _| w.get(r, c));
        let value = p0
            .mul_col_broadcast(&col(0))
            .add(&p1.mul_col_broadcast(&col(1)))
            .add(&p0.mul_col_broadcast(&col(2)));
        assert!(value.row(last).iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
        // Part gradients `g · w_c`, a repeated part last use first;
        // weight column c is `row_dot(g, part_c)`.
        let d_p0 = up.mul_col_broadcast(&col(2)).add(&up.mul_col_broadcast(&col(0)));
        let d_p1 = up.mul_col_broadcast(&col(1));
        let dots = [up.row_dot(&p0), up.row_dot(&p1), up.row_dot(&p0)];
        let d_w = Matrix::from_fn(n, 3, |r, c| dots[c].get(r, 0));

        // `prior` is None on the first-contribution path; otherwise
        // every input already holds a gradient (from consumers recorded
        // after the weighted sum, which backward visits first).
        let run = |prior: Option<(&Matrix, &Matrix, &Matrix)>| {
            let mut g = Graph::new();
            let (wv, a, b) = (g.input(w.clone()), g.input(p0.clone()), g.input(p1.clone()));
            let ws = g.weighted_sum(wv, &[a, b, a]);
            assert_eq!(bits(g.value(ws)), bits(&value));
            let upv = g.input(up.clone());
            let scaled = g.mul(ws, upv);
            let mut loss = g.sum(scaled);
            if let Some((hw, h0, h1)) = prior {
                for (v, h) in [(wv, hw), (a, h0), (b, h1)] {
                    let hv = g.input(h.clone());
                    let m = g.mul(v, hv);
                    let s = g.sum(m);
                    loss = g.add(loss, s);
                }
            }
            g.backward(loss);
            [wv, a, b].map(|v| g.grad(v).unwrap().clone())
        };

        let [gw, g0, g1] = run(None);
        assert_eq!(bits(&gw), bits(&d_w));
        assert_eq!(bits(&g0), bits(&d_p0));
        assert_eq!(bits(&g1), bits(&d_p1));

        let hw = Matrix::from_fn(n, 3, |r, c| ((r + c) as f32 * 1.3).cos());
        let h0 = Matrix::from_fn(n, d, |r, c| ((r * 2 + c) as f32 * 0.8).sin());
        let h1 = Matrix::from_fn(n, d, |r, c| ((r + 3 * c) as f32 * 0.6).cos());
        let [gw, g0, g1] = run(Some((&hw, &h0, &h1)));
        let d_p0_acc = h0.add(&up.mul_col_broadcast(&col(2))).add(&up.mul_col_broadcast(&col(0)));
        assert_eq!(bits(&gw), bits(&hw.add(&d_w)));
        assert_eq!(bits(&g0), bits(&d_p0_acc));
        assert_eq!(bits(&g1), bits(&h1.add(&d_p1)));
    }

    #[test]
    #[should_panic(expected = "2 parts for 3 weight columns")]
    fn weighted_sum_requires_one_part_per_weight_column() {
        let mut g = Graph::new();
        let w = g.input(Matrix::ones(2, 3));
        let p = g.input(Matrix::ones(2, 4));
        g.weighted_sum(w, &[p, p]);
    }
}
