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
//! The tape owns no loops over matrix elements itself: forward values
//! and backward contributions are produced by [`gnmr_tensor`] ops, so
//! `matmul`/`spmm` (and their transposed backward counterparts) inherit
//! the tiled, thread-parallel kernels of `gnmr_tensor::kernels`, and
//! gradient accumulation (`add_assign`, the `gather_rows` scatter-add)
//! runs on the same shared **persistent worker pool** where the
//! buffers are large enough to amortize dispatch — important for the
//! tape, which issues many sub-millisecond kernel calls per training
//! step and would otherwise pay a thread spawn on each.
//!
//! The backward pass is **allocation-free in the steady state**:
//! gradient accumulators come from a shape-keyed [`Arena`]
//! ([`Graph::backward_with`]), contributions are applied through the
//! fused in-place kernels (`axpy`, the `zip_map` family, the
//! `matmul_*`/`spmm_*` accumulate forms), and every buffer is returned
//! to the arena for the next step. The in-place paths reproduce the
//! historical allocate-then-combine float sequences exactly, so
//! training bytes are unchanged (see the kernel docs and
//! `tests/determinism.rs`).

use std::sync::Arc;

use gnmr_tensor::{kernels, stats, Arena, Csr, Matrix};

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
    Neg(Var),
    MatMul(Var, Var),
    Transpose(Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Sigmoid(Var),
    Tanh(Var),
    Exp(Var),
    Ln(Var),
    Sqr(Var),
    Softplus(Var),
    SoftmaxRows(Var),
    SumAll(Var),
    MeanAll(Var),
    RowSums(Var),
    ColSums(Var),
    ConcatCols(Vec<Var>),
    SliceCols(Var, usize, usize),
    GatherRows(Var, Arc<Vec<u32>>),
    AddRowBroadcast(Var, Var),
    MulColBroadcast(Var, Var),
    RowDot(Var, Var),
    Spmm(Arc<Csr>, Var),
    SpmmT(Arc<Csr>, Var),
    Dropout(Var, Arc<Vec<f32>>),
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

    /// Negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.value(a).scale(-1.0);
        self.push(v, Op::Neg(a))
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

    /// Element-wise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::exp);
        self.push(v, Op::Exp(a))
    }

    /// Element-wise natural logarithm. Inputs must be positive.
    pub fn ln(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::ln);
        self.push(v, Op::Ln(a))
    }

    /// Element-wise square.
    pub fn sqr(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x * x);
        self.push(v, Op::Sqr(a))
    }

    /// Numerically stable `ln(1 + e^x)`.
    pub fn softplus(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| {
            if x > 20.0 {
                x
            } else if x < -20.0 {
                x.exp()
            } else {
                x.exp().ln_1p()
            }
        });
        self.push(v, Op::Softplus(a))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = stats::softmax_rows(self.value(a));
        self.push(v, Op::SoftmaxRows(a))
    }

    /// Inverted-scale dropout with keep mask `mask` (entries `0` or
    /// `1/(1-p)`); the mask is applied identically in forward and backward.
    pub fn dropout(&mut self, a: Var, mask: Arc<Vec<f32>>) -> Var {
        assert_eq!(mask.len(), self.value(a).len(), "dropout: mask length mismatch");
        let val = self.value(a);
        let mut v = val.clone();
        for (x, &m) in v.data_mut().iter_mut().zip(mask.iter()) {
            *x *= m;
        }
        self.push(v, Op::Dropout(a, mask))
    }

    // ----- linear algebra ---------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Sparse x dense product with a constant CSR (no gradient flows into
    /// the sparse matrix).
    pub fn spmm(&mut self, csr: Arc<Csr>, x: Var) -> Var {
        let v = csr.spmm(self.value(x));
        self.push(v, Op::Spmm(csr, x))
    }

    /// Transposed sparse x dense product `csr^T * x` with a constant CSR.
    pub fn spmm_t(&mut self, csr: Arc<Csr>, x: Var) -> Var {
        let v = csr.spmm_t(self.value(x));
        self.push(v, Op::SpmmT(csr, x))
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

    /// Per-row sums: `(n, d) -> (n, 1)`.
    pub fn row_sums(&mut self, a: Var) -> Var {
        let v = self.value(a).row_sums();
        self.push(v, Op::RowSums(a))
    }

    /// Per-column sums: `(n, d) -> (1, d)`.
    pub fn col_sums(&mut self, a: Var) -> Var {
        let v = self.value(a).col_sums();
        self.push(v, Op::ColSums(a))
    }

    // ----- shape ---------------------------------------------------------

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols: no parts");
        let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Matrix::concat_cols(&mats);
        self.push(v, Op::ConcatCols(parts.to_vec()))
    }

    /// Column slice `[start, end)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let v = self.value(a).slice_cols(start, end);
        self.push(v, Op::SliceCols(a, start, end))
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

    /// Scales row `r` of an `n x d` matrix by `col[r]` (`col` is `n x 1`).
    pub fn mul_col_broadcast(&mut self, a: Var, col: Var) -> Var {
        let v = self.value(a).mul_col_broadcast(self.value(col));
        self.push(v, Op::MulColBroadcast(a, col))
    }

    /// Row-wise dot product of two `n x d` matrices, giving `n x 1`.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).row_dot(self.value(b));
        self.push(v, Op::RowDot(a, b))
    }

    /// Broadcasts a `1 x d` row vector to `n x d`.
    pub fn broadcast_row_to(&mut self, row: Var, n: usize) -> Var {
        let d = self.shape(row).1;
        let zeros = self.input(Matrix::zeros(n, d));
        self.add_row_broadcast(zeros, row)
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
    /// written into a checkout (assign-style kernels take dirty buffers,
    /// streaming accumulators take zeroed ones — both produce exactly
    /// the bytes the old freshly-allocated contribution held), and every
    /// further contribution either folds in fully-formed values with one
    /// add per element or goes through a zeroed scratch checkout plus
    /// `add_assign`, replicating the historical allocate-then-combine
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
                        apply_map(
                            head,
                            arena,
                            p,
                            g.shape(),
                            |_, d| d.copy_from(g),
                            |_, d| kernels::add_assign(d, g),
                        );
                    }
                }
                Op::Sub(a, b) => {
                    apply_map(head, arena, *a, g.shape(), |_, d| d.copy_from(g), |_, d| {
                        kernels::add_assign(d, g)
                    });
                    apply_map(
                        head,
                        arena,
                        *b,
                        g.shape(),
                        |_, d| kernels::scale_into(d, g, -1.0),
                        |_, d| kernels::axpy(d, g, -1.0),
                    );
                }
                Op::Mul(a, b) => {
                    for (p, o) in [(*a, *b), (*b, *a)] {
                        apply_map(
                            head,
                            arena,
                            p,
                            g.shape(),
                            |h, d| kernels::zip_map_into(d, g, &h[o.0].value, |gi, vi| gi * vi),
                            |h, d| kernels::zip_map_acc(d, g, &h[o.0].value, |gi, vi| gi * vi),
                        );
                    }
                }
                Op::Scale(a, s) => {
                    let s = *s;
                    apply_map(
                        head,
                        arena,
                        *a,
                        g.shape(),
                        |_, d| kernels::scale_into(d, g, s),
                        |_, d| kernels::axpy(d, g, s),
                    );
                }
                Op::AddScalar(a) => {
                    apply_map(head, arena, *a, g.shape(), |_, d| d.copy_from(g), |_, d| {
                        kernels::add_assign(d, g)
                    });
                }
                Op::Neg(a) => {
                    apply_map(
                        head,
                        arena,
                        *a,
                        g.shape(),
                        |_, d| kernels::scale_into(d, g, -1.0),
                        |_, d| kernels::axpy(d, g, -1.0),
                    );
                }
                Op::MatMul(a, b) => {
                    let da_shape = head[a.0].value.shape();
                    apply_map(
                        head,
                        arena,
                        *a,
                        da_shape,
                        |h, d| kernels::matmul_nt_into(d, g, &h[b.0].value),
                        |h, d| kernels::matmul_nt_acc(d, g, &h[b.0].value),
                    );
                    let db_shape = head[b.0].value.shape();
                    apply_sum(head, arena, *b, db_shape, |h, d| {
                        kernels::matmul_tn_acc(d, &h[a.0].value, g)
                    });
                }
                Op::Transpose(a) => {
                    let shape = head[a.0].value.shape();
                    apply_map(
                        head,
                        arena,
                        *a,
                        shape,
                        |_, d| kernels::transpose_into(d, g),
                        |_, d| kernels::transpose_acc(d, g),
                    );
                }
                Op::Relu(a) => {
                    let f = |gi: f32, yi: f32| if yi > 0.0 { gi } else { 0.0 };
                    apply_map(
                        head,
                        arena,
                        *a,
                        g.shape(),
                        |_, d| kernels::zip_map_into(d, g, out, f),
                        |_, d| kernels::zip_map_acc(d, g, out, f),
                    );
                }
                Op::LeakyRelu(a, slope) => {
                    let slope = *slope;
                    let f = move |gi: f32, xi: f32| if xi > 0.0 { gi } else { gi * slope };
                    apply_map(
                        head,
                        arena,
                        *a,
                        g.shape(),
                        |h, d| kernels::zip_map_into(d, g, &h[a.0].value, f),
                        |h, d| kernels::zip_map_acc(d, g, &h[a.0].value, f),
                    );
                }
                Op::Sigmoid(a) => {
                    let f = |gi: f32, yi: f32| gi * yi * (1.0 - yi);
                    apply_map(
                        head,
                        arena,
                        *a,
                        g.shape(),
                        |_, d| kernels::zip_map_into(d, g, out, f),
                        |_, d| kernels::zip_map_acc(d, g, out, f),
                    );
                }
                Op::Tanh(a) => {
                    let f = |gi: f32, yi: f32| gi * (1.0 - yi * yi);
                    apply_map(
                        head,
                        arena,
                        *a,
                        g.shape(),
                        |_, d| kernels::zip_map_into(d, g, out, f),
                        |_, d| kernels::zip_map_acc(d, g, out, f),
                    );
                }
                Op::Exp(a) => {
                    let f = |gi: f32, yi: f32| gi * yi;
                    apply_map(
                        head,
                        arena,
                        *a,
                        g.shape(),
                        |_, d| kernels::zip_map_into(d, g, out, f),
                        |_, d| kernels::zip_map_acc(d, g, out, f),
                    );
                }
                Op::Ln(a) => {
                    let f = |gi: f32, xi: f32| gi / xi;
                    apply_map(
                        head,
                        arena,
                        *a,
                        g.shape(),
                        |h, d| kernels::zip_map_into(d, g, &h[a.0].value, f),
                        |h, d| kernels::zip_map_acc(d, g, &h[a.0].value, f),
                    );
                }
                Op::Sqr(a) => {
                    let f = |gi: f32, xi: f32| 2.0 * gi * xi;
                    apply_map(
                        head,
                        arena,
                        *a,
                        g.shape(),
                        |h, d| kernels::zip_map_into(d, g, &h[a.0].value, f),
                        |h, d| kernels::zip_map_acc(d, g, &h[a.0].value, f),
                    );
                }
                Op::Softplus(a) => {
                    let f = |gi: f32, xi: f32| gi * stats::sigmoid(xi);
                    apply_map(
                        head,
                        arena,
                        *a,
                        g.shape(),
                        |h, d| kernels::zip_map_into(d, g, &h[a.0].value, f),
                        |h, d| kernels::zip_map_acc(d, g, &h[a.0].value, f),
                    );
                }
                Op::SoftmaxRows(a) => {
                    apply_map(
                        head,
                        arena,
                        *a,
                        g.shape(),
                        |_, d| kernels::softmax_rows_backward_into(d, g, out),
                        |_, d| kernels::softmax_rows_backward_acc(d, g, out),
                    );
                }
                Op::SumAll(a) => {
                    let shape = head[a.0].value.shape();
                    let val = g.scalar_value();
                    apply_map(
                        head,
                        arena,
                        *a,
                        shape,
                        |_, d| d.fill(val),
                        |_, d| {
                            for o in d.data_mut() {
                                *o += val;
                            }
                        },
                    );
                }
                Op::MeanAll(a) => {
                    let shape = head[a.0].value.shape();
                    let n = (shape.0 * shape.1) as f32;
                    let val = g.scalar_value() / n;
                    apply_map(
                        head,
                        arena,
                        *a,
                        shape,
                        |_, d| d.fill(val),
                        |_, d| {
                            for o in d.data_mut() {
                                *o += val;
                            }
                        },
                    );
                }
                Op::RowSums(a) => {
                    let shape = head[a.0].value.shape();
                    apply_map(
                        head,
                        arena,
                        *a,
                        shape,
                        |_, d| {
                            for r in 0..shape.0 {
                                let gi = g.get(r, 0);
                                for v in d.row_mut(r) {
                                    *v = gi;
                                }
                            }
                        },
                        |_, d| {
                            for r in 0..shape.0 {
                                let gi = g.get(r, 0);
                                for v in d.row_mut(r) {
                                    *v += gi;
                                }
                            }
                        },
                    );
                }
                Op::ColSums(a) => {
                    let shape = head[a.0].value.shape();
                    apply_map(
                        head,
                        arena,
                        *a,
                        shape,
                        |_, d| {
                            for r in 0..shape.0 {
                                d.row_mut(r).copy_from_slice(g.row(0));
                            }
                        },
                        |_, d| {
                            for r in 0..shape.0 {
                                for (o, &x) in d.row_mut(r).iter_mut().zip(g.row(0)) {
                                    *o += x;
                                }
                            }
                        },
                    );
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for &p in parts {
                        let (pr, w) = head[p.0].value.shape();
                        apply_map(
                            head,
                            arena,
                            p,
                            (pr, w),
                            |_, d| {
                                for r in 0..pr {
                                    d.row_mut(r).copy_from_slice(&g.row(r)[offset..offset + w]);
                                }
                            },
                            |_, d| {
                                for r in 0..pr {
                                    for (o, &x) in
                                        d.row_mut(r).iter_mut().zip(&g.row(r)[offset..offset + w])
                                    {
                                        *o += x;
                                    }
                                }
                            },
                        );
                        offset += w;
                    }
                }
                Op::SliceCols(a, start, end) => {
                    let shape = head[a.0].value.shape();
                    let (start, end) = (*start, *end);
                    apply_sum(head, arena, *a, shape, |_, d| {
                        for r in 0..shape.0 {
                            d.row_mut(r)[start..end].copy_from_slice(g.row(r));
                        }
                    });
                }
                Op::GatherRows(a, indices) => {
                    // Scatter-add via the kernel layer: updates are bucketed
                    // by destination row and the chunk plan is update-count
                    // weighted (one hot embedding row drawing most of the
                    // gradient traffic gets a chunk of its own), so large
                    // tables accumulate in parallel with the same per-row
                    // order (and bytes) as the serial loop.
                    let shape = head[a.0].value.shape();
                    apply_sum(head, arena, *a, shape, |_, d| {
                        kernels::scatter_add_rows(d, indices, g)
                    });
                }
                Op::AddRowBroadcast(a, row) => {
                    apply_map(head, arena, *a, g.shape(), |_, d| d.copy_from(g), |_, d| {
                        kernels::add_assign(d, g)
                    });
                    apply_sum(head, arena, *row, (1, g.cols()), |_, d| {
                        for r in 0..g.rows() {
                            for (o, &x) in d.row_mut(0).iter_mut().zip(g.row(r)) {
                                *o += x;
                            }
                        }
                    });
                }
                Op::MulColBroadcast(a, col) => {
                    apply_map(
                        head,
                        arena,
                        *a,
                        g.shape(),
                        |h, d| kernels::mul_col_broadcast_into(d, g, &h[col.0].value),
                        |h, d| kernels::mul_col_broadcast_acc(d, g, &h[col.0].value),
                    );
                    apply_map(
                        head,
                        arena,
                        *col,
                        (g.rows(), 1),
                        |h, d| kernels::row_dot_into(d, g, &h[a.0].value),
                        |h, d| kernels::row_dot_acc(d, g, &h[a.0].value),
                    );
                }
                Op::RowDot(a, b) => {
                    for (p, o) in [(*a, *b), (*b, *a)] {
                        let shape = head[o.0].value.shape();
                        apply_map(
                            head,
                            arena,
                            p,
                            shape,
                            |h, d| kernels::mul_col_broadcast_into(d, &h[o.0].value, g),
                            |h, d| kernels::mul_col_broadcast_acc(d, &h[o.0].value, g),
                        );
                    }
                }
                Op::Spmm(csr, x) => {
                    let shape = head[x.0].value.shape();
                    apply_sum(head, arena, *x, shape, |_, d| kernels::spmm_t_acc(d, csr, g));
                }
                Op::SpmmT(csr, x) => {
                    let shape = head[x.0].value.shape();
                    apply_sum(head, arena, *x, shape, |_, d| kernels::spmm_acc(d, csr, g));
                }
                Op::Dropout(a, mask) => {
                    apply_map(
                        head,
                        arena,
                        *a,
                        g.shape(),
                        |_, d| {
                            for ((o, &gi), &mi) in
                                d.data_mut().iter_mut().zip(g.data()).zip(mask.iter())
                            {
                                *o = gi * mi;
                            }
                        },
                        |_, d| {
                            for ((o, &gi), &mi) in
                                d.data_mut().iter_mut().zip(g.data()).zip(mask.iter())
                            {
                                *o += gi * mi;
                            }
                        },
                    );
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
    /// [`Graph::backward_with`] pass over an equally-shaped tape checks
    /// them out again instead of allocating.
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
/// `true` means the buffer is fresh (this is the node's first
/// contribution).
fn take_or_checkout(
    head: &mut [Node],
    arena: &Arena,
    v: Var,
    (rows, cols): (usize, usize),
) -> (Matrix, bool) {
    match head[v.0].grad.take() {
        Some(d) => (d, false),
        None => (arena.checkout(rows, cols), true),
    }
}

/// Applies a *map-style* contribution, where every element of the
/// contribution is one fully-formed value: the first contribution
/// assigns every element of a (dirty) checkout via `into`, and later
/// contributions fold the identical values in with one add per element
/// via `acc` — bitwise-equal to materializing the contribution and
/// `add_assign`ing it.
fn apply_map(
    head: &mut [Node],
    arena: &Arena,
    v: Var,
    shape: (usize, usize),
    into: impl FnOnce(&[Node], &mut Matrix),
    acc: impl FnOnce(&[Node], &mut Matrix),
) {
    let (mut dst, fresh) = take_or_checkout(head, arena, v, shape);
    if fresh {
        into(head, &mut dst);
    } else {
        acc(head, &mut dst);
    }
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
    let (mut dst, fresh) = take_or_checkout(head, arena, v, shape);
    if fresh {
        dst.fill(0.0);
        compute(head, &mut dst);
    } else {
        let mut scratch = arena.checkout_zeroed(shape.0, shape.1);
        compute(head, &mut scratch);
        kernels::add_assign(&mut dst, &scratch);
        arena.checkin(scratch);
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
        let y = g.mul_col_broadcast(x, col);
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
        let sl = g.slice_cols(c, 1, 4);
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

    #[test]
    fn dropout_masks_forward_and_backward() {
        let mut g = Graph::new();
        let a = g.input(Matrix::ones(1, 4));
        let mask = Arc::new(vec![0.0, 2.0, 0.0, 2.0]);
        let d = g.dropout(a, mask);
        assert_eq!(g.value(d).data(), &[0.0, 2.0, 0.0, 2.0]);
        let loss = g.sum(d);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data(), &[0.0, 2.0, 0.0, 2.0]);
    }
}
