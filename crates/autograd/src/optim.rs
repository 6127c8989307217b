//! The optimizer: Adam.
//!
//! The paper trains GNMR with Adam (lr `1e-3`, decay rate 0.96); the
//! Frobenius regularization `lambda * ||Theta||_F^2` of Eq. 7 is applied
//! here as coupled L2 weight decay (`grad += 2 * lambda * w`), which is
//! its exact gradient.
//!
//! Updates go through a **fused single-pass kernel** ([`adam_step`]):
//! weight decay, moment updates, and the parameter write happen in one
//! sweep over each tensor, with no temporary matrices — the
//! steady-state optimizer path performs zero heap allocations (the
//! moment buffers are minted once, on a parameter's first step). The
//! fused loop evaluates exactly the same per-element expressions, in
//! the same order, as the historical materialize-temporaries
//! implementation, so updates are bitwise identical to it.

use std::collections::BTreeMap;

use gnmr_tensor::kernels::LANES;
use gnmr_tensor::Matrix;

use crate::params::{Grads, ParamStore};

/// First-moment decay `beta1`.
const BETA1: f32 = 0.9;

/// Second-moment decay `beta2`.
const BETA2: f32 = 0.999;

/// Numerical-stability epsilon.
const EPS: f32 = 1e-8;

/// Multiplicative lr decay applied per epoch by [`Adam::decay_lr`] (the
/// paper's 0.96).
const LR_DECAY: f32 = 0.96;

/// Adam (Kingma & Ba) with coupled L2 weight decay and per-epoch
/// exponential learning-rate decay, matching the paper's training setup:
/// `beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`, lr decay 0.96.
pub struct Adam {
    /// Current learning rate (decayed by [`Adam::decay_lr`]).
    lr: f32,
    /// Coupled L2 coefficient (the paper's `lambda`).
    weight_decay: f32,
    t: u64,
    /// Each parameter's first and second moments, by name.
    moments: BTreeMap<String, (Matrix, Matrix)>,
}

impl Adam {
    /// Adam at learning rate `lr` with no weight decay.
    pub fn new(lr: f32) -> Self {
        Self { lr, weight_decay: 0.0, t: 0, moments: BTreeMap::new() }
    }

    /// Sets the coupled L2 coefficient, builder-style.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies the per-epoch exponential learning-rate decay.
    pub fn decay_lr(&mut self) {
        self.lr *= LR_DECAY;
    }

    /// Freezes the optimizer's evolving state for checkpointing: the
    /// step count, the *decayed* learning rate (stored as the exact f32
    /// reached by the repeated `lr *= 0.96` chain — recomputing it
    /// as a power on resume would not be bitwise-identical), and every
    /// parameter's two moments in ascending name order.
    pub fn export_state(&self) -> AdamState {
        let moments = self.moments.iter().map(|(name, (m, v))| (name.clone(), m.clone(), v.clone())).collect();
        AdamState { t: self.t, lr: self.lr, moments }
    }

    /// Restores state frozen by [`Adam::export_state`]. The weight
    /// decay is construction-time configuration and is left untouched;
    /// a resumed optimizer takes its next step exactly as the
    /// uninterrupted one would have.
    ///
    /// # Panics
    /// If the moment names are not strictly ascending or m/v shapes
    /// disagree (a malformed checkpoint; loaders validate first).
    pub fn restore_state(&mut self, state: AdamState) {
        assert!(
            state.moments.windows(2).all(|w| w[0].0 < w[1].0),
            "Adam::restore_state: moments must be strictly ascending by name"
        );
        self.t = state.t;
        self.lr = state.lr;
        self.moments.clear();
        for (name, m, v) in state.moments {
            assert_eq!(m.shape(), v.shape(), "Adam::restore_state: m/v shape mismatch for {name:?}");
            self.moments.insert(name, (m, v));
        }
    }

    /// Applies one update step (fused, allocation-free after each
    /// parameter's first step, which mints its moment buffers).
    pub fn step(&mut self, store: &mut ParamStore, grads: &Grads) {
        self.t += 1;
        let cfg = AdamStep {
            lr: self.lr,
            beta1: BETA1,
            beta2: BETA2,
            eps: EPS,
            weight_decay: self.weight_decay,
            bc1: 1.0 - BETA1.powi(self.t as i32),
            bc2: 1.0 - BETA2.powi(self.t as i32),
        };
        for (name, w) in store.iter_mut() {
            let Some(g) = grads.get(name) else { continue };
            if !self.moments.contains_key(name) {
                let zeros = || Matrix::zeros(w.rows(), w.cols());
                self.moments.insert(name.to_string(), (zeros(), zeros()));
            }
            let (m, v) = self.moments.get_mut(name).expect("moments inserted above");
            adam_step(w, g, m, v, &cfg);
        }
    }
}

/// Frozen [`Adam`] state: everything that evolves across steps, in
/// checkpointable form. Produced by [`Adam::export_state`], consumed by
/// [`Adam::restore_state`]; the `(name, m, v)` triples are strictly
/// ascending by name (the `BTreeMap` iteration order), so serialization
/// is canonical.
#[derive(Clone, Debug)]
pub struct AdamState {
    /// Steps taken so far (drives bias correction).
    pub t: u64,
    /// The current — already decayed — learning rate.
    pub lr: f32,
    /// `(name, first moment, second moment)`, ascending by name.
    pub moments: Vec<(String, Matrix, Matrix)>,
}

/// Per-step constants for [`adam_step`]: the optimizer hyperparameters
/// plus the bias-correction denominators `1 - beta^t` for the current
/// step count.
#[derive(Clone, Copy, Debug)]
pub struct AdamStep {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Coupled L2 coefficient.
    pub weight_decay: f32,
    /// `1 - beta1^t`.
    pub bc1: f32,
    /// `1 - beta2^t`.
    pub bc2: f32,
}

/// Fused Adam update for one tensor: weight decay, both moment
/// updates, bias correction, and the parameter write in a single pass
/// with no temporaries. Element-for-element the same float expressions
/// (and evaluation order) as the historical
/// clone/`scale_assign`/`add_scaled_assign`/`hadamard` sequence, so
/// updates are bitwise identical to it. The pass is blocked into fixed
/// [`LANES`]-element groups (explicit scalar remainder) with the
/// weight-decay branch hoisted out of the loop, so LLVM vectorizes the
/// whole update chain (including the `sqrt` and divides); blocking an
/// elementwise update reorders nothing.
pub fn adam_step(w: &mut Matrix, g: &Matrix, m: &mut Matrix, v: &mut Matrix, p: &AdamStep) {
    assert_eq!(w.shape(), g.shape(), "adam_step: grad shape mismatch");
    assert_eq!(w.shape(), m.shape(), "adam_step: first-moment shape mismatch");
    assert_eq!(w.shape(), v.shape(), "adam_step: second-moment shape mismatch");
    adam_slices(w.data_mut(), g.data(), m.data_mut(), v.data_mut(), p);
}

/// The loop behind [`adam_step`], over equal-length slices. Slice
/// parameters let the compiler assume the four buffers never alias,
/// as for the kernel layer's slice loops.
fn adam_slices(w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], p: &AdamStep) {
    let s_wd = 2.0 * p.weight_decay;
    let om1 = 1.0 - p.beta1;
    let om2 = 1.0 - p.beta2;
    let decayed = p.weight_decay > 0.0;
    let mut wc = w.chunks_exact_mut(LANES);
    let mut gc = g.chunks_exact(LANES);
    let mut mc = m.chunks_exact_mut(LANES);
    let mut vc = v.chunks_exact_mut(LANES);
    if decayed {
        for (((wb, gb), mb), vb) in (&mut wc).zip(&mut gc).zip(&mut mc).zip(&mut vc) {
            for l in 0..LANES {
                let eff = gb[l] + s_wd * wb[l];
                let mi = mb[l] * p.beta1 + om1 * eff;
                let vi = vb[l] * p.beta2 + om2 * (eff * eff);
                mb[l] = mi;
                vb[l] = vi;
                let m_hat = mi / p.bc1;
                let v_hat = vi / p.bc2;
                wb[l] -= p.lr * m_hat / (v_hat.sqrt() + p.eps);
            }
        }
    } else {
        for (((wb, gb), mb), vb) in (&mut wc).zip(&mut gc).zip(&mut mc).zip(&mut vc) {
            for l in 0..LANES {
                let eff = gb[l];
                let mi = mb[l] * p.beta1 + om1 * eff;
                let vi = vb[l] * p.beta2 + om2 * (eff * eff);
                mb[l] = mi;
                vb[l] = vi;
                let m_hat = mi / p.bc1;
                let v_hat = vi / p.bc2;
                wb[l] -= p.lr * m_hat / (v_hat.sqrt() + p.eps);
            }
        }
    }
    for ((wv, &gv), (mv, vv)) in wc
        .into_remainder()
        .iter_mut()
        .zip(gc.remainder())
        .zip(mc.into_remainder().iter_mut().zip(vc.into_remainder().iter_mut()))
    {
        let eff = if decayed { gv + s_wd * *wv } else { gv };
        let mi = *mv * p.beta1 + om1 * eff;
        let vi = *vv * p.beta2 + om2 * (eff * eff);
        *mv = mi;
        *vv = vi;
        let m_hat = mi / p.bc1;
        let v_hat = vi / p.bc2;
        *wv -= p.lr * m_hat / (v_hat.sqrt() + p.eps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Ctx;
    use gnmr_tensor::Matrix;

    /// Minimizes `sum((w - target)^2)` and checks convergence.
    fn quadratic_converges(mut step: impl FnMut(&mut ParamStore, &Grads)) -> f32 {
        let mut store = ParamStore::new();
        store.insert("w", Matrix::from_vec(1, 3, vec![5.0, -4.0, 2.0]));
        let target = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        for _ in 0..500 {
            let mut ctx = Ctx::new(&store);
            let w = ctx.param("w");
            let t = ctx.constant(target.clone());
            let d = ctx.g.sub(w, t);
            let sq = ctx.g.sqr(d);
            let loss = ctx.g.sum(sq);
            let grads = ctx.grads(loss);
            step(&mut store, &grads);
        }
        store.get("w").max_abs_diff(&target)
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut opt = Adam::new(0.05);
        let err = quadratic_converges(|s, g| opt.step(s, g));
        assert!(err < 1e-2, "Adam did not converge: err {err}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        // With a zero-gradient loss, weight decay alone must shrink
        // weights. Adam normalizes the decay gradient `2*wd*w`, so each
        // step moves a positive weight down by about `lr`.
        let mut store = ParamStore::new();
        store.insert("w", Matrix::filled(1, 2, 4.0));
        let mut opt = Adam::new(0.1).with_weight_decay(0.5);
        for _ in 0..10 {
            let mut ctx = Ctx::new(&store);
            let w = ctx.param("w");
            let z = ctx.g.scale(w, 0.0);
            let loss = ctx.g.sum(z);
            let grads = ctx.grads(loss);
            opt.step(&mut store, &grads);
        }
        assert!(store.get("w").max_abs() < 3.1, "w = {:?}", store.get("w").data());
    }

    #[test]
    fn adam_lr_decay() {
        let mut opt = Adam::new(1.0);
        opt.decay_lr();
        assert!((opt.lr - 0.96).abs() < 1e-6);
        opt.decay_lr();
        assert!((opt.lr - 0.9216).abs() < 1e-6);
    }

    #[test]
    fn adam_state_roundtrip_resumes_bitwise() {
        // Train 6 steps straight vs. 3 steps, freeze/restore into a
        // *fresh* optimizer, 3 more: parameters must match bitwise.
        let run = |split: Option<usize>| {
            let mut store = ParamStore::new();
            store.insert("w", Matrix::from_vec(1, 3, vec![5.0, -4.0, 2.0]));
            let target = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
            let mut opt = Adam::new(0.05).with_weight_decay(1e-3);
            for step in 0..6 {
                if split == Some(step) {
                    let state = opt.export_state();
                    opt = Adam::new(0.05).with_weight_decay(1e-3);
                    opt.restore_state(state);
                }
                let mut ctx = Ctx::new(&store);
                let w = ctx.param("w");
                let t = ctx.constant(target.clone());
                let d = ctx.g.sub(w, t);
                let sq = ctx.g.sqr(d);
                let loss = ctx.g.sum(sq);
                let grads = ctx.grads(loss);
                opt.step(&mut store, &grads);
                opt.decay_lr();
            }
            store.get("w").data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(run(None), run(Some(3)));
    }

    #[test]
    fn adam_counts_steps_and_skips_missing_grads() {
        let mut store = ParamStore::new();
        store.insert("a", Matrix::ones(1, 1));
        store.insert("b", Matrix::ones(1, 1));
        let mut opt = Adam::new(0.1);
        let mut ctx = Ctx::new(&store);
        let a = ctx.param("a");
        let loss = ctx.g.sum(a);
        let grads = ctx.grads(loss);
        opt.step(&mut store, &grads);
        assert_eq!(opt.steps(), 1);
        // "b" had no gradient and must be untouched.
        assert_eq!(store.get("b").scalar_value(), 1.0);
        assert!(store.get("a").scalar_value() < 1.0);
    }
}
