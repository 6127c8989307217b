//! The training loop every model shares (paper Algorithm 1): epochs of
//! steps, each stepping Adam on the clipped gradients of one loss, and
//! the 0.96 lr decay once per epoch.
//!
//! A [`Trainer`] owns the optimizer and the step's reused storage — one
//! gradient [`Arena`] and one [`Grads`] map for the trainer's lifetime —
//! so after the first step warms the arena, the backward and optimizer
//! path of every later step performs no heap allocation. The caller
//! owns everything else: the sampler and its RNG stream, the forward
//! pass and the loss, and what happens at an epoch boundary
//! (checkpoints, loss history).

use gnmr_tensor::Arena;

use crate::optim::Adam;
use crate::params::{Ctx, Grads, ParamStore};
use crate::tape::{Graph, Var};

/// Eq. 7's pairwise hinge over a batch of (positive, negative) score
/// column vectors: `mean(max(0, 1 - pos + neg))`.
pub fn pairwise_hinge(g: &mut Graph, pos: Var, neg: Var) -> Var {
    let diff = g.sub(neg, pos);
    let margin = g.add_scalar(diff, 1.0);
    let hinge = g.relu(margin);
    g.mean(hinge)
}

/// Adam, a global-norm gradient clip and the buffers one training run
/// reuses from step to step.
pub struct Trainer {
    opt: Adam,
    /// Global-norm clip threshold; 0 disables clipping.
    clip: f32,
    arena: Arena,
    grads: Grads,
}

impl Trainer {
    /// A trainer stepping `opt`, clipping each step's gradients to
    /// global norm `clip` (0 disables clipping).
    pub fn new(opt: Adam, clip: f32) -> Self {
        Self { opt, clip, arena: Arena::new(), grads: Grads::default() }
    }

    /// The optimizer, for checkpointing its state between epochs.
    pub fn opt(&self) -> &Adam {
        &self.opt
    }

    /// Runs one epoch of `steps` steps over `store`, then decays the lr
    /// once. Each step hands `step` a fresh [`Ctx`]; `step` records a
    /// loss on it, or returns `None` to skip the step (a sampler that
    /// found no batch). A taken step runs backward through the arena,
    /// clips and takes one Adam step. Returns the epoch's mean loss —
    /// NaN when no step was taken — and the number of steps taken.
    pub fn epoch<F>(&mut self, store: &mut ParamStore, steps: usize, mut step: F) -> (f32, usize)
    where
        F: FnMut(&mut Ctx<'_>) -> Option<Var>,
    {
        let mut total = 0.0f32;
        let mut taken = 0usize;
        for _ in 0..steps {
            let mut ctx = Ctx::new(store);
            let Some(loss) = step(&mut ctx) else { continue };
            total += ctx.g.value(loss).scalar_value();
            taken += 1;
            ctx.grads_into(loss, &self.arena, &mut self.grads);
            drop(ctx);
            if self.clip > 0.0 {
                self.grads.clip_global_norm(self.clip);
            }
            self.opt.step(store, &self.grads);
        }
        self.opt.decay_lr();
        (if taken > 0 { total / taken as f32 } else { f32::NAN }, taken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnmr_tensor::Matrix;

    /// A toy regression model: `w` (3x2) and `b` (1x2) fitted so that
    /// `x·w + b` matches a fixed target. The input grows with the step
    /// index, so early steps' gradients stay under a clip of 5 and
    /// later ones exceed it.
    fn toy_store() -> ParamStore {
        let mut store = ParamStore::new();
        store.insert("w", Matrix::from_vec(3, 2, vec![0.5, -1.5, 2.0, 0.25, -0.75, 1.0]));
        store.insert("b", Matrix::from_vec(1, 2, vec![0.1, -0.2]));
        store
    }

    fn toy_loss(ctx: &mut Ctx<'_>, step: usize) -> Var {
        let s = step as f32;
        let x = ctx.constant(Matrix::from_vec(2, 3, vec![0.2 * s + 0.2, 0.3, -0.3 * s, 0.1 * s, 0.4, 0.1]));
        let target = ctx.constant(Matrix::from_vec(2, 2, vec![4.0, -1.0, 0.0, 2.5]));
        let w = ctx.param("w");
        let b = ctx.param("b");
        let xw = ctx.g.matmul(x, w);
        let y = ctx.g.add_row_broadcast(xw, b);
        let d = ctx.g.sub(y, target);
        let sq = ctx.g.sqr(d);
        ctx.g.mean(sq)
    }

    fn bits(store: &ParamStore) -> Vec<(String, Vec<u32>)> {
        store
            .iter()
            .map(|(name, m)| (name.to_string(), m.data().iter().map(|v| v.to_bits()).collect()))
            .collect()
    }

    #[test]
    fn an_epoch_of_skipped_steps_takes_no_step_and_decays_once() {
        let mut store = toy_store();
        let before = bits(&store);
        let mut trainer = Trainer::new(Adam::new(1.0), 5.0);
        let mut calls = 0;
        let (loss, taken) = trainer.epoch(&mut store, 4, |_| {
            calls += 1;
            None
        });
        assert!(loss.is_nan(), "mean over zero steps must be NaN, got {loss}");
        assert_eq!((taken, calls), (0, 4));
        assert_eq!(trainer.opt().steps(), 0);
        assert_eq!(trainer.opt().export_state().lr.to_bits(), 0.96f32.to_bits());
        assert_eq!(bits(&store), before);
    }

    #[test]
    fn epochs_match_the_hand_rolled_loop_bitwise() {
        // Reference: the loop written out by hand on the allocating
        // gradient extraction — clip to 5, one Adam step per step, lr
        // decay and mean loss per epoch.
        let (epochs, steps) = (3, 4);
        let opt = || Adam::new(0.05).with_weight_decay(1e-3);

        let mut store = toy_store();
        let mut expect_losses = Vec::new();
        let mut hand = opt();
        let mut clipped = 0;
        for e in 0..epochs {
            let mut total = 0.0f32;
            for s in 0..steps {
                let mut ctx = Ctx::new(&store);
                let loss = toy_loss(&mut ctx, e * steps + s);
                total += ctx.g.value(loss).scalar_value();
                let mut grads = ctx.grads(loss);
                if grads.clip_global_norm(5.0) < 1.0 {
                    clipped += 1;
                }
                hand.step(&mut store, &grads);
            }
            hand.decay_lr();
            expect_losses.push(total / steps as f32);
        }
        let expect = bits(&store);
        assert!(0 < clipped && clipped < epochs * steps, "clip must both bind and not: {clipped}");

        let mut store = toy_store();
        let mut trainer = Trainer::new(opt(), 5.0);
        let mut losses = Vec::new();
        let mut n = 0;
        for _ in 0..epochs {
            let (loss, taken) = trainer.epoch(&mut store, steps, |ctx| {
                n += 1;
                Some(toy_loss(ctx, n - 1))
            });
            assert_eq!(taken, steps);
            losses.push(loss);
        }
        assert_eq!(bits(&store), expect);
        let loss_bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(loss_bits(&losses), loss_bits(&expect_losses));
        assert_eq!(trainer.opt().steps(), hand.steps());
        assert_eq!(trainer.opt().export_state().lr.to_bits(), hand.export_state().lr.to_bits());
    }
}
