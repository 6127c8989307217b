//! Named parameter storage and per-step tape binding.
//!
//! Parameters live in a [`ParamStore`] across training steps. Each step, a
//! [`Ctx`] binds them as leaves on a fresh [`Graph`]; after the forward
//! pass, [`Ctx::grads`] runs backward and returns the named gradients,
//! which an optimizer applies back to the store.

use std::collections::BTreeMap;

use gnmr_tensor::{kernels, Arena, Matrix};

use crate::tape::{Graph, Var};

/// A named collection of trainable matrices.
///
/// Uses a `BTreeMap` so iteration order (and therefore optimizer update
/// order and any floating-point accumulation order) is deterministic.
#[derive(Default, Clone)]
pub struct ParamStore {
    entries: BTreeMap<String, Matrix>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter.
    ///
    /// # Panics
    /// If the name is already taken (parameter names must be unique).
    pub fn insert(&mut self, name: impl Into<String>, value: Matrix) {
        let name = name.into();
        let prev = self.entries.insert(name.clone(), value);
        assert!(prev.is_none(), "ParamStore::insert: duplicate parameter {name:?}");
    }

    /// Looks up a parameter.
    ///
    /// # Panics
    /// If the name is unknown (a typo is a programmer error).
    pub fn get(&self, name: &str) -> &Matrix {
        self.entries
            .get(name)
            .unwrap_or_else(|| panic!("ParamStore::get: unknown parameter {name:?}"))
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, name: &str) -> &mut Matrix {
        self.entries
            .get_mut(name)
            .unwrap_or_else(|| panic!("ParamStore::get_mut: unknown parameter {name:?}"))
    }

    /// Whether a parameter with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Parameter names in deterministic (sorted) order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Iterates `(name, value)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Matrix)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates `(name, mutable value)` pairs in deterministic (sorted)
    /// order. This is the optimizer's update path: iterating in place
    /// avoids the per-step name-list allocation the old
    /// collect-then-look-up loop paid.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&str, &mut Matrix)> {
        self.entries.iter_mut().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of parameters (tensors).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether every parameter is finite.
    pub fn all_finite(&self) -> bool {
        self.entries.values().all(Matrix::is_finite)
    }
}

/// Named gradients produced by one backward pass.
///
/// Reusable across steps: slots keep their `String` keys when a
/// gradient is recycled into an [`Arena`] (see [`Grads::recycle`]), so
/// a steady-state training loop refills the same map every step
/// without touching the allocator.
///
/// Backed by a `BTreeMap` so every iteration-order-sensitive consumer
/// — [`Grads::global_norm`]'s float accumulation above all — is
/// deterministic, per the workspace determinism contract
/// (`gnmr-analyze` rule `det-map-iter`).
#[derive(Default, Clone)]
pub struct Grads {
    /// `None` marks a slot whose matrix was recycled (or a parameter
    /// that did not participate this step); keys persist so refills
    /// never re-allocate the name.
    entries: BTreeMap<String, Option<Matrix>>,
}

impl Grads {
    /// Gradient for a parameter, if it participated in the loss.
    pub fn get(&self, name: &str) -> Option<&Matrix> {
        self.entries.get(name).and_then(Option::as_ref)
    }

    /// Iterates over `(name, grad)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Matrix)> {
        self.entries.iter().filter_map(|(k, v)| v.as_ref().map(|m| (k.as_str(), m)))
    }

    /// Number of gradients present.
    pub fn len(&self) -> usize {
        self.entries.values().filter(|v| v.is_some()).count()
    }

    /// Whether no gradients are present.
    pub fn is_empty(&self) -> bool {
        !self.entries.values().any(Option::is_some)
    }

    /// Stores a gradient, reusing the existing key slot when present
    /// (no `String` allocation in the steady state).
    pub(crate) fn set(&mut self, name: &str, grad: Matrix) {
        match self.entries.get_mut(name) {
            Some(slot) => *slot = Some(grad),
            None => {
                self.entries.insert(name.to_string(), Some(grad));
            }
        }
    }

    /// Returns every held gradient buffer to `arena`, leaving the named
    /// slots in place for the next step's refill.
    pub fn recycle(&mut self, arena: &Arena) {
        for slot in self.entries.values_mut() {
            if let Some(m) = slot.take() {
                arena.checkin(m);
            }
        }
    }

    /// Global L2 norm across all gradients.
    pub fn global_norm(&self) -> f32 {
        self.entries
            .values()
            .flatten()
            .map(Matrix::frobenius_norm_sq)
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all gradients so the global norm is at most `max_norm`.
    /// Returns the factor applied (1.0 if no clipping happened).
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            let factor = max_norm / norm;
            for m in self.entries.values_mut().flatten() {
                kernels::scale_assign(m, factor);
            }
            factor
        } else {
            1.0
        }
    }
}

/// A per-step binding of a [`ParamStore`] onto a fresh [`Graph`].
///
/// Binding the same name twice returns the same `Var`, so gradients from
/// every use accumulate on a single leaf.
pub struct Ctx<'s> {
    /// The underlying tape; models call op methods directly on it.
    pub g: Graph,
    store: &'s ParamStore,
    /// `BTreeMap` so gradient extraction walks parameters in name
    /// order (deterministic arena traffic; see the crate's
    /// determinism contract).
    bound: BTreeMap<String, Var>,
}

impl<'s> Ctx<'s> {
    /// Starts a new step over `store`.
    pub fn new(store: &'s ParamStore) -> Self {
        Self { g: Graph::new(), store, bound: BTreeMap::new() }
    }

    /// Binds (or re-uses) the parameter `name` as a tape leaf.
    pub fn param(&mut self, name: &str) -> Var {
        if let Some(&v) = self.bound.get(name) {
            return v;
        }
        let v = self.g.input(self.store.get(name).clone());
        self.bound.insert(name.to_string(), v);
        v
    }

    /// Convenience: records a non-parameter constant.
    pub fn constant(&mut self, m: Matrix) -> Var {
        self.g.input(m)
    }

    /// Runs backward from `loss` and extracts gradients for every bound
    /// parameter that participated in it.
    ///
    /// Convenience form of [`Ctx::grads_into`] over a throwaway arena;
    /// training loops go through [`crate::Trainer`], whose long-lived
    /// arena and reused [`Grads`] allocate nothing after warm-up.
    pub fn grads(mut self, loss: Var) -> Grads {
        let mut out = Grads::default();
        self.grads_into(loss, &Arena::new(), &mut out);
        out
    }

    /// Runs backward from `loss` through `arena` and refills `out` with
    /// the bound parameters' gradients — the zero-allocation form of
    /// [`Ctx::grads`].
    ///
    /// Gradient matrices are *moved* out of the tape (no clone); `out`'s
    /// previous buffers and every intermediate-node gradient go back to
    /// the arena, so once the arena is warm a whole
    /// backward-plus-extract cycle performs no heap allocation. Bytes
    /// are identical to [`Ctx::grads`]. Parameters that did not
    /// participate in this step's loss are absent from `out` afterwards
    /// (their slots are cleared), matching the fresh-`Grads` semantics.
    pub fn grads_into(&mut self, loss: Var, arena: &Arena, out: &mut Grads) {
        // Shelve last step's parameter gradients *before* backward runs,
        // so the pass reuses them instead of minting a second
        // param-grad-shaped population that would sit idle forever.
        out.recycle(arena);
        self.g.backward_with(loss, arena);
        for (name, &var) in &self.bound {
            if let Some(grad) = self.g.take_grad(var) {
                out.set(name, grad);
            }
        }
        self.g.recycle_grads(arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(names: &[(&str, Matrix)]) -> ParamStore {
        let mut s = ParamStore::new();
        for (n, m) in names {
            s.insert(*n, m.clone());
        }
        s
    }

    #[test]
    fn store_basics() {
        let s = store_with(&[("b", Matrix::ones(1, 2)), ("a", Matrix::ones(2, 2))]);
        assert_eq!(s.len(), 2);
        let names: Vec<_> = s.names().collect();
        assert_eq!(names, vec!["a", "b"]); // sorted order
        assert!(s.contains("a"));
        assert!(!s.contains("c"));
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_insert_panics() {
        let mut s = ParamStore::new();
        s.insert("w", Matrix::ones(1, 1));
        s.insert("w", Matrix::ones(1, 1));
    }

    #[test]
    #[should_panic(expected = "unknown parameter")]
    fn unknown_get_panics() {
        let s = ParamStore::new();
        let _ = s.get("nope");
    }

    #[test]
    fn ctx_binds_once_and_accumulates() {
        let s = store_with(&[("w", Matrix::from_vec(1, 2, vec![3.0, 4.0]))]);
        let mut ctx = Ctx::new(&s);
        let w1 = ctx.param("w");
        let w2 = ctx.param("w");
        assert_eq!(w1, w2);
        // loss = sum(w) + sum(w * w)
        let s1 = ctx.g.sum(w1);
        let sq = ctx.g.mul(w1, w2);
        let s2 = ctx.g.sum(sq);
        let loss = ctx.g.add(s1, s2);
        let grads = ctx.grads(loss);
        // d/dw = 1 + 2w = [7, 9]
        assert_eq!(grads.get("w").unwrap().data(), &[7.0, 9.0]);
    }

    #[test]
    fn grads_without_participation_absent() {
        let s = store_with(&[("used", Matrix::ones(1, 1)), ("unused", Matrix::ones(1, 1))]);
        let mut ctx = Ctx::new(&s);
        let u = ctx.param("used");
        let _nu = ctx.param("unused");
        let loss = ctx.g.sum(u);
        let grads = ctx.grads(loss);
        assert!(grads.get("used").is_some());
        assert!(grads.get("unused").is_none());
    }

    #[test]
    fn clip_global_norm_scales() {
        let s = store_with(&[("w", Matrix::from_vec(1, 2, vec![30.0, 40.0]))]);
        let mut ctx = Ctx::new(&s);
        let w = ctx.param("w");
        let sq = ctx.g.sqr(w);
        let half = ctx.g.scale(sq, 0.5);
        let loss = ctx.g.sum(half);
        let mut grads = ctx.grads(loss); // grad = w = [30, 40], norm 50
        assert!((grads.global_norm() - 50.0).abs() < 1e-4);
        let f = grads.clip_global_norm(5.0);
        assert!((f - 0.1).abs() < 1e-6);
        assert!((grads.global_norm() - 5.0).abs() < 1e-4);
        // No-op when under the limit.
        assert_eq!(grads.clip_global_norm(100.0), 1.0);
    }
}
