//! Reverse-mode automatic differentiation for the GNMR reproduction.
//!
//! A define-by-run tape ([`Graph`]) over [`gnmr_tensor::Matrix`] values,
//! with named parameter storage ([`ParamStore`]), per-step parameter
//! binding ([`Ctx`]), the [`Adam`] optimizer, finite-difference
//! gradient checking, and small NN building blocks.
//!
//! # Example
//!
//! ```
//! use gnmr_autograd::{Adam, Ctx, ParamStore};
//! use gnmr_tensor::Matrix;
//!
//! let mut store = ParamStore::new();
//! store.insert("w", Matrix::from_vec(1, 2, vec![3.0, -2.0]));
//! let mut opt = Adam::new(0.1);
//! for _ in 0..200 {
//!     let mut ctx = Ctx::new(&store);
//!     let w = ctx.param("w");
//!     let sq = ctx.g.sqr(w);
//!     let loss = ctx.g.sum(sq);
//!     let grads = ctx.grads(loss);
//!     opt.step(&mut store, &grads);
//! }
//! assert!(store.get("w").max_abs() < 0.05);
//! ```

pub mod gradcheck;
pub mod nn;
pub mod optim;
pub mod params;
pub mod tape;

pub use gradcheck::max_grad_error;
pub use gnmr_tensor::Arena;
pub use nn::{Activation, GruCell, Linear, Mlp};
pub use optim::{adam_step, Adam, AdamState, AdamStep};
pub use params::{Ctx, Grads, ParamStore};
pub use tape::{Graph, Var};
