//! Reverse-mode automatic differentiation for the GNMR reproduction.
//!
//! A define-by-run tape ([`Graph`]) over [`gnmr_tensor::Matrix`] values,
//! with named parameter storage ([`ParamStore`]), per-step parameter
//! binding ([`Ctx`]), the [`Adam`] optimizer, the training loop every
//! model shares ([`Trainer`], with Eq. 7's [`pairwise_hinge`]),
//! finite-difference gradient checking, and small NN building blocks.
//!
//! # Example
//!
//! ```
//! use gnmr_autograd::{Adam, ParamStore, Trainer};
//! use gnmr_tensor::Matrix;
//!
//! let mut store = ParamStore::new();
//! store.insert("w", Matrix::from_vec(1, 2, vec![3.0, -2.0]));
//! // Clip threshold 0: no clipping.
//! let mut trainer = Trainer::new(Adam::new(0.1), 0.0);
//! for _ in 0..20 {
//!     trainer.epoch(&mut store, 10, |ctx| {
//!         let w = ctx.param("w");
//!         let sq = ctx.g.sqr(w);
//!         Some(ctx.g.sum(sq))
//!     });
//! }
//! assert!(store.get("w").max_abs() < 0.05);
//! ```

pub mod gradcheck;
pub mod nn;
pub mod optim;
pub mod params;
pub mod tape;
pub mod trainer;

pub use gradcheck::max_grad_error;
pub use gnmr_tensor::Arena;
pub use nn::{Activation, GruCell, Linear, Mlp};
pub use optim::{adam_step, Adam, AdamState, AdamStep};
pub use params::{Ctx, Grads, ParamStore};
pub use tape::{Graph, Var};
pub use trainer::{pairwise_hinge, Trainer};
