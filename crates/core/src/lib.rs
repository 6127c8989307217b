//! GNMR: Graph Neural Multi-Behavior Enhanced Recommendation.
//!
//! The paper's primary contribution (Xia et al., ICDE 2021,
//! arXiv:2201.02307), implemented from scratch on the workspace
//! substrates:
//!
//! * [`type_embedding`] — the type-specific behavior embedding layer eta
//!   (Eq. 2) with its C-dimensional gating ("memory") unit;
//! * [`attention`] — the cross-behavior multi-head relation attention xi
//!   (Eq. 3);
//! * [`fusion`] — the gated message aggregation psi (Eq. 4-5);
//! * [`model`] — L-layer propagation over the multi-behavior bipartite
//!   graph and multi-order matching scores;
//! * [`pretrain`] — autoencoder-based order-0 embedding initialization;
//! * [`trainer`] — `Gnmr::fit`: Algorithm 1 with the Eq. 7 pairwise
//!   hinge loss, on the training loop every model shares
//!   (`gnmr_autograd::Trainer`);
//! * [`checkpoint`] — crash-safe, bitwise-resumable training
//!   checkpoints over the fault-injectable I/O layer.
//!
//! # Quickstart
//!
//! ```
//! use gnmr_core::{Gnmr, GnmrConfig, TrainConfig};
//! use gnmr_data::presets;
//! use gnmr_eval::{evaluate, Recommender};
//!
//! let data = presets::tiny_movielens(7);
//! let cfg = GnmrConfig { dim: 8, layers: 1, pretrain: false, ..GnmrConfig::default() };
//! let mut model = Gnmr::new(&data.graph, cfg);
//! model.fit(&data.graph, &TrainConfig { epochs: 2, ..TrainConfig::fast_test() });
//! let report = evaluate(&model, &data.test, &[10]);
//! assert!(report.hr_at(10) >= 0.0);
//! let top = model.recommend(0, 5, &[]);
//! assert_eq!(top.len(), 5);
//! ```

pub mod attention;
pub mod checkpoint;
pub mod config;
pub mod fusion;
pub mod model;
pub mod pretrain;
pub mod trainer;
pub mod type_embedding;

pub use checkpoint::{Checkpointing, TrainCheckpoint};
pub use config::{GnmrConfig, GnmrVariant, TrainConfig};
pub use model::Gnmr;
pub use pretrain::pretrain_embeddings;
pub use trainer::TrainReport;
