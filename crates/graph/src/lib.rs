//! Multi-behavior bipartite user-item interaction graphs.
//!
//! The paper's Section II defines the interaction tensor
//! `X in R^{I x J x K}` and the graph `G = {U, V, E}` whose edges carry a
//! behavior type `k`. This crate is that substrate: interaction logs,
//! per-behavior CSR/CSC adjacency, behavior-subset views (for the Table
//! IV ablations), negative/positive samplers, and the dataset statistics
//! reported in Table I.
//!
//! Users and items are dense `u32` indices; behaviors are small `usize`
//! indices into the graph's behavior-name table.

pub mod interactions;
pub mod multigraph;
pub mod sampling;
pub mod stats;

pub use interactions::{Interaction, InteractionLog};
pub use multigraph::MultiBehaviorGraph;
pub use sampling::{BatchSampler, NegativeSampler, TrainBatch};
pub use stats::GraphStats;
