//! GNMR — a complete Rust reproduction of *Multi-Behavior Enhanced
//! Recommendation with Cross-Interaction Collaborative Relation Modeling*
//! (Xia et al., ICDE 2021).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`tensor`] — dense/sparse matrix substrate;
//! * [`autograd`] — reverse-mode autodiff, optimizers, NN blocks;
//! * [`graph`] — multi-behavior bipartite interaction graphs;
//! * [`data`] — seeded synthetic datasets (MovieLens/Yelp/Taobao-like);
//! * [`eval`] — HR@N / NDCG@N and the 99-negative protocol;
//! * [`core`] — the GNMR model itself;
//! * [`serve`] — frozen-model snapshots and batched top-k serving;
//! * [`baselines`] — the twelve Table II baselines.
//!
//! # Quickstart
//!
//! ```
//! use gnmr::prelude::*;
//!
//! let data = gnmr::data::presets::tiny_movielens(7);
//! let mut model = Gnmr::new(&data.graph, GnmrConfig { pretrain: false, ..Default::default() });
//! model.fit(&data.graph, &TrainConfig { epochs: 2, ..TrainConfig::fast_test() });
//! let report = evaluate(&model, &data.test, &[10]);
//! println!("HR@10 = {:.3}", report.hr_at(10));
//! ```

pub use gnmr_autograd as autograd;
pub use gnmr_baselines as baselines;
pub use gnmr_core as core;
pub use gnmr_data as data;
pub use gnmr_eval as eval;
pub use gnmr_graph as graph;
pub use gnmr_serve as serve;
pub use gnmr_tensor as tensor;

/// The most common imports for working with the reproduction.
pub mod prelude {
    pub use gnmr_baselines::{
        AutoRec, BaselineConfig, BiasMf, Cdae, CfUica, Dipn, Dmf, Nade, Ncf, NcfVariant, Ngcf,
        Nmtr,
    };
    pub use gnmr_core::{
        Checkpointing, Gnmr, GnmrConfig, GnmrVariant, TrainCheckpoint, TrainConfig, TrainReport,
    };
    pub use gnmr_data::{Dataset, EvalInstance};
    pub use gnmr_eval::{
        evaluate, evaluate_auto, evaluate_parallel, EvalReport, PopularityRecommender,
        RandomRecommender, Recommender, Table,
    };
    pub use gnmr_serve::{
        ExcludeLists, ModelNotReady, ModelSnapshot, ReloadError, ServeHandle, ServeIndex,
    };
    pub use gnmr_tensor::fio::{Fault, FaultPlan};
    pub use gnmr_tensor::par;
    pub use gnmr_graph::{
        BatchSampler, GraphStats, Interaction, InteractionLog, MultiBehaviorGraph, NegativeSampler,
    };
}
