//! Named dataset presets.
//!
//! The `*_small` presets are the defaults used by the examples, the
//! reproduction harness and the benchmark: they are sized so the entire
//! 13-model Table II run completes in minutes on a laptop while
//! preserving the structural properties the paper's comparisons depend
//! on. The `tiny_*` presets are for tests. None is at the row counts of
//! the paper's Table I.

use crate::dataset::Dataset;
use crate::latent::WorldConfig;
use crate::movielens::{self, MovieLensConfig};
use crate::taobao::{self, TaobaoConfig};
use crate::yelp::{self, YelpConfig};

/// Number of evaluation negatives used throughout the paper.
pub const EVAL_NEGATIVES: usize = 99;

/// MovieLens-like dataset at harness scale.
pub fn movielens_small(seed: u64) -> Dataset {
    let cfg = MovieLensConfig {
        world: WorldConfig { n_users: 900, n_items: 700, seed },
        mean_ratings_per_user: 42.0,
    };
    Dataset::from_log("ml", &movielens::generate(&cfg), movielens::TARGET, EVAL_NEGATIVES, seed)
}

/// Yelp-like dataset at harness scale.
pub fn yelp_small(seed: u64) -> Dataset {
    let cfg = YelpConfig {
        world: WorldConfig { n_users: 800, n_items: 850, seed },
        mean_ratings_per_user: 32.0,
    };
    Dataset::from_log("yelp", &yelp::generate(&cfg), yelp::TARGET, EVAL_NEGATIVES, seed)
}

/// Taobao-like dataset at harness scale.
pub fn taobao_small(seed: u64) -> Dataset {
    let cfg = TaobaoConfig {
        world: WorldConfig { n_users: 1100, n_items: 900, seed },
        mean_pv_per_user: 38.0,
    };
    Dataset::from_log("taobao", &taobao::generate(&cfg), taobao::TARGET, EVAL_NEGATIVES, seed)
}

/// A tiny MovieLens-like dataset for unit/integration tests (seconds to
/// train any model).
pub fn tiny_movielens(seed: u64) -> Dataset {
    let cfg = MovieLensConfig {
        world: WorldConfig { n_users: 120, n_items: 100, seed },
        mean_ratings_per_user: 26.0,
    };
    Dataset::from_log("ml-tiny", &movielens::generate(&cfg), movielens::TARGET, 50, seed)
}

/// A tiny Taobao-like dataset for unit/integration tests.
pub fn tiny_taobao(seed: u64) -> Dataset {
    let cfg = TaobaoConfig {
        world: WorldConfig { n_users: 150, n_items: 120, seed },
        mean_pv_per_user: 22.0,
    };
    Dataset::from_log("taobao-tiny", &taobao::generate(&cfg), taobao::TARGET, 50, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_presets_are_complete() {
        let d = tiny_movielens(5);
        assert!(d.n_test() > 30, "too few test users: {}", d.n_test());
        assert_eq!(d.graph.n_behaviors(), 3);
        assert_eq!(d.graph.target_name(), "like");
        assert_eq!(d.test[0].negatives.len(), 50);

        let t = tiny_taobao(5);
        assert!(t.n_test() > 20, "too few taobao test users: {}", t.n_test());
        assert_eq!(t.graph.target_name(), "buy");
    }

    #[test]
    fn small_presets_have_sane_shapes() {
        let d = yelp_small(1);
        assert_eq!(d.graph.n_users(), 800);
        assert_eq!(d.graph.n_behaviors(), 4);
        assert!(d.n_test() > 400);
        assert_eq!(d.test[0].negatives.len(), EVAL_NEGATIVES);
    }

    #[test]
    fn presets_are_deterministic() {
        let a = tiny_movielens(9);
        let b = tiny_movielens(9);
        assert_eq!(a.test, b.test);
        assert_eq!(a.graph.total_interactions(), b.graph.total_interactions());
    }
}
