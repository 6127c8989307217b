//! MovieLens-10M-like generator: ratings discretized into
//! `{dislike, neutral, like}` behaviors.
//!
//! The paper differentiates behaviors by rating thresholds: `r <= 2` is
//! dislike, `2 < r < 4` neutral, `r > 4` like. Ratings are on the
//! half-star scale, which leaves `r = 4` unassigned in the paper's text;
//! following the authors' released data preparation we assign `r >= 4` to
//! like.

use gnmr_graph::{Interaction, InteractionLog};
use gnmr_tensor::{init, rng};
use rand::Rng;

use crate::latent::{LatentWorld, WorldConfig};

/// Behavior names of rating-derived datasets, in behavior-id order.
pub const RATING_BEHAVIORS: [&str; 3] = ["dislike", "neutral", "like"];

/// The target behavior of rating datasets.
pub const TARGET: &str = "like";

/// Standard deviation of per-event affinity noise.
const RATING_NOISE: f32 = 0.5;

/// Strength of affinity-biased exposure (acceptance
/// `sigmoid(EXPOSURE_BIAS * affinity)`): strong self-selection /
/// community-driven discovery.
const EXPOSURE_BIAS: f32 = 2.5;

/// Configuration of the MovieLens-like generator. Ratings carry
/// N(0, 0.5²) affinity noise and exposure is affinity-biased with
/// strength 2.5.
#[derive(Copy, Clone, Debug)]
pub struct MovieLensConfig {
    /// The latent world.
    pub world: WorldConfig,
    /// Mean number of rated items per user (activity-scaled).
    pub mean_ratings_per_user: f32,
}

/// Maps a noisy affinity to a half-star rating in `[0.5, 5.0]`.
pub(crate) fn rating_from_affinity(noisy_affinity: f32) -> f32 {
    let r = 3.0 + 1.1 * noisy_affinity;
    (r * 2.0).round().clamp(1.0, 10.0) / 2.0
}

/// Behavior id within [`RATING_BEHAVIORS`] for a rating.
pub(crate) fn behavior_for_rating(r: f32) -> u8 {
    if r <= 2.0 {
        0 // dislike
    } else if r < 4.0 {
        1 // neutral
    } else {
        2 // like
    }
}

/// Generates a MovieLens-like interaction log.
pub fn generate(cfg: &MovieLensConfig) -> InteractionLog {
    let world = LatentWorld::generate(cfg.world);
    let mut events = Vec::new();
    let mut event_rng = rng::substream(cfg.world.seed, 0x5157_4d4c);
    for user in 0..cfg.world.n_users as u32 {
        let n = world.interactions_for_user(user, cfg.mean_ratings_per_user, &mut event_rng);
        let items = world.sample_items_biased(user, n, EXPOSURE_BIAS, &mut event_rng);
        for item in items {
            let noise = RATING_NOISE * init::standard_normal(&mut event_rng);
            let rating = rating_from_affinity(world.affinity(user, item) + noise);
            let ts = event_rng.gen_range(0..1_000_000u32);
            events.push(Interaction { user, item, behavior: behavior_for_rating(rating), ts });
        }
    }
    InteractionLog::new(
        cfg.world.n_users as u32,
        cfg.world.n_items as u32,
        RATING_BEHAVIORS.iter().map(|s| s.to_string()).collect(),
        events,
    )
    .expect("generator produced out-of-bounds events")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MovieLensConfig {
        MovieLensConfig {
            world: WorldConfig { n_users: 150, n_items: 120, seed: 11 },
            mean_ratings_per_user: 20.0,
        }
    }

    #[test]
    fn rating_mapping_thresholds() {
        assert_eq!(behavior_for_rating(0.5), 0);
        assert_eq!(behavior_for_rating(2.0), 0);
        assert_eq!(behavior_for_rating(2.5), 1);
        assert_eq!(behavior_for_rating(3.5), 1);
        assert_eq!(behavior_for_rating(4.0), 2);
        assert_eq!(behavior_for_rating(5.0), 2);
    }

    #[test]
    fn rating_range_and_grid() {
        for a in [-5.0f32, -1.0, 0.0, 1.0, 5.0] {
            let r = rating_from_affinity(a);
            assert!((0.5..=5.0).contains(&r));
            assert!(((r * 2.0) - (r * 2.0).round()).abs() < 1e-6, "not half-star: {r}");
        }
    }

    #[test]
    fn generates_all_three_behaviors() {
        let log = generate(&small_cfg());
        assert_eq!(log.n_behaviors(), 3);
        for b in 0..3 {
            assert!(log.count_behavior(b) > 0, "behavior {b} empty");
        }
        assert!(log.len() > 150 * 5, "too few events: {}", log.len());
    }

    #[test]
    fn like_behavior_tracks_affinity() {
        // Pairs labelled "like" must have much higher ground-truth affinity
        // than pairs labelled "dislike".
        let cfg = small_cfg();
        let world = LatentWorld::generate(cfg.world);
        let log = generate(&cfg);
        let mut like_aff = Vec::new();
        let mut dislike_aff = Vec::new();
        for e in log.events() {
            let a = world.affinity(e.user, e.item);
            match e.behavior {
                0 => dislike_aff.push(a),
                2 => like_aff.push(a),
                _ => {}
            }
        }
        let like_mean = gnmr_tensor::stats::mean(&like_aff);
        let dislike_mean = gnmr_tensor::stats::mean(&dislike_aff);
        assert!(
            like_mean > dislike_mean + 0.8,
            "behaviors not separated: like {like_mean}, dislike {dislike_mean}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small_cfg());
        let b = generate(&small_cfg());
        assert_eq!(a.events(), b.events());
        let mut other = small_cfg();
        other.world.seed = 999;
        let c = generate(&other);
        assert_ne!(a.events(), c.events());
    }
}
