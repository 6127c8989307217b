//! Yelp-like generator: rating-derived behaviors plus a sparse `tip`
//! channel.
//!
//! Matches the paper's Yelp setup: behaviors
//! `{tip, dislike, neutral, like}` with `like` as the target. A tip is an
//! extra, sparser positive signal emitted on visited (rated) venues with
//! probability increasing in affinity, so it is informative about — but
//! not identical to — the like behavior.

use gnmr_graph::{Interaction, InteractionLog};
use gnmr_tensor::{init, rng, stats};
use rand::Rng;

use crate::latent::{LatentWorld, WorldConfig};
use crate::movielens::{behavior_for_rating, rating_from_affinity};

/// Behavior names, in behavior-id order (matching the paper's listing).
pub const YELP_BEHAVIORS: [&str; 4] = ["tip", "dislike", "neutral", "like"];

/// The target behavior.
pub const TARGET: &str = "like";

/// Standard deviation of per-event affinity noise.
const RATING_NOISE: f32 = 0.55;

/// Scale of the tip probability (`p_tip = TIP_SCALE * sigmoid(1.2 a - 0.8)`).
const TIP_SCALE: f32 = 0.45;

/// Configuration of the Yelp-like generator. Ratings carry
/// N(0, 0.55²) affinity noise and a rated venue is tipped with
/// probability `0.45 * sigmoid(1.2 a - 0.8)`.
#[derive(Copy, Clone, Debug)]
pub struct YelpConfig {
    /// The latent world.
    pub world: WorldConfig,
    /// Mean number of rated venues per user (activity-scaled).
    pub mean_ratings_per_user: f32,
}

/// Generates a Yelp-like interaction log.
pub fn generate(cfg: &YelpConfig) -> InteractionLog {
    let world = LatentWorld::generate(cfg.world);
    let mut events = Vec::new();
    let mut event_rng = rng::substream(cfg.world.seed, 0x5945_4c50);
    for user in 0..cfg.world.n_users as u32 {
        let n = world.interactions_for_user(user, cfg.mean_ratings_per_user, &mut event_rng);
        let items = world.sample_items_biased(user, n, 1.0, &mut event_rng);
        for item in items {
            let noisy =
                world.affinity(user, item) + RATING_NOISE * init::standard_normal(&mut event_rng);
            let rating = rating_from_affinity(noisy);
            let ts = event_rng.gen_range(0..1_000_000u32);
            // Rating behaviors are ids 1..=3 here (id 0 is tip).
            let rating_behavior = behavior_for_rating(rating) + 1;
            events.push(Interaction { user, item, behavior: rating_behavior, ts });
            let p_tip = TIP_SCALE * stats::sigmoid(1.2 * noisy - 0.8);
            if event_rng.gen_range(0.0f32..1.0) < p_tip {
                events.push(Interaction { user, item, behavior: 0, ts: ts.saturating_add(1) });
            }
        }
    }
    InteractionLog::new(
        cfg.world.n_users as u32,
        cfg.world.n_items as u32,
        YELP_BEHAVIORS.iter().map(|s| s.to_string()).collect(),
        events,
    )
    .expect("generator produced out-of-bounds events")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> YelpConfig {
        YelpConfig {
            world: WorldConfig { n_users: 150, n_items: 120, seed: 13 },
            mean_ratings_per_user: 20.0,
        }
    }

    #[test]
    fn has_four_behaviors_and_target() {
        let log = generate(&small_cfg());
        assert_eq!(log.behaviors().len(), 4);
        assert_eq!(log.behavior_id("like"), Some(3));
        assert_eq!(log.behavior_id("tip"), Some(0));
        for b in 0..4 {
            assert!(log.count_behavior(b) > 0, "behavior {b} empty");
        }
    }

    #[test]
    fn tips_are_sparser_than_ratings() {
        let log = generate(&small_cfg());
        let tips = log.count_behavior(0);
        let ratings: usize = (1..4).map(|b| log.count_behavior(b)).sum();
        assert!(tips * 3 < ratings, "tips {tips} vs ratings {ratings}");
    }

    #[test]
    fn tips_only_on_rated_pairs() {
        let log = generate(&small_cfg());
        use std::collections::HashSet;
        let rated: HashSet<(u32, u32)> = log
            .events()
            .iter()
            .filter(|e| e.behavior != 0)
            .map(|e| (e.user, e.item))
            .collect();
        for e in log.events().iter().filter(|e| e.behavior == 0) {
            assert!(rated.contains(&(e.user, e.item)), "orphan tip {e:?}");
        }
    }

    #[test]
    fn tips_correlate_with_likes() {
        // The share of tipped pairs among likes must exceed the share among
        // dislikes: tips must carry target-relevant signal.
        let log = generate(&small_cfg());
        use std::collections::HashSet;
        let tipped: HashSet<(u32, u32)> = log
            .events()
            .iter()
            .filter(|e| e.behavior == 0)
            .map(|e| (e.user, e.item))
            .collect();
        let share = |behavior: u8| {
            let evs: Vec<_> = log.events().iter().filter(|e| e.behavior == behavior).collect();
            let t = evs.iter().filter(|e| tipped.contains(&(e.user, e.item))).count();
            t as f32 / evs.len().max(1) as f32
        };
        let like_share = share(3);
        let dislike_share = share(1);
        assert!(
            like_share > dislike_share * 1.5 + 0.01,
            "tip not informative: like {like_share}, dislike {dislike_share}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(generate(&small_cfg()).events(), generate(&small_cfg()).events());
    }
}
