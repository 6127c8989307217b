//! Taobao-like generator: the e-commerce behavior funnel
//! `page-view -> {favorite, cart} -> purchase`.
//!
//! Reproduces the structural regime of the paper's Taobao benchmark: the
//! target behavior (purchase) is far sparser than the auxiliary behaviors,
//! and every purchase is preceded in the funnel by a page view and a
//! favorite/cart event. This is the dataset where multi-behavior models
//! show their largest relative gains in Table II.

use gnmr_graph::{Interaction, InteractionLog};
use gnmr_tensor::{init, rng, stats};
use rand::Rng;

use crate::latent::{LatentWorld, WorldConfig};

/// Behavior names, in behavior-id order (matching the paper's listing).
pub const TAOBAO_BEHAVIORS: [&str; 4] = ["pv", "fav", "cart", "buy"];

/// The target behavior.
pub const TARGET: &str = "buy";

/// Standard deviation of per-pair affinity noise.
const NOISE: f32 = 0.45;

/// Scale of the favorite probability.
const FAV_SCALE: f32 = 0.30;

/// Scale of the cart probability.
const CART_SCALE: f32 = 0.40;

/// Scale of the conditional purchase probability.
const BUY_SCALE: f32 = 0.55;

/// Configuration of the Taobao-like generator. A viewed pair carries
/// N(0, 0.45²) affinity noise and is favorited, carted and (given a
/// favorite or cart) bought with probabilities scaled by 0.30, 0.40
/// and 0.55.
#[derive(Copy, Clone, Debug)]
pub struct TaobaoConfig {
    /// The latent world.
    pub world: WorldConfig,
    /// Mean page views per user (activity-scaled).
    pub mean_pv_per_user: f32,
}

/// Generates a Taobao-like interaction log with strict funnel structure:
/// `buy ⊆ (fav ∪ cart) ⊆ pv` per user-item pair.
pub fn generate(cfg: &TaobaoConfig) -> InteractionLog {
    let world = LatentWorld::generate(cfg.world);
    let mut events = Vec::new();
    let mut event_rng = rng::substream(cfg.world.seed, 0x5442_414f);
    for user in 0..cfg.world.n_users as u32 {
        let n = world.interactions_for_user(user, cfg.mean_pv_per_user, &mut event_rng);
        let items = world.sample_items_biased(user, n, 1.0, &mut event_rng);
        for item in items {
            let a = world.affinity(user, item) + NOISE * init::standard_normal(&mut event_rng);
            let ts = event_rng.gen_range(0..1_000_000u32);
            events.push(Interaction { user, item, behavior: 0, ts });
            let fav = event_rng.gen_range(0.0f32..1.0) < FAV_SCALE * stats::sigmoid(1.6 * a - 1.0);
            let cart =
                event_rng.gen_range(0.0f32..1.0) < CART_SCALE * stats::sigmoid(1.6 * a - 0.8);
            if fav {
                events.push(Interaction { user, item, behavior: 1, ts: ts.saturating_add(1) });
            }
            if cart {
                events.push(Interaction { user, item, behavior: 2, ts: ts.saturating_add(2) });
            }
            if (fav || cart)
                && event_rng.gen_range(0.0f32..1.0) < BUY_SCALE * stats::sigmoid(1.8 * a - 0.6)
            {
                events.push(Interaction { user, item, behavior: 3, ts: ts.saturating_add(3) });
            }
        }
    }
    InteractionLog::new(
        cfg.world.n_users as u32,
        cfg.world.n_items as u32,
        TAOBAO_BEHAVIORS.iter().map(|s| s.to_string()).collect(),
        events,
    )
    .expect("generator produced out-of-bounds events")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small_cfg() -> TaobaoConfig {
        TaobaoConfig {
            world: WorldConfig { n_users: 200, n_items: 150, seed: 17 },
            mean_pv_per_user: 25.0,
        }
    }

    fn pairs(log: &InteractionLog, behavior: u8) -> HashSet<(u32, u32)> {
        log.events()
            .iter()
            .filter(|e| e.behavior == behavior)
            .map(|e| (e.user, e.item))
            .collect()
    }

    #[test]
    fn funnel_containment_holds() {
        let log = generate(&small_cfg());
        let pv = pairs(&log, 0);
        let fav = pairs(&log, 1);
        let cart = pairs(&log, 2);
        let buy = pairs(&log, 3);
        assert!(fav.is_subset(&pv), "fav not within pv");
        assert!(cart.is_subset(&pv), "cart not within pv");
        let fav_or_cart: HashSet<_> = fav.union(&cart).copied().collect();
        assert!(buy.is_subset(&fav_or_cart), "buy outside fav∪cart");
    }

    #[test]
    fn target_is_sparse() {
        let log = generate(&small_cfg());
        let pv = log.count_behavior(0);
        let buy = log.count_behavior(3);
        assert!(buy > 0, "no purchases generated");
        let rate = buy as f32 / pv as f32;
        assert!((0.005..0.25).contains(&rate), "buy/pv rate {rate} out of range");
    }

    #[test]
    fn funnel_timestamps_ordered() {
        let log = generate(&small_cfg());
        // For any pair with both pv and buy, pv must come first.
        let mut pv_ts = std::collections::HashMap::new();
        for e in log.events().iter().filter(|e| e.behavior == 0) {
            pv_ts.insert((e.user, e.item), e.ts);
        }
        for e in log.events().iter().filter(|e| e.behavior == 3) {
            let t0 = pv_ts[&(e.user, e.item)];
            assert!(e.ts > t0, "buy at {} before pv at {t0}", e.ts);
        }
    }

    #[test]
    fn purchases_have_higher_affinity_than_views() {
        let cfg = small_cfg();
        let world = LatentWorld::generate(cfg.world);
        let log = generate(&cfg);
        let mean_aff = |behavior: u8| {
            let afs: Vec<f32> = log
                .events()
                .iter()
                .filter(|e| e.behavior == behavior)
                .map(|e| world.affinity(e.user, e.item))
                .collect();
            gnmr_tensor::stats::mean(&afs)
        };
        assert!(mean_aff(3) > mean_aff(0) + 0.4, "buy {} vs pv {}", mean_aff(3), mean_aff(0));
    }

    #[test]
    fn most_users_have_a_purchase() {
        let log = generate(&small_cfg());
        let buyers: HashSet<u32> =
            log.events().iter().filter(|e| e.behavior == 3).map(|e| e.user).collect();
        assert!(
            buyers.len() * 2 > 200,
            "only {} of 200 users purchased; targets too sparse to evaluate",
            buyers.len()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(generate(&small_cfg()).events(), generate(&small_cfg()).events());
    }
}
