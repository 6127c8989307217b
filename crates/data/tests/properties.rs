//! Property-based tests of the dataset generators and the split.

use gnmr_data::latent::WorldConfig;
use gnmr_data::{movielens, taobao, yelp, Dataset};
use proptest::prelude::*;
use std::collections::HashSet;

fn world(seed: u64, users: usize, items: usize) -> WorldConfig {
    WorldConfig { n_users: users, n_items: items, seed }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn movielens_behaviors_partition_events(seed in 0u64..500) {
        let cfg = movielens::MovieLensConfig {
            world: world(seed, 60, 80),
            mean_ratings_per_user: 12.0,
        };
        let log = movielens::generate(&cfg);
        // A (user, item) pair carries exactly one rating behavior.
        let mut seen = HashSet::new();
        for e in log.events() {
            prop_assert!(seen.insert((e.user, e.item)), "pair duplicated across behaviors");
        }
    }

    #[test]
    fn yelp_tips_subset_of_ratings(seed in 0u64..500) {
        let cfg = yelp::YelpConfig {
            world: world(seed, 60, 80),
            mean_ratings_per_user: 12.0,
        };
        let log = yelp::generate(&cfg);
        let rated: HashSet<(u32, u32)> = log
            .events()
            .iter()
            .filter(|e| e.behavior != 0)
            .map(|e| (e.user, e.item))
            .collect();
        for e in log.events().iter().filter(|e| e.behavior == 0) {
            prop_assert!(rated.contains(&(e.user, e.item)));
        }
    }

    #[test]
    fn taobao_funnel_invariants(seed in 0u64..500) {
        let cfg = taobao::TaobaoConfig {
            world: world(seed, 80, 70),
            mean_pv_per_user: 15.0,
        };
        let log = taobao::generate(&cfg);
        let pairs = |b: u8| -> HashSet<(u32, u32)> {
            log.events().iter().filter(|e| e.behavior == b).map(|e| (e.user, e.item)).collect()
        };
        let (pv, fav, cart, buy) = (pairs(0), pairs(1), pairs(2), pairs(3));
        prop_assert!(fav.is_subset(&pv));
        prop_assert!(cart.is_subset(&pv));
        let fc: HashSet<_> = fav.union(&cart).copied().collect();
        prop_assert!(buy.is_subset(&fc));
        // Sparsity ordering: pv is densest.
        prop_assert!(pv.len() >= fav.len());
        prop_assert!(pv.len() >= buy.len());
    }

    #[test]
    fn split_holds_out_exactly_one_like_per_eligible_user(seed in 0u64..200) {
        let cfg = movielens::MovieLensConfig {
            world: world(seed, 50, 120),
            mean_ratings_per_user: 14.0,
        };
        let log = movielens::generate(&cfg);
        let data = Dataset::from_log("p", &log, "like", 10, seed);
        let like = log.behavior_id("like").unwrap();
        let mut test_users = HashSet::new();
        for inst in &data.test {
            prop_assert!(test_users.insert(inst.user), "duplicate test instance per user");
            // Held-out item is a like in the full log but not in train.
            let in_full = log
                .user_events(inst.user)
                .iter()
                .any(|e| e.behavior == like && e.item == inst.pos_item);
            prop_assert!(in_full);
            prop_assert!(!data.graph.has_edge(inst.user, inst.pos_item, data.graph.target()));
            // Negatives are target-clean and exclude the positive.
            for &n in &inst.negatives {
                prop_assert!(n != inst.pos_item);
                let interacted = log
                    .user_events(inst.user)
                    .iter()
                    .any(|e| e.behavior == like && e.item == n);
                prop_assert!(!interacted);
            }
        }
        // Train target count decreased by exactly the test count.
        prop_assert_eq!(
            data.graph.target_user_item().nnz() + data.test.len(),
            log.count_behavior(like)
        );
    }
}
