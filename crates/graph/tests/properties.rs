//! Property-based tests for graph construction and sampling invariants.

use gnmr_graph::{BatchSampler, Interaction, InteractionLog, MultiBehaviorGraph, NegativeSampler};
use gnmr_tensor::rng::seeded;
use proptest::prelude::*;

fn arb_events(n_users: u32, n_items: u32, k: u8) -> impl Strategy<Value = Vec<Interaction>> {
    let ev = (0..n_users, 0..n_items, 0..k, 0u32..1000).prop_map(|(user, item, behavior, ts)| {
        Interaction { user, item, behavior, ts }
    });
    proptest::collection::vec(ev, 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn graph_preserves_log_counts(events in arb_events(12, 15, 3)) {
        let log = InteractionLog::new(12, 15, vec!["a".into(), "b".into(), "c".into()], events).unwrap();
        let g = MultiBehaviorGraph::from_log(&log, "c");
        prop_assert_eq!(g.total_interactions(), log.len());
        for k in 0..3 {
            prop_assert_eq!(g.user_item(k).nnz(), log.count_behavior(k as u8));
        }
    }

    #[test]
    fn adjacency_transpose_consistency(events in arb_events(10, 10, 2)) {
        let log = InteractionLog::new(10, 10, vec!["x".into(), "y".into()], events).unwrap();
        let g = MultiBehaviorGraph::from_log(&log, "y");
        for k in 0..2 {
            let ui = g.user_item(k).to_dense();
            let iu = g.item_user(k).to_dense();
            prop_assert!(ui.transpose().approx_eq(&iu, 0.0));
        }
        // Every edge is visible from both endpoints.
        for e in log.events() {
            prop_assert!(g.user_items(e.user, e.behavior as usize).contains(&e.item));
            prop_assert!(g.item_users(e.item, e.behavior as usize).contains(&e.user));
        }
    }

    #[test]
    fn negatives_never_collide_with_positives(events in arb_events(8, 30, 2), seed in 0u64..50) {
        let log = InteractionLog::new(8, 30, vec!["x".into(), "y".into()], events).unwrap();
        let g = MultiBehaviorGraph::from_log(&log, "y");
        let sampler = NegativeSampler::new(&g);
        let mut rng = seeded(seed);
        for user in 0..8u32 {
            if g.user_degree(user, g.target()) < 30 {
                for _ in 0..4 {
                    let n = sampler.sample_one(user, &mut rng);
                    prop_assert!(n < 30);
                    prop_assert!(!g.has_edge(user, n, g.target()));
                }
            }
        }
    }

    #[test]
    fn batch_samples_are_valid_triples(events in arb_events(10, 20, 2), seed in 0u64..50) {
        let log = InteractionLog::new(10, 20, vec!["x".into(), "y".into()], events).unwrap();
        let g = MultiBehaviorGraph::from_log(&log, "y");
        let sampler = BatchSampler::new(&g);
        let mut rng = seeded(seed);
        let batch = sampler.sample(6, 3, &mut rng);
        for i in 0..batch.len() {
            prop_assert!(g.has_edge(batch.users[i], batch.pos_items[i], g.target()));
            prop_assert!(!g.has_edge(batch.users[i], batch.neg_items[i], g.target()));
        }
    }

    #[test]
    fn subset_union_partition(events in arb_events(10, 12, 3)) {
        let log = InteractionLog::new(10, 12, vec!["a".into(), "b".into(), "c".into()], events).unwrap();
        let g = MultiBehaviorGraph::from_log(&log, "c");
        let sub_ac = g.subset(&["a", "c"]);
        let sub_bc = g.subset(&["b", "c"]);
        // Subsets keep per-behavior counts identical.
        prop_assert_eq!(sub_ac.user_item(0).nnz(), g.user_item(0).nnz());
        prop_assert_eq!(sub_bc.user_item(0).nnz(), g.user_item(1).nnz());
        prop_assert_eq!(sub_ac.target_name(), "c");
        prop_assert_eq!(sub_bc.target_name(), "c");
        // Dropping the target is allowed only in the propagation view.
        let prop_view = g.subset_for_propagation(&["a", "b"]);
        prop_assert_eq!(prop_view.n_behaviors(), 2);
    }
}
