//! The multi-behavior bipartite graph `G = {U, V, E}`.

use std::sync::Arc;

use gnmr_tensor::Csr;

use crate::interactions::InteractionLog;
use crate::stats::GraphStats;

/// A bipartite user-item graph with one adjacency per behavior type.
///
/// Adjacency is stored both as user->item CSR and item->user CSR (the
/// transpose), because GNMR propagates messages in both directions each
/// layer. Matrices are wrapped in `Arc` so the autodiff tape can reference
/// them without copies. Each adjacency is built once, on the calling
/// thread, in O(entries) (`Csr::from_triplets` buckets entries by row);
/// the per-step SpMM over it runs on the calling thread too.
#[derive(Clone)]
pub struct MultiBehaviorGraph {
    n_users: usize,
    n_items: usize,
    behaviors: Vec<String>,
    target: usize,
    user_item: Vec<Arc<Csr>>,
    item_user: Vec<Arc<Csr>>,
}

impl MultiBehaviorGraph {
    /// Builds the graph from an interaction log.
    ///
    /// `target` names the behavior the recommender is evaluated on (the
    /// paper's "target behavior", e.g. `like` or `purchase`).
    ///
    /// # Panics
    /// If `target` is not one of the log's behaviors.
    pub fn from_log(log: &InteractionLog, target: &str) -> Self {
        let target_idx = log
            .behavior_id(target)
            .unwrap_or_else(|| panic!("target behavior {target:?} not in {:?}", log.behaviors()))
            as usize;
        let (n_users, n_items) = (log.n_users() as usize, log.n_items() as usize);
        let k = log.n_behaviors();
        let mut triplets: Vec<Vec<(u32, u32, f32)>> = vec![Vec::new(); k];
        for e in log.events() {
            triplets[e.behavior as usize].push((e.user, e.item, 1.0));
        }
        let user_item: Vec<Arc<Csr>> = triplets
            .iter()
            .map(|t| Arc::new(Csr::from_triplets(n_users, n_items, t)))
            .collect();
        let item_user: Vec<Arc<Csr>> = user_item.iter().map(|c| Arc::new(c.transpose())).collect();
        Self {
            n_users,
            n_items,
            behaviors: log.behaviors().to_vec(),
            target: target_idx,
            user_item,
            item_user,
        }
    }

    /// Number of users `I`.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of items `J`.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of behavior types `K`.
    pub fn n_behaviors(&self) -> usize {
        self.behaviors.len()
    }

    /// Behavior names.
    pub fn behaviors(&self) -> &[String] {
        &self.behaviors
    }

    /// Index of the target behavior.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Name of the target behavior.
    pub fn target_name(&self) -> &str {
        &self.behaviors[self.target]
    }

    /// User->item adjacency of behavior `k`.
    pub fn user_item(&self, k: usize) -> &Arc<Csr> {
        &self.user_item[k]
    }

    /// Item->user adjacency of behavior `k`.
    pub fn item_user(&self, k: usize) -> &Arc<Csr> {
        &self.item_user[k]
    }

    /// User->item adjacency of the target behavior.
    pub fn target_user_item(&self) -> &Arc<Csr> {
        &self.user_item[self.target]
    }

    /// Whether `(user, item)` interact under behavior `k`.
    pub fn has_edge(&self, user: u32, item: u32, k: usize) -> bool {
        self.user_item[k].contains(user as usize, item)
    }

    /// Items the user interacted with under behavior `k`.
    pub fn user_items(&self, user: u32, k: usize) -> &[u32] {
        self.user_item[k].row(user as usize).0
    }

    /// Users who interacted with the item under behavior `k`.
    pub fn item_users(&self, item: u32, k: usize) -> &[u32] {
        self.item_user[k].row(item as usize).0
    }

    /// User degree under behavior `k`.
    pub fn user_degree(&self, user: u32, k: usize) -> usize {
        self.user_item[k].row_nnz(user as usize)
    }

    /// Total number of interactions across behaviors.
    pub fn total_interactions(&self) -> usize {
        self.user_item.iter().map(|c| c.nnz()).sum()
    }

    /// A view of the graph restricted to a subset of behaviors (used for
    /// the paper's Table IV `w/o <behavior>` ablations):
    /// [`MultiBehaviorGraph::subset_for_propagation`] once `keep` is
    /// checked to name the target.
    ///
    /// # Panics
    /// If `keep` drops the target behavior (the model must still be
    /// able to train on it) or contains an unknown name.
    pub fn subset(&self, keep: &[&str]) -> MultiBehaviorGraph {
        let target = self.target_name();
        assert!(keep.contains(&target), "subset: must keep the target behavior {target:?}");
        self.subset_for_propagation(keep)
    }

    /// A view keeping only the target behavior (the paper's "only like"
    /// variant, and the graph single-behavior baselines train on).
    pub fn target_only(&self) -> MultiBehaviorGraph {
        self.subset(&[self.target_name()])
    }

    /// Like [`MultiBehaviorGraph::subset`], but allows dropping the target
    /// behavior. Used for the paper's Table IV "w/o like" variant, where
    /// the *propagation* graph loses the target channel while training
    /// labels still come from the original graph. If the target is
    /// dropped, the view's target index points at the first kept behavior
    /// (callers must not sample labels from such a view).
    pub fn subset_for_propagation(&self, keep: &[&str]) -> MultiBehaviorGraph {
        assert!(!keep.is_empty(), "subset_for_propagation: empty behavior list");
        let mut indices = Vec::with_capacity(keep.len());
        for name in keep {
            let idx = self
                .behaviors
                .iter()
                .position(|b| b == name)
                .unwrap_or_else(|| panic!("subset_for_propagation: unknown behavior {name:?}"));
            indices.push(idx);
        }
        let behaviors = indices.iter().map(|&i| self.behaviors[i].clone()).collect();
        let user_item: Vec<Arc<Csr>> = indices.iter().map(|&i| Arc::clone(&self.user_item[i])).collect();
        let item_user: Vec<Arc<Csr>> = indices.iter().map(|&i| Arc::clone(&self.item_user[i])).collect();
        let target = indices.iter().position(|&i| i == self.target).unwrap_or(0);
        MultiBehaviorGraph {
            n_users: self.n_users,
            n_items: self.n_items,
            behaviors,
            target,
            user_item,
            item_user,
        }
    }

    /// Computes the Table I statistics.
    pub fn stats(&self) -> GraphStats {
        GraphStats::from_graph(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interactions::Interaction;

    fn demo_graph() -> MultiBehaviorGraph {
        let ev = |user, item, behavior, ts| Interaction { user, item, behavior, ts };
        let log = InteractionLog::new(
            3,
            4,
            vec!["view".into(), "buy".into()],
            vec![
                ev(0, 0, 0, 0),
                ev(0, 1, 0, 1),
                ev(0, 1, 1, 2),
                ev(1, 2, 0, 0),
                ev(2, 3, 1, 4),
                ev(2, 0, 0, 5),
            ],
        )
        .unwrap();
        MultiBehaviorGraph::from_log(&log, "buy")
    }

    #[test]
    fn dimensions_and_target() {
        let g = demo_graph();
        assert_eq!(g.n_users(), 3);
        assert_eq!(g.n_items(), 4);
        assert_eq!(g.n_behaviors(), 2);
        assert_eq!(g.target(), 1);
        assert_eq!(g.target_name(), "buy");
        assert_eq!(g.total_interactions(), 6);
    }

    #[test]
    fn adjacency_both_directions() {
        let g = demo_graph();
        assert_eq!(g.user_items(0, 0), &[0, 1]);
        assert_eq!(g.user_items(0, 1), &[1]);
        assert_eq!(g.item_users(1, 0), &[0]);
        assert_eq!(g.item_users(0, 0), &[0, 2]);
        assert_eq!(g.user_degree(0, 0), 2);
        assert!(g.has_edge(2, 3, 1));
        assert!(!g.has_edge(2, 3, 0));
    }

    #[test]
    fn transpose_is_consistent() {
        let g = demo_graph();
        for k in 0..g.n_behaviors() {
            let ui = g.user_item(k).to_dense();
            let iu = g.item_user(k).to_dense();
            assert!(ui.transpose().approx_eq(&iu, 0.0));
        }
    }

    #[test]
    fn subset_keeps_target_and_reindexes() {
        let g = demo_graph();
        let only_buy = g.subset(&["buy"]);
        assert_eq!(only_buy.n_behaviors(), 1);
        assert_eq!(only_buy.target(), 0);
        assert_eq!(only_buy.target_name(), "buy");
        assert_eq!(only_buy.total_interactions(), 2);

        let t = g.target_only();
        assert_eq!(t.n_behaviors(), 1);
        assert_eq!(t.total_interactions(), 2);
    }

    #[test]
    #[should_panic(expected = "must keep the target behavior")]
    fn subset_dropping_target_panics() {
        let g = demo_graph();
        let _ = g.subset(&["view"]);
    }

    #[test]
    #[should_panic(expected = "unknown behavior")]
    fn subset_unknown_behavior_panics() {
        let g = demo_graph();
        let _ = g.subset(&["buy", "wishlist"]);
    }
}
