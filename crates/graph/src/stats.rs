//! Dataset statistics (the paper's Table I).

use crate::multigraph::MultiBehaviorGraph;

/// Summary statistics of a multi-behavior graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of users.
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
    /// Total interactions across behaviors.
    pub n_interactions: usize,
    /// Per-behavior `(name, count)` pairs, in behavior order.
    pub per_behavior: Vec<(String, usize)>,
    /// Interactions of the target behavior.
    pub target_interactions: usize,
    /// Density of the target behavior matrix.
    pub target_density: f64,
    /// Mean user degree under the target behavior.
    pub avg_target_degree: f64,
}

impl GraphStats {
    /// Computes statistics for a graph.
    pub fn from_graph(graph: &MultiBehaviorGraph) -> Self {
        let per_behavior: Vec<(String, usize)> = (0..graph.n_behaviors())
            .map(|k| (graph.behaviors()[k].clone(), graph.user_item(k).nnz()))
            .collect();
        let n_interactions = per_behavior.iter().map(|(_, c)| c).sum();
        let target_interactions = graph.target_user_item().nnz();
        let cells = (graph.n_users() * graph.n_items()) as f64;
        Self {
            n_users: graph.n_users(),
            n_items: graph.n_items(),
            n_interactions,
            per_behavior,
            target_interactions,
            target_density: if cells > 0.0 { target_interactions as f64 / cells } else { 0.0 },
            avg_target_degree: if graph.n_users() > 0 {
                target_interactions as f64 / graph.n_users() as f64
            } else {
                0.0
            },
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "users: {}, items: {}, interactions: {}", self.n_users, self.n_items, self.n_interactions)?;
        for (name, count) in &self.per_behavior {
            writeln!(f, "  {name}: {count}")?;
        }
        write!(
            f,
            "target: {} interactions (density {:.5}, avg degree {:.2})",
            self.target_interactions, self.target_density, self.avg_target_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interactions::{Interaction, InteractionLog};

    #[test]
    fn stats_counts() {
        let ev = |user, item, behavior| Interaction { user, item, behavior, ts: 0 };
        let log = InteractionLog::new(
            4,
            5,
            vec!["view".into(), "buy".into()],
            vec![ev(0, 0, 0), ev(0, 1, 0), ev(1, 2, 0), ev(0, 0, 1), ev(3, 4, 1)],
        )
        .unwrap();
        let g = MultiBehaviorGraph::from_log(&log, "buy");
        let s = g.stats();
        assert_eq!(s.n_users, 4);
        assert_eq!(s.n_items, 5);
        assert_eq!(s.n_interactions, 5);
        assert_eq!(s.per_behavior, vec![("view".to_string(), 3), ("buy".to_string(), 2)]);
        assert_eq!(s.target_interactions, 2);
        assert!((s.target_density - 2.0 / 20.0).abs() < 1e-12);
        assert!((s.avg_target_degree - 0.5).abs() < 1e-12);
        assert!(!format!("{s}").is_empty());
    }
}
