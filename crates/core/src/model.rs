//! The GNMR model: multi-layer propagation and multi-order matching.

use std::sync::Arc;

use gnmr_autograd::{Ctx, ParamStore, Var};
use gnmr_eval::Recommender;
use gnmr_graph::MultiBehaviorGraph;
use gnmr_tensor::{init, kernels, rng, Csr, Matrix};

use crate::config::GnmrConfig;
use crate::{attention, fusion, pretrain, type_embedding};

/// Graph Neural Multi-Behavior Enhanced Recommendation.
///
/// Construction registers all parameters (optionally pre-training the
/// order-0 embeddings); [`Gnmr::fit`](crate::trainer) trains with the
/// paper's pairwise hinge objective; afterwards the model caches
/// per-order representations and scores pairs by multi-order matching
/// `Pr_{i,j} = sum_l <H_i^(l), H_j^(l)>`.
pub struct Gnmr {
    pub(crate) net: Net,
    pub(crate) store: ParamStore,
    n_users: usize,
    n_items: usize,
    user_repr: Option<Matrix>,
    item_repr: Option<Matrix>,
}

/// What the forward pass reads besides the parameters: the
/// configuration and the row-normalized propagation adjacencies. Kept
/// apart from the [`ParamStore`] so a training step can read it while
/// the training loop writes the parameters.
pub(crate) struct Net {
    pub(crate) cfg: GnmrConfig,
    pub(crate) adj_user_item: Vec<Arc<Csr>>,
    pub(crate) adj_item_user: Vec<Arc<Csr>>,
}

impl Gnmr {
    /// Initializes the model over a training graph.
    pub fn new(graph: &MultiBehaviorGraph, cfg: GnmrConfig) -> Self {
        cfg.validate();
        let mut store = ParamStore::new();
        let mut param_rng = rng::substream(cfg.seed, 0x6E6D72);

        let (user_emb, item_emb) = if cfg.pretrain {
            pretrain::pretrain_embeddings(graph, cfg.dim, cfg.pretrain_epochs, cfg.seed)
        } else {
            (
                init::normal(graph.n_users(), cfg.dim, 0.0, 0.1, &mut param_rng),
                init::normal(graph.n_items(), cfg.dim, 0.0, 0.1, &mut param_rng),
            )
        };
        store.insert("emb.user", user_emb);
        store.insert("emb.item", item_emb);

        for l in 0..cfg.layers {
            if cfg.variant.type_embedding {
                type_embedding::register(&mut store, &mut param_rng, &format!("l{l}.eta"), &cfg);
            }
            if cfg.variant.cross_attention {
                attention::register(&mut store, &mut param_rng, &format!("l{l}.att"), &cfg);
            }
            if cfg.variant.gated_fusion {
                fusion::register(&mut store, &mut param_rng, &format!("l{l}.psi"), &cfg);
            }
        }

        // Eq. 2 sums neighbor messages, but raw sums scale with node
        // degree and destabilize deep propagation, so (as in the authors'
        // released implementation) every per-behavior adjacency is
        // row-normalized: each message is the mean over the neighbors.
        let adj_user_item: Vec<Arc<Csr>> = (0..graph.n_behaviors())
            .map(|k| Arc::new(graph.user_item(k).row_normalized()))
            .collect();
        let adj_item_user: Vec<Arc<Csr>> = (0..graph.n_behaviors())
            .map(|k| Arc::new(graph.item_user(k).row_normalized()))
            .collect();

        Self {
            net: Net { cfg, adj_user_item, adj_item_user },
            store,
            n_users: graph.n_users(),
            n_items: graph.n_items(),
            user_repr: None,
            item_repr: None,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &GnmrConfig {
        &self.net.cfg
    }

    /// Read access to the parameters.
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable access to the parameters (used by external training
    /// harnesses, e.g. the `train_step` bench, which drives the
    /// forward/backward/optimizer cycle itself). Mutating parameters
    /// invalidates any cached representations — call
    /// [`Gnmr::refresh_representations`] before scoring again.
    pub fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Number of behavior types the model was built for.
    pub fn n_behaviors(&self) -> usize {
        self.net.adj_user_item.len()
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Full-graph forward pass on a caller-provided tape; returns the
    /// per-order user and item embeddings `H^(0) ... H^(L)`. Exposed for
    /// research extensions and the benchmark harness; most users want
    /// [`Gnmr::fit`] / [`Gnmr::recommend`]. A training step needs the
    /// last order only at its batch's rows and runs less
    /// ([`Gnmr::step_loss`]).
    ///
    /// The propagation (SpMM message passing, attention projections)
    /// and its backward pass run on the calling thread, through
    /// `gnmr_tensor`'s tiled kernels; the pool and `GNMR_THREADS` do not
    /// reach them.
    pub fn forward(&self, ctx: &mut Ctx<'_>) -> (Vec<Var>, Vec<Var>) {
        self.net.orders(ctx, self.net.cfg.layers)
    }

    /// Recomputes and caches the multi-order representations (the
    /// concatenation over orders, so a single row dot realizes the
    /// multi-order matching sum). Called by `fit`; call manually after
    /// mutating parameters.
    pub fn refresh_representations(&mut self) {
        let mut ctx = Ctx::new(&self.store);
        let (user_orders, item_orders) = self.forward(&mut ctx);
        let user_mats: Vec<&Matrix> = user_orders.iter().map(|&v| ctx.g.value(v)).collect();
        let item_mats: Vec<&Matrix> = item_orders.iter().map(|&v| ctx.g.value(v)).collect();
        let user_repr = Matrix::concat_cols(&user_mats);
        let item_repr = Matrix::concat_cols(&item_mats);
        self.user_repr = Some(user_repr);
        self.item_repr = Some(item_repr);
    }

    /// Whether representations are available for scoring.
    pub fn is_ready(&self) -> bool {
        self.user_repr.is_some()
    }

    fn reprs(&self) -> (&Matrix, &Matrix) {
        (
            self.user_repr.as_ref().expect("Gnmr: call fit() or refresh_representations() before scoring"),
            self.item_repr.as_ref().expect("Gnmr: call fit() or refresh_representations() before scoring"),
        )
    }

    /// The cached multi-order representations `(users, items)`, if
    /// [`Gnmr::refresh_representations`] (or `fit`) has run. This is the
    /// frozen-model export surface: `gnmr-serve` snapshots these
    /// matrices alongside the parameters so inference reproduces
    /// training-side scores bitwise.
    pub fn representations(&self) -> Option<(&Matrix, &Matrix)> {
        Some((self.user_repr.as_ref()?, self.item_repr.as_ref()?))
    }

    /// Multi-order matching score of a single pair, computed by the
    /// canonical fixed-lane dot ([`kernels::dot`]`(user, item)`) — the
    /// same lane order and operand order as the ranking sweep's strip
    /// dots, so this agrees bitwise with the scores [`Gnmr::recommend`]
    /// ranks by. (It previously used a sequential iterator sum, which
    /// made `Recommender::score` disagree with `recommend` in the last
    /// ulps.)
    pub fn score_pair(&self, user: u32, item: u32) -> f32 {
        let (u, v) = self.reprs();
        kernels::dot(u.row(user as usize), v.row(item as usize))
    }

    /// Top-`k` recommendations for a user, excluding `exclude` (typically
    /// the user's training interactions). Returns `(item, score)` in the
    /// deterministic serving order: score descending, item ascending on
    /// score ties (`total_cmp` — NaN-safe).
    ///
    /// Ranks through [`kernels::rank_rows`], the same path `gnmr-serve`
    /// serves with: one full-catalog sweep on the calling thread that
    /// streams each score into a bounded partial selection behind a
    /// sorted-exclude merge walk — O(n + e + k log k). The sweep reads
    /// the catalog as [`kernels::RowStrips`], which this call splits
    /// from a copy of the item representations; a server keeps the
    /// strips (`gnmr_serve::ServeIndex`) instead of splitting per
    /// request.
    pub fn recommend(&self, user: u32, k: usize, exclude: &[u32]) -> Vec<(u32, f32)> {
        let (urepr, vrepr) = self.reprs();
        let mut excl = exclude.to_vec();
        excl.sort_unstable();
        kernels::rank_rows(&kernels::RowStrips::new(vrepr.clone()), urepr.row(user as usize), k, &excl)
    }
}

impl Net {
    /// One propagation layer: eta per behavior, cross-behavior attention,
    /// gated fusion — on both graph directions. The output has one user
    /// row per row of the `adj_user_item` adjacencies and one item row
    /// per row of `adj_item_user`: the model's own adjacencies give the
    /// whole layer, row selections of them ([`Csr::select_rows`]) the
    /// layer at those rows, since every op after the messages is
    /// row-wise.
    pub(crate) fn layer(
        &self,
        ctx: &mut Ctx<'_>,
        l: usize,
        (users, items): (Var, Var),
        adj_user_item: &[Arc<Csr>],
        adj_item_user: &[Arc<Csr>],
    ) -> (Var, Var) {
        let k_types = adj_user_item.len();
        let mut user_behaviors = Vec::with_capacity(k_types);
        let mut item_behaviors = Vec::with_capacity(k_types);
        let eta_prefix = format!("l{l}.eta");
        for k in 0..k_types {
            let msg_u = ctx.g.spmm(Arc::clone(&adj_user_item[k]), items);
            let msg_v = ctx.g.spmm(Arc::clone(&adj_item_user[k]), users);
            if self.cfg.variant.type_embedding {
                user_behaviors.push(type_embedding::apply(ctx, &eta_prefix, msg_u, &self.cfg));
                item_behaviors.push(type_embedding::apply(ctx, &eta_prefix, msg_v, &self.cfg));
            } else {
                user_behaviors.push(msg_u);
                item_behaviors.push(msg_v);
            }
        }

        if self.cfg.variant.cross_attention {
            let att_prefix = format!("l{l}.att");
            user_behaviors = attention::apply(ctx, &att_prefix, &user_behaviors, &self.cfg);
            item_behaviors = attention::apply(ctx, &att_prefix, &item_behaviors, &self.cfg);
        }

        if self.cfg.variant.gated_fusion {
            let psi_prefix = format!("l{l}.psi");
            (
                fusion::apply(ctx, &psi_prefix, &user_behaviors),
                fusion::apply(ctx, &psi_prefix, &item_behaviors),
            )
        } else {
            (fusion::uniform(ctx, &user_behaviors), fusion::uniform(ctx, &item_behaviors))
        }
    }

    /// The embeddings and the first `layers` layers over the whole
    /// graph: the user and item orders `H^(0) ... H^(layers)`
    /// ([`Gnmr::forward`] runs all of them).
    pub(crate) fn orders(&self, ctx: &mut Ctx<'_>, layers: usize) -> (Vec<Var>, Vec<Var>) {
        let mut users = ctx.param("emb.user");
        let mut items = ctx.param("emb.item");
        let mut user_orders = Vec::with_capacity(layers + 1);
        let mut item_orders = Vec::with_capacity(layers + 1);
        user_orders.push(users);
        item_orders.push(items);
        for l in 0..layers {
            (users, items) = self.layer(ctx, l, (users, items), &self.adj_user_item, &self.adj_item_user);
            user_orders.push(users);
            item_orders.push(items);
        }
        (user_orders, item_orders)
    }
}

impl Recommender for Gnmr {
    fn score(&self, user: u32, items: &[u32]) -> Vec<f32> {
        items.iter().map(|&i| self.score_pair(user, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GnmrVariant;
    use gnmr_data::presets;

    fn small_model(variant: GnmrVariant, layers: usize) -> (Gnmr, gnmr_data::Dataset) {
        let d = presets::tiny_movielens(3);
        let cfg = GnmrConfig {
            dim: 8,
            memory_dims: 4,
            heads: 2,
            layers,
            fusion_hidden: 8,
            variant,
            pretrain: false,
            seed: 5,
            ..GnmrConfig::default()
        };
        let model = Gnmr::new(&d.graph, cfg);
        (model, d)
    }

    #[test]
    fn parameter_registration_by_variant() {
        let (full, _) = small_model(GnmrVariant::full(), 2);
        // emb(2) + per layer: eta (2 + C) + att (3*S) + psi (4)
        let expected = 2 + 2 * ((2 + 4) + (3 * 2) + 4);
        assert_eq!(full.params().len(), expected);

        let (be, _) = small_model(GnmrVariant::without_type_embedding(), 2);
        assert_eq!(be.params().len(), 2 + 2 * ((3 * 2) + 4));
        assert!(!be.params().contains("l0.eta.w1"));

        let (ma, _) = small_model(GnmrVariant::without_message_aggregation(), 2);
        assert_eq!(ma.params().len(), 2 + 2 * (2 + 4));
        assert!(!ma.params().contains("l0.att.q.0"));
        assert!(!ma.params().contains("l0.psi.w3"));
    }

    #[test]
    fn forward_produces_all_orders() {
        let (model, d) = small_model(GnmrVariant::full(), 3);
        let mut ctx = Ctx::new(&model.store);
        let (us, vs) = model.forward(&mut ctx);
        assert_eq!(us.len(), 4);
        assert_eq!(vs.len(), 4);
        for &u in &us {
            assert_eq!(ctx.g.shape(u), (d.graph.n_users(), 8));
            assert!(ctx.g.value(u).is_finite());
        }
        for &v in &vs {
            assert_eq!(ctx.g.shape(v), (d.graph.n_items(), 8));
        }
    }

    #[test]
    fn adjacency_rows_are_neighbor_means() {
        // Messages are means over the neighbors, not Eq. 2's plain sum:
        // each propagation adjacency keeps the graph's pattern, every
        // stored weight is its share of the row, and non-empty rows sum
        // to one.
        let (model, d) = small_model(GnmrVariant::full(), 1);
        for k in 0..d.graph.n_behaviors() {
            for (adj, raw) in [
                (&model.net.adj_user_item[k], d.graph.user_item(k)),
                (&model.net.adj_item_user[k], d.graph.item_user(k)),
            ] {
                assert!(raw.nnz() > 0, "behavior {k} has no edges");
                assert_eq!(adj.shape(), raw.shape());
                for r in 0..raw.rows() {
                    let (cols, vals) = adj.row(r);
                    let (raw_cols, raw_vals) = raw.row(r);
                    assert_eq!(cols, raw_cols, "behavior {k} row {r}");
                    let total: f32 = raw_vals.iter().sum();
                    for (&v, &w) in vals.iter().zip(raw_vals) {
                        assert!((v - w / total).abs() < 1e-6, "behavior {k} row {r}: {v} vs {w}/{total}");
                    }
                    if !vals.is_empty() {
                        let sum: f32 = vals.iter().sum();
                        assert!((sum - 1.0).abs() < 1e-5, "behavior {k} row {r} sums to {sum}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_layers_is_pure_embedding_model() {
        let (mut model, _) = small_model(GnmrVariant::full(), 0);
        model.refresh_representations();
        let (u, v) = model.reprs();
        assert_eq!(u.cols(), 8);
        assert_eq!(v.cols(), 8);
        // Score equals the raw embedding dot product.
        let expected: f32 = model
            .params()
            .get("emb.user")
            .row(0)
            .iter()
            .zip(model.params().get("emb.item").row(0))
            .map(|(a, b)| a * b)
            .sum();
        assert!((model.score_pair(0, 0) - expected).abs() < 1e-5);
    }

    #[test]
    fn representations_concatenate_orders() {
        let (mut model, d) = small_model(GnmrVariant::full(), 2);
        model.refresh_representations();
        let (u, v) = model.reprs();
        assert_eq!(u.shape(), (d.graph.n_users(), 8 * 3));
        assert_eq!(v.shape(), (d.graph.n_items(), 8 * 3));
        assert!(model.is_ready());
    }

    #[test]
    fn scoring_matches_recommender_trait() {
        let (mut model, _) = small_model(GnmrVariant::full(), 1);
        model.refresh_representations();
        let direct = model.score_pair(2, 7);
        let via_trait = model.score(2, &[7, 9]);
        assert!((direct - via_trait[0]).abs() < 1e-6);
        assert_eq!(via_trait.len(), 2);
    }

    #[test]
    fn recommend_excludes_and_sorts() {
        let (mut model, _) = small_model(GnmrVariant::full(), 1);
        model.refresh_representations();
        let recs = model.recommend(0, 10, &[1, 2, 3]);
        assert_eq!(recs.len(), 10);
        for (item, _) in &recs {
            assert!(![1u32, 2, 3].contains(item));
        }
        for w in recs.windows(2) {
            assert!(w[0].1 >= w[1].1, "not sorted");
        }
    }

    #[test]
    fn score_pair_matches_recommend_bitwise() {
        // `score_pair` routes through the canonical fixed-lane dot, so
        // the single-pair path, the full-catalog `row_dots` sweep, and
        // the scores `recommend` returns are byte-identical — the
        // contract `gnmr-serve` snapshots rely on.
        let (mut model, _) = small_model(GnmrVariant::full(), 1);
        model.refresh_representations();
        let (urepr, vrepr) = model.representations().expect("refreshed");
        let catalog = kernels::row_dots(vrepr, urepr.row(2));
        for item in 0..vrepr.rows() as u32 {
            assert_eq!(
                model.score_pair(2, item).to_bits(),
                catalog[item as usize].to_bits(),
                "item {item}: score_pair != row_dots"
            );
        }
        for (item, score) in model.recommend(2, 5, &[]) {
            assert_eq!(
                score.to_bits(),
                model.score_pair(2, item).to_bits(),
                "item {item}: recommend score != score_pair"
            );
        }
    }

    #[test]
    fn recommend_matches_full_sort_reference() {
        // Reference: filter-then-full-sort with the same
        // (score desc, item asc) total order — the historical behavior
        // the partial selection must reproduce exactly.
        let (mut model, _) = small_model(GnmrVariant::full(), 1);
        model.refresh_representations();
        let (urepr, vrepr) = model.representations().expect("refreshed");
        let exclude = [9u32, 3, 1]; // deliberately unsorted at the API
        for user in [0u32, 2] {
            let scores = kernels::row_dots(vrepr, urepr.row(user as usize));
            let mut reference: Vec<(u32, f32)> = scores
                .iter()
                .enumerate()
                .map(|(i, &s)| (i as u32, s))
                .filter(|(i, _)| !exclude.contains(i))
                .collect();
            reference.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for k in [0, 1, 4, reference.len(), reference.len() + 5] {
                let mut expect = reference.clone();
                expect.truncate(k);
                assert_eq!(model.recommend(user, k, &exclude), expect, "user {user} k {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "call fit()")]
    fn scoring_before_fit_panics() {
        let (model, _) = small_model(GnmrVariant::full(), 1);
        let _ = model.score_pair(0, 0);
    }

    #[test]
    fn deterministic_construction() {
        let (a, _) = small_model(GnmrVariant::full(), 2);
        let (b, _) = small_model(GnmrVariant::full(), 2);
        for (name, m) in a.params().iter() {
            assert!(m.approx_eq(b.params().get(name), 0.0), "param {name} differs");
        }
    }
}
