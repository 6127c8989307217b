//! NMTR (Gao et al., ICDE 2019): neural multi-task recommendation from
//! multi-behavior data.
//!
//! Shared user/item embeddings, a per-behavior GMF-style interaction
//! function, and a *cascaded* prediction over behavior types in their
//! natural order (`view -> ... -> target`):
//! `logit_k = s_k(u, i) + logit_{k-1}`. Training is multi-task: a
//! pairwise loss per behavior type, summed with uniform weights.

use std::sync::Arc;

use gnmr_autograd::{Adam, Ctx, ParamStore, Var};
use gnmr_eval::Recommender;
use gnmr_graph::MultiBehaviorGraph;
use gnmr_tensor::{init, rng, Matrix};
use rand::Rng;

use crate::common::BaselineConfig;

/// A trained NMTR model.
pub struct Nmtr {
    store: ParamStore,
    n_behaviors: usize,
    target: usize,
    /// Per-epoch training losses (summed over behavior tasks).
    pub losses: Vec<f32>,
}

fn score_behavior(
    ctx: &mut Ctx<'_>,
    k: usize,
    users: Arc<Vec<u32>>,
    items: Arc<Vec<u32>>,
) -> Var {
    let u = ctx.param("u");
    let v = ctx.param("v");
    let w = ctx.param(&format!("gmf{k}.w"));
    let b = ctx.param(&format!("gmf{k}.b"));
    let ue = ctx.g.gather_rows(u, users);
    let ie = ctx.g.gather_rows(v, items);
    let prod = ctx.g.mul(ue, ie);
    let s = ctx.g.matmul(prod, w);
    ctx.g.add_row_broadcast(s, b)
}

/// Cascaded logit up to and including behavior `k` (behaviors in index
/// order, which is the funnel order in all our datasets).
fn cascade_logit(
    ctx: &mut Ctx<'_>,
    k: usize,
    users: Arc<Vec<u32>>,
    items: Arc<Vec<u32>>,
) -> Var {
    let mut logit = score_behavior(ctx, 0, users.clone(), items.clone());
    for b in 1..=k {
        let s = score_behavior(ctx, b, users.clone(), items.clone());
        logit = ctx.g.add(logit, s);
    }
    logit
}

impl Nmtr {
    /// Trains NMTR over all behaviors of `graph`.
    pub fn fit(graph: &MultiBehaviorGraph, cfg: &BaselineConfig) -> Self {
        let k_types = graph.n_behaviors();
        let mut store = ParamStore::new();
        let mut init_rng = rng::substream(cfg.seed, 0x4273);
        store.insert("u", init::normal(graph.n_users(), cfg.dim, 0.0, 0.1, &mut init_rng));
        store.insert("v", init::normal(graph.n_items(), cfg.dim, 0.0, 0.1, &mut init_rng));
        for k in 0..k_types {
            store.insert(format!("gmf{k}.w"), init::xavier_uniform(cfg.dim, 1, &mut init_rng));
            store.insert(format!("gmf{k}.b"), Matrix::zeros(1, 1));
        }

        // Eligible users per behavior.
        let eligible: Vec<Vec<u32>> = (0..k_types)
            .map(|k| {
                (0..graph.n_users() as u32)
                    .filter(|&u| !graph.user_items(u, k).is_empty())
                    .collect()
            })
            .collect();

        let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
        let mut sample_rng = rng::substream(cfg.seed, 0x4274);
        let steps = eligible[graph.target()]
            .len()
            .div_ceil(cfg.batch_users.max(1))
            .max(1);
        let mut losses = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            let (mut epoch_loss, mut counted) = (0.0, 0usize);
            for _ in 0..steps {
                let mut ctx = Ctx::new(&store);
                let mut total: Option<Var> = None;
                for k in 0..k_types {
                    if eligible[k].is_empty() {
                        continue;
                    }
                    // Sample a mini-batch of (user, pos, neg) for behavior k.
                    let mut users = Vec::with_capacity(cfg.batch_users * cfg.samples_per_user);
                    let mut pos = Vec::with_capacity(users.capacity());
                    let mut neg = Vec::with_capacity(users.capacity());
                    for _ in 0..cfg.batch_users {
                        let u = eligible[k][sample_rng.gen_range(0..eligible[k].len())];
                        let positives = graph.user_items(u, k);
                        for _ in 0..cfg.samples_per_user {
                            let p = positives[sample_rng.gen_range(0..positives.len())];
                            let n = loop {
                                let c = sample_rng.gen_range(0..graph.n_items() as u32);
                                if !graph.has_edge(u, c, k) {
                                    break c;
                                }
                            };
                            users.push(u);
                            pos.push(p);
                            neg.push(n);
                        }
                    }
                    let users = Arc::new(users);
                    let p_logit = cascade_logit(&mut ctx, k, users.clone(), Arc::new(pos));
                    let n_logit = cascade_logit(&mut ctx, k, users, Arc::new(neg));
                    let diff = ctx.g.sub(n_logit, p_logit);
                    let margin = ctx.g.add_scalar(diff, 1.0);
                    let hinge = ctx.g.relu(margin);
                    let task_loss = ctx.g.mean(hinge);
                    total = Some(match total {
                        Some(t) => ctx.g.add(t, task_loss),
                        None => task_loss,
                    });
                }
                let Some(loss) = total else { continue };
                epoch_loss += ctx.g.value(loss).scalar_value();
                counted += 1;
                let mut grads = ctx.grads(loss);
                grads.clip_global_norm(5.0);
                opt.step(&mut store, &grads);
            }
            opt.decay_lr();
            losses.push(if counted > 0 { epoch_loss / counted as f32 } else { f32::NAN });
        }
        Self { store, n_behaviors: k_types, target: graph.target(), losses }
    }
}

impl Recommender for Nmtr {
    fn score(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let users = Arc::new(vec![user; items.len()]);
        let items = Arc::new(items.to_vec());
        let mut ctx = Ctx::new(&self.store);
        let logit = cascade_logit(&mut ctx, self.target.min(self.n_behaviors - 1), users, items);
        ctx.g.value(logit).clone().into_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnmr_data::presets;
    use gnmr_eval::{evaluate, RandomRecommender};

    #[test]
    fn trains_and_beats_random() {
        let d = presets::tiny_movielens(3);
        let m = Nmtr::fit(&d.graph, &BaselineConfig { epochs: 15, ..BaselineConfig::fast_test() });
        assert!(m.losses.last().unwrap().is_finite());
        let r = evaluate(&m, &d.test, &[10]);
        let rnd = evaluate(&RandomRecommender::new(1), &d.test, &[10]);
        assert!(r.hr_at(10) > rnd.hr_at(10) + 0.1, "NMTR {:.3} vs random {:.3}", r.hr_at(10), rnd.hr_at(10));
    }

    #[test]
    fn registers_per_behavior_heads() {
        let d = presets::tiny_movielens(3);
        let m = Nmtr::fit(&d.graph, &BaselineConfig { epochs: 1, ..BaselineConfig::fast_test() });
        for k in 0..3 {
            assert!(m.store.contains(&format!("gmf{k}.w")));
        }
        assert_eq!(m.n_behaviors, 3);
    }

    #[test]
    fn works_on_funnel_data() {
        let d = presets::tiny_taobao(3);
        let m = Nmtr::fit(&d.graph, &BaselineConfig { epochs: 10, ..BaselineConfig::fast_test() });
        let r = evaluate(&m, &d.test, &[10]);
        assert!(r.hr_at(10).is_finite());
        assert!(r.hr_at(10) > 0.05, "NMTR on funnel: {:.3}", r.hr_at(10));
    }

    #[test]
    fn epochs_without_a_step_report_nan() {
        // An empty log: no behavior has an eligible user, so no epoch
        // takes a step, and a mean over zero steps is NaN, not 0.
        let log = gnmr_graph::InteractionLog::new(3, 4, vec!["view".into(), "buy".into()], vec![]).unwrap();
        let graph = MultiBehaviorGraph::from_log(&log, "buy");
        let m = Nmtr::fit(&graph, &BaselineConfig { epochs: 2, ..BaselineConfig::fast_test() });
        assert_eq!(m.losses.len(), 2);
        assert!(m.losses.iter().all(|l| l.is_nan()), "{:?}", m.losses);
    }
}
