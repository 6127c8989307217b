//! NMTR (Gao et al., ICDE 2019): neural multi-task recommendation from
//! multi-behavior data.
//!
//! Shared user/item embeddings, a per-behavior GMF-style interaction
//! function, and a *cascaded* prediction over behavior types in their
//! natural order (`view -> ... -> target`):
//! `logit_k = s_k(u, i) + logit_{k-1}`. Training is multi-task: a
//! pairwise loss per behavior type, summed with uniform weights.

use std::sync::Arc;

use gnmr_autograd::{pairwise_hinge, Ctx, ParamStore, Var};
use gnmr_eval::Recommender;
use gnmr_graph::MultiBehaviorGraph;
use gnmr_tensor::{init, rng, Matrix};
use rand::Rng;

use crate::common::{trainer, BaselineConfig};

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

        // Eligible users per behavior: at least one positive and one
        // negative under it, so the rejection loop below terminates.
        let eligible: Vec<Vec<u32>> = (0..k_types)
            .map(|k| {
                (0..graph.n_users() as u32)
                    .filter(|&u| (1..graph.n_items()).contains(&graph.user_degree(u, k)))
                    .collect()
            })
            .collect();

        let mut sample_rng = rng::substream(cfg.seed, 0x4274);
        let steps = eligible[graph.target()]
            .len()
            .div_ceil(cfg.batch_users.max(1))
            .max(1);
        let mut trainer = trainer(cfg);
        let mut losses = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            let (loss, _) = trainer.epoch(&mut store, steps, |ctx| {
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
                    let p_logit = cascade_logit(ctx, k, users.clone(), Arc::new(pos));
                    let n_logit = cascade_logit(ctx, k, users, Arc::new(neg));
                    let task_loss = pairwise_hinge(&mut ctx.g, p_logit, n_logit);
                    total = Some(match total {
                        Some(t) => ctx.g.add(t, task_loss),
                        None => task_loss,
                    });
                }
                total
            });
            losses.push(loss);
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
    fn users_without_a_negative_are_skipped() {
        // 6 users x 4 items: user 0 viewed and bought every item and
        // user 1 viewed every item, so neither has a negative under
        // those behaviors. A seed without one would spin the rejection
        // loop forever, so the fit runs on its own thread with a
        // deadline.
        let mut edges = vec![(1, 1, 1)];
        for item in 0..4 {
            edges.extend([(0, item, 0), (0, item, 1), (1, item, 0)]);
        }
        for user in 2..6 {
            edges.extend([(user, user % 4, 0), (user, (user + 1) % 4, 0), (user, user % 4, 1)]);
        }
        let events = edges
            .into_iter()
            .map(|(user, item, behavior)| gnmr_graph::Interaction { user, item, behavior, ts: item })
            .collect();
        let log = gnmr_graph::InteractionLog::new(6, 4, vec!["view".into(), "buy".into()], events).unwrap();
        let graph = MultiBehaviorGraph::from_log(&log, "buy");
        let (done, finished) = std::sync::mpsc::channel();
        let fit = std::thread::spawn(move || {
            let losses = Nmtr::fit(&graph, &BaselineConfig { epochs: 2, ..BaselineConfig::fast_test() }).losses;
            let _ = done.send(());
            losses
        });
        // A panicking fit drops `done`, which ends the wait early; the
        // join below reports the panic.
        let waited = finished.recv_timeout(std::time::Duration::from_secs(30));
        assert!(
            !matches!(waited, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "NMTR fit did not finish within 30 s"
        );
        let losses = fit.join().expect("NMTR fit panicked");
        assert_eq!(losses.len(), 2);
        assert!(losses.iter().all(|l| l.is_finite()), "{losses:?}");
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
