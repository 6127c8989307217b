//! The ground-truth latent world behind every synthetic dataset.
//!
//! Users and items get latent factor vectors; an item additionally gets a
//! popularity logit (Zipf-shaped) and a user an activity level. The
//! *affinity* of a `(user, item)` pair is the normalized factor dot plus a
//! popularity contribution, scaled to be roughly standard normal, so the
//! generators can place behavior thresholds on an absolute scale.

use gnmr_tensor::{init, rng};
use rand::Rng;

/// Ground-truth latent dimensionality (not the model's embedding dim).
const LATENT_DIM: usize = 6;

/// Number of user taste communities. Users draw most of their factor
/// vector from a shared cluster center (real interaction data has strong
/// community structure; this is what makes collaborative signal
/// recoverable from few observations).
const N_CLUSTERS: usize = 10;

/// Fraction of user-factor variance explained by the cluster center
/// (`0` = fully idiosyncratic users, `1` = pure communities).
const CLUSTER_STRENGTH: f32 = 0.65;

/// Zipf exponent of item popularity (0 = uniform; ~0.8 realistic).
const POPULARITY_EXPONENT: f64 = 0.8;

/// Log-normal sigma of per-user activity.
const ACTIVITY_SIGMA: f32 = 0.4;

/// Dimensions and seed of a synthetic world. The world's shape
/// (6 latent dimensions, 10 user communities explaining 65% of the
/// factor variance, Zipf-0.8 popularity, log-normal activity with
/// sigma 0.4) is fixed.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct WorldConfig {
    /// Number of users `I`.
    pub n_users: usize,
    /// Number of items `J`.
    pub n_items: usize,
    /// Master seed.
    pub seed: u64,
}

/// The generated latent world.
pub struct LatentWorld {
    cfg: WorldConfig,
    user_factors: Vec<f32>,
    item_factors: Vec<f32>,
    /// Standardized popularity logits per item.
    item_pop_z: Vec<f32>,
    /// Cumulative popularity weights for weighted item sampling.
    pop_cdf: Vec<f64>,
    /// Per-user activity multipliers (mean ~1).
    user_activity: Vec<f32>,
}

impl LatentWorld {
    /// Samples a world from its configuration.
    pub fn generate(cfg: WorldConfig) -> Self {
        assert!(cfg.n_users > 0 && cfg.n_items > 1, "world needs users and >=2 items");
        let mut factor_rng = rng::substream(cfg.seed, 0x11);
        let item_factors =
            init::normal(cfg.n_items, LATENT_DIM, 0.0, 1.0, &mut factor_rng).into_data();
        // Users: shared cluster center + idiosyncratic deviation, with
        // variance split so factors stay ~N(0, 1) marginally.
        let centers = init::normal(N_CLUSTERS, LATENT_DIM, 0.0, 1.0, &mut factor_rng).into_data();
        let (w_shared, w_own) = (CLUSTER_STRENGTH.sqrt(), (1.0 - CLUSTER_STRENGTH).sqrt());
        let own = init::normal(cfg.n_users, LATENT_DIM, 0.0, 1.0, &mut factor_rng).into_data();
        let mut user_factors = Vec::with_capacity(cfg.n_users * LATENT_DIM);
        for u in 0..cfg.n_users {
            let cluster = u % N_CLUSTERS;
            for f in 0..LATENT_DIM {
                user_factors.push(
                    w_shared * centers[cluster * LATENT_DIM + f] + w_own * own[u * LATENT_DIM + f],
                );
            }
        }

        // Zipf popularity over a permuted item order so popularity is not
        // correlated with item id.
        let mut perm: Vec<usize> = (0..cfg.n_items).collect();
        let mut perm_rng = rng::substream(cfg.seed, 0x22);
        for i in (1..perm.len()).rev() {
            let j = perm_rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let mut weights = vec![0.0f64; cfg.n_items];
        for (rank, &item) in perm.iter().enumerate() {
            weights[item] = 1.0 / ((rank + 1) as f64).powf(POPULARITY_EXPONENT);
        }
        let total: f64 = weights.iter().sum();
        let mut pop_cdf = Vec::with_capacity(cfg.n_items);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            pop_cdf.push(acc);
        }
        // Standardize log-weights for the affinity contribution.
        let logs: Vec<f32> = weights.iter().map(|w| w.ln() as f32).collect();
        let mean = logs.iter().sum::<f32>() / logs.len() as f32;
        let var = logs.iter().map(|l| (l - mean) * (l - mean)).sum::<f32>() / logs.len() as f32;
        let std = var.sqrt().max(1e-6);
        let item_pop_z = logs.iter().map(|l| (l - mean) / std).collect();

        let mut act_rng = rng::substream(cfg.seed, 0x33);
        let user_activity = (0..cfg.n_users)
            .map(|_| (ACTIVITY_SIGMA * init::standard_normal(&mut act_rng)).exp())
            .collect();

        Self { cfg, user_factors, item_factors, item_pop_z, pop_cdf, user_activity }
    }

    /// The configuration this world was generated from.
    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }

    /// Ground-truth affinity of a pair, approximately standard normal:
    /// normalized factor dot plus a 0.25-weighted popularity term.
    pub fn affinity(&self, user: u32, item: u32) -> f32 {
        let d = LATENT_DIM;
        let u = &self.user_factors[user as usize * d..(user as usize + 1) * d];
        let v = &self.item_factors[item as usize * d..(item as usize + 1) * d];
        let dot: f32 = u.iter().zip(v).map(|(a, b)| a * b).sum();
        let z = dot / (d as f32).sqrt();
        z + 0.25 * self.item_pop_z[item as usize]
    }

    /// Activity multiplier of a user (log-normal, mean ~1).
    pub fn activity(&self, user: u32) -> f32 {
        self.user_activity[user as usize]
    }

    /// Draws one item from the popularity distribution.
    pub fn sample_item(&self, rng: &mut impl Rng) -> u32 {
        let x: f64 = rng.gen_range(0.0..1.0);
        self.pop_cdf.partition_point(|&c| c < x) as u32
    }

    /// Draws `count` *distinct* items, popularity-weighted.
    ///
    /// `count` is capped at the catalogue size.
    pub fn sample_items(&self, count: usize, rng: &mut impl Rng) -> Vec<u32> {
        let count = count.min(self.cfg.n_items);
        let mut out = Vec::with_capacity(count);
        let mut seen = vec![false; self.cfg.n_items];
        let mut attempts = 0usize;
        while out.len() < count && attempts < count * 50 + 100 {
            attempts += 1;
            let item = self.sample_item(rng);
            if !seen[item as usize] {
                seen[item as usize] = true;
                out.push(item);
            }
        }
        // Fallback for pathological cases (count close to n_items).
        if out.len() < count {
            for i in 0..self.cfg.n_items as u32 {
                if out.len() >= count {
                    break;
                }
                if !seen[i as usize] {
                    seen[i as usize] = true;
                    out.push(i);
                }
            }
        }
        out
    }

    /// Draws `count` distinct items for a user with *affinity-biased
    /// exposure*: candidates come from the popularity distribution and are
    /// accepted with probability `sigmoid(strength * affinity)`.
    ///
    /// This models self-selection (users mostly consume items they are
    /// inclined to like), which is what gives held-out positives higher
    /// ground-truth affinity than uniformly sampled negatives — the
    /// property that makes the 99-negative ranking protocol meaningful.
    pub fn sample_items_biased(
        &self,
        user: u32,
        count: usize,
        strength: f32,
        rng: &mut impl Rng,
    ) -> Vec<u32> {
        let count = count.min(self.cfg.n_items);
        let mut out = Vec::with_capacity(count);
        let mut seen = vec![false; self.cfg.n_items];
        let mut attempts = 0usize;
        let max_attempts = count * 400 + 1000;
        while out.len() < count && attempts < max_attempts {
            attempts += 1;
            let item = self.sample_item(rng);
            if seen[item as usize] {
                continue;
            }
            let accept = crate::sigmoid_f32(strength * self.affinity(user, item));
            if rng.gen_range(0.0f32..1.0) < accept {
                seen[item as usize] = true;
                out.push(item);
            }
        }
        // Fallback: top up with unbiased draws if acceptance starved us.
        if out.len() < count {
            for item in self.sample_items(count, rng) {
                if out.len() >= count {
                    break;
                }
                if !seen[item as usize] {
                    seen[item as usize] = true;
                    out.push(item);
                }
            }
        }
        out
    }

    /// Number of interactions for a user given a target mean (activity-
    /// scaled, at least 2).
    pub fn interactions_for_user(&self, user: u32, mean: f32, rng: &mut impl Rng) -> usize {
        let lambda = mean * self.activity(user);
        // Light noise around the activity-scaled mean.
        let jitter: f32 = rng.gen_range(0.75..1.25);
        ((lambda * jitter).round() as usize).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnmr_tensor::rng::seeded;
    use gnmr_tensor::stats;

    fn world() -> LatentWorld {
        LatentWorld::generate(WorldConfig { n_users: 300, n_items: 200, seed: 7 })
    }

    #[test]
    fn affinity_is_roughly_standard_normal() {
        let w = world();
        let mut rng = seeded(1);
        let samples: Vec<f32> = (0..4000)
            .map(|_| {
                let u = rng.gen_range(0..300) as u32;
                let i = rng.gen_range(0..200) as u32;
                w.affinity(u, i)
            })
            .collect();
        let m = stats::mean(&samples);
        let s = stats::std_dev(&samples);
        assert!(m.abs() < 0.15, "mean {m}");
        assert!((0.6..1.6).contains(&s), "std {s}");
    }

    #[test]
    fn affinity_is_deterministic() {
        let a = world();
        let b = world();
        assert_eq!(a.affinity(3, 5), b.affinity(3, 5));
        assert_eq!(a.activity(10), b.activity(10));
    }

    #[test]
    fn popular_items_dominate_sampling() {
        let w = world();
        let mut rng = seeded(2);
        let mut counts = vec![0usize; 200];
        for _ in 0..20000 {
            counts[w.sample_item(&mut rng) as usize] += 1;
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Top 10% of items should carry far more than 10% of draws.
        let top: usize = sorted[..20].iter().sum();
        assert!(top as f64 > 0.25 * 20000.0, "top items only {top}");
    }

    #[test]
    fn sample_items_distinct() {
        let w = world();
        let mut rng = seeded(3);
        let items = w.sample_items(50, &mut rng);
        assert_eq!(items.len(), 50);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 50);
    }

    #[test]
    fn sample_items_caps_at_catalogue() {
        let w = LatentWorld::generate(WorldConfig { n_users: 5, n_items: 10, seed: 7 });
        let mut rng = seeded(4);
        let items = w.sample_items(50, &mut rng);
        assert_eq!(items.len(), 10);
    }

    #[test]
    fn activity_scales_interaction_counts() {
        let w = world();
        let mut rng = seeded(5);
        // Find a high- and a low-activity user.
        let hi = (0..300u32).max_by(|&a, &b| w.activity(a).partial_cmp(&w.activity(b)).unwrap()).unwrap();
        let lo = (0..300u32).min_by(|&a, &b| w.activity(a).partial_cmp(&w.activity(b)).unwrap()).unwrap();
        let hi_n: usize = (0..50).map(|_| w.interactions_for_user(hi, 30.0, &mut rng)).sum();
        let lo_n: usize = (0..50).map(|_| w.interactions_for_user(lo, 30.0, &mut rng)).sum();
        assert!(hi_n > lo_n, "activity had no effect: {hi_n} vs {lo_n}");
    }
}
