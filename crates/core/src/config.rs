//! GNMR model and training configuration.

/// Which components of the propagation layer are active. Used for the
/// paper's Figure 2 component ablations and the extra design ablations.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GnmrVariant {
    /// The type-specific behavior embedding layer eta (Eq. 2). When off,
    /// messages are plain normalized neighbor aggregates (paper: GNMR-be).
    pub type_embedding: bool,
    /// The cross-behavior multi-head attention xi (Eq. 3).
    pub cross_attention: bool,
    /// The gated fusion psi (Eq. 5). When off, behavior embeddings are
    /// averaged uniformly.
    pub gated_fusion: bool,
}

impl GnmrVariant {
    /// The full model.
    pub fn full() -> Self {
        Self { type_embedding: true, cross_attention: true, gated_fusion: true }
    }

    /// Paper's GNMR-be: no type-specific behavior embedding layer.
    pub fn without_type_embedding() -> Self {
        Self { type_embedding: false, ..Self::full() }
    }

    /// Paper's GNMR-ma: the message-aggregation dependency modeling
    /// (attention + gating) removed; behaviors are averaged uniformly.
    pub fn without_message_aggregation() -> Self {
        Self { cross_attention: false, gated_fusion: false, ..Self::full() }
    }

    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match (self.type_embedding, self.cross_attention, self.gated_fusion) {
            (true, true, true) => "GNMR",
            (false, true, true) => "GNMR-be",
            (true, false, false) => "GNMR-ma",
            (true, false, true) => "GNMR-noatt",
            (true, true, false) => "GNMR-nogate",
            _ => "GNMR-custom",
        }
    }
}

impl Default for GnmrVariant {
    fn default() -> Self {
        Self::full()
    }
}

/// Hyperparameters of the GNMR model (paper Section IV-A4 defaults).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct GnmrConfig {
    /// Embedding dimensionality `d` (paper: 16).
    pub dim: usize,
    /// Latent dimensions `C` of the memory/gating unit in eta (paper: 8).
    pub memory_dims: usize,
    /// Attention subspaces `S` in xi; must divide `dim`.
    pub heads: usize,
    /// Propagation layers `L` (paper: 2; Figure 3 sweeps 0..=3).
    pub layers: usize,
    /// Hidden width `d'` of the psi gate network.
    pub fusion_hidden: usize,
    /// Active components.
    pub variant: GnmrVariant,
    /// Whether to initialize order-0 embeddings with the autoencoder
    /// pre-training scheme (paper Section III-A) instead of random init.
    pub pretrain: bool,
    /// Epochs of autoencoder pre-training when `pretrain` is set.
    pub pretrain_epochs: usize,
    /// Model initialization seed.
    pub seed: u64,
}

impl Default for GnmrConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            memory_dims: 8,
            heads: 2,
            layers: 2,
            fusion_hidden: 16,
            variant: GnmrVariant::full(),
            pretrain: true,
            pretrain_epochs: 4,
            seed: 1,
        }
    }
}

impl GnmrConfig {
    /// Validates invariants (head divisibility, nonzero dims).
    ///
    /// # Panics
    /// On an invalid configuration.
    pub fn validate(&self) {
        assert!(self.dim > 0, "dim must be positive");
        assert!(self.heads > 0 && self.dim.is_multiple_of(self.heads), "heads ({}) must divide dim ({})", self.heads, self.dim);
        assert!(self.memory_dims > 0, "memory_dims must be positive");
        assert!(self.fusion_hidden > 0, "fusion_hidden must be positive");
    }

    /// Per-head width `d / S`.
    pub fn head_dim(&self) -> usize {
        self.dim / self.heads
    }
}

/// Optimization hyperparameters (paper: Adam, lr 1e-3, batch 32, decay
/// 0.96 per epoch; the loss is Eq. 7's pairwise hinge with Frobenius
/// regularization `lambda`).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Seed users per step (the paper uses 32; the harness default is
    /// 128). An epoch takes `eligible users / batch_users` steps, rounded
    /// up, so the batch size is part of what a fit computes: a different
    /// size trains to different bytes. Each step propagates orders
    /// `0 .. L-1` over the whole graph and the last layer only for the
    /// batch's distinct users and items, so fewer, larger steps cost
    /// less per epoch.
    pub batch_users: usize,
    /// Positive/negative samples per seed user (Algorithm 1's `S`).
    pub samples_per_user: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Frobenius regularization weight `lambda` (applied as coupled L2).
    pub weight_decay: f32,
    /// Global-norm gradient clip (0 disables).
    pub grad_clip: f32,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_users: 128,
            samples_per_user: 4,
            lr: 3e-3,
            weight_decay: 1e-5,
            grad_clip: 5.0,
            seed: 42,
        }
    }
}

impl TrainConfig {
    /// A fast configuration for unit tests on the tiny presets: few users
    /// means few steps per epoch, so the learning rate is raised to
    /// compensate.
    pub fn fast_test() -> Self {
        Self { epochs: 10, batch_users: 32, samples_per_user: 3, lr: 0.02, ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = GnmrConfig::default();
        assert_eq!(c.dim, 16);
        assert_eq!(c.memory_dims, 8);
        assert_eq!(c.layers, 2);
        c.validate();
        assert_eq!(c.head_dim(), 8);
    }

    #[test]
    fn variant_labels() {
        assert_eq!(GnmrVariant::full().label(), "GNMR");
        assert_eq!(GnmrVariant::without_type_embedding().label(), "GNMR-be");
        assert_eq!(GnmrVariant::without_message_aggregation().label(), "GNMR-ma");
    }

    #[test]
    #[should_panic(expected = "must divide dim")]
    fn bad_heads_panics() {
        let c = GnmrConfig { heads: 3, ..GnmrConfig::default() };
        c.validate();
    }
}
