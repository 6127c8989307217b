//! Seeded synthetic multi-behavior recommendation datasets.
//!
//! The paper evaluates on MovieLens-10M, Yelp and Taobao. Those raw
//! datasets are not available offline, so this crate substitutes seeded
//! latent-factor simulators that reproduce the *structural* properties the
//! evaluation depends on:
//!
//! * every behavior type is a noisy view of one underlying user-item
//!   affinity, so auxiliary behaviors carry signal about the target;
//! * MovieLens/Yelp derive `{dislike, neutral, like}` from rating
//!   thresholds (`r <= 2`, `2 < r < 4`, `r >= 4`), Yelp adds a sparse
//!   `tip` channel;
//! * Taobao is a behavioral funnel `pv ⊇ {fav, cart} ⊇ buy` with a very
//!   sparse target, the regime where the paper reports GNMR's largest
//!   gains.
//!
//! All generators are deterministic given their seed.

pub mod dataset;
pub mod latent;
pub mod movielens;
pub mod presets;
pub mod split;
pub mod taobao;
pub mod yelp;

pub use dataset::Dataset;
pub use latent::{LatentWorld, WorldConfig};
pub use split::{leave_one_out, EvalInstance, Split};

/// Numerically stable sigmoid (shared by the generators).
pub(crate) fn sigmoid_f32(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}
