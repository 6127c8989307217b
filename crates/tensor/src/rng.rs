//! Deterministic RNG plumbing.
//!
//! Every randomized component in the workspace receives its randomness
//! through this module so that a single `u64` seed reproduces an entire
//! experiment bit-for-bit. There is one generator, [`StateRng`]
//! (SplitMix64), defined here rather than taken from `rand`; the `rand`
//! crate supplies only the `rand::Rng` sampling methods on top of it.

/// Creates the workspace-standard RNG from a seed.
pub fn seeded(seed: u64) -> StateRng {
    StateRng::seed_from_u64(seed)
}

/// Derives an independent stream seed from a base seed and a stream label.
///
/// Uses the SplitMix64 finalizer so nearby `(seed, stream)` pairs produce
/// unrelated streams. Components that need private RNGs (sampler, model
/// init, generator, ...) call this with distinct stream ids.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Convenience: a seeded RNG for a named sub-stream.
pub fn substream(seed: u64, stream: u64) -> StateRng {
    StateRng::substream(seed, stream)
}

/// The workspace's one generator: SplitMix64 with its one `u64` of
/// state exported and restorable, so a training run can be frozen at
/// an epoch boundary and resumed bit-for-bit.
///
/// The stream is identical to the vendored `rand::rngs::SmallRng` for
/// the same seed (both are SplitMix64 with the same increment and
/// finalizer, and `next_u32` is the same high half of `next_u64`), the
/// generator every seed's bytes were first produced with — pinned by
/// `state_rng_matches_small_rng_stream` below. Upstream `rand`'s
/// `SmallRng` is a different (xoshiro) generator, so owning the stream
/// here keeps every seed's raw stream if the vendored crate is
/// replaced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateRng {
    state: u64,
}

impl StateRng {
    /// Seeds exactly like the vendored `SmallRng::seed_from_u64`.
    pub fn seed_from_u64(seed: u64) -> Self {
        StateRng { state: seed }
    }

    /// The RNG for a named sub-stream: seeded with
    /// [`derive(seed, stream)`](fn@derive).
    pub fn substream(seed: u64, stream: u64) -> Self {
        Self::seed_from_u64(derive(seed, stream))
    }

    /// The full generator state. Storing this and later calling
    /// [`StateRng::from_state`] resumes the stream exactly where it
    /// left off.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rehydrates a generator from [`StateRng::state`].
    pub fn from_state(state: u64) -> Self {
        StateRng { state }
    }
}

impl rand::RngCore for StateRng {
    fn next_u64(&mut self) -> u64 {
        // Same step as the vendored `SmallRng`: SplitMix64 increment
        // then finalizer. Any divergence here would move every seed's
        // bytes; the equivalence test pins it.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_sequence() {
        let mut a = seeded(11);
        let mut b = seeded(11);
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn derive_separates_streams() {
        let s0 = derive(1, 0);
        let s1 = derive(1, 1);
        let s2 = derive(2, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
        // Derivation must itself be deterministic.
        assert_eq!(derive(1, 0), s0);
    }

    #[test]
    fn state_rng_matches_small_rng_stream() {
        // The workspace generator must be stream-identical to the
        // vendored SmallRng that every seed's bytes were first produced
        // with: same u64s, same u32s, same gen_range draws.
        for seed in [0u64, 1, 11, 0xDEAD_BEEF, u64::MAX] {
            let mut small = SmallRng::seed_from_u64(seed);
            let mut state = seeded(seed);
            for _ in 0..64 {
                assert_eq!(small.gen::<u64>(), state.gen::<u64>());
                assert_eq!(small.gen::<u32>(), state.gen::<u32>());
            }
            let mut small = SmallRng::seed_from_u64(seed);
            let mut state = seeded(seed);
            for _ in 0..64 {
                assert_eq!(small.gen_range(0..977usize), state.gen_range(0..977usize));
            }
        }
    }

    #[test]
    fn state_rng_save_restore_resumes_stream() {
        let mut a = StateRng::substream(42, 0x7212);
        for _ in 0..17 {
            a.gen::<u64>();
        }
        let frozen = a.state();
        let tail: Vec<u64> = (0..32).map(|_| a.gen()).collect();
        let mut b = StateRng::from_state(frozen);
        let resumed: Vec<u64> = (0..32).map(|_| b.gen()).collect();
        assert_eq!(tail, resumed);
    }

    #[test]
    fn substreams_are_decorrelated() {
        let mut a = substream(5, 1);
        let mut b = substream(5, 2);
        let matches = (0..64).filter(|_| a.gen::<u32>() == b.gen::<u32>()).count();
        assert!(matches < 4, "streams look correlated: {matches} matches");
    }
}
