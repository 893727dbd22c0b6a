//! Deterministic RNG plumbing.
//!
//! Every randomized component (workload generators, clients, the live
//! runtime) takes a `u64` seed and derives independent streams with
//! [`derive_seed`], so that every experiment in the repo is bit-reproducible.

use crate::value::splitmix64;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Creates a small, fast, seeded RNG.
pub fn seeded_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Derives an independent child seed from a parent seed and a stream label.
///
/// Mixing through SplitMix64 keeps sibling streams (e.g. one per client
/// thread) statistically independent even for adjacent labels.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    splitmix64(parent ^ splitmix64(stream.wrapping_add(0xa076_1d64_78bd_642f)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn derived_seeds_differ() {
        let s0 = derive_seed(7, 0);
        let s1 = derive_seed(7, 1);
        assert_ne!(s0, s1);
        assert_ne!(derive_seed(8, 0), s0);
    }

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_seed(123, 45), derive_seed(123, 45));
    }
}
