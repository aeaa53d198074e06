//! Deterministic seed derivation for multi-entity simulations.
//!
//! Every experiment in this workspace is driven by a single `u64` seed. That
//! seed is fanned out to per-entity seeds (one per client, per server, per
//! attack, per round) with [`derive_seed`], a SplitMix64-based splitter
//! keyed by a label path, so that runs are bit-reproducible regardless of
//! iteration order or thread scheduling.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 step: the de-facto standard 64-bit seed scrambler.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from a parent seed and a label.
///
/// Labels keep independent consumers (e.g. "client 3's data shard" vs
/// "client 3's mini-batch order") on provably distinct streams.
///
/// # Example
///
/// ```
/// use fedms_tensor::rng::derive_seed;
///
/// let a = derive_seed(42, &[1, 0]);
/// let b = derive_seed(42, &[1, 1]);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, &[1, 0]));
/// ```
pub fn derive_seed(parent: u64, label: &[u64]) -> u64 {
    let mut state = parent ^ 0x6A09_E667_F3BC_C908; // offset so derive(0, []) != 0 path
    let mut out = splitmix64(&mut state);
    for &l in label {
        state ^= l.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ out;
        out = splitmix64(&mut state);
    }
    out
}

/// Constructs a [`StdRng`] from a parent seed and a label path.
pub fn rng_for(parent: u64, label: &[u64]) -> StdRng {
    StdRng::seed_from_u64(derive_seed(parent, label))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::HashSet;

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(1, &[2, 3]), derive_seed(1, &[2, 3]));
    }

    #[test]
    fn derive_seed_separates_labels() {
        let mut seen = HashSet::new();
        for parent in 0..4u64 {
            for a in 0..8u64 {
                for b in 0..8u64 {
                    assert!(seen.insert(derive_seed(parent, &[a, b])), "collision");
                }
            }
        }
    }

    #[test]
    fn derive_seed_label_order_matters() {
        assert_ne!(derive_seed(9, &[1, 2]), derive_seed(9, &[2, 1]));
    }

    #[test]
    fn derive_seed_prefix_is_not_extension() {
        assert_ne!(derive_seed(9, &[1]), derive_seed(9, &[1, 0]));
    }

    #[test]
    fn rng_for_produces_usable_rng() {
        let mut r = rng_for(5, &[1]);
        let x: f64 = r.gen();
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn zero_parent_not_degenerate() {
        let a = derive_seed(0, &[0]);
        let b = derive_seed(0, &[1]);
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
