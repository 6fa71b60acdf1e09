//! Seed management for reproducible experiments.
//!
//! Every experiment in this workspace is driven by a single `u64` seed. A
//! [`SeedStream`] derives stable, independent substreams from that seed so
//! that adding a new consumer of randomness in one component does not perturb
//! the draws seen by another. Substreams are identified by a label and an
//! index; the derivation is a fixed 64-bit mix (SplitMix64 over a
//! label hash), not dependent on platform hashers.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives independent, reproducible RNG substreams from one experiment seed.
///
/// # Example
///
/// ```
/// use bt_markov::SeedStream;
/// use rand::Rng;
///
/// let stream = SeedStream::new(42);
/// let mut a = stream.rng("arrivals", 0);
/// let mut b = stream.rng("arrivals", 0);
/// // Same label and index => identical streams.
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// // Different index => different stream.
/// let mut c = stream.rng("arrivals", 1);
/// assert_ne!(a.gen::<u64>(), c.gen::<u64>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedStream {
    root: u64,
}

impl SeedStream {
    /// Creates a stream family rooted at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SeedStream { root: seed }
    }

    /// The root seed this family was created from.
    #[must_use]
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Derives the substream seed for `(label, index)`.
    #[must_use]
    pub fn derive(&self, label: &str, index: u64) -> u64 {
        let mut h = self.root ^ 0x9E37_79B9_7F4A_7C15;
        for &byte in label.as_bytes() {
            h = splitmix64(h ^ u64::from(byte));
        }
        splitmix64(h ^ index)
    }

    /// Returns a seeded RNG for the substream `(label, index)`.
    #[must_use]
    pub fn rng(&self, label: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.derive(label, index))
    }
}

/// SplitMix64 finalizer — a well-mixed 64-bit permutation. The seed
/// streams derive substreams through it, and bt-swarm's plan streams
/// step and key their per-pair draws with it.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_stream() {
        let s = SeedStream::new(7);
        assert_eq!(s.derive("x", 3), s.derive("x", 3));
    }

    #[test]
    fn labels_separate_streams() {
        let s = SeedStream::new(7);
        assert_ne!(s.derive("arrivals", 0), s.derive("departures", 0));
    }

    #[test]
    fn indices_separate_streams() {
        let s = SeedStream::new(7);
        assert_ne!(s.derive("peer", 0), s.derive("peer", 1));
    }

    #[test]
    fn root_seed_matters() {
        assert_ne!(
            SeedStream::new(1).derive("a", 0),
            SeedStream::new(2).derive("a", 0)
        );
    }

    #[test]
    fn rng_draws_are_reproducible() {
        let s = SeedStream::new(99);
        let draws1: Vec<u32> = (0..8)
            .map(|_| 0u32)
            .scan(s.rng("t", 0), |r, _| Some(r.gen()))
            .collect();
        let draws2: Vec<u32> = (0..8)
            .map(|_| 0u32)
            .scan(s.rng("t", 0), |r, _| Some(r.gen()))
            .collect();
        assert_eq!(draws1, draws2);
    }

    #[test]
    fn derivation_is_stable() {
        // Pin the derivation so refactors cannot silently change every
        // experiment in the workspace.
        let a = SeedStream::new(42).derive("arrivals", 0);
        assert_eq!(a, 0xafae_8555_4f13_50da);
        assert_eq!(SeedStream::new(7).derive("swarm", 0), 0xe89f_e7eb_daed_147c);
        // Mixing is nontrivial: nearby seeds map far apart.
        let near = SeedStream::new(43).derive("arrivals", 0);
        assert_ne!(a, near);
        assert_ne!(a & 0xFFFF, near & 0xFFFF);
    }

    #[test]
    fn root_is_exposed() {
        assert_eq!(SeedStream::new(5).root(), 5);
    }
}
