//! Deterministic seed derivation.
//!
//! Experiments need many independent random streams (per actor, per job, per
//! repetition) that are all reproducible from a single root seed.
//! [`SeedStream`] derives child seeds by hashing a label into the root seed
//! with a SplitMix64-style mixer, so adding a new consumer never perturbs
//! existing streams.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives independent, label-addressed child seeds from one root seed.
///
/// # Examples
///
/// ```
/// use elan_sim::SeedStream;
///
/// let stream = SeedStream::new(42);
/// let a = stream.derive("worker-0");
/// let b = stream.derive("worker-1");
/// assert_ne!(a, b);
/// // Same label, same seed — fully reproducible.
/// assert_eq!(a, SeedStream::new(42).derive("worker-0"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    root: u64,
}

impl SeedStream {
    /// Creates a stream rooted at `seed`.
    pub const fn new(seed: u64) -> Self {
        SeedStream { root: seed }
    }

    /// The root seed.
    pub const fn root(&self) -> u64 {
        self.root
    }

    /// Derives the child seed for `label`.
    pub fn derive(&self, label: &str) -> u64 {
        let mut h = self.root ^ 0x9e37_79b9_7f4a_7c15;
        for &b in label.as_bytes() {
            h ^= b as u64;
            h = splitmix64(h);
        }
        splitmix64(h)
    }

    /// Derives a child seed for a label plus numeric index, a common pattern
    /// for per-instance streams.
    pub(crate) fn derive_indexed(&self, label: &str, index: u64) -> u64 {
        splitmix64(self.derive(label) ^ splitmix64(index ^ 0xa076_1d64_78bd_642f))
    }

    /// Convenience: an [`StdRng`] seeded for `label`.
    pub fn rng(&self, label: &str) -> StdRng {
        StdRng::seed_from_u64(self.derive(label))
    }

    /// Convenience: an [`StdRng`] seeded for `label` and `index`.
    pub fn rng_indexed(&self, label: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.derive_indexed(label, index))
    }
}

/// SplitMix64 finalizer — a well-tested 64-bit mixing function, and the
/// deterministic dice behind every seeded choice of the runtime (virtual
/// schedule picks, chaos fates, witness draws). Small, seedable, and
/// *not* for anything cryptographic.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn labels_give_distinct_seeds() {
        let s = SeedStream::new(0);
        let seeds: Vec<u64> = (0..64).map(|i| s.derive_indexed("w", i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn derivation_is_stable() {
        assert_eq!(
            SeedStream::new(42).derive("am"),
            SeedStream::new(42).derive("am")
        );
        assert_ne!(
            SeedStream::new(42).derive("am"),
            SeedStream::new(43).derive("am")
        );
    }

    #[test]
    fn rngs_are_reproducible() {
        let mut a = SeedStream::new(9).rng("x");
        let mut b = SeedStream::new(9).rng("x");
        let va: Vec<u32> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn empty_label_is_valid() {
        let s = SeedStream::new(5);
        // Must not panic and must differ from a non-empty label.
        assert_ne!(s.derive(""), s.derive("a"));
    }
}
