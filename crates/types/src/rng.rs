//! Deterministic randomness.
//!
//! Every stochastic element of the simulator — topology placement,
//! shadowing, fading draws, hopping choices, workload arrivals — must be
//! reproducible from a single master seed so that (a) experiments can be
//! re-run bit-for-bit and (b) paired comparisons (CellFi vs plain LTE vs
//! Wi-Fi on *the same* topology) are fair.
//!
//! [`SeedSeq`] derives independent child seeds from a master seed plus a
//! string label using the SplitMix64 finalizer. Labelled derivation means
//! adding a new consumer of randomness never perturbs the streams of
//! existing consumers — the property that keeps regression baselines
//! stable.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives independent, labelled RNG seeds from a master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSeq {
    master: u64,
}

/// SplitMix64 finalizer: a strong 64-bit mix, used to decorrelate seeds
/// and as a pure hash (trace stratum selection, AP→shard assignment).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label, used to fold strings into the seed stream.
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl SeedSeq {
    /// Start a seed sequence from a master seed.
    pub const fn new(master: u64) -> SeedSeq {
        SeedSeq { master }
    }

    /// Derive the child seed for `label`.
    pub fn seed(self, label: &str) -> u64 {
        splitmix64(self.master ^ fnv1a(label))
    }

    /// Derive the child seed for `label` and a numeric index (e.g. one
    /// stream per access point).
    pub fn seed_indexed(self, label: &str, index: u64) -> u64 {
        Self::seed_with(self.seed(label), index)
    }

    /// Derive an indexed seed from an already-derived label seed (the
    /// value returned by [`SeedSeq::seed`]). Hot loops that draw many
    /// indexed streams under one label can hash the label once and call
    /// this per index; the result is bit-identical to `seed_indexed`.
    pub fn seed_with(label_seed: u64, index: u64) -> u64 {
        splitmix64(label_seed ^ splitmix64(index.wrapping_add(1)))
    }

    /// A ready-to-use deterministic RNG for `label`.
    pub fn rng(self, label: &str) -> StdRng {
        StdRng::seed_from_u64(self.seed(label))
    }

    /// A ready-to-use deterministic RNG for `label` and an index.
    pub fn rng_indexed(self, label: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed_indexed(label, index))
    }

    /// A derived sub-sequence: all labels drawn from the child are isolated
    /// from the parent's labels.
    pub fn child(self, label: &str) -> SeedSeq {
        SeedSeq {
            master: self.seed(label),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_label_same_seed() {
        let s = SeedSeq::new(42);
        assert_eq!(s.seed("topology"), s.seed("topology"));
        assert_eq!(s.seed_indexed("fading", 3), s.seed_indexed("fading", 3));
    }

    #[test]
    fn seed_with_matches_seed_indexed() {
        let s = SeedSeq::new(42);
        let label_seed = s.seed("fading");
        for i in [0u64, 1, 17, u64::MAX] {
            assert_eq!(
                SeedSeq::seed_with(label_seed, i),
                s.seed_indexed("fading", i)
            );
        }
    }

    #[test]
    fn different_labels_different_seeds() {
        let s = SeedSeq::new(42);
        assert_ne!(s.seed("topology"), s.seed("fading"));
        assert_ne!(s.seed_indexed("fading", 0), s.seed_indexed("fading", 1));
    }

    #[test]
    fn different_masters_different_seeds() {
        assert_ne!(SeedSeq::new(1).seed("x"), SeedSeq::new(2).seed("x"));
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let mut a = SeedSeq::new(7).rng("workload");
        let mut b = SeedSeq::new(7).rng("workload");
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn child_isolates_namespaces() {
        let s = SeedSeq::new(9);
        let c1 = s.child("run1");
        let c2 = s.child("run2");
        assert_ne!(c1.seed("fading"), c2.seed("fading"));
        // A child's label space does not collide with the parent's.
        assert_ne!(s.seed("fading"), c1.seed("fading"));
    }

    #[test]
    fn seeds_are_well_spread() {
        // Weak avalanche check: consecutive indices should differ in many bits.
        let s = SeedSeq::new(1234);
        let mut total = 0u32;
        for i in 0..64 {
            let a = s.seed_indexed("spread", i);
            let b = s.seed_indexed("spread", i + 1);
            total += (a ^ b).count_ones();
        }
        let avg = f64::from(total) / 64.0;
        assert!(avg > 24.0 && avg < 40.0, "average bit flips {avg}");
    }
}
