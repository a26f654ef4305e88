//! Reproducible random-number streams.
//!
//! Every experiment in the repository derives all of its randomness from a
//! single `u64` seed. A [`SeedSource`] turns that master seed into
//! independent named streams so that, for instance, the churn process and
//! the lookup workload draw from different generators — adding a consumer
//! of randomness to one subsystem cannot perturb another subsystem's draws.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A factory for independent, reproducible RNG streams.
///
/// Streams are identified by a string label
/// ([`stream`](SeedSource::stream)). The derivation is a SplitMix64
/// finalizer over the master seed XOR a hash of the label, which gives
/// well-distributed, decorrelated stream seeds.
///
/// # Example
///
/// ```
/// use rand::Rng;
/// use verme_sim::SeedSource;
///
/// let src = SeedSource::new(7);
/// let a: u64 = src.stream("churn").gen();
/// let b: u64 = src.stream("churn").gen();
/// let c: u64 = src.stream("lookups").gen();
/// assert_eq!(a, b); // same label, same stream
/// assert_ne!(a, c); // different labels, independent streams
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct SeedSource {
    seed: u64,
}

impl SeedSource {
    /// Creates a seed source from a master seed.
    pub const fn new(seed: u64) -> Self {
        SeedSource { seed }
    }

    /// The master seed this source was built from.
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns a reproducible RNG for the stream named `label`.
    pub fn stream(&self, label: &str) -> StdRng {
        StdRng::seed_from_u64(splitmix64(self.seed ^ fnv1a(label.as_bytes())))
    }

    /// Derives a new `SeedSource` for a child component.
    ///
    /// Useful when a harness runs several independent replications: each
    /// replication gets `source.derive(rep)` as its own master seed.
    pub fn derive(&self, idx: u64) -> SeedSource {
        SeedSource::new(splitmix64(self.seed ^ splitmix64(idx ^ 0xA076_1D64_78BD_642F)))
    }

    /// Draws a fresh random `u64` usable as an opaque unique token.
    pub fn token(&self, rng: &mut impl Rng) -> u64 {
        rng.gen()
    }
}

/// SplitMix64 finalizer: a fast, high-quality bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a hash of a byte string: label-based stream derivation
/// here, and wherever else a tiny, stable, dependency-free digest will do
/// (repro file names, pinned test fingerprints).
///
/// # Example
///
/// ```
/// use verme_sim::rng::fnv1a;
///
/// assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
/// assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Samples an exponentially distributed duration with the given mean.
///
/// This is the inter-arrival distribution the paper uses both for the lookup
/// workload (mean 30 s) and for node lifetimes (15 min – 8 h). A draw past
/// [`SimDuration::MAX`](crate::SimDuration::MAX) saturates there.
///
/// # Panics
///
/// Panics if `mean_secs` is not finite and positive.
pub fn exp_duration(rng: &mut impl Rng, mean_secs: f64) -> crate::SimDuration {
    assert!(
        mean_secs.is_finite() && mean_secs > 0.0,
        "exponential mean must be positive: {mean_secs}"
    );
    // Inverse CDF; 1 - u avoids ln(0).
    let u: f64 = rng.gen::<f64>();
    let secs = -mean_secs * (1.0 - u).ln();
    let cap = crate::SimDuration::MAX.as_secs_f64();
    crate::SimDuration::from_secs_f64(secs.min(mean_secs * 1e6).min(cap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_reproducible() {
        let s = SeedSource::new(1234);
        let xs: Vec<u64> =
            s.stream("a").sample_iter(rand::distributions::Standard).take(8).collect();
        let ys: Vec<u64> =
            s.stream("a").sample_iter(rand::distributions::Standard).take(8).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn streams_are_independent() {
        let s = SeedSource::new(1234);
        let a: u64 = s.stream("a").gen();
        let b: u64 = s.stream("b").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: u64 = SeedSource::new(1).stream("x").gen();
        let b: u64 = SeedSource::new(2).stream("x").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn derive_chains_are_distinct() {
        let root = SeedSource::new(99);
        let d0 = root.derive(0);
        let d1 = root.derive(1);
        assert_ne!(d0.seed(), d1.seed());
        assert_ne!(d0.seed(), root.seed());
    }

    #[test]
    fn exp_duration_mean_is_close() {
        let mut rng = SeedSource::new(5).stream("exp");
        let n = 20_000;
        let total: f64 = (0..n).map(|_| exp_duration(&mut rng, 30.0).as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - 30.0).abs() < 1.0, "empirical mean {mean} too far from 30");
    }

    #[test]
    #[should_panic(expected = "exponential mean must be positive")]
    fn exp_duration_rejects_bad_mean() {
        let mut rng = SeedSource::new(5).stream("exp");
        let _ = exp_duration(&mut rng, 0.0);
    }

    #[test]
    fn fnv_and_splitmix_are_stable() {
        // Pin the derivation so experiment seeds never silently change.
        assert_eq!(super::fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(super::splitmix64(0), 16294208416658607535);
    }
}
