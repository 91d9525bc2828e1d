//! Deterministic pseudo-random number generation.
//!
//! The workspace standardizes on `xoshiro256**` seeded via SplitMix64, a
//! fixed algorithm, so a seed gives the same stream on every build.
//! [`SeedSequence`] derives statistically
//! independent child seeds so each node / worker / generator in a simulation
//! gets its own stream.

/// SplitMix64 step: used to expand a single `u64` seed into a full
/// `xoshiro256**` state, as recommended by the xoshiro authors.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `xoshiro256**` generator (Blackman & Vigna). 256 bits of state, period
/// 2^256 − 1, passes BigCrush; more than adequate for simulation workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a single `u64` seed via SplitMix64 expansion.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // An all-zero state would be a fixed point; SplitMix64 cannot produce
        // four consecutive zeros, but guard anyway for safety.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Advances the generator and returns the next 64 random bits.
    ///
    /// Deliberately named like (but distinct from) `Iterator::next`: this
    /// is the conventional name for a raw generator step and the type does
    /// not implement `Iterator`.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `usize` in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    #[inline]
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0) is meaningless");
        let bound = bound as u64;
        loop {
            let x = self.next();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as usize;
            }
            // Rejection zone: only taken when low < bound.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    /// Uniform `u64` in `[lo, hi)`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below((hi - lo) as usize) as u64
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Derives independent child seeds from a root seed.
///
/// Each `(root, label)` pair maps to a distinct stream; labels are hashed so
/// that adding a component never perturbs the streams of existing ones —
/// essential for comparing simulator configurations under a fixed seed.
#[derive(Debug, Clone)]
pub struct SeedSequence {
    root: u64,
}

impl SeedSequence {
    /// Creates a sequence rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { root: seed }
    }

    /// Returns the root seed.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Derives the child seed for a string label (FNV-1a mixed with the root).
    pub fn derive(&self, label: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.root;
        for &b in label.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut s = h;
        splitmix64(&mut s)
    }

    /// Derives the child seed for a `(label, index)` pair, e.g. per node.
    pub fn derive_indexed(&self, label: &str, index: u64) -> u64 {
        let mut s = self.derive(label) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix64(&mut s)
    }

    /// Convenience: a generator for a string label.
    pub fn rng(&self, label: &str) -> Xoshiro256 {
        Xoshiro256::seed_from(self.derive(label))
    }

    /// Convenience: a generator for a `(label, index)` pair.
    pub fn rng_indexed(&self, label: &str, index: u64) -> Xoshiro256 {
        Xoshiro256::seed_from(self.derive_indexed(label, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Xoshiro256::seed_from(42);
        let mut b = Xoshiro256::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::seed_from(1);
        let mut b = Xoshiro256::seed_from(2);
        let same = (0..64).filter(|_| a.next() == b.next()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from(7);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = Xoshiro256::seed_from(11);
        let mut counts = [0usize; 7];
        let trials = 70_000;
        for _ in 0..trials {
            counts[rng.below(7)] += 1;
        }
        let expected = trials / 7;
        for &c in &counts {
            assert!(
                (c as i64 - expected as i64).abs() < (expected as i64) / 10,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn below_respects_bound_one() {
        let mut rng = Xoshiro256::seed_from(3);
        for _ in 0..100 {
            assert_eq!(rng.below(1), 0);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256::seed_from(9);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn seed_sequence_labels_independent() {
        let seq = SeedSequence::new(1234);
        assert_ne!(seq.derive("a"), seq.derive("b"));
        assert_ne!(seq.derive_indexed("node", 0), seq.derive_indexed("node", 1));
        // Stable: the same label always yields the same seed.
        assert_eq!(seq.derive("node"), seq.derive("node"));
    }

    #[test]
    fn range_u64_endpoints() {
        let mut rng = Xoshiro256::seed_from(21);
        for _ in 0..1000 {
            let x = rng.range_u64(10, 20);
            assert!((10..20).contains(&x));
        }
    }
}
