//! Offline stand-in for the `rand` crate.
//!
//! Provides the trait surface Rocket implements ([`RngCore`],
//! [`SeedableRng`], [`Rng`]) and a deterministic [`rngs::StdRng`]. The real
//! crate documents `StdRng`'s algorithm as unspecified and explicitly not
//! reproducible across versions, so substituting a xoshiro256++ generator
//! here is within contract; everything Rocket relies on for determinism goes
//! through its own seeded `Xoshiro256` in `rocket-stats` anyway.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Error type for fallible RNG operations (never produced by Rocket's
/// deterministic generators; present for trait compatibility).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rng error")
    }
}

impl std::error::Error for Error {}

/// Core random-number generation: raw 32/64-bit words and byte filling.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Fallible byte filling (infallible for in-memory generators).
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Creates a generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates a generator from a `u64`, expanding via SplitMix64 like the
    /// real crate.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Convenience sampling methods layered over [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform `usize` in `range` (Lemire rejection, unbiased).
    fn gen_range(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range");
        let span = (range.end - range.start) as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(span as u128);
            let low = m as u64;
            if low >= span || low >= span.wrapping_neg() % span {
                return range.start + (m >> 64) as usize;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic standard generator: xoshiro256++ (Blackman & Vigna).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            let mut chunks = dest.chunks_exact_mut(8);
            for chunk in &mut chunks {
                chunk.copy_from_slice(&self.next_u64().to_le_bytes());
            }
            let rem = chunks.into_remainder();
            if !rem.is_empty() {
                let bytes = self.next_u64().to_le_bytes();
                rem.copy_from_slice(&bytes[..rem.len()]);
            }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                *word = u64::from_le_bytes(seed[i * 8..(i + 1) * 8].try_into().unwrap());
            }
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            Self { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.gen_range(5..17);
            assert!((5..17).contains(&x));
        }
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
