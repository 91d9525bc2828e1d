//! Deterministic fast hashing for item-keyed tables.
//!
//! The slot cache and directory key their maps by small integer ids (item
//! ids, slot indices) on paths executed once or more per simulated event.
//! `std`'s default SipHash is DoS-resistant but an order of magnitude
//! slower than needed for trusted integer keys, and its per-map random
//! seed makes map internals differ run to run. [`FxHasher`] (the
//! Firefox/rustc polynomial hash) is deterministic and compiles to a few
//! multiply/rotate instructions per word — ideal for the simulator's
//! hot path, and harmless for the threaded runtime (keys are internal ids,
//! never attacker-controlled).

use std::hash::{BuildHasherDefault, Hasher};

/// The rustc/Firefox "Fx" hash: word-at-a-time multiply-rotate.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` producing [`FxHasher`]s; plug into `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the deterministic fast hasher.
#[expect(
    clippy::disallowed_types,
    reason = "std's table with a fixed hasher: iteration order is the same every run"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the deterministic fast hasher.
#[expect(
    clippy::disallowed_types,
    reason = "std's table with a fixed hasher: iteration order is the same every run"
)]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let hash = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        let hashes: Vec<u64> = (0..1000).map(hash).collect();
        let mut unique = hashes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), hashes.len(), "collision among small keys");
    }

    #[test]
    fn byte_stream_matches_any_chunking() {
        // write() must be consistent for the same logical bytes.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fx_hash_map_works() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
    }
}
