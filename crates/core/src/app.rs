//! The user-facing application interface (the paper's Fig 3).
//!
//! An all-pairs application supplies four functions plus size metadata:
//!
//! | paper            | here              | resource |
//! |------------------|-------------------|----------|
//! | `parseFile`      | [`Application::parse`]       | CPU |
//! | `preprocessGPU`  | [`Application::preprocess`]  | GPU |
//! | `compareGPU`     | [`Application::compare`], [`Application::compare_batch`] | GPU |
//! | `postprocess`    | [`Application::postprocess`] | CPU |
//!
//! plus `getFilePathForKey` → [`Application::file_for`]. Rocket handles
//! everything else: I/O, transfers, caching, scheduling, load balancing,
//! and overlapping computation with data movement.
//!
//! "GPU" kernels receive raw byte slices resident in (virtual) device
//! memory; [`bytesutil`] offers safe f32/f64 view helpers since most
//! scientific payloads are float arrays.

use rocket_cache::ItemId;
use rocket_steal::Pair;

use crate::error::AppError;

/// One operand of a compare: the item and its pre-processed bytes.
pub type Operand<'a> = (ItemId, &'a [u8]);

/// An all-pairs application (the paper's Fig 3 interface).
///
/// Items are addressed by dense indices `0..n`. All stages must be pure
/// (deterministic, no shared mutable state) — determinism of `ℓ` is what
/// makes cached results reusable (§4).
pub trait Application: Send + Sync + 'static {
    /// Per-pair output delivered to the caller.
    type Output: Send + 'static;

    /// Human-readable application name (used in reports).
    fn name(&self) -> &str;

    /// Number of items in the data set.
    fn item_count(&self) -> u64;

    /// Storage key (file path) of an item — `getFilePathForKey`.
    fn file_for(&self, item: ItemId) -> String;

    /// Size in bytes of the *parsed* representation (CPU output, GPU
    /// pre-processing input).
    fn parsed_bytes(&self) -> usize;

    /// Size in bytes of the *pre-processed* item — this is the cache slot
    /// size at both the device and host levels (Table 1's "Cache Slot
    /// Size").
    fn item_bytes(&self) -> usize;

    /// Size in bytes of one comparison's raw result buffer.
    fn result_bytes(&self) -> usize;

    /// Whether the application has a GPU pre-processing stage. When
    /// `false` (e.g. the microscopy application), the parsed bytes *are*
    /// the item bytes and `preprocess` is never called.
    fn has_preprocess(&self) -> bool {
        true
    }

    /// CPU stage: decode the raw file into the parsed representation.
    /// `out` has length [`Application::parsed_bytes`].
    fn parse(&self, item: ItemId, raw: &[u8], out: &mut [u8]) -> Result<(), AppError>;

    /// GPU stage: transform parsed data into the comparable item form.
    /// `input` has length `parsed_bytes()`, `out` has `item_bytes()`.
    fn preprocess(&self, item: ItemId, input: &[u8], out: &mut [u8]) -> Result<(), AppError> {
        let _ = item;
        let n = out.len().min(input.len());
        out[..n].copy_from_slice(&input[..n]);
        Ok(())
    }

    /// GPU stage: compare two pre-processed items; `out` has
    /// `result_bytes()`.
    fn compare(
        &self,
        left: (ItemId, &[u8]),
        right: (ItemId, &[u8]),
        out: &mut [u8],
    ) -> Result<(), AppError>;

    /// GPU stage: compares a batch of pairs in one kernel launch, writing
    /// pair `k`'s result at `out[k * result_bytes()..]` and returning one
    /// `Result` per pair, so a failed pair fails alone. The runtime sends
    /// each GPU task of compares through this call; the default runs
    /// [`Application::compare`] on each pair in order. An override must
    /// give every pair the bits `compare` would.
    fn compare_batch(
        &self,
        pairs: &[(Operand, Operand)],
        out: &mut [u8],
    ) -> Vec<Result<(), AppError>> {
        let n = self.result_bytes();
        pairs
            .iter()
            .enumerate()
            .map(|(k, &(left, right))| self.compare(left, right, &mut out[k * n..(k + 1) * n]))
            .collect()
    }

    /// CPU stage: interpret the raw result buffer.
    fn postprocess(&self, pair: Pair, raw: &[u8]) -> Self::Output;
}

/// Byte-buffer view helpers for float payloads.
///
/// Copy-based (not transmuting), so they are alignment-safe on every
/// platform; the virtual device's buffers are plain host memory and these
/// conversions are a negligible share of kernel cost.
pub mod bytesutil {
    /// Writes `values` as little-endian f32s at the start of `out`.
    /// Panics if `out` is too small.
    pub fn write_f32(out: &mut [u8], values: &[f32]) {
        assert!(out.len() >= values.len() * 4, "buffer too small");
        for (chunk, v) in out.chunks_exact_mut(4).zip(values) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Reads `count` little-endian f32s from the start of `buf`.
    pub fn read_f32(buf: &[u8], count: usize) -> Vec<f32> {
        assert!(buf.len() >= count * 4, "buffer too small");
        buf.chunks_exact(4)
            .take(count)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::bytesutil::*;

    #[test]
    fn f32_roundtrip() {
        let vals = [1.5f32, -2.25, 0.0, f32::MAX];
        let mut buf = vec![0u8; 16];
        write_f32(&mut buf, &vals);
        assert_eq!(read_f32(&buf, 4), vals);
    }

    #[test]
    #[should_panic(expected = "buffer too small")]
    fn write_overflow_panics() {
        let mut buf = vec![0u8; 4];
        write_f32(&mut buf, &[1.0, 2.0]);
    }

    #[test]
    fn partial_reads() {
        let mut buf = vec![0u8; 12];
        write_f32(&mut buf, &[7.0, 8.0, 9.0]);
        assert_eq!(read_f32(&buf, 2), vec![7.0, 8.0]);
    }
}
