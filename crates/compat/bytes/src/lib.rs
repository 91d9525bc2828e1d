//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no network registry, so the workspace vendors
//! the small API subset Rocket actually uses: [`Bytes`] (cheaply clonable,
//! sliceable immutable buffers over an `Arc`), [`BytesMut`] (a growable
//! builder), and the [`Buf`]/[`BufMut`] cursor traits. Semantics match the
//! real crate for this subset — `Bytes::clone` and `Bytes::slice` are O(1)
//! reference bumps, never copies — so swapping the real dependency back in
//! requires only a manifest change.

#![forbid(unsafe_code)]

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable, contiguous, immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer over a static byte string (copied once; the real crate
    /// borrows, but the observable behaviour is identical).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::from(bytes.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// O(1) sub-slice sharing the same backing allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of range"
        );
        Self {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Self {
        assert!(at <= self.len(), "split_to out of range");
        let head = self.slice(..at);
        self.start += at;
        head
    }

    /// Copies the contents into a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Self {
            data: v.into(),
            start: 0,
            end: len,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Self::from(s.to_vec())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Self::from(s.as_bytes().to_vec())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Self::from(s.into_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer used to build up a [`Bytes`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Freezes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Appends a byte slice.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf.extend_from_slice(extend);
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let rest = self.buf.split_off(at);
        BytesMut {
            buf: std::mem::replace(&mut self.buf, rest),
        }
    }

    /// Splits off and returns the bytes from `at` on; `self` keeps the
    /// first `at` bytes.
    pub fn split_off(&mut self, at: usize) -> BytesMut {
        BytesMut {
            buf: self.buf.split_off(at),
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

/// Read cursor over a byte buffer: every `get_*` consumes from the front.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// Consumes and returns the next byte. Panics if empty.
    fn get_u8(&mut self) -> u8;
    /// Consumes a little-endian `u32`. Panics on underflow.
    fn get_u32_le(&mut self) -> u32;
    /// Consumes a little-endian `u64`. Panics on underflow.
    fn get_u64_le(&mut self) -> u64;
    /// Skips `n` bytes. Panics on underflow.
    fn advance(&mut self, n: usize);
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        self.start += 1;
        v
    }

    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self[..4].try_into().unwrap());
        self.start += 4;
        v
    }

    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self[..8].try_into().unwrap());
        self.start += 8;
        v
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end");
        self.start += n;
    }
}

/// Write cursor appending to the end of a buffer.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Appends a byte slice.
    fn put_slice(&mut self, v: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_slicing() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u32_le(0xDEADBEEF);
        w.put_u64_le(42);
        w.put_slice(b"xyz");
        let mut b = w.freeze();
        assert_eq!(b.len(), 1 + 4 + 8 + 3);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32_le(), 0xDEADBEEF);
        assert_eq!(b.get_u64_le(), 42);
        assert_eq!(b.as_ref(), b"xyz");
    }

    #[test]
    fn split_and_slice_share_backing() {
        let mut b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(head.as_ref(), &[1, 2]);
        assert_eq!(b.as_ref(), &[3, 4, 5]);
        let mid = b.slice(1..2);
        assert_eq!(mid.as_ref(), &[4]);
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let a = Bytes::from(vec![9u8; 1000]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b[999], 9);
    }
}
