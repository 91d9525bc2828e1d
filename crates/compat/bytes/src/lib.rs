//! Offline stand-in for the `bytes` crate: [`Bytes`] only.
//!
//! The build environment has no network registry, so the workspace vendors
//! the one type Rocket uses: [`Bytes`], a cheaply clonable, sliceable
//! immutable buffer over an `Arc`. As in the real crate, `Bytes::clone`
//! and `Bytes::slice` are O(1) reference bumps, never copies. Encoders
//! build plain `Vec<u8>`s and convert them with `Bytes::from`.
//!
//! `Bytes` could become an `Arc<[u8]>` view inside `rocket-comm` and this
//! crate go, but `benchmark/` imports `bytes::Bytes` itself and its
//! `Cargo.lock` pins that edge, so deleting the crate waits on a change
//! that may edit `benchmark/`.

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

    /// O(1) sub-slice sharing the same backing allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.end - self.start;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(lo <= hi && hi <= len, "slice {lo}..{hi} out of range");
        Self {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}
impl Eq for Bytes {}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_share_backing() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let tail = b.slice(2..);
        assert_eq!(*tail, [3, 4, 5]);
        let mid = tail.slice(1..=1);
        assert_eq!(*mid, [4]);
        assert_eq!(mid.as_ptr(), b[3..].as_ptr());
        assert!(b.slice(5..).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_past_the_end_panics() {
        let _ = Bytes::from_static(b"abc").slice(1..4);
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let a = Bytes::from(vec![9u8; 1000]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(b[999], 9);
        assert_eq!(format!("{:?}", Bytes::from_static(b"a\n")), "b\"a\\n\"");
    }
}
