//! Deterministic fault injection for robustness testing.
//!
//! [`FaultStore`] wraps any [`ObjectStore`] and fails every Nth read, which
//! models the flaky shared file server Rocket must tolerate. The runtime
//! absorbs such failures by restarting the failed item's load pipeline.

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;

use crate::store::{ObjectStore, Result, StorageError};

/// Wraps a store and fails every `period`-th read (1-indexed: with
/// `period = 3`, reads 3, 6, 9, … fail). Writes pass through.
///
/// Failures are transient — retrying the same key succeeds unless the retry
/// itself lands on a failing tick.
pub struct FaultStore<S> {
    inner: S,
    period: u64,
    reads: AtomicU64,
}

impl<S: ObjectStore> FaultStore<S> {
    /// Creates a wrapper failing every `period`-th read; `period = 0`
    /// disables injection.
    pub fn every(inner: S, period: u64) -> Self {
        Self {
            inner,
            period,
            reads: AtomicU64::new(0),
        }
    }

    /// Number of reads attempted so far.
    pub fn attempts(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

impl<S: ObjectStore> ObjectStore for FaultStore<S> {
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn size(&self, key: &str) -> Result<u64> {
        self.inner.size(key)
    }

    fn read(&self, key: &str) -> Result<Bytes> {
        let n = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        if self.period != 0 && n.is_multiple_of(self.period) {
            return Err(StorageError::Unavailable(format!(
                "injected fault on read #{n} (key {key})"
            )));
        }
        self.inner.read(key)
    }

    fn write(&self, key: &str, data: Bytes) -> Result<()> {
        self.inner.write(key, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn base() -> MemStore {
        MemStore::from_iter([("k", vec![9u8; 4])])
    }

    #[test]
    fn fails_on_schedule() {
        let s = FaultStore::every(base(), 3);
        assert!(s.read("k").is_ok());
        assert!(s.read("k").is_ok());
        assert!(s.read("k").is_err());
        assert!(s.read("k").is_ok());
        assert_eq!(s.attempts(), 4);
    }

    #[test]
    fn zero_period_never_fails() {
        let s = FaultStore::every(base(), 0);
        for _ in 0..10 {
            assert!(s.read("k").is_ok());
        }
    }

    #[test]
    fn size_and_list_unaffected() {
        let s = FaultStore::every(base(), 1);
        assert_eq!(s.list(), vec!["k"]);
        assert_eq!(s.size("k").unwrap(), 4);
        // Every read fails with period 1.
        assert!(s.read("k").is_err());
    }

    #[test]
    fn writes_pass_through() {
        let s = FaultStore::every(base(), 1);
        for i in 0..5 {
            assert!(s.write(&format!("w{i}"), Bytes::from_static(b"x")).is_ok());
        }
        assert_eq!(s.size("w4").unwrap(), 1);
        assert_eq!(s.attempts(), 0);
    }
}
