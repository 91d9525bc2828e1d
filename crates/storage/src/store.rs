//! The [`ObjectStore`] trait and the in-memory backend.

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;
use rocket_sanitize::RwLock;

/// Errors produced by storage backends.
#[derive(Debug)]
pub enum StorageError {
    /// The requested object does not exist.
    NotFound(String),
    /// The store rejected the request (e.g. injected fault).
    Unavailable(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound(key) => write!(f, "object not found: {key}"),
            StorageError::Unavailable(why) => write!(f, "storage unavailable: {why}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

/// An object store keyed by string paths.
///
/// Implementations must be thread-safe: Rocket's I/O thread and tests hit
/// stores concurrently. Reads are the primary operation; stores that can
/// persist results additionally override [`write`](ObjectStore::write)
/// (the default rejects writes as `Unavailable`).
pub trait ObjectStore: Send + Sync {
    /// Lists all object keys (sorted).
    fn list(&self) -> Vec<String>;

    /// Returns an object's size in bytes without reading it.
    fn size(&self, key: &str) -> Result<u64>;

    /// Reads an entire object.
    fn read(&self, key: &str) -> Result<Bytes>;

    /// Writes (or replaces) an entire object. Read-only stores keep the
    /// default, which fails with [`StorageError::Unavailable`].
    fn write(&self, key: &str, _data: Bytes) -> Result<()> {
        Err(StorageError::Unavailable(format!(
            "read-only store rejects write of {key}"
        )))
    }

    /// Sum of all object sizes ("size of raw data on disk", Table 1).
    fn total_bytes(&self) -> u64 {
        self.list().iter().filter_map(|k| self.size(k).ok()).sum()
    }
}

/// In-memory object store. Cheap clones of stored [`Bytes`] make reads
/// zero-copy.
#[derive(Debug)]
pub struct MemStore {
    objects: RwLock<BTreeMap<String, Bytes>>,
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self {
            objects: RwLock::named("objects", BTreeMap::new()),
        }
    }

    /// Inserts (or replaces) an object.
    pub fn put(&self, key: impl Into<String>, data: impl Into<Bytes>) {
        self.objects.write().insert(key.into(), data.into());
    }

    /// Builds a store from an iterator of `(key, bytes)` pairs.
    ///
    /// Not `FromIterator`: the generic `(K, V)` bounds (rather than a fixed
    /// item type) make an inherent constructor clearer at call sites.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<K, V>(items: impl IntoIterator<Item = (K, V)>) -> Self
    where
        K: Into<String>,
        V: Into<Bytes>,
    {
        let store = Self::new();
        for (k, v) in items {
            store.put(k, v);
        }
        store
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.read().len()
    }

    /// True if the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ObjectStore for MemStore {
    fn list(&self) -> Vec<String> {
        self.objects.read().keys().cloned().collect()
    }

    fn size(&self, key: &str) -> Result<u64> {
        self.objects
            .read()
            .get(key)
            .map(|b| b.len() as u64)
            .ok_or_else(|| StorageError::NotFound(key.to_string()))
    }

    fn read(&self, key: &str) -> Result<Bytes> {
        self.objects
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(key.to_string()))
    }

    fn write(&self, key: &str, data: Bytes) -> Result<()> {
        self.put(key, data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memstore_roundtrip() {
        let s = MemStore::new();
        s.put("a.bin", vec![1, 2, 3]);
        s.put("b.bin", vec![4; 10]);
        assert_eq!(s.list(), vec!["a.bin", "b.bin"]);
        assert_eq!(s.size("a.bin").unwrap(), 3);
        assert_eq!(s.read("a.bin").unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(s.total_bytes(), 13);
    }

    #[test]
    fn memstore_missing_key() {
        let s = MemStore::new();
        assert!(matches!(s.read("nope"), Err(StorageError::NotFound(_))));
        assert!(matches!(s.size("nope"), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn memstore_from_iter() {
        let s = MemStore::from_iter([("x", vec![0u8; 4]), ("y", vec![1u8; 2])]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn memstore_write_roundtrip() {
        let s = MemStore::new();
        s.write("w.bin", Bytes::from_static(b"abc")).unwrap();
        assert_eq!(s.read("w.bin").unwrap().as_ref(), b"abc");
    }

    #[test]
    fn default_write_rejects() {
        struct ReadOnly;
        impl ObjectStore for ReadOnly {
            fn list(&self) -> Vec<String> {
                Vec::new()
            }
            fn size(&self, key: &str) -> Result<u64> {
                Err(StorageError::NotFound(key.into()))
            }
            fn read(&self, key: &str) -> Result<Bytes> {
                Err(StorageError::NotFound(key.into()))
            }
        }
        assert!(matches!(
            ReadOnly.write("k", Bytes::new()),
            Err(StorageError::Unavailable(_))
        ));
    }
}
