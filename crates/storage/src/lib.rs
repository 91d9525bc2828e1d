//! Object-storage substrate for Rocket — the stand-in for the paper's
//! Xenon library + MinIO central file server.
//!
//! Rocket's load pipeline `ℓ(i)` begins by reading the i-th input file from
//! (possibly remote) storage. The runtime only needs three operations —
//! list, size, read — expressed by the [`ObjectStore`] trait. Backends:
//!
//! * [`MemStore`] — in-memory objects (synthetic data sets, tests),
//! * [`DirStore`] — a directory on the local filesystem,
//! * [`FaultStore`] — deterministic failure injection for robustness tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
pub mod store;

pub use fault::FaultStore;
pub use store::{DirStore, MemStore, ObjectStore, StorageError};
