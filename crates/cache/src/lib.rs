//! Multi-level software caching for Rocket (§4.1 of the paper).
//!
//! Loading an item (`ℓ(i)`) is far more expensive than comparing two items
//! (`f(x, y)`) — 130 ms vs 1 ms for the paper's forensics application — so
//! Rocket caches load results at three levels of the distributed memory
//! hierarchy:
//!
//! 1. **device level** — per GPU, in device memory ([`SlotCache`] over device
//!    buffers),
//! 2. **host level** — per node, in page-locked host memory ([`SlotCache`]
//!    over host buffers), shared by all GPUs of the node,
//! 3. **cluster level** — a distributed lookup scheme ([`Directory`]) that
//!    lets a node fetch an item from a remote peer's host cache instead of
//!    re-executing the load pipeline.
//!
//! The slot cache implements the flow diagram of the paper's Fig 4: fixed
//! count of fixed-size slots, WRITE/READ states with reader counts, waiters
//! parked on in-flight writes, and LRU eviction. It is a *pure state
//! machine*: callers (the threaded runtime under a mutex, the discrete-event
//! simulator in virtual time) provide waiter tokens and deliver wake-ups,
//! which is what lets both execution engines share one policy implementation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod directory;
pub mod fxhash;
pub mod lru;
pub mod slot;
pub mod stats;

pub use directory::{
    Directory, DirectoryMsg, DirectoryStats, HopChain, NodeId, Resolution, MAX_HOPS,
};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use lru::LruList;
pub use slot::{ItemId, Lookup, SlotCache, SlotIdx};
pub use stats::CacheStats;
