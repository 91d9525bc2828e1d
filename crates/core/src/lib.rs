//! The Rocket all-pairs framework (§3–§4 of the paper).
//!
//! Rocket executes a user-defined pairwise function over every pair of a
//! data set on (virtual) GPU platforms. Users implement the
//! [`Application`] trait — parse (CPU), pre-process (GPU), compare (GPU),
//! post-process (CPU) — describe the run as a [`Scenario`], and hand both
//! to [`ThreadedBackend::run_app`]; the runtime handles network
//! communication, data transfers, memory management, scheduling, data
//! reuse, load balancing, and overlapping computation with I/O.
//!
//! ```
//! use rocket_core::{Application, AppError, NodeSpec, Scenario, ThreadedBackend};
//! use rocket_core::Pair;
//! use rocket_storage::MemStore;
//! use std::sync::Arc;
//!
//! /// Sums byte values and compares totals — a toy distance function.
//! struct ByteSum;
//!
//! impl Application for ByteSum {
//!     type Output = i64;
//!     fn name(&self) -> &str { "bytesum" }
//!     fn item_count(&self) -> u64 { 4 }
//!     fn file_for(&self, item: u64) -> String { format!("{item}.bin") }
//!     fn parsed_bytes(&self) -> usize { 8 }
//!     fn item_bytes(&self) -> usize { 8 }
//!     fn result_bytes(&self) -> usize { 8 }
//!     fn has_preprocess(&self) -> bool { false }
//!     fn parse(&self, _item: u64, raw: &[u8], out: &mut [u8]) -> Result<(), AppError> {
//!         let sum: i64 = raw.iter().map(|&b| b as i64).sum();
//!         out[..8].copy_from_slice(&sum.to_le_bytes());
//!         Ok(())
//!     }
//!     fn compare(&self, left: (u64, &[u8]), right: (u64, &[u8]), out: &mut [u8])
//!         -> Result<(), AppError>
//!     {
//!         let l = i64::from_le_bytes(left.1[..8].try_into().unwrap());
//!         let r = i64::from_le_bytes(right.1[..8].try_into().unwrap());
//!         out[..8].copy_from_slice(&(l - r).to_le_bytes());
//!         Ok(())
//!     }
//!     fn postprocess(&self, _pair: Pair, raw: &[u8]) -> i64 {
//!         i64::from_le_bytes(raw[..8].try_into().unwrap())
//!     }
//! }
//!
//! let store = MemStore::from_iter((0..4).map(|i| (format!("{i}.bin"), vec![i as u8; 10])));
//! // One node with one GPU, 4 device-cache slots and 8 host-cache slots.
//! let scenario = Scenario::builder()
//!     .items(4)
//!     .node(NodeSpec::uniform(1, 4, 8))
//!     .job_limit(4)
//!     .build();
//! let backend = ThreadedBackend::new(Arc::new(ByteSum), Arc::new(store));
//! let report = backend.run_app(&scenario).unwrap();
//! assert_eq!(report.outputs.len(), 6); // C(4,2) pairs
//! assert!(report.failed.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the determinism set in clippy.toml binds library code; tests may time themselves"
    )
)]

pub mod app;
pub mod backend;
pub mod clock;
pub mod cluster;
pub mod codec;
pub mod engine;
pub mod error;
pub mod replications;
pub mod report;
pub mod scenario;
pub mod study;
pub mod sweep;
pub mod workload;

pub use app::{bytesutil, Application, Operand};
pub use backend::{Backend, ThreadedBackend};
pub use cluster::AppReport;
pub use error::{AppError, RocketError};
pub use replications::{AdaptiveReplications, ReplicationReport, Replications};
pub use report::{BusyTimes, RunReport};
pub use scenario::{NodeSpec, Scenario, ScenarioBuilder, MAX_SOCKET_NODES};
pub use study::{CellReport, ReplicationPolicy, Study, StudyReport};
pub use sweep::{Axis, AxisValue, Sweep, SweepBuilder, SweepCell};
pub use workload::WorkloadProfile;

// Re-export the types users need at the API boundary.
pub use rocket_cache::ItemId;
pub use rocket_comm::{CommSnapshot, TransportKind};
/// The lock-order sanitizer (`rocket_core::sanitize::Mutex` etc.).
/// Inert unless built with the workspace `sanitize` feature.
pub use rocket_sanitize as sanitize;
pub use rocket_steal::Pair;
/// The one JSON escaper, number policy and parser every report writer uses.
pub use rocket_trace::json;
pub use rocket_trace::{
    PerfClass, PerfKind, PerfLog, PerfMeta, PerfQuery, PerfRecord, PerfRollup, StageStats,
};
