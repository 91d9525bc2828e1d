//! Multi-process cluster execution for Rocket sweeps.
//!
//! This crate turns the in-process `Scenario`/`Backend` driver API into a
//! real distributed deployment: a **driver** process (rank 0) owning a
//! [`ClusterBackend`], and **worker** processes (ranks 1..p) running
//! [`serve`] around any in-process backend — the simulator, typically.
//! Scenarios and reports travel over the length-prefixed wire protocol
//! (`rocket_core::codec`), so a `Study` drives a multi-process sweep
//! exactly as it drives a local one.
//!
//! The point of the crate is surviving worker loss: heartbeat liveness,
//! bounded-retry connects, re-dealing of lost workers' jobs with
//! duplicate suppression, per-job timeouts, and graceful degradation to
//! partial (flagged) reports below quorum. See [`driver`] for the exact
//! ordering of those mechanisms.
//!
//! | module | contents |
//! |---|---|
//! | [`protocol`] | the driver ↔ worker frame protocol |
//! | [`driver`] | [`ClusterBackend`], options, fault events |
//! | [`worker`] | [`serve`]: the worker process main loop |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod protocol;
pub mod worker;

pub use driver::{ClusterBackend, ClusterEvent, ClusterOptions};
pub use protocol::{ToDriver, ToWorker, DRIVER_RANK, PROTOCOL_VERSION};
pub use worker::{serve, ServeReport};
