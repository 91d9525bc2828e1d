//! Discrete-event cluster simulator and performance model for Rocket.
//!
//! The paper's evaluation runs on DAS-5 and the Cartesius supercomputer
//! with up to 96 GPUs — hardware this reproduction does not have. The
//! simulator substitutes for that testbed: each simulated node runs the
//! threaded runtime's own per-node state machine,
//! [`rocket_core::engine::NodeCore`] (slot caches, fill pipeline,
//! distributed-cache directory), beside the same quadrant work-stealing,
//! over a modelled cluster — GPUs with relative
//! compute scales and PCIe links, a shared central storage pipe, per-node
//! NICs — in deterministic virtual time. Stage durations are sampled from
//! the paper's Table 1 / Fig 7 statistics (`rocket_apps::profiles`).
//!
//! Modules:
//!
//! * [`engine`] — deterministic event scheduling over virtual nanoseconds:
//!   the [`EventQueue`] trait and [`SlabEventQueue`], the one queue the
//!   engine runs on,
//! * [`server`] — FIFO engines and k-server pools,
//! * `cluster` — the simulated Rocket cluster's per-node servers and work
//!   tables, and the three timing models in which it differs from the
//!   threaded runtime's conductor,
//! * `shard` — the event engine: a conservative time-window design whose
//!   nodes partition into `K` shards advancing in lock-step windows of
//!   the network-latency lookahead on the steal pool, with results
//!   byte-identical to the sequential (`K = 1`) engine; it folds the run
//!   into the run time, R factor, per-resource busy times, hop statistics
//!   and I/O usage that the paper's figures report,
//! * [`backend`] — [`SimBackend`], the [`rocket_core::Backend`]
//!   implementation and the only way to run the simulator: it runs a
//!   [`rocket_core::Scenario`] on `K` shards and reports a unified
//!   [`rocket_core::RunReport`],
//! * [`model`] — §6.1's Equations 1–5 (T_GPU, T_CPU, T_IO, T_min, system
//!   efficiency).

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

pub mod backend;
mod cluster;
pub mod engine;
pub mod model;
pub mod server;
mod shard;

pub use backend::SimBackend;
pub use engine::{ns_to_secs, secs_to_ns, CalendarQueue, EventQueue, SimTime, SlabEventQueue};
pub use model::{capacity, system_efficiency, t_cpu, t_gpu, t_io, t_min, t_model};
pub use server::{Engine, Pool};
