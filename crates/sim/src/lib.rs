//! Discrete-event cluster simulator and performance model for Rocket.
//!
//! The paper's evaluation runs on DAS-5 and the Cartesius supercomputer
//! with up to 96 GPUs — hardware this reproduction does not have. The
//! simulator substitutes for that testbed: it executes the *same* policy
//! code as the threaded runtime (slot caches, distributed-cache directory,
//! quadrant work-stealing) over a modelled cluster — GPUs with relative
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
//! * [`cluster`] — the simulated Rocket cluster: [`cluster::simulate`]
//!   turns a [`cluster::SimConfig`] into a [`cluster::SimResult`] with the
//!   run time, R factor, per-resource busy times, hop statistics, and I/O
//!   usage that the paper's figures report,
//! * `shard` — the conservative time-window parallel event engine:
//!   nodes partition into `SimConfig::shards` shards advancing in
//!   lock-step windows of the network-latency lookahead on the steal
//!   pool, with results byte-identical to the sequential engine,
//! * [`backend`] — [`SimBackend`], the [`rocket_core::Backend`]
//!   implementation that runs a [`rocket_core::Scenario`] on the simulator
//!   and reports a unified [`rocket_core::RunReport`],
//! * [`model`] — §6.1's Equations 1–5 (T_GPU, T_CPU, T_IO, T_min, system
//!   efficiency).

#![warn(missing_docs)]

pub mod backend;
pub mod cluster;
pub mod engine;
pub mod model;
pub mod server;
mod shard;

pub use backend::SimBackend;
pub use cluster::{simulate, SimConfig, SimNodeConfig, SimResult};
pub use engine::{ns_to_secs, secs_to_ns, CalendarQueue, EventQueue, SimTime, SlabEventQueue};
pub use model::{capacity, system_efficiency, t_cpu, t_gpu, t_io, t_min, t_model};
pub use server::{Engine, Pool};
