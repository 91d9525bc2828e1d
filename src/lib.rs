//! # Rocket — efficient and scalable all-pairs computations
//!
//! A Rust reproduction of *"Rocket: Efficient and Scalable All-Pairs
//! Computations on Heterogeneous Platforms"* (Heldens et al., SC 2020).
//!
//! All-pairs compute problems evaluate a user-defined function
//! `f(ℓ(i), ℓ(j))` for every pair `1 ≤ i < j ≤ n` of a data set, where `ℓ`
//! loads and pre-processes item `i`. Rocket executes such problems on
//! (heterogeneous, multi-GPU, multi-node) platforms with:
//!
//! * a three-level software cache (device → host → distributed) maximizing
//!   reuse of expensive loads,
//! * divide-and-conquer decomposition of the pair triangle with hierarchical
//!   random work-stealing for dynamic load balance,
//! * fully asynchronous processing: one thread class per resource so I/O,
//!   transfers, and kernels overlap.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | the framework: [`core::Application`] trait, [`core::Scenario`], runtime |
//! | [`apps`] | forensics / bioinformatics / microscopy applications |
//! | [`cache`] | slot caches and the distributed cache directory |
//! | [`steal`] | quadrant decomposition + work-stealing scheduler |
//! | [`comm`] | cluster transports: local channels and TCP sockets |
//! | [`cluster`] | multi-process driver/worker backend, fault tolerant |
//! | [`gpu`] | virtual GPU device model |
//! | [`storage`] | object storage substrate |
//! | [`sim`] | discrete-event cluster simulator + performance model |
//! | [`trace`] | the perf log and its Chrome export |
//! | [`stats`] | deterministic RNG, distributions, summaries |
//!
//! ## Quickstart
//!
//! Execution is driven by the unified `Scenario`/`Backend` API: a
//! [`core::Scenario`] declaratively describes workload, cluster topology,
//! and runtime knobs; any [`core::Backend`] (the threaded runtime via
//! [`core::ThreadedBackend`], the simulator via [`sim::SimBackend`]) runs
//! it into one [`core::RunReport`], and [`core::Replications`] fans a
//! scenario out over N seeds with confidence intervals. Parameter sweeps
//! are first-class: a [`Sweep`] expands a base scenario over named
//! [`Axis`] values into a validated grid and a [`Study`] drives it
//! through any backend into a structured [`StudyReport`] (one record per
//! cell, tagged with its coordinates). See `examples/quickstart.rs` and
//! `examples/cluster_scaling.rs` for complete runnable programs; the
//! short version:
//!
//! ```
//! use rocket::core::{Backend, NodeSpec, Scenario};
//! use rocket::sim::SimBackend;
//! // One node × one GPU, 16 device slots, 64 host slots, 32-item toy set.
//! let scenario = Scenario::builder()
//!     .items(32)
//!     .node(NodeSpec::uniform(1, 16, 64))
//!     .job_limit(32)
//!     .build();
//! assert_eq!(scenario.total_gpus(), 1);
//! let report = SimBackend::new().run(&scenario).unwrap();
//! assert_eq!(report.pairs, 32 * 31 / 2);
//!
//! // The same scenario swept over a node-count axis, one report per cell:
//! use rocket::{Axis, Study, Sweep};
//! let sweep = Sweep::over(scenario)
//!     .axis(Axis::nodes([1, 2, 4]))
//!     .try_build()
//!     .unwrap();
//! let study = Study::new("scaling").run(&SimBackend::new(), &sweep).unwrap();
//! assert_eq!(study.cells.len(), 3);
//! ```

#![forbid(unsafe_code)]

// The sweep/study driver types at the crate root: parameter grids are the
// primary way experiments are expressed (see `core::Sweep`/`core::Study`).
pub use rocket_core::{Axis, AxisValue, CellReport, ReplicationPolicy, Study, StudyReport, Sweep};

pub use rocket_apps as apps;
pub use rocket_cache as cache;
pub use rocket_cluster as cluster;
pub use rocket_comm as comm;
pub use rocket_core as core;
pub use rocket_gpu as gpu;
pub use rocket_sim as sim;
pub use rocket_stats as stats;
pub use rocket_steal as steal;
pub use rocket_storage as storage;
pub use rocket_trace as trace;
