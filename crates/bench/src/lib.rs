//! Paper-figure reproduction harness and benchmark support for Rocket.
//!
//! Each table and figure of the paper's evaluation (§6) has a driver in
//! [`experiments`]; the `repro` binary dispatches to them and writes both a
//! human-readable report and CSV series under `results/`. The canonical
//! benchmark scenarios live in [`anchors`]; the repository's benchmark
//! (`BENCHMARK.json`) times them and every framework layer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod anchors;
pub mod experiments;
pub mod util;

pub use experiments::{run_experiment, Experiment, ALL_EXPERIMENTS};
