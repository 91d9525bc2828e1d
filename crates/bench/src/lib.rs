//! Paper-figure reproduction harness and benchmark support for Rocket.
//!
//! Each table and figure of the paper's evaluation (§6) is an entry of
//! [`EXPERIMENTS`]; its `run` function returns the data — a study report carrying
//! the figure's text, and the figure's CSV series — and writes no file.
//! The `repro` binary runs them and writes a text report and the CSV
//! files per experiment under its output directory. The canonical
//! benchmark scenarios live in [`anchors`]; the repository's benchmark
//! (`BENCHMARK.json`) times them and every framework layer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod anchors;
pub mod experiments;
pub mod util;

pub use experiments::{ExpOptions, Experiment, Figure, EXPERIMENTS};
