//! Profiling records for Rocket (§4.3 of the paper).
//!
//! Rocket's runtime launches one thread (class) per resource — CPU pool, GPU
//! kernel launch, H2D copy, D2H copy, I/O — and an optional profiling flag
//! records every task each thread executes. The paper uses those records for
//! Fig 6 (timeline), Fig 8/10 (per-thread busy time), and Fig 14 (throughput
//! over time).
//!
//! There is one record stream: the [`perflog`]. Both engines write it
//! natively and a caller switches it on by passing an enabled [`PerfLog`];
//! [`chrome`] renders it for a trace viewer.
//!
//! [`json`] is the workspace's one JSON module (escaper, number policy,
//! lexer); it lives here, the lowest crate every report writer reaches.
//!
//! Timestamps are `u64` nanoseconds relative to the start of a run, which
//! lets the same machinery serve both the threaded runtime (wall-clock) and
//! the discrete-event simulator (virtual time).

#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod perflog;
pub mod throughput;

pub use perflog::{
    PerfClass, PerfKind, PerfLog, PerfMeta, PerfQuery, PerfRecord, PerfRollup, StageStats,
};
pub use throughput::ThroughputSeries;
