//! Locality-aware work scheduling for Rocket (§4.2 of the paper) — the
//! stand-in for the Constellation work-stealing platform.
//!
//! The workload — all pairs `(i, j)` with `1 ≤ i < j ≤ n` — is the upper
//! triangle of an `n × n` matrix. [`block::Block`] represents a rectangular
//! piece of that triangle and splits recursively into quadrants (the paper's
//! Fig 5); processing blocks depth-first gives the data locality that makes
//! the caches effective, because neighbouring pairs share items.
//!
//! Load balancing is hierarchical random work-stealing:
//!
//! * workers pop their *newest, smallest* local task (depth-first descent),
//! * thieves steal the *oldest, largest* task — most work per steal,
//! * victims on the same node are preferred over remote nodes,
//! * a concurrent-job limit ([`limiter::JobLimiter`]) applies back-pressure
//!   so one fast worker cannot claim the whole matrix.
//!
//! [`deque::TaskDeque`] captures the pop-newest/steal-oldest policy as plain
//! data (shared with the simulator); [`pool::StealPool`] is the threaded
//! execution engine built on `crossbeam-deque`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod block;
pub mod deque;
pub mod limiter;
pub mod pool;

pub use block::{Block, Pair};
pub use deque::TaskDeque;
pub use limiter::JobLimiter;
pub use pool::{StealPool, StealPoolConfig, StealStats, WorkerTopology};
