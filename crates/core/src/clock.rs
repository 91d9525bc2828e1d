//! The sanctioned wall-clock shim of the engine crates.
//!
//! The determinism bar (byte-identical results across thread counts,
//! transports, and worker loss) means engine code must not consult the
//! wall clock: `rocket-lint` rule `RL-D002` forbids `Instant::now` /
//! `SystemTime` in `crates/sim`, `crates/core`, and `crates/steal`.
//! Wall-clock *measurement* is still legitimate — `RunReport::elapsed` on
//! the threaded runtime is real time by definition — so every such read
//! funnels through this module, which is the single file the lint
//! allowlists (`[determinism] allow_files` in `lint.toml`). That keeps
//! the audit surface one screen long: anything measured here may feed
//! reporting, never scheduling or results.

use std::time::{Duration, Instant};

/// A running stopwatch; obtain one with [`stopwatch`].
///
/// The inner `Instant` is private so engine code cannot smuggle it into
/// ordering decisions — the only observable is [`Stopwatch::elapsed`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Wall-clock time since the stopwatch was started.
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// `elapsed` as nanoseconds (the unit perf-log records carry).
    pub fn elapsed_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// `elapsed` as seconds (the unit `RunReport::elapsed` carries).
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Starts a stopwatch for measuring a run's wall-clock duration.
pub fn stopwatch() -> Stopwatch {
    Stopwatch(Instant::now())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_moves_forward() {
        let sw = stopwatch();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed() >= Duration::from_millis(1));
        assert!(sw.elapsed_secs() > 0.0);
    }
}
