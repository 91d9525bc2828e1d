//! Timed layer kernels: the median over a fixed number of batches, each
//! long enough that the clock's resolution does not matter.

use std::time::{Duration, Instant};

use crate::stats::median;

/// Batches per kernel.
#[cfg(not(test))]
pub const BATCHES: usize = 11;
/// Minimum length of one batch. Ten milliseconds keeps the fifty-odd
/// kernels of a traced run to about ten seconds, which the driver's time
/// cap needs should most of its runs be traced.
#[cfg(not(test))]
pub const MIN_BATCH: Duration = Duration::from_millis(10);

// The self-tests check names and arithmetic, not timings: keep them short.
#[cfg(test)]
pub const BATCHES: usize = 3;
#[cfg(test)]
pub const MIN_BATCH: Duration = Duration::from_micros(500);

/// Median seconds per call of `op` over [`BATCHES`] batches of at least
/// [`MIN_BATCH`] each. The calls per batch are fixed by a calibration pass
/// before the first measured batch. `op` must pass its inputs and results
/// through `std::hint::black_box`.
pub fn secs_per_call(mut op: impl FnMut()) -> f64 {
    let mut calls = 1u64;
    loop {
        let took = batch(&mut op, calls);
        if took >= MIN_BATCH {
            break;
        }
        let scale = MIN_BATCH.as_secs_f64() / took.as_secs_f64().max(1e-9);
        calls = ((calls as f64 * scale * 1.2).ceil() as u64).max(calls * 2);
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| batch(&mut op, calls).as_secs_f64() / calls as f64)
        .collect();
    median(&samples)
}

fn batch(op: &mut impl FnMut(), calls: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..calls {
        op();
    }
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slower_ops_measure_slower() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..std::hint::black_box(n) {
                    x = x.wrapping_add(std::hint::black_box(i));
                }
                std::hint::black_box(x);
            }
        };
        let fast = secs_per_call(spin(100));
        let slow = secs_per_call(spin(10_000));
        assert!(fast > 0.0);
        assert!(slow > fast * 10.0, "fast {fast} slow {slow}");
    }
}
