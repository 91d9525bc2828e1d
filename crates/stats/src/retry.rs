//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! The socket transport dials peers that may still be booting: a bounded
//! number of attempts, exponentially growing delays, and a fixed-seed
//! jitter so every run backs off identically. [`Retry`] is that policy.
//! (Failed storage reads are not retried here: the runtime restarts the
//! whole load pipeline of a failed item instead.)

use std::time::Duration;

use crate::rng::splitmix64;

/// A bounded exponential-backoff retry policy with deterministic jitter.
///
/// The delay before attempt `k` (zero-indexed; no delay precedes attempt 0)
/// is `min(base * factor^(k-1), cap)`, scaled by a jitter factor drawn
/// uniformly from `[1 - jitter, 1 + jitter]` using a seeded `splitmix64`
/// stream — two policies built with the same parameters produce the same
/// delay schedule.
///
/// ```
/// use rocket_stats::Retry;
/// use std::time::Duration;
///
/// let policy = Retry::new(4, Duration::from_millis(10));
/// let delays = policy.delays();
/// assert_eq!(delays.len(), 3); // attempts 1..4 each wait before running
/// assert_eq!(delays, Retry::new(4, Duration::from_millis(10)).delays());
/// ```
#[derive(Debug, Clone)]
pub struct Retry {
    attempts: u32,
    base: Duration,
    factor: f64,
    cap: Duration,
    jitter: f64,
}

/// Seed of the jitter stream.
const JITTER_SEED: u64 = 0x5EED_BACC_0FF5;

impl Retry {
    /// A policy of `attempts` total tries with delays doubling from `base`,
    /// capped at 100× the base, with ±25% jitter.
    pub fn new(attempts: u32, base: Duration) -> Self {
        Self {
            attempts,
            base,
            factor: 2.0,
            cap: base.saturating_mul(100),
            jitter: 0.25,
        }
    }

    /// Sets the multiplicative backoff factor (default 2.0).
    pub fn factor(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "backoff factor must be >= 1");
        self.factor = factor;
        self
    }

    /// Sets the maximum single delay (default 100× the base).
    pub fn cap(mut self, cap: Duration) -> Self {
        self.cap = cap;
        self
    }

    /// Sets the jitter fraction in `[0, 1)`; each delay is scaled by a
    /// factor drawn from `[1 - jitter, 1 + jitter]` (default 0.25).
    pub fn jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        self.jitter = jitter;
        self
    }

    /// Total number of attempts (at least one operation runs).
    pub fn attempts(&self) -> u32 {
        self.attempts.max(1)
    }

    /// The full jittered delay schedule: `attempts - 1` entries, where entry
    /// `i` is the wait before attempt `i + 1`.
    pub fn delays(&self) -> Vec<Duration> {
        let mut state = JITTER_SEED;
        (1..self.attempts())
            .map(|k| {
                let raw = self.base.as_secs_f64() * self.factor.powi(k as i32 - 1);
                let raw = raw.min(self.cap.as_secs_f64());
                let u = splitmix64(&mut state) as f64 / u64::MAX as f64;
                let scale = 1.0 - self.jitter + 2.0 * self.jitter * u;
                Duration::from_secs_f64(raw * scale)
            })
            .collect()
    }

    /// Runs `op` under this policy, sleeping between attempts. Returns the
    /// first `Ok`, or the last error once attempts are exhausted.
    pub fn run<T, E>(&self, op: impl FnMut(u32) -> Result<T, E>) -> Result<T, E> {
        self.run_with(std::thread::sleep, op)
    }

    /// Like [`run`](Self::run) but with an injectable sleep function, so
    /// tests can observe the schedule without waiting it out.
    pub fn run_with<T, E>(
        &self,
        mut sleep: impl FnMut(Duration),
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, E> {
        let delays = self.delays();
        let mut last_err = None;
        for attempt in 0..self.attempts() {
            if attempt > 0 {
                let d = delays[attempt as usize - 1];
                if !d.is_zero() {
                    sleep(d);
                }
            }
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one attempt runs"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_success_needs_no_sleep() {
        let policy = Retry::new(5, Duration::from_millis(50));
        let mut slept = Vec::new();
        let out: Result<i32, &str> = policy.run_with(|d| slept.push(d), |_| Ok(7));
        assert_eq!(out.unwrap(), 7);
        assert!(slept.is_empty());
    }

    #[test]
    fn retries_until_success() {
        let policy = Retry::new(5, Duration::from_millis(10)).jitter(0.0);
        let mut slept = Vec::new();
        let mut fails = 3;
        let out: Result<u32, &str> = policy.run_with(
            |d| slept.push(d),
            |attempt| {
                if fails > 0 {
                    fails -= 1;
                    Err("transient")
                } else {
                    Ok(attempt)
                }
            },
        );
        assert_eq!(out.unwrap(), 3);
        assert_eq!(
            slept,
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(40),
            ]
        );
    }

    #[test]
    fn exhaustion_returns_last_error() {
        let policy = Retry::new(3, Duration::ZERO);
        let mut n = 0;
        let out: Result<(), String> = policy.run_with(
            |_| {},
            |attempt| {
                n += 1;
                Err(format!("fail {attempt}"))
            },
        );
        assert_eq!(out.unwrap_err(), "fail 2");
        assert_eq!(n, 3);
    }

    #[test]
    fn delays_are_deterministic_and_capped() {
        let policy = || Retry::new(8, Duration::from_millis(10)).cap(Duration::from_millis(50));
        let a = policy().delays();
        assert_eq!(a, policy().delays());
        for d in &a {
            // cap 50ms, jitter 25% → max 62.5ms
            assert!(*d <= Duration::from_micros(62_500), "{d:?}");
        }
        // The jitter actually varies the delays.
        assert_ne!(a[5], a[6]);
    }

    #[test]
    fn zero_jitter_gives_exact_schedule() {
        let p = Retry::new(4, Duration::from_millis(100)).jitter(0.0);
        assert_eq!(
            p.delays(),
            vec![
                Duration::from_millis(100),
                Duration::from_millis(200),
                Duration::from_millis(400),
            ]
        );
    }
}
