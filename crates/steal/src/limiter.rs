//! The concurrent-job limit (§4.2's back-pressure mechanism).
//!
//! Rocket's runtime is asynchronous: submitting a job never blocks on the
//! job's completion. Without back-pressure one node could claim the whole
//! matrix while others idle, and unbounded in-flight jobs would exhaust
//! cache slots. The limiter is a counting semaphore: workers acquire one
//! permit per submitted job, as many at a time as are free
//! ([`JobLimiter::acquire_up_to`]); completions release them, a batch at a
//! time ([`JobLimiter::release_many`]). Since a job holds its
//! permit until it finishes, a node has drained exactly when every permit
//! is back ([`JobLimiter::wait_idle`]). A limiter whose permits can no
//! longer come back, because the thread that releases them died, is
//! [closed](JobLimiter::close): every wait on it returns.

use std::sync::atomic::{AtomicU64, Ordering};

use rocket_sanitize::{Condvar, Mutex};

/// Counting semaphore bounding concurrently in-flight jobs.
#[derive(Debug)]
pub struct JobLimiter {
    limit: usize,
    permits: Mutex<Permits>,
    cond: Condvar,
    peak_waits: AtomicU64,
}

/// The limiter's state, behind one lock.
#[derive(Debug)]
struct Permits {
    available: usize,
    closed: bool,
}

impl JobLimiter {
    /// Creates a limiter with `limit` permits (`limit ≥ 1`).
    pub fn new(limit: usize) -> Self {
        assert!(limit >= 1, "concurrent job limit must be positive");
        Self {
            limit,
            permits: Mutex::named(
                "available",
                Permits {
                    available: limit,
                    closed: false,
                },
            ),
            cond: Condvar::new(),
            peak_waits: AtomicU64::new(0),
        }
    }

    /// The configured limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Permits currently available.
    pub fn available(&self) -> usize {
        self.permits.lock().available
    }

    /// Acquires one permit, blocking while none are available. On a closed
    /// limiter it returns at once without one.
    pub fn acquire(&self) {
        self.acquire_up_to(1);
    }

    /// Acquires between one and `k` permits (`k ≥ 1`): every free one up
    /// to `k` without blocking, or, when none is free, blocks until one is.
    /// Returns how many it took: 0 once the limiter is closed.
    pub fn acquire_up_to(&self, k: usize) -> usize {
        assert!(k >= 1, "acquire_up_to needs k >= 1");
        let mut permits = self.permits.lock();
        if permits.available == 0 && !permits.closed {
            self.peak_waits.fetch_add(1, Ordering::Relaxed);
            // The semaphore exists to block here; the wait atomically
            // releases `permits` while parked.
            permits = self
                .cond
                .wait_while(permits, |p| p.available == 0 && !p.closed);
        }
        if permits.closed {
            return 0;
        }
        let taken = k.min(permits.available);
        permits.available -= taken;
        taken
    }

    /// Blocks until every permit is back, i.e. no job is in flight.
    ///
    /// A job holds its permit until it finishes, so once submission has
    /// stopped this is the wait for the node to drain. The release that
    /// brings the last permit back always notifies (`limit ≥ limit/2`), so
    /// the wait needs no clock. It also returns once the limiter is closed.
    pub fn wait_idle(&self) {
        let _idle = self.cond.wait_while(self.permits.lock(), |p| {
            p.available < self.limit && !p.closed
        });
    }

    /// Closes the limiter for good: parked and later acquisitions return
    /// without a permit, and [`JobLimiter::wait_idle`] returns. For a
    /// limiter whose permits will never come back, such as a node whose
    /// conductor panicked.
    pub fn close(&self) {
        self.permits.lock().closed = true;
        self.cond.notify_all();
    }

    /// Releases one permit (see [`JobLimiter::release_many`]).
    pub fn release(&self) {
        self.release_many(1);
    }

    /// Releases `k` permits with at most one notification.
    ///
    /// Parked acquirers and [`JobLimiter::wait_idle`] callers are woken
    /// together once half the permits are free, not on every release: a
    /// submitter then refills in a batch instead of being switched in for
    /// every completion. This loses no wake-up as long as every held permit
    /// is released without waiting on a later `acquire`, so that
    /// `available` climbs back to `limit`. The runtime's permits are held
    /// by in-flight jobs, which never wait on new submissions.
    pub fn release_many(&self, k: usize) {
        let mut permits = self.permits.lock();
        assert!(
            k <= self.limit - permits.available,
            "release without matching acquire"
        );
        permits.available += k;
        let refill = permits.available >= (self.limit / 2).max(1);
        drop(permits);
        if refill {
            self.cond.notify_all();
        }
    }

    /// How many acquisitions had to wait (back-pressure engagements).
    pub fn waits(&self) -> u64 {
        self.peak_waits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn acquire_release_cycle() {
        let l = JobLimiter::new(2);
        l.acquire();
        l.acquire();
        assert_eq!(l.available(), 0);
        l.release();
        assert_eq!(l.available(), 1);
        l.release();
        assert_eq!(l.available(), 2);
    }

    #[test]
    fn half_limit_release_wakes_a_parked_acquirer() {
        let l = Arc::new(JobLimiter::new(4));
        for _ in 0..4 {
            l.acquire();
        }
        let l2 = Arc::clone(&l);
        let parked = std::thread::spawn(move || l2.acquire());
        // The waiter counts itself while holding the lock and releases it
        // only by parking, so once the count shows, it is parked.
        while l.waits() == 0 {
            std::thread::yield_now();
        }
        l.release();
        l.release();
        parked.join().unwrap();
        assert_eq!(l.available(), 1);
    }

    #[test]
    fn wait_idle_returns_at_once_when_idle() {
        let l = JobLimiter::new(3);
        l.wait_idle();
        l.acquire();
        l.release();
        l.wait_idle();
        assert_eq!(l.available(), 3);
    }

    #[test]
    fn wait_idle_returns_on_the_release_of_the_last_permit() {
        for limit in [1, 4] {
            let l = Arc::new(JobLimiter::new(limit));
            // Two permits at limit 4: the first release already passes the
            // half-limit refill threshold and wakes the waiter, which must
            // park again until the second.
            let held = limit.min(2);
            for _ in 0..held {
                l.acquire();
            }
            let l2 = Arc::clone(&l);
            let waiter = std::thread::spawn(move || l2.wait_idle());
            for _ in 1..held {
                l.release();
            }
            std::thread::sleep(Duration::from_millis(30));
            assert!(
                !waiter.is_finished(),
                "limit {limit}: wait_idle returned while a permit was held"
            );
            l.release();
            waiter.join().unwrap();
            assert_eq!(l.available(), limit);
        }
    }

    #[test]
    fn parked_acquire_and_wait_idle_wake_on_one_release() {
        // Limit 1 releases with `release`, limit 4 with one `release_many`.
        for limit in [1, 4] {
            let l = Arc::new(JobLimiter::new(limit));
            assert_eq!(l.acquire_up_to(limit), limit);
            let l2 = Arc::clone(&l);
            let acquirer = std::thread::spawn(move || {
                let k = l2.acquire_up_to(2);
                l2.release_many(k);
            });
            let l3 = Arc::clone(&l);
            let idler = std::thread::spawn(move || l3.wait_idle());
            while l.waits() == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(30));
            // One release for two parked threads: waking only the idler,
            // which then finds every permit back, would strand the
            // acquirer.
            if limit == 1 {
                l.release();
            } else {
                l.release_many(limit);
            }
            acquirer.join().unwrap();
            idler.join().unwrap();
            assert_eq!(l.available(), limit);
        }
    }

    #[test]
    fn close_wakes_parked_acquirers_and_idlers() {
        let l = Arc::new(JobLimiter::new(2));
        assert_eq!(l.acquire_up_to(2), 2);
        let l2 = Arc::clone(&l);
        let acquirer = std::thread::spawn(move || l2.acquire_up_to(1));
        let l3 = Arc::clone(&l);
        let idler = std::thread::spawn(move || l3.wait_idle());
        while l.waits() == 0 {
            std::thread::yield_now();
        }
        l.close();
        assert_eq!(
            acquirer.join().unwrap(),
            0,
            "no permit from a closed limiter"
        );
        idler.join().unwrap();
        // Later calls return at once too.
        assert_eq!(l.acquire_up_to(1), 0);
        l.acquire();
        l.wait_idle();
        assert_eq!(l.available(), 0);
    }

    #[test]
    #[should_panic(expected = "release without matching acquire")]
    fn over_release_panics() {
        let l = JobLimiter::new(1);
        l.release();
    }

    #[test]
    #[should_panic(expected = "release without matching acquire")]
    fn over_release_many_panics() {
        let l = JobLimiter::new(4);
        assert_eq!(l.acquire_up_to(2), 2);
        l.release_many(3);
    }

    #[test]
    fn acquire_up_to_takes_what_is_free_without_blocking() {
        let l = JobLimiter::new(8);
        assert_eq!(l.acquire_up_to(3), 3);
        assert_eq!(l.available(), 5);
        // Asking for more than is free takes the rest.
        assert_eq!(l.acquire_up_to(100), 5);
        assert_eq!(l.available(), 0);
        l.release_many(2);
        assert_eq!(l.acquire_up_to(7), 2);
        assert_eq!(l.waits(), 0, "no call above had to park");
        l.release_many(8);
        assert_eq!(l.available(), 8);
    }

    #[test]
    fn acquire_up_to_parks_at_zero() {
        let l = Arc::new(JobLimiter::new(4));
        assert_eq!(l.acquire_up_to(4), 4);
        let l2 = Arc::clone(&l);
        let parked = std::thread::spawn(move || l2.acquire_up_to(4));
        // The waiter counts itself while holding the lock and releases it
        // only by parking, so once the count shows, it is parked.
        while l.waits() == 0 {
            std::thread::yield_now();
        }
        // One batched release past the half-limit wakes it with all three.
        l.release_many(3);
        assert_eq!(parked.join().unwrap(), 3);
        assert_eq!(l.available(), 0);
    }

    #[test]
    fn blocks_until_release() {
        let l = Arc::new(JobLimiter::new(1));
        l.acquire();
        let l2 = Arc::clone(&l);
        let handle = std::thread::spawn(move || {
            l2.acquire(); // blocks until main releases
            l2.release();
        });
        std::thread::sleep(Duration::from_millis(30));
        l.release();
        handle.join().unwrap();
        assert_eq!(l.available(), 1);
        assert!(l.waits() >= 1);
    }

    #[test]
    fn many_threads_respect_limit() {
        let l = Arc::new(JobLimiter::new(4));
        let in_flight = Arc::new(AtomicU64::new(0));
        let max_seen = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (l, in_flight, max_seen) = (
                Arc::clone(&l),
                Arc::clone(&in_flight),
                Arc::clone(&max_seen),
            );
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    l.acquire();
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    max_seen.fetch_max(now, Ordering::SeqCst);
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    l.release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(max_seen.load(Ordering::SeqCst) <= 4);
    }
}
