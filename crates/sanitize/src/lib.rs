//! Lock-order sanitizer: the workspace's only lock-order check, made at
//! run time.
//!
//! Instrumented code replaces `parking_lot::Mutex::new(v)` with
//! [`Mutex::named("label", v)`](Mutex::named), and every acquisition
//! then records *(held, acquired)* edges in a process-global graph,
//! asserting acyclicity online — a real lock-order inversion panics
//! with the witnessed cycle the moment it first happens, instead of
//! deadlocking a CI runner some day.
//!
//! With the `enabled` feature **off** (the default for every normal
//! build), the wrappers compile to the underlying parking_lot
//! primitives plus a zero-sized token with no `Drop` impl: no atomics,
//! no thread-locals, no branches on the lock path, so the bench
//! noise-band gate sees nothing.
//!
//! With `enabled` **on** (workspace feature `sanitize`, i.e.
//! `cargo test --features sanitize`):
//!
//! - a thread-local stack tracks which named locks the current thread
//!   holds; acquiring records edges from every held lock to the new one
//!   *before* blocking on it (so a deadlock-to-be still reports);
//! - the global graph is checked for cycles on every new edge, and the
//!   panic message names the locks on the cycle.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

pub use parking_lot::WaitTimeoutResult;

/// A named mutex. The name is the identity the witness graph records and
/// the label a cycle panic prints.
pub struct Mutex<T: ?Sized> {
    name: &'static str,
    inner: parking_lot::Mutex<T>,
}

/// RAII guard for [`Mutex`]; releases the witness token, then the lock.
pub struct MutexGuard<'a, T: ?Sized> {
    _token: track::Token,
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex whose acquisitions are witnessed under `name`.
    pub const fn named(name: &'static str, value: T) -> Self {
        Self {
            name,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock. The witness edge is recorded *before*
    /// blocking, so a runtime lock-order inversion panics with the
    /// cycle instead of deadlocking.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let token = track::acquire(self.name);
        MutexGuard {
            _token: token,
            inner: self.inner.lock(),
        }
    }

    /// Attempts to acquire without blocking. A successful try-lock is a
    /// real acquisition and is witnessed like any other.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = self.inner.try_lock()?;
        Some(MutexGuard {
            _token: track::acquire(self.name),
            inner,
        })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// The witness label.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex")
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A named reader-writer lock. Reads and writes witness identically:
/// the order hazard is the same either way.
pub struct RwLock<T: ?Sized> {
    name: &'static str,
    inner: parking_lot::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    _token: track::Token,
    inner: parking_lot::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    _token: track::Token,
    inner: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a lock whose acquisitions are witnessed under `name`.
    pub const fn named(name: &'static str, value: T) -> Self {
        Self {
            name,
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock (witnessed).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let token = track::acquire(self.name);
        RwLockReadGuard {
            _token: token,
            inner: self.inner.read(),
        }
    }

    /// Acquires an exclusive write lock (witnessed).
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let token = track::acquire(self.name);
        RwLockWriteGuard {
            _token: token,
            inner: self.inner.write(),
        }
    }

    /// The witness label.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock")
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable operating on sanitize [`MutexGuard`]s. The lock
/// stays on the thread's held stack across the wait — it is reacquired
/// before `wait` returns, and the same thread cannot interleave another
/// acquisition meanwhile.
#[derive(Debug, Default)]
pub struct Condvar(parking_lot::Condvar);

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Self(parking_lot::Condvar::new())
    }

    /// Blocks until notified, atomically releasing and reacquiring the
    /// lock.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.0.wait(&mut guard.inner);
    }

    /// Blocks while `condition` returns true.
    pub fn wait_while<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        condition: impl FnMut(&mut T) -> bool,
    ) {
        self.0.wait_while(&mut guard.inner, condition);
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        self.0.wait_for(&mut guard.inner, timeout)
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(feature = "enabled")]
pub use track::{edges, locks, reset};

#[cfg(feature = "enabled")]
mod track {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// Proof of a witnessed acquisition; dropping it pops the lock from
    /// the thread's held stack.
    pub(crate) struct Token {
        name: &'static str,
    }

    thread_local! {
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    #[derive(Default)]
    struct Graph {
        locks: BTreeSet<&'static str>,
        edges: BTreeSet<(&'static str, &'static str)>,
    }

    fn graph() -> &'static Mutex<Graph> {
        static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(Graph::default()))
    }

    pub(crate) fn acquire(name: &'static str) -> Token {
        let new_edges: Vec<(&'static str, &'static str)> = HELD.with(|h| {
            h.borrow()
                .iter()
                .filter(|&&held| held != name)
                .map(|&held| (held, name))
                .collect()
        });
        {
            let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
            let mut changed = g.locks.insert(name);
            for e in new_edges {
                changed |= g.edges.insert(e);
            }
            if changed {
                if let Some(cycle) = find_cycle(&g.edges) {
                    panic!(
                        "rocket-sanitize: lock-order cycle witnessed at runtime: {} \
                         — two threads taking these locks in different orders can \
                         deadlock",
                        cycle.join(" -> ")
                    );
                }
            }
        }
        HELD.with(|h| h.borrow_mut().push(name));
        Token { name }
    }

    impl Drop for Token {
        fn drop(&mut self) {
            HELD.with(|h| {
                let mut held = h.borrow_mut();
                // Guards may drop out of acquisition order; pop the last
                // matching entry, not the top.
                if let Some(pos) = held.iter().rposition(|&n| n == self.name) {
                    held.remove(pos);
                }
            });
        }
    }

    /// DFS over the edge set; returns one cycle path if any exists.
    fn find_cycle(edges: &BTreeSet<(&'static str, &'static str)>) -> Option<Vec<&'static str>> {
        let nodes: BTreeSet<&str> = edges.iter().flat_map(|(a, b)| [*a, *b]).collect();
        for &start in &nodes {
            let mut stack = vec![start];
            let mut path = vec![start];
            let mut visited: BTreeSet<&str> = BTreeSet::new();
            while let Some(&node) = stack.last() {
                let next = edges
                    .iter()
                    .filter(|(a, _)| *a == node)
                    .map(|(_, b)| *b)
                    .find(|b| *b == start || !visited.contains(b));
                match next {
                    Some(n) if n == start => {
                        path.push(start);
                        return Some(path);
                    }
                    Some(n) if visited.insert(n) => {
                        stack.push(n);
                        path.push(n);
                    }
                    _ => {
                        stack.pop();
                        path.pop();
                    }
                }
            }
        }
        None
    }

    /// The witnessed edges so far, for in-process assertions.
    pub fn edges() -> Vec<(String, String)> {
        let g = graph().lock().unwrap_or_else(PoisonError::into_inner);
        g.edges
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    /// The witnessed locks so far.
    pub fn locks() -> Vec<String> {
        let g = graph().lock().unwrap_or_else(PoisonError::into_inner);
        g.locks.iter().map(|l| l.to_string()).collect()
    }

    /// Clears the global graph (single-threaded test harness use only), so
    /// a deliberately cyclic experiment does not trip later acquisitions.
    pub fn reset() {
        let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
        g.locks.clear();
        g.edges.clear();
    }
}

#[cfg(not(feature = "enabled"))]
mod track {
    /// Zero-sized, no-`Drop` stand-in: the compiler erases it entirely.
    pub(crate) struct Token;

    #[inline(always)]
    pub(crate) fn acquire(_name: &'static str) -> Token {
        Token
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_deref() {
        let m = Mutex::named("m", 41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.name(), "m");
        let l = RwLock::named("l", vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::named("cv_m", ());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn nested_acquisition_records_edge() {
        let a = Mutex::named("edge_a", ());
        let b = Mutex::named("edge_b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        assert!(edges().contains(&("edge_a".to_string(), "edge_b".to_string())));
        assert!(locks().contains(&"edge_a".to_string()));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn non_lifo_drop_keeps_stack_sane() {
        let a = Mutex::named("lifo_a", ());
        let b = Mutex::named("lifo_b", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // out of order
        let c = Mutex::named("lifo_c", ());
        let _gc = c.lock();
        drop(gb);
        // b was still held when c was taken; a was not.
        assert!(edges().contains(&("lifo_b".to_string(), "lifo_c".to_string())));
        assert!(!edges().contains(&("lifo_a".to_string(), "lifo_c".to_string())));
    }
}
