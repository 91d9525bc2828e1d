//! [`FaultyTransport`]: deterministic fault injection on the send path.
//!
//! Like `FaultStore` in `rocket-storage`, a wrapper whose failures are
//! deterministic (here a pure function of a seed), so the cluster driver's
//! loss handling — re-deals, duplicate suppression, degraded reports — is
//! unit-testable in-process without real sockets or timing races.
//!
//! Faults are injected where the network would lose them, on *send*:
//!
//! * **drop** — the frame is silently discarded (send reports success, the
//!   peer never sees it), like a datagram lost by an overloaded switch;
//! * **delay** — the frame is held back and delivered *after* the next
//!   frame that passes unharmed to any peer, reordering the stream the
//!   way retransmission does;
//! * **disconnect** — after a configured number of sends the endpoint
//!   behaves like its process died: every later send (and, once the inbox
//!   drains, every receive) reports [`RecvError::Disconnected`] and
//!   [`Transport::peer_alive`] goes `false` for every peer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use rocket_stats::splitmix64;

use crate::transport::{CommStats, Incoming, NodeId, RecvError, Transport};

/// What fraction of frames misbehave, and when the endpoint dies.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed for the per-frame fate stream.
    pub seed: u64,
    /// Probability a sent frame is silently dropped.
    pub drop_p: f64,
    /// Probability a sent frame is delayed behind the next healthy frame.
    pub delay_p: f64,
    /// After this many send calls, the endpoint acts dead (`None` = never).
    pub disconnect_after: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a baseline in sweeps).
    pub fn none() -> Self {
        Self {
            seed: 0,
            drop_p: 0.0,
            delay_p: 0.0,
            disconnect_after: None,
        }
    }

    /// A plan dropping frames with probability `p` under `seed`.
    pub fn drops(seed: u64, p: f64) -> Self {
        Self {
            seed,
            drop_p: p,
            ..Self::none()
        }
    }

    /// A plan delaying frames with probability `p` under `seed`.
    pub fn delays(seed: u64, p: f64) -> Self {
        Self {
            seed,
            delay_p: p,
            ..Self::none()
        }
    }

    /// A plan that kills the endpoint after `n` sends.
    pub fn dies_after(n: u64) -> Self {
        Self {
            disconnect_after: Some(n),
            ..Self::none()
        }
    }
}

/// Counters of injected misbehaviour (for assertions in tests).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultCounts {
    /// Frames silently discarded.
    pub dropped: u64,
    /// Frames delivered late (behind a later frame).
    pub delayed: u64,
    /// Sends refused because the endpoint is "dead".
    pub refused: u64,
}

/// A [`Transport`] wrapper injecting seeded, reproducible faults on send.
///
/// The fate of the `n`-th send is `splitmix64(seed ^ n)` mapped onto
/// `[drop | delay | deliver]`, so two endpoints built with the same plan
/// misbehave identically — the property every deterministic failure-matrix
/// test in `rocket-cluster` leans on.
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
    sends: AtomicU64,
    dropped: AtomicU64,
    delayed: AtomicU64,
    refused: AtomicU64,
    /// Frames held back by a delay fault, flushed after the next clean send.
    pending: std::sync::Mutex<Vec<(NodeId, Bytes)>>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        assert!((0.0..=1.0).contains(&plan.drop_p));
        assert!((0.0..=1.0).contains(&plan.delay_p));
        assert!(
            plan.drop_p + plan.delay_p <= 1.0,
            "fault probabilities overlap"
        );
        Self {
            inner,
            plan,
            sends: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            pending: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Access to the wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Injected-fault counters so far.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            dropped: self.dropped.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
        }
    }

    /// True once the plan's disconnect point has been reached.
    pub fn is_dead(&self) -> bool {
        self.plan
            .disconnect_after
            .is_some_and(|n| self.sends.load(Ordering::Relaxed) >= n)
    }

    /// Delivers any delay-held frames immediately (deterministic teardown).
    pub fn flush(&self) -> Result<(), RecvError> {
        let held: Vec<_> = self.pending.lock().unwrap().drain(..).collect();
        for (to, payload) in held {
            self.inner.send(to, payload)?;
        }
        Ok(())
    }

    /// The fate of send number `n` (1-indexed): 0 = drop, 1 = delay,
    /// 2 = deliver.
    fn fate(&self, n: u64) -> u8 {
        let mut state = self.plan.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let u = splitmix64(&mut state) as f64 / u64::MAX as f64;
        if u < self.plan.drop_p {
            0
        } else if u < self.plan.drop_p + self.plan.delay_p {
            1
        } else {
            2
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn cluster_size(&self) -> usize {
        self.inner.cluster_size()
    }

    fn send(&self, to: NodeId, payload: Bytes) -> Result<(), RecvError> {
        let n = self.sends.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.disconnect_after.is_some_and(|limit| n > limit) {
            self.refused.fetch_add(1, Ordering::Relaxed);
            return Err(RecvError::Disconnected);
        }
        match self.fate(n) {
            0 => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                Ok(()) // silently lost: the sender cannot tell
            }
            1 => {
                self.delayed.fetch_add(1, Ordering::Relaxed);
                self.pending.lock().unwrap().push((to, payload));
                Ok(())
            }
            _ => {
                self.inner.send(to, payload)?;
                // A clean frame went through; release anything held back,
                // now observable *after* the newer frame.
                self.flush()
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Incoming, RecvError> {
        if self.is_dead() {
            return match self.inner.try_recv() {
                Some(msg) => Ok(msg),
                None => Err(RecvError::Disconnected),
            };
        }
        self.inner.recv_timeout(timeout)
    }

    fn try_recv(&self) -> Option<Incoming> {
        self.inner.try_recv()
    }

    fn peer_alive(&self, peer: NodeId) -> bool {
        !self.is_dead() && self.inner.peer_alive(peer)
    }

    fn stats(&self) -> Arc<CommStats> {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LocalCluster;

    fn pair(
        plan: FaultPlan,
    ) -> (
        FaultyTransport<crate::LocalTransport>,
        crate::LocalTransport,
    ) {
        let mut eps = LocalCluster::connect(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        (FaultyTransport::new(a, plan), b)
    }

    #[test]
    fn no_faults_is_transparent() {
        let (a, b) = pair(FaultPlan::none());
        for i in 0..20u8 {
            a.send(1, Bytes::from(vec![i])).unwrap();
        }
        for i in 0..20u8 {
            assert_eq!(b.try_recv().unwrap().payload[0], i);
        }
        assert_eq!(a.counts(), FaultCounts::default());
    }

    #[test]
    fn drops_are_seeded_and_reproducible() {
        let run = |seed: u64| -> Vec<u8> {
            let (a, b) = pair(FaultPlan::drops(seed, 0.4));
            for i in 0..50u8 {
                a.send(1, Bytes::from(vec![i])).unwrap();
            }
            std::iter::from_fn(|| b.try_recv())
                .map(|m| m.payload[0])
                .collect()
        };
        let first = run(9);
        assert_eq!(first, run(9), "same seed, same losses");
        assert_ne!(first, run(10), "different seed, different losses");
        assert!(first.len() < 50, "p=0.4 loses something over 50 frames");
        assert!(!first.is_empty());
    }

    #[test]
    fn delayed_frames_arrive_late_but_arrive() {
        let (a, b) = pair(FaultPlan::delays(3, 0.3));
        for i in 0..50u8 {
            a.send(1, Bytes::from(vec![i])).unwrap();
        }
        a.flush().unwrap();
        let got: Vec<u8> = std::iter::from_fn(|| b.try_recv())
            .map(|m| m.payload[0])
            .collect();
        assert_eq!(got.len(), 50, "delay never loses frames");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u8>>());
        assert!(a.counts().delayed > 0);
        assert_ne!(got, sorted, "some frames observably reordered");
    }

    #[test]
    fn disconnect_after_kills_endpoint() {
        let (a, b) = pair(FaultPlan::dies_after(3));
        for i in 0..3u8 {
            a.send(1, Bytes::from(vec![i])).unwrap();
        }
        assert_eq!(
            a.send(1, Bytes::from_static(b"x")).unwrap_err(),
            RecvError::Disconnected
        );
        assert!(a.is_dead());
        assert!(!a.peer_alive(1));
        assert_eq!(a.counts().refused, 1);
        // Frames sent before death were delivered.
        assert_eq!(std::iter::from_fn(|| b.try_recv()).count(), 3);
        // Receives drain nothing and then report disconnection.
        assert_eq!(
            a.recv_timeout(Duration::from_millis(1)).unwrap_err(),
            RecvError::Disconnected
        );
    }

    #[test]
    fn usable_as_trait_object() {
        let (a, b) = pair(FaultPlan::none());
        let dynamic: Box<dyn Transport> = Box::new(a);
        dynamic.send(1, Bytes::from_static(b"dyn")).unwrap();
        assert_eq!(b.try_recv().unwrap().payload.as_ref(), b"dyn");
    }
}
