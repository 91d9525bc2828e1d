//! Heartbeat bookkeeping for peers that may silently die.
//!
//! TCP alone does not tell a driver that a worker was `kill -9`ed: the
//! connection can sit half-open for minutes. [`Liveness`] layers the
//! classic heartbeat protocol over any [`crate::Transport`]: the owner
//! periodically pings each peer, counts *any* inbound frame as proof of
//! life, and declares a peer lost once nothing has been heard for a
//! deadline. The tracker is pure bookkeeping — it sends nothing itself and
//! takes every timestamp as an explicit argument, so tests can replay
//! arbitrary schedules without sleeping.

// The panic-path set: faults and hostile bytes return errors (docs/static-checks.md).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

use std::time::{Duration, Instant};

use crate::transport::NodeId;

/// Per-peer heartbeat state: who to ping, who has gone quiet too long.
#[derive(Debug)]
pub struct Liveness {
    ping_interval: Duration,
    deadline: Duration,
    peers: Vec<PeerState>,
}

#[derive(Debug)]
struct PeerState {
    peer: NodeId,
    last_seen: Instant,
    last_ping: Instant,
    lost: bool,
}

impl Liveness {
    /// Tracks `peers`, all considered just-seen at `now`. Pings are due
    /// every `ping_interval`; a peer silent for `deadline` is lost.
    pub fn new(
        peers: impl IntoIterator<Item = NodeId>,
        ping_interval: Duration,
        deadline: Duration,
        now: Instant,
    ) -> Self {
        assert!(
            deadline > ping_interval,
            "deadline must outlast the ping interval"
        );
        Self {
            ping_interval,
            deadline,
            peers: peers
                .into_iter()
                .map(|peer| PeerState {
                    peer,
                    last_seen: now,
                    last_ping: now,
                    lost: false,
                })
                .collect(),
        }
    }

    /// Records proof of life from `peer` at `now` (any frame counts).
    /// Ignored for peers already declared lost — a late frame from a dead
    /// worker must not resurrect it.
    pub fn observe(&mut self, peer: NodeId, now: Instant) {
        if let Some(p) = self.peers.iter_mut().find(|p| p.peer == peer) {
            if !p.lost {
                p.last_seen = now;
            }
        }
    }

    /// The peers due a ping at `now`; their ping clocks reset so the next
    /// call returns them only after another interval.
    pub fn peers_to_ping(&mut self, now: Instant) -> Vec<NodeId> {
        self.peers
            .iter_mut()
            .filter(|p| !p.lost && now.duration_since(p.last_ping) >= self.ping_interval)
            .map(|p| {
                p.last_ping = now;
                p.peer
            })
            .collect()
    }

    /// The peers whose silence crossed the deadline at `now`, each reported
    /// exactly once and marked lost from then on.
    pub fn newly_lost(&mut self, now: Instant) -> Vec<NodeId> {
        self.peers
            .iter_mut()
            .filter(|p| !p.lost && now.duration_since(p.last_seen) >= self.deadline)
            .map(|p| {
                p.lost = true;
                p.peer
            })
            .collect()
    }

    /// How long after `now` the owner next has something to do: the
    /// earliest ping coming due or silence deadline expiring among the
    /// peers still alive (zero when one already has). `None` when no peer
    /// is alive — nothing will ever come due. This is the timeout an
    /// owner that blocks on its transport should block with.
    pub fn next_deadline(&self, now: Instant) -> Option<Duration> {
        self.peers
            .iter()
            .filter(|p| !p.lost)
            .map(|p| (p.last_ping + self.ping_interval).min(p.last_seen + self.deadline))
            .min()
            .map(|due| due.saturating_duration_since(now))
    }

    /// Declares `peer` lost immediately (e.g. a send to it failed).
    /// Returns true if the peer was alive until now.
    pub fn mark_lost(&mut self, peer: NodeId) -> bool {
        match self.peers.iter_mut().find(|p| p.peer == peer) {
            Some(p) if !p.lost => {
                p.lost = true;
                true
            }
            _ => false,
        }
    }

    /// Whether `peer` has been declared lost.
    pub fn is_lost(&self, peer: NodeId) -> bool {
        self.peers.iter().any(|p| p.peer == peer && p.lost)
    }

    /// Number of peers still considered alive.
    pub fn alive(&self) -> usize {
        self.peers.iter().filter(|p| !p.lost).count()
    }

    /// All peers still considered alive.
    pub fn alive_peers(&self) -> Vec<NodeId> {
        self.peers
            .iter()
            .filter(|p| !p.lost)
            .map(|p| p.peer)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn pings_come_due_per_interval() {
        let t0 = Instant::now();
        let mut l = Liveness::new([1, 2], 10 * MS, 50 * MS, t0);
        assert!(l.peers_to_ping(t0 + 5 * MS).is_empty());
        assert_eq!(l.peers_to_ping(t0 + 10 * MS), vec![1, 2]);
        // Clock reset: not due again until another interval passes.
        assert!(l.peers_to_ping(t0 + 15 * MS).is_empty());
        assert_eq!(l.peers_to_ping(t0 + 21 * MS), vec![1, 2]);
    }

    #[test]
    fn silence_past_deadline_loses_peer_once() {
        let t0 = Instant::now();
        let mut l = Liveness::new([1, 2], 10 * MS, 50 * MS, t0);
        l.observe(2, t0 + 40 * MS);
        assert_eq!(l.newly_lost(t0 + 55 * MS), vec![1], "1 silent, 2 observed");
        assert!(l.newly_lost(t0 + 60 * MS).is_empty(), "reported once");
        assert!(l.is_lost(1));
        assert_eq!(l.alive(), 1);
        assert_eq!(l.alive_peers(), vec![2]);
        // Peer 2 eventually goes quiet too.
        assert_eq!(l.newly_lost(t0 + 95 * MS), vec![2]);
        assert_eq!(l.alive(), 0);
    }

    #[test]
    fn observation_defers_loss() {
        let t0 = Instant::now();
        let mut l = Liveness::new([7], 10 * MS, 50 * MS, t0);
        for tick in 1..10 {
            l.observe(7, t0 + tick * 20 * MS);
            assert!(l.newly_lost(t0 + tick * 20 * MS + 10 * MS).is_empty());
        }
    }

    #[test]
    fn late_frames_do_not_resurrect() {
        let t0 = Instant::now();
        let mut l = Liveness::new([3], 10 * MS, 50 * MS, t0);
        assert_eq!(l.newly_lost(t0 + 50 * MS), vec![3]);
        l.observe(3, t0 + 51 * MS);
        assert!(l.is_lost(3), "late frame ignored");
        assert!(
            l.peers_to_ping(t0 + 100 * MS).is_empty(),
            "no pings to the dead"
        );
    }

    #[test]
    fn next_deadline_is_the_earliest_ping_or_expiry() {
        let t0 = Instant::now();
        let mut l = Liveness::new([1, 2], 10 * MS, 45 * MS, t0);
        // Fresh peers: the ping comes due long before anyone expires.
        assert_eq!(l.next_deadline(t0), Some(10 * MS));
        assert_eq!(l.next_deadline(t0 + 4 * MS), Some(6 * MS));
        assert_eq!(l.next_deadline(t0 + 12 * MS), Some(Duration::ZERO));
        // Pinged on schedule but never heard from: the silence deadline
        // (t0 + 45) now precedes the next ping (t0 + 50).
        for tick in 1..=4 {
            assert_eq!(l.peers_to_ping(t0 + tick * 10 * MS), vec![1, 2]);
        }
        assert_eq!(l.next_deadline(t0 + 44 * MS), Some(MS));
        // Peer 2 speaks up; silent peer 1 still sets the deadline.
        l.observe(2, t0 + 44 * MS);
        assert_eq!(l.next_deadline(t0 + 44 * MS), Some(MS));
        assert_eq!(l.newly_lost(t0 + 45 * MS), vec![1]);
        // Lost peers contribute nothing: only peer 2's ping is left.
        assert_eq!(l.next_deadline(t0 + 45 * MS), Some(5 * MS));
    }

    #[test]
    fn next_deadline_is_none_without_live_peers() {
        let t0 = Instant::now();
        let none = Liveness::new([], 10 * MS, 50 * MS, t0);
        assert_eq!(none.next_deadline(t0), None);
        let mut l = Liveness::new([4], 10 * MS, 50 * MS, t0);
        l.mark_lost(4);
        assert_eq!(l.next_deadline(t0 + 100 * MS), None);
    }

    #[test]
    fn mark_lost_is_idempotent() {
        let t0 = Instant::now();
        let mut l = Liveness::new([1], 10 * MS, 50 * MS, t0);
        assert!(l.mark_lost(1));
        assert!(!l.mark_lost(1), "second mark reports nothing new");
        assert!(!l.mark_lost(9), "unknown peer reports nothing");
        assert!(l.newly_lost(t0 + 100 * MS).is_empty());
    }
}
