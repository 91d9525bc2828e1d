//! The cluster [`Transport`] abstraction and its in-process implementation.
//!
//! A [`Transport`] is one node's connection to the cluster: reliable,
//! ordered, point-to-point messaging to every peer (what Ibis gave the
//! original Rocket), plus per-endpoint traffic counters. Two
//! implementations exist:
//!
//! * [`LocalTransport`] (here) — `rocket_sanitize` channels between threads
//!   of one process; zero-copy, no serialization on the transport itself.
//! * [`crate::SocketTransport`] — length-prefixed frames over TCP; real
//!   sockets, one connection per peer pair, ordered per peer.
//!
//! The receive side is **single-consumer by convention**: exactly one
//! thread per node (the engine's comm pump) calls [`Transport::recv_timeout`]
//! / [`Transport::try_recv`]. There is deliberately no way to obtain a
//! second receiver handle — cloned receivers silently steal messages from
//! each other, which is how the old `Endpoint::receiver()` API was misused.
//!
//! Because that one consumer blocks on the inbox, another thread holding
//! the same endpoint reaches it through the inbox too: it sends a **wake
//! token**, an empty message to its own rank. `rocket-core`'s per-node comm
//! pump exits on its token and `rocket-cluster`'s dispatcher wakes on its
//! own to look at its job queue, so neither waits on a poll interval. The
//! counters count a token like any other message, so the engine takes its
//! traffic snapshot before sending one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use rocket_sanitize::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

/// Cluster node identifier (rank).
pub type NodeId = usize;

/// Transport errors (both directions; sends to a departed peer report
/// [`RecvError::Disconnected`], matching graceful-shutdown semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout.
    Timeout,
    /// All peers hung up and the queue is drained (receive side), or the
    /// destination peer is gone (send side).
    Disconnected,
}

/// Per-endpoint message counters: what *this node* sent and received.
///
/// Both directions are counted so send/receive asymmetry is observable
/// (e.g. a node that serves many `Fetch` requests shows recv ≪ sent).
/// Byte counts are payload bytes — framing overhead of a byte-stream
/// transport is excluded so the two transports account identically, and
/// self-addressed messages (which every transport delivers in memory)
/// count like any other so totals stay comparable across transports.
/// Only successful sends are counted.
#[derive(Debug, Default)]
pub struct CommStats {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_recv: AtomicU64,
    bytes_recv: AtomicU64,
}

impl CommStats {
    /// Records one outgoing message of `bytes` payload bytes.
    pub fn record_send(&self, bytes: usize) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one delivered message of `bytes` payload bytes.
    pub fn record_recv(&self, bytes: usize) {
        self.msgs_recv.fetch_add(1, Ordering::Relaxed);
        self.bytes_recv.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Messages this endpoint sent.
    pub fn msgs_sent(&self) -> u64 {
        self.msgs_sent.load(Ordering::Relaxed)
    }

    /// Payload bytes this endpoint sent.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Messages delivered to this endpoint.
    pub fn msgs_recv(&self) -> u64 {
        self.msgs_recv.load(Ordering::Relaxed)
    }

    /// Payload bytes delivered to this endpoint.
    pub fn bytes_recv(&self) -> u64 {
        self.bytes_recv.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of all four counters.
    pub fn snapshot(&self) -> CommSnapshot {
        CommSnapshot {
            msgs_sent: self.msgs_sent(),
            bytes_sent: self.bytes_sent(),
            msgs_recv: self.msgs_recv(),
            bytes_recv: self.bytes_recv(),
        }
    }
}

/// A plain-data copy of [`CommStats`] (what per-node reports carry).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CommSnapshot {
    /// Messages sent by the endpoint.
    pub msgs_sent: u64,
    /// Payload bytes sent by the endpoint.
    pub bytes_sent: u64,
    /// Messages delivered to the endpoint.
    pub msgs_recv: u64,
    /// Payload bytes delivered to the endpoint.
    pub bytes_recv: u64,
}

impl CommSnapshot {
    /// Accumulates another endpoint's counters (cluster-wide totals).
    pub fn merge(&mut self, other: &CommSnapshot) {
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_recv += other.msgs_recv;
        self.bytes_recv += other.bytes_recv;
    }
}

/// An incoming message: sender plus payload.
#[derive(Debug, Clone)]
pub struct Incoming {
    /// Rank of the sending node.
    pub from: NodeId,
    /// Message payload.
    pub payload: Bytes,
}

/// One node's connection to the cluster, independent of the medium.
///
/// Guarantees every implementation provides:
///
/// * **Reliable ordered delivery per peer** — messages from one sender
///   arrive in send order (Ibis's reliable ordered channels).
/// * **Self-sends** — a node may address itself (the directory protocol
///   produces self-addressed messages); delivery is in-memory.
/// * **Graceful shutdown** — sends to a departed peer report
///   [`RecvError::Disconnected`]. On the receive side, a medium with
///   per-peer connections ([`crate::SocketTransport`]) reports
///   `Disconnected` as soon as every peer has hung up and the inbox is
///   drained. [`LocalTransport`] never does while it lives: it holds a
///   sender to its own inbox for self-sends, so its consumer is stopped
///   by a wake token (see the module docs), not by disconnection.
///
/// Implementations are `Send + Sync` so one `Arc<dyn Transport>` can be
/// shared between the sending thread and the (single) receiving thread.
pub trait Transport: Send + Sync {
    /// This endpoint's rank.
    fn node(&self) -> NodeId;

    /// Number of nodes in the cluster (self included).
    fn cluster_size(&self) -> usize;

    /// Sends `payload` to node `to` (which may be this node itself).
    /// Non-blocking or briefly blocking (socket buffer); never waits for
    /// the receiver to consume the message.
    fn send(&self, to: NodeId, payload: Bytes) -> Result<(), RecvError>;

    /// Receives the next message, waiting up to `timeout`.
    fn recv_timeout(&self, timeout: Duration) -> Result<Incoming, RecvError>;

    /// Receives without blocking (`None` when the inbox is empty).
    fn try_recv(&self) -> Option<Incoming>;

    /// Whether the connection to `peer` is still believed up.
    ///
    /// A best-effort, non-blocking liveness hint: `false` means the
    /// transport has *positive* evidence the peer is gone (its connection
    /// dropped); `true` means no such evidence — not a guarantee. Mediums
    /// without per-peer connection state keep the default (always `true`)
    /// and rely on heartbeat deadlines above the transport.
    fn peer_alive(&self, _peer: NodeId) -> bool {
        true
    }

    /// This endpoint's traffic counters.
    fn stats(&self) -> Arc<CommStats>;
}

/// Selects the transport an in-process cluster run communicates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Crossbeam channels between threads (the default; fastest).
    #[default]
    Local,
    /// Length-prefixed frames over loopback TCP sockets — the same wire
    /// path a multi-process deployment uses.
    Socket,
}

impl TransportKind {
    /// Short label (appears in backend names and reports).
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::Local => "local",
            TransportKind::Socket => "socket",
        }
    }

    /// Creates `p` fully connected endpoints of this kind (index = rank).
    pub fn connect(self, p: usize) -> Result<Vec<Box<dyn Transport>>, String> {
        match self {
            TransportKind::Local => Ok(LocalCluster::connect(p)
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect()),
            TransportKind::Socket => Ok(crate::SocketCluster::connect(p)
                .map_err(|e| format!("socket cluster setup failed: {e}"))?
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect()),
        }
    }
}

/// In-process [`Transport`] over `rocket_sanitize::channel` channels.
///
/// Sends are non-blocking (unbounded queues); receive order from a single
/// peer is FIFO. Nodes are threads of one process; the latency/bandwidth
/// of a physical network is modelled by the simulator, not here.
pub struct LocalTransport {
    node: NodeId,
    peers: Vec<Sender<Incoming>>,
    inbox: Receiver<Incoming>,
    stats: Arc<CommStats>,
}

impl LocalTransport {
    /// This endpoint's rank.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the cluster.
    pub fn cluster_size(&self) -> usize {
        self.peers.len()
    }

    /// Sends `payload` to node `to` (which may be this node itself — the
    /// directory protocol produces self-addressed messages).
    pub fn send(&self, to: NodeId, payload: Bytes) -> Result<(), RecvError> {
        let len = payload.len();
        self.peers[to]
            .send(Incoming {
                from: self.node,
                payload,
            })
            .map_err(|_| RecvError::Disconnected)?;
        self.stats.record_send(len);
        Ok(())
    }

    /// Receives the next message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Incoming, RecvError> {
        let msg = self.inbox.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvError::Timeout,
            RecvTimeoutError::Disconnected => RecvError::Disconnected,
        })?;
        self.stats.record_recv(msg.payload.len());
        Ok(msg)
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Option<Incoming> {
        let msg = self.inbox.try_recv().ok()?;
        self.stats.record_recv(msg.payload.len());
        Some(msg)
    }

    /// This endpoint's traffic counters.
    pub fn stats(&self) -> Arc<CommStats> {
        Arc::clone(&self.stats)
    }
}

impl Transport for LocalTransport {
    fn node(&self) -> NodeId {
        LocalTransport::node(self)
    }

    fn cluster_size(&self) -> usize {
        LocalTransport::cluster_size(self)
    }

    fn send(&self, to: NodeId, payload: Bytes) -> Result<(), RecvError> {
        LocalTransport::send(self, to, payload)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Incoming, RecvError> {
        LocalTransport::recv_timeout(self, timeout)
    }

    fn try_recv(&self) -> Option<Incoming> {
        LocalTransport::try_recv(self)
    }

    fn stats(&self) -> Arc<CommStats> {
        LocalTransport::stats(self)
    }
}

/// Builder for a set of interconnected [`LocalTransport`]s.
pub struct LocalCluster;

impl LocalCluster {
    /// Creates `p` fully connected endpoints (index = rank), each with its
    /// own [`CommStats`].
    pub fn connect(p: usize) -> Vec<LocalTransport> {
        assert!(p > 0);
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(node, inbox)| LocalTransport {
                node,
                peers: senders.clone(),
                inbox,
                stats: Arc::new(CommStats::default()),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_delivery() {
        let eps = LocalCluster::connect(3);
        eps[0].send(2, Bytes::from_static(b"hi")).unwrap();
        let msg = eps[2].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg.from, 0);
        assert_eq!(msg.payload.as_ref(), b"hi");
        assert!(eps[1].try_recv().is_none());
    }

    #[test]
    fn self_send_works() {
        let eps = LocalCluster::connect(2);
        eps[1].send(1, Bytes::from_static(b"me")).unwrap();
        let msg = eps[1].try_recv().unwrap();
        assert_eq!(msg.from, 1);
    }

    #[test]
    fn fifo_per_sender() {
        let eps = LocalCluster::connect(2);
        for i in 0..10u8 {
            eps[0].send(1, Bytes::from(vec![i])).unwrap();
        }
        for i in 0..10u8 {
            let msg = eps[1].try_recv().unwrap();
            assert_eq!(msg.payload[0], i);
        }
    }

    #[test]
    fn timeout_when_quiet() {
        let eps = LocalCluster::connect(2);
        assert_eq!(
            eps[0].recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvError::Timeout
        );
    }

    #[test]
    fn stats_track_both_directions_per_endpoint() {
        let eps = LocalCluster::connect(2);
        eps[0].send(1, Bytes::from(vec![0u8; 100])).unwrap();
        eps[1].send(0, Bytes::from(vec![0u8; 50])).unwrap();
        // Counters are per-endpoint: before any receive, only sends show.
        assert_eq!(eps[0].stats().msgs_sent(), 1);
        assert_eq!(eps[0].stats().bytes_sent(), 100);
        assert_eq!(eps[0].stats().msgs_recv(), 0);
        // Delivery counts on the receiving endpoint.
        eps[0].recv_timeout(Duration::from_secs(1)).unwrap();
        let snap = eps[0].stats().snapshot();
        assert_eq!(snap.msgs_recv, 1);
        assert_eq!(snap.bytes_recv, 50);
        // The asymmetry is observable: node 0 sent 100 B, received 50 B.
        assert_ne!(snap.bytes_sent, snap.bytes_recv);
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let mut total = CommSnapshot::default();
        total.merge(&CommSnapshot {
            msgs_sent: 1,
            bytes_sent: 10,
            msgs_recv: 2,
            bytes_recv: 20,
        });
        total.merge(&CommSnapshot {
            msgs_sent: 3,
            bytes_sent: 30,
            msgs_recv: 4,
            bytes_recv: 40,
        });
        assert_eq!(
            total,
            CommSnapshot {
                msgs_sent: 4,
                bytes_sent: 40,
                msgs_recv: 6,
                bytes_recv: 60,
            }
        );
    }

    #[test]
    fn cross_thread_messaging() {
        let mut eps = LocalCluster::connect(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let handle = std::thread::spawn(move || {
            // Echo server on node 1.
            let msg = b.recv_timeout(Duration::from_secs(5)).unwrap();
            b.send(msg.from, msg.payload).unwrap();
        });
        a.send(1, Bytes::from_static(b"ping")).unwrap();
        let reply = a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reply.payload.as_ref(), b"ping");
        assert_eq!(reply.from, 1);
        handle.join().unwrap();
    }

    #[test]
    fn usable_through_trait_object() {
        let transports = TransportKind::Local.connect(2).unwrap();
        assert_eq!(transports[0].cluster_size(), 2);
        transports[0].send(1, Bytes::from_static(b"dyn")).unwrap();
        let msg = transports[1].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg.from, 0);
        assert_eq!(msg.payload.as_ref(), b"dyn");
        assert_eq!(TransportKind::Local.label(), "local");
        assert_eq!(TransportKind::default(), TransportKind::Local);
    }
}
