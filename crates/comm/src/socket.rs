//! [`SocketTransport`]: the [`Transport`] over real TCP sockets.
//!
//! Nodes exchange [`crate::frame`]-encoded messages over one TCP
//! connection per peer pair, so ordering per peer is TCP's ordering and a
//! multi-process deployment uses exactly this wire path. The in-process
//! [`SocketCluster`] builder wires `p` endpoints over loopback;
//! [`SocketTransport::join`] is the multi-process entry point (each OS
//! process binds its own rank's address from a shared address list).
//!
//! ## Handshake
//!
//! Connection establishment is deadlock-free by construction: rank `r`
//! *connects* to every lower rank and *accepts* from every higher rank.
//! Each side of a fresh connection sends a 12-byte hello — magic
//! `b"RKT1"`, its own rank, the cluster size, all little-endian `u32` —
//! the connector first, the acceptor in reply. A magic, rank, or size
//! mismatch aborts setup: it means the address list is wrong or two
//! incompatible clusters collided on a port.
//!
//! ## Shutdown
//!
//! Dropping the transport shuts every socket down; peer reader threads
//! observe EOF and exit. Once **all** peers have hung up and the inbox is
//! drained, receives report [`RecvError::Disconnected`] at once, however
//! long the caller offered to wait: the last reader to exit leaves a
//! token in the inbox that wakes a blocked receive, and the transport
//! swallows it (never returned, never counted). Sends to a departed peer
//! likewise report `Disconnected` (best-effort, matching the protocol's
//! semantics).

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

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use rocket_sanitize::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use rocket_sanitize::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use rocket_stats::splitmix64;

use crate::frame::{write_frame, FrameDecoder};
use crate::transport::{CommStats, Incoming, NodeId, RecvError, Transport};

/// Handshake magic: `b"RKT1"` little-endian.
const MAGIC: u32 = u32::from_le_bytes(*b"RKT1");

/// First poll interval while waiting for higher-ranked peers to dial in.
/// Peers on one host dial within microseconds, so the wait starts short
/// and doubles up to [`CONNECT_RETRY`] for peers that are slow to start.
const ACCEPT_BACKOFF: Duration = Duration::from_micros(50);

/// Longest poll interval while waiting for higher-ranked peers to dial in.
const CONNECT_RETRY: Duration = Duration::from_millis(20);

/// Cap on one handshake read and on the whole accept phase — without it a
/// peer that never starts (or a stray connection that sends fewer than 12
/// bytes) would wedge mesh establishment forever, while the dial side
/// fails loudly once [`dial_delays`] is exhausted.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// The `from` rank of the token the last peer reader leaves in the inbox.
/// No node has this rank, so the token cannot be mistaken for a message.
const READERS_GONE: NodeId = NodeId::MAX;

fn io_err(kind: io::ErrorKind, msg: String) -> io::Error {
    io::Error::new(kind, msg)
}

fn send_hello(stream: &mut TcpStream, rank: usize, cluster: usize) -> io::Result<()> {
    let mut hello = Vec::with_capacity(12);
    hello.extend_from_slice(&MAGIC.to_le_bytes());
    hello.extend_from_slice(&(rank as u32).to_le_bytes());
    hello.extend_from_slice(&(cluster as u32).to_le_bytes());
    stream.write_all(&hello)
}

fn read_u32(stream: &mut TcpStream) -> io::Result<u32> {
    let mut word = [0u8; 4];
    stream.read_exact(&mut word)?;
    Ok(u32::from_le_bytes(word))
}

fn recv_hello(stream: &mut TcpStream, cluster: usize) -> io::Result<usize> {
    let magic = read_u32(stream)?;
    let rank = read_u32(stream)? as usize;
    let size = read_u32(stream)? as usize;
    if magic != MAGIC {
        return Err(io_err(
            io::ErrorKind::InvalidData,
            format!("bad handshake magic {magic:#x}"),
        ));
    }
    if size != cluster {
        return Err(io_err(
            io::ErrorKind::InvalidData,
            format!("peer believes the cluster has {size} nodes, not {cluster}"),
        ));
    }
    if rank >= cluster {
        return Err(io_err(
            io::ErrorKind::InvalidData,
            format!("peer rank {rank} out of range for {cluster} nodes"),
        ));
    }
    Ok(rank)
}

/// Waits between dials of a peer whose listener may not be up yet
/// (separate OS processes start in arbitrary order): 27 waits of
/// `min(20 ms·1.5^k, 500 ms)`, about 10 s in all, each scaled by ±10 %
/// jitter. The jitter stream is seeded from the dialing rank, so a rank
/// always backs off the same way while co-started processes do not hammer
/// a slow listener in lockstep.
fn dial_delays(rank: usize) -> impl Iterator<Item = Duration> {
    let mut jitter = rank as u64;
    (0..27).map(move |k| {
        let nominal = (0.020 * 1.5f64.powi(k)).min(0.5);
        let u = splitmix64(&mut jitter) as f64 / u64::MAX as f64;
        Duration::from_secs_f64(nominal * (0.9 + 0.2 * u))
    })
}

/// Runs `op` once, then once more after each of `delays` until it
/// succeeds; returns the first success or the last error.
fn with_backoff<T>(
    delays: impl Iterator<Item = Duration>,
    mut sleep: impl FnMut(Duration),
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut result = op();
    for delay in delays {
        if result.is_ok() {
            break;
        }
        sleep(delay);
        result = op();
    }
    result
}

fn connect_with_retry(addr: SocketAddr, rank: usize) -> io::Result<TcpStream> {
    with_backoff(dial_delays(rank), std::thread::sleep, || {
        TcpStream::connect(addr)
    })
}

/// [`Transport`] over per-peer TCP connections (loopback or LAN).
pub struct SocketTransport {
    node: NodeId,
    cluster: usize,
    /// Write halves, indexed by peer rank (`None` at our own index).
    writers: Vec<Option<Mutex<TcpStream>>>,
    /// Self-send fast path straight into the inbox.
    loopback: Sender<Incoming>,
    inbox: Receiver<Incoming>,
    stats: Arc<CommStats>,
    /// Peer reader threads still running (drives `Disconnected`).
    live_readers: Arc<AtomicUsize>,
    /// Per-peer connection state (`None` at our own index): cleared when
    /// the peer's reader thread exits or a send to it fails.
    peer_up: Vec<Option<Arc<AtomicBool>>>,
    readers: Vec<JoinHandle<()>>,
}

impl SocketTransport {
    /// Joins a cluster as `rank` of `addrs.len()` processes: binds
    /// `addrs[rank]`, connects to every lower rank (retrying while their
    /// listeners come up), and accepts every higher rank.
    ///
    /// This is the multi-process entry point — each OS process calls it
    /// with the same address list and its own rank (the `rocket-node`
    /// binary does exactly that).
    pub fn join(rank: usize, addrs: &[SocketAddr]) -> io::Result<SocketTransport> {
        let Some(&local) = addrs.get(rank) else {
            return Err(io_err(
                io::ErrorKind::InvalidInput,
                format!("rank {rank} out of range for {} addresses", addrs.len()),
            ));
        };
        let listener = TcpListener::bind(local)?;
        establish_mesh(rank, listener, addrs)
    }

    /// Builds the transport from one established, handshaken connection
    /// per peer (index = rank, `None` at `rank` itself).
    fn from_connections(rank: usize, conns: Vec<Option<TcpStream>>) -> io::Result<SocketTransport> {
        let p = conns.len();
        let stats = Arc::new(CommStats::default());
        let (loopback, inbox) = unbounded();
        let live_readers = Arc::new(AtomicUsize::new(0));
        let mut writers = Vec::with_capacity(p);
        let mut peer_up = Vec::with_capacity(p);
        let mut readers = Vec::new();
        for (peer, conn) in conns.into_iter().enumerate() {
            let Some(stream) = conn else {
                writers.push(None);
                peer_up.push(None);
                continue;
            };
            stream.set_nodelay(true)?;
            let read_half = stream.try_clone()?;
            live_readers.fetch_add(1, Ordering::AcqRel);
            let alive = Arc::clone(&live_readers);
            let up = Arc::new(AtomicBool::new(true));
            let up_flag = Arc::clone(&up);
            let tx = loopback.clone();
            let handle = std::thread::Builder::new()
                .name(format!("rocket-sock-{rank}-from-{peer}"))
                .spawn(move || {
                    read_loop(peer, read_half, &tx);
                    up_flag.store(false, Ordering::Release);
                    // The transport's own `loopback` sender keeps the inbox
                    // connected, so the last reader out wakes a blocked
                    // receive itself.
                    if alive.fetch_sub(1, Ordering::AcqRel) == 1 {
                        let _ = tx.send(Incoming {
                            from: READERS_GONE,
                            payload: Bytes::new(),
                        });
                    }
                })
                .map_err(|e| io_err(io::ErrorKind::Other, format!("spawn reader: {e}")))?;
            readers.push(handle);
            writers.push(Some(Mutex::named("writer", stream)));
            peer_up.push(Some(up));
        }
        Ok(SocketTransport {
            node: rank,
            cluster: p,
            writers,
            loopback,
            inbox,
            stats,
            live_readers,
            peer_up,
            readers,
        })
    }

    fn deliver(&self, msg: Incoming) -> Incoming {
        self.stats.record_recv(msg.payload.len());
        msg
    }
}

/// Pumps one peer connection: decode frames, forward to the inbox. Exits
/// on EOF (peer shut down), connection error, or a corrupt frame (a byte
/// stream cannot resynchronize after a bad length prefix).
fn read_loop(peer: NodeId, mut stream: TcpStream, tx: &Sender<Incoming>) {
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        let Some(data) = chunk.get(..n) else {
            return; // read() reported more bytes than the buffer holds
        };
        decoder.extend(data);
        loop {
            match decoder.next_frame() {
                Ok(Some(payload)) => {
                    if tx
                        .send(Incoming {
                            from: peer,
                            payload,
                        })
                        .is_err()
                    {
                        return; // transport dropped
                    }
                }
                Ok(None) => break,
                Err(_) => return,
            }
        }
    }
}

impl Transport for SocketTransport {
    fn node(&self) -> NodeId {
        self.node
    }

    fn cluster_size(&self) -> usize {
        self.cluster
    }

    fn send(&self, to: NodeId, payload: Bytes) -> Result<(), RecvError> {
        let len = payload.len();
        if to == self.node {
            // Self-sends bypass TCP but count like any other message so
            // both transports account identically.
            self.loopback
                .send(Incoming {
                    from: self.node,
                    payload,
                })
                .map_err(|_| RecvError::Disconnected)?;
        } else {
            // An out-of-range or self rank has no writer: report the peer
            // unreachable instead of panicking in the send path.
            let Some(Some(writer)) = self.writers.get(to) else {
                return Err(RecvError::Disconnected);
            };
            // A peer whose reader saw it hang up is gone. The kernel would
            // still take the first frame written after the hang-up (a
            // frame is one write), so the write cannot be the only check.
            if !self.peer_alive(to) {
                return Err(RecvError::Disconnected);
            }
            let mut stream = writer.lock();
            write_frame(&mut *stream, &payload).map_err(|_| {
                // A failed write is positive evidence the peer is gone.
                if let Some(Some(up)) = self.peer_up.get(to) {
                    up.store(false, Ordering::Release);
                }
                RecvError::Disconnected
            })?;
        }
        self.stats.record_send(len);
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Incoming, RecvError> {
        loop {
            // All peers hung up (readers exited): drain what is left, then
            // report disconnection — unless this is a single-node cluster,
            // which has no peers to lose.
            if self.cluster > 1 && self.live_readers.load(Ordering::Acquire) == 0 {
                return self.try_recv().ok_or(RecvError::Disconnected);
            }
            match self.inbox.recv_timeout(timeout) {
                // The last reader left: the check above now sees it.
                Ok(msg) if msg.from == READERS_GONE => continue,
                Ok(msg) => return Ok(self.deliver(msg)),
                Err(RecvTimeoutError::Timeout) => return Err(RecvError::Timeout),
                Err(RecvTimeoutError::Disconnected) => return Err(RecvError::Disconnected),
            }
        }
    }

    fn try_recv(&self) -> Option<Incoming> {
        loop {
            let msg = self.inbox.try_recv().ok()?;
            if msg.from != READERS_GONE {
                return Some(self.deliver(msg));
            }
        }
    }

    fn peer_alive(&self, peer: NodeId) -> bool {
        match self.peer_up.get(peer) {
            Some(Some(up)) => up.load(Ordering::Acquire),
            // Our own slot (or an out-of-range rank, which has no
            // connection to lose).
            _ => true,
        }
    }

    fn stats(&self) -> Arc<CommStats> {
        Arc::clone(&self.stats)
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        for writer in self.writers.iter().flatten() {
            let stream = writer.lock();
            let _ = stream.shutdown(Shutdown::Both);
        }
        for handle in self.readers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("node", &self.node)
            .field("cluster", &self.cluster)
            .finish_non_exhaustive()
    }
}

/// Builder for an in-process cluster of [`SocketTransport`]s over
/// loopback TCP (ports assigned by the OS).
pub struct SocketCluster;

impl SocketCluster {
    /// Creates `p` fully connected endpoints (index = rank) over
    /// `127.0.0.1`. All listeners are bound before any connection is
    /// attempted, so establishment cannot race the address list.
    pub fn connect(p: usize) -> io::Result<Vec<SocketTransport>> {
        if p == 0 {
            return Err(io_err(
                io::ErrorKind::InvalidInput,
                "cluster must have at least one node".into(),
            ));
        }
        let mut listeners = Vec::with_capacity(p);
        let mut addrs = Vec::with_capacity(p);
        for _ in 0..p {
            let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
            addrs.push(listener.local_addr()?);
            listeners.push(listener);
        }
        let addrs = &addrs;
        std::thread::scope(|scope| {
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(rank, listener)| scope.spawn(move || establish_mesh(rank, listener, addrs)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(io_err(
                            io::ErrorKind::Other,
                            "mesh setup thread panicked".into(),
                        ))
                    })
                })
                .collect()
        })
    }
}

/// One rank's side of mesh establishment: connect down, accept up,
/// handshake everything, then assemble the transport.
fn establish_mesh(
    rank: usize,
    listener: TcpListener,
    addrs: &[SocketAddr],
) -> io::Result<SocketTransport> {
    let p = addrs.len();
    let mut conns: Vec<Option<TcpStream>> = (0..p).map(|_| None).collect();
    for (peer, &addr) in addrs.iter().enumerate().take(rank) {
        let mut stream = connect_with_retry(addr, rank)?;
        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        send_hello(&mut stream, rank, p)?;
        let said = recv_hello(&mut stream, p)?;
        if said != peer {
            return Err(io_err(
                io::ErrorKind::InvalidData,
                format!("dialed rank {peer} but reached rank {said}"),
            ));
        }
        stream.set_read_timeout(None)?;
        if let Some(slot) = conns.get_mut(peer) {
            *slot = Some(stream);
        }
    }
    // Accept phase, bounded by a deadline. A connection that fails the
    // handshake (a stray client, a half-open dial) is dropped without
    // consuming a peer slot; only a handshaken peer with a bogus rank
    // aborts establishment.
    let expected = p - rank - 1;
    let mut accepted = 0;
    let deadline = std::time::Instant::now() + HANDSHAKE_TIMEOUT;
    let mut backoff = ACCEPT_BACKOFF;
    listener.set_nonblocking(true)?;
    while accepted < expected {
        match listener.accept() {
            Ok((mut stream, _)) => {
                backoff = ACCEPT_BACKOFF;
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
                match recv_hello(&mut stream, p) {
                    Ok(peer) => {
                        if peer <= rank || conns.get(peer).is_some_and(|c| c.is_some()) {
                            return Err(io_err(
                                io::ErrorKind::InvalidData,
                                format!("unexpected connection from rank {peer}"),
                            ));
                        }
                        send_hello(&mut stream, rank, p)?;
                        stream.set_read_timeout(None)?;
                        // recv_hello bounds `peer` below `p`, so the slot
                        // exists; a missing slot just drops the stray.
                        if let Some(slot) = conns.get_mut(peer) {
                            *slot = Some(stream);
                            accepted += 1;
                        }
                    }
                    Err(_) => continue, // stray connection: drop, keep waiting
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if std::time::Instant::now() >= deadline {
                    return Err(io_err(
                        io::ErrorKind::TimedOut,
                        format!(
                            "rank {rank}: {} of {expected} higher-ranked peers never connected",
                            expected - accepted
                        ),
                    ));
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(CONNECT_RETRY);
            }
            Err(e) => return Err(e),
        }
    }
    SocketTransport::from_connections(rank, conns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(p: usize) -> Vec<SocketTransport> {
        SocketCluster::connect(p).expect("loopback cluster")
    }

    #[test]
    fn point_to_point_delivery() {
        let eps = cluster(3);
        eps[0].send(2, Bytes::from_static(b"hi")).unwrap();
        let msg = eps[2].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(msg.from, 0);
        assert_eq!(msg.payload.as_ref(), b"hi");
        assert!(eps[1].try_recv().is_none());
    }

    #[test]
    fn self_send_works() {
        let eps = cluster(2);
        eps[1].send(1, Bytes::from_static(b"me")).unwrap();
        let msg = eps[1].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(msg.from, 1);
    }

    #[test]
    fn fifo_per_sender() {
        let eps = cluster(2);
        for i in 0..100u8 {
            eps[0].send(1, Bytes::from(vec![i; 64])).unwrap();
        }
        for i in 0..100u8 {
            let msg = eps[1].recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(msg.from, 0);
            assert_eq!(msg.payload[0], i);
        }
    }

    #[test]
    fn large_payload_survives_framing() {
        let eps = cluster(2);
        let payload: Vec<u8> = (0..1_000_000u32).map(|i| i as u8).collect();
        eps[0].send(1, Bytes::from(payload.clone())).unwrap();
        let msg = eps[1].recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(msg.payload.as_ref(), &payload[..]);
    }

    #[test]
    fn stats_count_payload_bytes_both_directions() {
        let eps = cluster(2);
        eps[0].send(1, Bytes::from(vec![0u8; 100])).unwrap();
        eps[1].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(eps[0].stats().msgs_sent(), 1);
        assert_eq!(eps[0].stats().bytes_sent(), 100);
        assert_eq!(eps[1].stats().msgs_recv(), 1);
        assert_eq!(eps[1].stats().bytes_recv(), 100);
    }

    #[test]
    fn shutdown_maps_to_disconnected() {
        let mut eps = cluster(2);
        let survivor = eps.pop().unwrap();
        drop(eps); // node 0 leaves: its sockets shut down
        let err = loop {
            match survivor.recv_timeout(Duration::from_millis(10)) {
                Err(e) => break e,
                Ok(_) => continue,
            }
        };
        assert_eq!(err, RecvError::Disconnected);
        // Sends to the departed peer fail the same way.
        assert_eq!(
            survivor.send(0, Bytes::from_static(b"late")).unwrap_err(),
            RecvError::Disconnected
        );
    }

    #[test]
    fn disconnect_is_reported_without_waiting_out_the_timeout() {
        let mut eps = cluster(2);
        let survivor = eps.pop().unwrap();
        drop(eps);
        let start = std::time::Instant::now();
        assert_eq!(
            survivor.recv_timeout(Duration::from_secs(30)).unwrap_err(),
            RecvError::Disconnected
        );
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "Disconnected took {:?}",
            start.elapsed()
        );
        // The last reader's wake-up is neither returned nor counted.
        assert!(survivor.try_recv().is_none());
        assert_eq!(survivor.stats().snapshot(), Default::default());
    }

    #[test]
    fn blocked_receive_wakes_when_the_last_peer_leaves() {
        let mut eps = cluster(3);
        let survivor = eps.remove(0);
        let leaver = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            drop(eps);
        });
        let start = std::time::Instant::now();
        assert_eq!(
            survivor.recv_timeout(Duration::from_secs(30)).unwrap_err(),
            RecvError::Disconnected
        );
        assert!(start.elapsed() < Duration::from_secs(1));
        leaver.join().unwrap();
    }

    #[test]
    fn cross_thread_echo() {
        let mut eps = cluster(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let handle = std::thread::spawn(move || {
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
    fn four_node_all_to_all() {
        let eps = cluster(4);
        std::thread::scope(|scope| {
            for ep in &eps {
                scope.spawn(move || {
                    for peer in 0..ep.cluster_size() {
                        if peer != ep.node() {
                            ep.send(peer, Bytes::from(vec![ep.node() as u8])).unwrap();
                        }
                    }
                    let mut seen = Vec::new();
                    for _ in 0..ep.cluster_size() - 1 {
                        let msg = ep.recv_timeout(Duration::from_secs(5)).unwrap();
                        assert_eq!(msg.payload[0] as usize, msg.from);
                        seen.push(msg.from);
                    }
                    seen.sort_unstable();
                    let expect: Vec<usize> =
                        (0..ep.cluster_size()).filter(|&n| n != ep.node()).collect();
                    assert_eq!(seen, expect);
                });
            }
        });
    }

    #[test]
    fn join_rejects_bad_rank() {
        let addrs = vec!["127.0.0.1:9".parse().unwrap()];
        assert!(SocketTransport::join(1, &addrs).is_err());
    }

    /// A raw connection pair plus a running `read_loop` on the accept side,
    /// for driving the reader with hand-crafted byte sequences. Also
    /// returns a write handle to the reader's socket (for provoking RST).
    fn raw_reader() -> (TcpStream, TcpStream, JoinHandle<()>, Receiver<Incoming>) {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let server_w = server.try_clone().unwrap();
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || read_loop(0, server, &tx));
        (client, server_w, handle, rx)
    }

    #[test]
    fn torn_final_frame_exits_reader_cleanly() {
        let (mut client, _w, reader, rx) = raw_reader();
        // One whole frame, then a frame whose peer dies 3 bytes in.
        client
            .write_all(&crate::frame::encode_frame(b"whole"))
            .unwrap();
        client.write_all(&20u32.to_le_bytes()).unwrap();
        client.write_all(&[1, 2, 3]).unwrap();
        drop(client);
        reader
            .join()
            .expect("reader must not panic on a torn frame");
        let delivered: Vec<Incoming> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        assert_eq!(delivered.len(), 1, "only the whole frame is delivered");
        assert_eq!(delivered[0].payload.as_ref(), b"whole");
    }

    #[test]
    fn connection_reset_exits_reader_cleanly() {
        let (client, mut server_w, reader, rx) = raw_reader();
        // Closing a socket that still has unread inbound data makes the
        // kernel send RST instead of FIN, so the reader sees a hard
        // connection error rather than clean EOF.
        server_w.write_all(b"you never read this").unwrap();
        std::thread::sleep(Duration::from_millis(50)); // let it land
        drop(client);
        reader.join().expect("reader must not panic on RST");
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn corrupt_length_prefix_exits_reader_cleanly() {
        let (mut client, _w, reader, rx) = raw_reader();
        // Length prefix far beyond MAX_FRAME: unrecoverable for a byte
        // stream, so the reader drops the connection.
        client.write_all(&u32::MAX.to_le_bytes()).unwrap();
        client.write_all(&[0u8; 32]).unwrap();
        reader.join().expect("reader must not panic on corruption");
        assert!(rx.try_recv().is_err());
        drop(client);
    }

    #[test]
    fn peer_loss_flips_peer_alive() {
        let mut eps = cluster(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        assert!((0..3).all(|p| a.peer_alive(p)), "all up at start");
        drop(b);
        // Rank 1's sockets shut down; a's reader observes EOF shortly.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while a.peer_alive(1) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!a.peer_alive(1), "dead peer must be reported down");
        assert!(a.peer_alive(0), "own slot stays up");
        assert!(a.peer_alive(2), "surviving peer stays up");
        // The surviving pair still works.
        a.send(2, Bytes::from_static(b"still-on")).unwrap();
        let msg = c.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(msg.payload.as_ref(), b"still-on");
    }

    #[test]
    fn send_failure_marks_peer_down() {
        let mut eps = cluster(2);
        let a = eps.remove(0);
        drop(eps); // rank 1 gone
                   // TCP may buffer a few sends before the failure surfaces; keep
                   // pushing until the write errors.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match a.send(1, Bytes::from(vec![0u8; 4096])) {
                Err(e) => {
                    assert_eq!(e, RecvError::Disconnected);
                    break;
                }
                Ok(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(_) => panic!("sends to a dead peer never failed"),
            }
        }
        assert!(!a.peer_alive(1));
    }

    #[test]
    fn dial_schedule_is_deterministic_capped_and_rank_specific() {
        let delays: Vec<Duration> = dial_delays(1).collect();
        assert_eq!(delays.len(), 27);
        assert_eq!(delays, dial_delays(1).collect::<Vec<_>>());
        assert_ne!(delays, dial_delays(2).collect::<Vec<_>>());
        for (k, d) in delays.iter().enumerate() {
            let nominal = (0.020 * 1.5f64.powi(k as i32)).min(0.5);
            let ratio = d.as_secs_f64() / nominal;
            assert!((0.9..=1.1).contains(&ratio), "wait {k}: {d:?}");
        }
        let total: Duration = delays.iter().sum();
        assert!(
            (Duration::from_secs(9)..Duration::from_secs(12)).contains(&total),
            "{total:?}"
        );
    }

    #[test]
    fn backoff_stops_at_the_first_success() {
        for failures in 0..3 {
            let mut slept = Vec::new();
            let mut attempts = 0;
            let out = with_backoff(
                dial_delays(0),
                |d| slept.push(d),
                || {
                    attempts += 1;
                    if attempts <= failures {
                        Err(io::Error::other("refused"))
                    } else {
                        Ok(attempts)
                    }
                },
            );
            assert_eq!(out.unwrap(), failures + 1);
            // No wait precedes the first dial.
            assert_eq!(slept, dial_delays(0).take(failures).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_dial_that_keeps_failing_returns_the_last_error() {
        let mut slept = 0;
        let mut attempts = 0;
        let out: io::Result<()> = with_backoff(
            dial_delays(0),
            |_| slept += 1,
            || {
                attempts += 1;
                Err(io::Error::other(format!("attempt {attempts}")))
            },
        );
        assert_eq!(out.unwrap_err().to_string(), "attempt 28");
        assert_eq!(slept, 27);
    }
}
