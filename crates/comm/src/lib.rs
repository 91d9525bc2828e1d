//! Cluster transport for Rocket — the stand-in for the paper's Ibis
//! communication library.
//!
//! Rocket's distributed pieces (the level-3 cache directory, remote item
//! fetches, work-steal requests) need exactly what Ibis gave the original:
//! reliable, ordered, point-to-point messages between cluster nodes, plus
//! accounting of bytes on the wire (the simulator and the I/O figures need
//! message sizes).
//!
//! * [`transport`] — the [`Transport`] trait (send / receive / stats) and
//!   [`LocalTransport`]: crossbeam channels between threads of one
//!   process. [`TransportKind`] selects an implementation by name.
//! * [`socket`] — [`SocketTransport`]: the same contract over per-peer
//!   TCP connections with a rank-exchanging handshake; what a
//!   multi-process deployment runs on ([`SocketTransport::join`]).
//! * [`frame`] — length-prefixed framing for byte-stream transports, with
//!   an incremental decoder that tolerates arbitrarily torn reads.
//! * [`wire`] — a compact binary codec over [`bytes`] with exact
//!   encoded-size accounting; protocol messages implement [`wire::Wire`].
//! * [`liveness`] — [`Liveness`]: heartbeat bookkeeping (ping schedules,
//!   per-peer silence deadlines) the cluster driver layers over a
//!   transport to detect killed workers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod frame;
pub mod liveness;
pub mod socket;
pub mod transport;
pub mod wire;

pub use frame::{encode_frame, FrameDecoder, FRAME_HEADER, MAX_FRAME};
pub use liveness::Liveness;
pub use socket::{SocketCluster, SocketTransport};
pub use transport::{
    CommSnapshot, CommStats, Incoming, LocalCluster, LocalTransport, NodeId, RecvError, Transport,
    TransportKind,
};
pub use wire::{Wire, WireError, WireReader, WireWriter};
