//! The execution engine: the per-node state machine both engines drive
//! ([`NodeCore`]), and its threaded executor — the per-node conductor,
//! resource threads, and inter-node messages.

pub mod messages;
pub mod node;
pub mod node_core;
pub(crate) mod resource;

pub use node_core::{JobId, NodeCore, NodeIo, PeerMsg};
