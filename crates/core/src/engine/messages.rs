//! Inter-node messages of the threaded cluster runtime.

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

use bytes::Bytes;
use rocket_cache::{DirectoryMsg, HopChain, NodeId, MAX_HOPS};
use rocket_comm::{Wire, WireError, WireReader, WireWriter};

/// Everything one Rocket node says to another, generic over the payload
/// of a fetched item: `Bytes` on the wire ([`NodeMsg`]), `()` in the
/// simulator, which moves no bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerMsg<D> {
    /// Distributed-cache directory protocol (§4.1.3).
    Dir(DirectoryMsg),
    /// "Send me item `item` from your host cache."
    Fetch {
        /// Requested item.
        item: u64,
    },
    /// Reply to [`PeerMsg::Fetch`]: the item, or `None` if it was no
    /// longer resident (best-effort semantics).
    FetchReply {
        /// The requested item.
        item: u64,
        /// Pre-processed item bytes, if still cached.
        data: Option<D>,
    },
}

/// The messages of the threaded cluster runtime.
pub type NodeMsg = PeerMsg<Bytes>;

impl<D> PeerMsg<D> {
    /// The item the message is about.
    pub fn item(&self) -> u64 {
        match self {
            PeerMsg::Dir(
                DirectoryMsg::Request { item, .. }
                | DirectoryMsg::Probe { item, .. }
                | DirectoryMsg::Found { item, .. }
                | DirectoryMsg::NotFound { item },
            )
            | PeerMsg::Fetch { item }
            | PeerMsg::FetchReply { item, .. } => *item,
        }
    }
}

impl Wire for NodeMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            NodeMsg::Dir(d) => {
                w.put_u8(0);
                encode_dir(d, w);
            }
            NodeMsg::Fetch { item } => {
                w.put_u8(1);
                w.put_u64(*item);
            }
            NodeMsg::FetchReply { item, data } => {
                w.put_u8(2);
                w.put_u64(*item);
                data.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(NodeMsg::Dir(decode_dir(r)?)),
            1 => Ok(NodeMsg::Fetch { item: r.get_u64()? }),
            2 => Ok(NodeMsg::FetchReply {
                item: r.get_u64()?,
                data: Option::<Bytes>::decode(r)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

fn encode_dir(d: &DirectoryMsg, w: &mut WireWriter) {
    match d {
        DirectoryMsg::Request { item, requester } => {
            w.put_u8(0);
            w.put_u64(*item);
            w.put_u64(*requester as u64);
        }
        DirectoryMsg::Probe {
            item,
            requester,
            rest,
            hop,
        } => {
            w.put_u8(1);
            w.put_u64(*item);
            w.put_u64(*requester as u64);
            w.put_u64(rest.len() as u64);
            for n in rest.iter() {
                w.put_u64(n as u64);
            }
            w.put_u8(*hop);
        }
        DirectoryMsg::Found { item, holder, hop } => {
            w.put_u8(2);
            w.put_u64(*item);
            w.put_u64(*holder as u64);
            w.put_u8(*hop);
        }
        DirectoryMsg::NotFound { item } => {
            w.put_u8(3);
            w.put_u64(*item);
        }
    }
}

fn decode_dir(r: &mut WireReader) -> Result<DirectoryMsg, WireError> {
    match r.get_u8()? {
        0 => Ok(DirectoryMsg::Request {
            item: r.get_u64()?,
            requester: r.get_u64()? as NodeId,
        }),
        1 => {
            let item = r.get_u64()?;
            let requester = r.get_u64()? as NodeId;
            let len = r.get_u64()?;
            if len > MAX_HOPS as u64 {
                return Err(WireError::BadLength(len));
            }
            let mut rest = HopChain::new();
            for _ in 0..len {
                let node = r.get_u64()?;
                // Node ranks fit u32 (HopChain's storage); a larger value
                // is a corrupt frame, not a valid peer.
                if node > u32::MAX as u64 {
                    return Err(WireError::BadLength(node));
                }
                rest.push(node as NodeId);
            }
            Ok(DirectoryMsg::Probe {
                item,
                requester,
                rest,
                hop: r.get_u8()?,
            })
        }
        2 => Ok(DirectoryMsg::Found {
            item: r.get_u64()?,
            holder: r.get_u64()? as NodeId,
            hop: r.get_u8()?,
        }),
        3 => Ok(DirectoryMsg::NotFound { item: r.get_u64()? }),
        t => Err(WireError::BadTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: NodeMsg) {
        let bytes = msg.to_bytes();
        assert_eq!(NodeMsg::from_bytes(bytes).unwrap(), msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(NodeMsg::Dir(DirectoryMsg::Request {
            item: 7,
            requester: 3,
        }));
        roundtrip(NodeMsg::Dir(DirectoryMsg::Probe {
            item: 9,
            requester: 0,
            rest: [1, 2, 5].into_iter().collect(),
            hop: 2,
        }));
        roundtrip(NodeMsg::Dir(DirectoryMsg::Found {
            item: 1,
            holder: 4,
            hop: 1,
        }));
        roundtrip(NodeMsg::Dir(DirectoryMsg::NotFound { item: 2 }));
        roundtrip(NodeMsg::Fetch { item: 11 });
        roundtrip(NodeMsg::FetchReply {
            item: 11,
            data: None,
        });
        roundtrip(NodeMsg::FetchReply {
            item: 11,
            data: Some(Bytes::from(vec![1u8, 2, 3])),
        });
    }

    #[test]
    fn fetch_reply_size_accounts_payload() {
        let small = NodeMsg::FetchReply {
            item: 1,
            data: Some(Bytes::from(vec![0u8; 10])),
        };
        let big = NodeMsg::FetchReply {
            item: 1,
            data: Some(Bytes::from(vec![0u8; 1000])),
        };
        assert_eq!(big.to_bytes().len() - small.to_bytes().len(), 990);
    }

    #[test]
    fn bad_tag_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(9);
        assert!(matches!(
            NodeMsg::from_bytes(w.finish()),
            Err(WireError::BadTag(9))
        ));
    }
}
