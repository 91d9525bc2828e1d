//! The distributed-cache lookup scheme of §4.1.3.
//!
//! After a local (device + host) miss, a node asks the cluster whether any
//! peer's host cache holds the item, avoiding a re-execution of the load
//! pipeline. There is no central registry; instead the nodes form a light
//! distributed hash table:
//!
//! * item `i` is *mediated* by node `i mod p` — that node does not store the
//!   item, it only remembers the last `h` nodes that requested it (the
//!   `candidates` array),
//! * a request from node A goes to the mediator B, which prepends A to
//!   `candidates[i]` and forwards the probe to candidate C₁ (carrying the
//!   rest of the list),
//! * each candidate checks its host cache: hit → data goes straight to A;
//!   miss → forward to the next candidate; list exhausted → failure to A,
//!   upon which A executes `ℓ(i)` locally.
//!
//! Cost per request is at most `h + 2` messages. The scheme is *best
//! effort*: a failure is never incorrect, only a missed reuse opportunity.
//!
//! [`Directory`] implements one node's share of the protocol as a pure
//! message-driven state machine: `handle` consumes a message and returns the
//! messages to send next, with the local host-cache check abstracted as a
//! closure. Both the threaded runtime and the simulator drive it.

use std::collections::VecDeque;

use crate::fxhash::FxHashMap;

/// Cluster node identifier (rank), `0..p`.
pub type NodeId = usize;

/// Maximum probe depth `h` the protocol supports (and therefore the
/// longest candidate chain a [`DirectoryMsg::Probe`] ever carries inline).
///
/// The paper evaluates `h ∈ {1, 2, 3}` and runs production configurations
/// at `h = 1`; eight is comfortably above anything useful while keeping
/// probe messages heap-free.
pub const MAX_HOPS: usize = 8;

/// Inline, fixed-capacity candidate chain carried by probe messages.
///
/// Replaces the old `Vec<NodeId>` hop list: directory traffic is the
/// hottest message class of the simulator (and the only per-message heap
/// user), so the chain is stored in-message — `Copy`, no allocation, no
/// drop. Capacity is [`MAX_HOPS`] entries (the protocol itself only ever
/// needs `h − 1 ≤ MAX_HOPS − 1` for a probe's *rest* list, since the
/// first candidate is addressed directly); `push` beyond capacity
/// saturates, which is always legal because the protocol is best effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HopChain {
    len: u8,
    nodes: [u32; MAX_HOPS],
}

impl HopChain {
    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of candidates in the chain.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no candidates remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a candidate; silently drops it if the chain is full (the
    /// lookup then simply probes fewer peers — a missed-reuse, never an
    /// error).
    pub fn push(&mut self, node: NodeId) {
        if (self.len as usize) < MAX_HOPS {
            self.nodes[self.len as usize] = u32::try_from(node).expect("node id fits u32");
            self.len += 1;
        }
    }

    /// Removes and returns the first candidate.
    pub fn take_first(&mut self) -> Option<NodeId> {
        if self.len == 0 {
            return None;
        }
        let first = self.nodes[0] as NodeId;
        self.nodes.copy_within(1..self.len as usize, 0);
        self.len -= 1;
        // Clear the vacated slot: the derived `PartialEq` compares the
        // whole array, so a stale tail would make logically equal chains
        // (e.g. a forwarded probe vs its wire round-trip) compare unequal.
        self.nodes[self.len as usize] = 0;
        Some(first)
    }

    /// Iterates the candidates front to back.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[..self.len as usize].iter().map(|&n| n as NodeId)
    }
}

impl FromIterator<NodeId> for HopChain {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut chain = Self::new();
        for n in iter {
            chain.push(n);
        }
        chain
    }
}

/// Protocol messages. Data transfer itself is out of band: on a hit the
/// holder replies [`DirectoryMsg::Found`] and the caller moves the bytes
/// (the simulator charges the network model; the threaded runtime sends the
/// payload over the transport).
///
/// Messages are `Copy` — the probe candidate chain lives inline in a
/// [`HopChain`], so forwarding a message never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectoryMsg {
    /// Requester → mediator: who has `item`?
    Request {
        /// The item being looked up.
        item: u64,
        /// The node that wants the item.
        requester: NodeId,
    },
    /// Mediator → candidate chain: check your host cache for `item`.
    Probe {
        /// The item being looked up.
        item: u64,
        /// The node that wants the item.
        requester: NodeId,
        /// Remaining candidates to try after the receiver.
        rest: HopChain,
        /// 1-based index of this probe in the chain (for Fig 11's
        /// hit-at-hop statistics).
        hop: u8,
    },
    /// Holder → requester: `holder`'s host cache has the item.
    Found {
        /// The item that was located.
        item: u64,
        /// The node that has the item (data comes from here).
        holder: NodeId,
        /// The hop at which the item was found.
        hop: u8,
    },
    /// Final candidate (or mediator with no candidates) → requester: the
    /// lookup failed; load locally.
    NotFound {
        /// The item that could not be located.
        item: u64,
    },
}

/// Per-node statistics of distributed-cache lookups (requester side counts
/// outcomes; Fig 11 plots their cluster-wide aggregate).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirectoryStats {
    /// Requests answered `Found`, indexed by hop (index 0 = first hop).
    pub hits_at_hop: Vec<u64>,
    /// Requests answered `NotFound`.
    pub misses: u64,
    /// Protocol messages this node sent (all roles).
    pub messages_sent: u64,
}

impl DirectoryStats {
    /// Total successful lookups.
    pub fn hits(&self) -> u64 {
        self.hits_at_hop.iter().sum()
    }

    /// Total lookups completed.
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses
    }

    /// Merges another node's counters.
    pub fn merge(&mut self, other: &DirectoryStats) {
        if self.hits_at_hop.len() < other.hits_at_hop.len() {
            self.hits_at_hop.resize(other.hits_at_hop.len(), 0);
        }
        for (i, &h) in other.hits_at_hop.iter().enumerate() {
            self.hits_at_hop[i] += h;
        }
        self.misses += other.misses;
        self.messages_sent += other.messages_sent;
    }

    fn record_hit(&mut self, hop: u8) {
        let idx = hop.max(1) as usize - 1;
        if self.hits_at_hop.len() <= idx {
            self.hits_at_hop.resize(idx + 1, 0);
        }
        self.hits_at_hop[idx] += 1;
    }
}

/// One node's view of the distributed cache directory.
#[derive(Debug)]
pub struct Directory {
    node: NodeId,
    nodes: usize,
    h: usize,
    candidates: FxHashMap<u64, VecDeque<NodeId>>,
    stats: DirectoryStats,
}

/// Outcome of handling a message locally (returned alongside outgoing
/// messages): the requester learns its lookup resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Still in flight.
    InFlight,
    /// The item is available at `holder` (hop recorded for stats).
    Found {
        /// Node holding the item.
        holder: NodeId,
        /// Hop at which it was found.
        hop: u8,
    },
    /// Nobody had it: execute ℓ locally.
    LoadLocally,
}

impl Directory {
    /// Creates the directory shard for `node` in a cluster of `nodes` nodes
    /// with maximum probe depth `h` (`1 ≤ h ≤` [`MAX_HOPS`]; larger values
    /// are clamped — probe chains are carried inline and the paper shows
    /// hops beyond the first contribute almost nothing).
    pub fn new(node: NodeId, nodes: usize, h: usize) -> Self {
        assert!(nodes > 0, "cluster must have at least one node");
        assert!(node < nodes, "node id out of range");
        assert!(h >= 1, "h must be at least 1");
        Self {
            node,
            nodes,
            h: h.min(MAX_HOPS),
            candidates: FxHashMap::default(),
            stats: DirectoryStats::default(),
        }
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The mediator responsible for `item` (`item mod p`).
    pub fn mediator(&self, item: u64) -> NodeId {
        (item % self.nodes as u64) as usize
    }

    /// Requester-side statistics.
    pub fn stats(&self) -> &DirectoryStats {
        &self.stats
    }

    /// Starts a lookup for `item`: returns the message to send (possibly to
    /// this very node — the driver must deliver self-addressed messages).
    pub fn begin_lookup(&mut self, item: u64) -> (NodeId, DirectoryMsg) {
        self.stats.messages_sent += 1;
        (
            self.mediator(item),
            DirectoryMsg::Request {
                item,
                requester: self.node,
            },
        )
    }

    /// Handles an incoming protocol message.
    ///
    /// `host_has` tells whether this node's host cache currently holds an
    /// item (in READ state). Returns messages to forward plus, when this
    /// node is the requester and the lookup terminated, the [`Resolution`].
    pub fn handle(
        &mut self,
        msg: DirectoryMsg,
        host_has: impl FnOnce(u64) -> bool,
    ) -> (Vec<(NodeId, DirectoryMsg)>, Resolution) {
        match msg {
            DirectoryMsg::Request { item, requester } => {
                debug_assert_eq!(
                    self.mediator(item),
                    self.node,
                    "request routed to wrong mediator"
                );
                let chain: HopChain = self
                    .candidates
                    .get(&item)
                    .map(|c| c.iter().copied().collect())
                    .unwrap_or_default();
                // Remember the requester: it will soon hold the item (it
                // either fetches it or loads it) — the freshest candidate.
                let entry = self.candidates.entry(item).or_default();
                entry.retain(|&n| n != requester);
                entry.push_front(requester);
                entry.truncate(self.h);
                // Skip the requester itself: probing A for A's own request
                // is allowed by the paper but always useless.
                let mut chain: HopChain = chain.iter().filter(|&n| n != requester).collect();
                match chain.take_first() {
                    Some(first) => {
                        let rest: HopChain = chain.iter().take(self.h.saturating_sub(1)).collect();
                        self.stats.messages_sent += 1;
                        (
                            vec![(
                                first,
                                DirectoryMsg::Probe {
                                    item,
                                    requester,
                                    rest,
                                    hop: 1,
                                },
                            )],
                            Resolution::InFlight,
                        )
                    }
                    None => {
                        self.stats.messages_sent += 1;
                        (
                            vec![(requester, DirectoryMsg::NotFound { item })],
                            Resolution::InFlight,
                        )
                    }
                }
            }
            DirectoryMsg::Probe {
                item,
                requester,
                mut rest,
                hop,
            } => {
                if host_has(item) {
                    self.stats.messages_sent += 1;
                    return (
                        vec![(
                            requester,
                            DirectoryMsg::Found {
                                item,
                                holder: self.node,
                                hop,
                            },
                        )],
                        Resolution::InFlight,
                    );
                }
                if rest.is_empty() || (hop as usize) >= self.h {
                    self.stats.messages_sent += 1;
                    return (
                        vec![(requester, DirectoryMsg::NotFound { item })],
                        Resolution::InFlight,
                    );
                }
                let next = rest.take_first().expect("chain non-empty");
                self.stats.messages_sent += 1;
                (
                    vec![(
                        next,
                        DirectoryMsg::Probe {
                            item,
                            requester,
                            rest,
                            hop: hop + 1,
                        },
                    )],
                    Resolution::InFlight,
                )
            }
            DirectoryMsg::Found { holder, hop, .. } => {
                self.stats.record_hit(hop);
                (Vec::new(), Resolution::Found { holder, hop })
            }
            DirectoryMsg::NotFound { .. } => {
                self.stats.misses += 1;
                (Vec::new(), Resolution::LoadLocally)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Drives a full lookup across an in-memory cluster of directories.
    /// `holders` is the set of nodes whose host cache has the item.
    fn run_lookup(
        dirs: &mut [Directory],
        requester: NodeId,
        item: u64,
        holders: &HashSet<NodeId>,
    ) -> (Resolution, u64) {
        let mut messages = 0u64;
        let (mut to, mut msg) = dirs[requester].begin_lookup(item);
        messages += 1;
        loop {
            let has = holders.contains(&to);
            let (outgoing, res) = dirs[to].handle(msg, |_| has);
            if to == requester && res != Resolution::InFlight {
                return (res, messages);
            }
            assert_eq!(outgoing.len(), 1, "protocol fan-out must be 1");
            let (next_to, next_msg) = outgoing.into_iter().next().unwrap();
            messages += 1;
            to = next_to;
            msg = next_msg;
        }
    }

    fn cluster(p: usize, h: usize) -> Vec<Directory> {
        (0..p).map(|n| Directory::new(n, p, h)).collect()
    }

    #[test]
    fn first_lookup_fails_cleanly() {
        let mut dirs = cluster(4, 3);
        let (res, msgs) = run_lookup(&mut dirs, 1, 6, &HashSet::new());
        assert_eq!(res, Resolution::LoadLocally);
        // Request + NotFound = 2 messages when there are no candidates.
        assert_eq!(msgs, 2);
        assert_eq!(dirs[1].stats().misses, 1);
    }

    #[test]
    fn second_requester_finds_first() {
        let mut dirs = cluster(4, 3);
        // Node 1 looks up item 6 (mediator = node 2), fails, loads locally.
        let holders = HashSet::new();
        let (res, _) = run_lookup(&mut dirs, 1, 6, &holders);
        assert_eq!(res, Resolution::LoadLocally);
        // Now node 1 holds item 6. Node 3 asks.
        let holders: HashSet<NodeId> = [1].into_iter().collect();
        let (res, msgs) = run_lookup(&mut dirs, 3, 6, &holders);
        assert_eq!(res, Resolution::Found { holder: 1, hop: 1 });
        // Request + Probe + Found = 3 messages.
        assert_eq!(msgs, 3);
        assert_eq!(dirs[3].stats().hits_at_hop, vec![1]);
    }

    #[test]
    fn probes_walk_the_candidate_chain() {
        let mut dirs = cluster(8, 3);
        let item = 5; // mediator = node 5
                      // Nodes 1, 2, 3 request in order; none hold it yet.
        for n in [1, 2, 3] {
            let (res, _) = run_lookup(&mut dirs, n, item, &HashSet::new());
            // Candidates accumulate, but nobody has the item: all miss.
            assert_eq!(res, Resolution::LoadLocally, "node {n}");
        }
        // candidates[5] should now be [3, 2, 1]. Only node 1 has the item:
        // hit at hop 3.
        let holders: HashSet<NodeId> = [1].into_iter().collect();
        let (res, msgs) = run_lookup(&mut dirs, 6, item, &holders);
        assert_eq!(res, Resolution::Found { holder: 1, hop: 3 });
        // h + 2 = 5 messages: Request, 3 probes, Found.
        assert_eq!(msgs, 5);
    }

    #[test]
    fn at_most_h_plus_2_messages() {
        let h = 3;
        let mut dirs = cluster(8, h);
        let item = 2;
        // Saturate the candidate list beyond h.
        for n in [1, 3, 4, 5, 6, 7] {
            let _ = run_lookup(&mut dirs, n, item, &HashSet::new());
        }
        // No holders: worst case walks the full chain.
        let (res, msgs) = run_lookup(&mut dirs, 0, item, &HashSet::new());
        assert_eq!(res, Resolution::LoadLocally);
        assert!(msgs <= (h as u64) + 2, "used {msgs} messages");
    }

    #[test]
    fn candidate_list_bounded_by_h() {
        let h = 2;
        let mut dirs = cluster(4, h);
        let item = 1; // mediator node 1
        for n in [0, 2, 3, 0, 2] {
            let _ = run_lookup(&mut dirs, n, item, &HashSet::new());
        }
        assert!(dirs[1].candidates.get(&item).unwrap().len() <= h);
    }

    #[test]
    fn requester_not_probed_for_own_request() {
        let mut dirs = cluster(4, 3);
        let item = 6; // mediator 2
                      // Node 1 requests twice; second time the candidate list contains
                      // node 1 itself, which must be skipped (hitting our own cache after
                      // a local miss is pointless).
        let _ = run_lookup(&mut dirs, 1, item, &HashSet::new());
        let holders: HashSet<NodeId> = [1].into_iter().collect(); // 1 has it but is asking again
        let (res, _) = run_lookup(&mut dirs, 1, item, &holders);
        assert_eq!(res, Resolution::LoadLocally);
    }

    #[test]
    fn mediator_can_be_requester() {
        let mut dirs = cluster(4, 3);
        let item = 8; // mediator = 0
        let (res, _) = run_lookup(&mut dirs, 0, item, &HashSet::new());
        assert_eq!(res, Resolution::LoadLocally);
        // Another node loads it, then 0 asks again and finds it.
        let _ = run_lookup(&mut dirs, 2, item, &HashSet::new());
        let holders: HashSet<NodeId> = [2].into_iter().collect();
        let (res, _) = run_lookup(&mut dirs, 0, item, &holders);
        assert_eq!(res, Resolution::Found { holder: 2, hop: 1 });
    }

    #[test]
    fn single_node_cluster_degenerates_gracefully() {
        let mut dirs = cluster(1, 3);
        let (res, msgs) = run_lookup(&mut dirs, 0, 0, &HashSet::new());
        assert_eq!(res, Resolution::LoadLocally);
        assert_eq!(msgs, 2);
    }

    #[test]
    fn stats_merge() {
        let mut a = DirectoryStats {
            hits_at_hop: vec![3, 1],
            misses: 2,
            messages_sent: 10,
        };
        let b = DirectoryStats {
            hits_at_hop: vec![1, 0, 4],
            misses: 1,
            messages_sent: 7,
        };
        a.merge(&b);
        assert_eq!(a.hits_at_hop, vec![4, 1, 4]);
        assert_eq!(a.hits(), 9);
        assert_eq!(a.misses, 3);
        assert_eq!(a.lookups(), 12);
        assert_eq!(a.messages_sent, 17);
    }

    #[test]
    fn hop_chain_push_take_order() {
        let mut c = HopChain::new();
        assert!(c.is_empty());
        for n in [3usize, 1, 4, 1, 5] {
            c.push(n);
        }
        assert_eq!(c.len(), 5);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![3, 1, 4, 1, 5]);
        assert_eq!(c.take_first(), Some(3));
        assert_eq!(c.take_first(), Some(1));
        assert_eq!(c.len(), 3);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![4, 1, 5]);
    }

    #[test]
    fn hop_chain_saturates_at_capacity() {
        let mut c = HopChain::new();
        for n in 0..(MAX_HOPS + 5) {
            c.push(n);
        }
        assert_eq!(c.len(), MAX_HOPS);
        assert_eq!(c.iter().last(), Some(MAX_HOPS - 1));
        // Draining works all the way down.
        let mut drained = Vec::new();
        while let Some(n) = c.take_first() {
            drained.push(n);
        }
        assert_eq!(drained, (0..MAX_HOPS).collect::<Vec<_>>());
        assert_eq!(c.take_first(), None);
    }

    #[test]
    fn hop_chain_equality_ignores_consumed_prefix() {
        // Regression: take_first must not leave stale tail garbage that
        // the derived PartialEq would compare (forwarded probes vs their
        // wire round-trips must stay equal).
        let mut advanced: HopChain = [9usize, 2, 3].into_iter().collect();
        assert_eq!(advanced.take_first(), Some(9));
        let fresh: HopChain = [2usize, 3].into_iter().collect();
        assert_eq!(advanced, fresh);
    }

    #[test]
    fn oversized_h_is_clamped() {
        let d = Directory::new(0, 4, 100);
        assert_eq!(d.h, MAX_HOPS);
    }

    #[test]
    fn mediator_assignment_is_mod_p() {
        let d = Directory::new(0, 5, 1);
        assert_eq!(d.mediator(0), 0);
        assert_eq!(d.mediator(7), 2);
        assert_eq!(d.mediator(14), 4);
    }

    #[test]
    fn lru_order_of_candidates_prefers_recent() {
        let mut dirs = cluster(8, 2);
        let item = 5;
        let _ = run_lookup(&mut dirs, 1, item, &HashSet::new());
        let _ = run_lookup(&mut dirs, 2, item, &HashSet::new());
        // Both 1 and 2 hold it; most recent requester (2) must be probed
        // first and answer at hop 1.
        let holders: HashSet<NodeId> = [1, 2].into_iter().collect();
        let (res, _) = run_lookup(&mut dirs, 3, item, &holders);
        assert_eq!(res, Resolution::Found { holder: 2, hop: 1 });
    }
}
