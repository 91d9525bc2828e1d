//! Declarative execution scenarios — the single front door of the driver
//! API.
//!
//! A [`Scenario`] describes *what* to run (a [`WorkloadProfile`]), *where*
//! to run it (cluster topology: [`NodeSpec`]s of GPUs × cache slots), and
//! *how* (runtime knobs, platform model, seed) — independent of the
//! execution engine. Any [`crate::Backend`] consumes the same scenario —
//! the threaded runtime and the discrete-event simulator both read it
//! directly — and the [`crate::Replications`] runner re-seeds it per
//! replication.
//!
//! Build scenarios with [`Scenario::builder`]; invalid topologies are
//! rejected by [`ScenarioBuilder::try_build`].

use rocket_comm::TransportKind;
use rocket_gpu::DeviceProfile;

use crate::workload::WorkloadProfile;

/// Largest socket-transport cluster the builder accepts: the full mesh
/// opens `p·(p−1)/2` loopback connections inside one process, so very
/// large topologies belong on the simulator (or on real multi-process
/// deployments where each process owns only its own `p−1` sockets).
pub const MAX_SOCKET_NODES: usize = 64;

/// Topology of one cluster node: its GPUs and cache capacities.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// The GPUs of this node (one work-stealing worker each, §4.2).
    pub gpus: Vec<DeviceProfile>,
    /// Device-cache slots per GPU (level 1).
    pub device_slots: usize,
    /// Host-cache slots for the node (level 2).
    pub host_slots: usize,
}

impl NodeSpec {
    /// `gpus` identical baseline (TitanX Maxwell) GPUs with the given cache
    /// sizes.
    pub fn uniform(gpus: usize, device_slots: usize, host_slots: usize) -> Self {
        Self {
            gpus: (0..gpus).map(|_| DeviceProfile::titanx_maxwell()).collect(),
            device_slots,
            host_slots,
        }
    }

    /// A node with the given device profiles and cache sizes.
    pub fn with_gpus(gpus: Vec<DeviceProfile>, device_slots: usize, host_slots: usize) -> Self {
        Self {
            gpus,
            device_slots,
            host_slots,
        }
    }

    /// The `(device, host)` slot counts the simulator runs for a data set
    /// of `items` items: each level clamped to `min(slots, items)`, and to
    /// at least 2. Slots beyond the item count never get used, so the
    /// clamp keeps huge Fig 9 caches cheap without changing behaviour.
    pub fn sim_slots(&self, items: u64) -> (usize, usize) {
        let clamp = |slots: usize| slots.min(items as usize).max(2);
        (clamp(self.device_slots), clamp(self.host_slots))
    }

    /// The node's in-flight job cap over `device_slots` slots per GPU:
    /// `min(job_limit, max(1, gpus × (device_slots / 2)))`. Both engines
    /// use it, over the slots each runs. Each job pins up to two device
    /// slots, so half the slots per GPU keeps every in-flight job's leases
    /// fitting at once — the counting argument that keeps tiny caches free
    /// of eviction livelock.
    pub fn job_cap(&self, job_limit: usize, device_slots: usize) -> usize {
        job_limit.min((self.gpus.len() * (device_slots / 2)).max(1))
    }
}

/// A complete, validated description of one all-pairs run.
///
/// Construct through [`Scenario::builder`]. All fields are public for
/// inspection; mutate via the builder (or directly — [`Scenario::validate`]
/// re-checks consistency).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The workload (items, sizes, stage-time distributions).
    pub workload: WorkloadProfile,
    /// One entry per cluster node.
    pub nodes: Vec<NodeSpec>,
    /// Level-3 distributed cache on/off (Fig 12 compares both).
    pub distributed_cache: bool,
    /// Maximum distributed-lookup hops `h`.
    pub hops: usize,
    /// Concurrent job limit per node (§4.2 back-pressure).
    pub job_limit: usize,
    /// CPU pool size per node (parse / post-process).
    pub cpu_threads: usize,
    /// Pairs per leaf task in the quadrant decomposition.
    pub leaf_pairs: u64,
    /// Deterministic static work assignment instead of work-stealing
    /// (threaded runtime; reproducible per-node pair counts).
    pub static_partition: bool,
    /// Cluster transport of the threaded runtime: in-process channels or
    /// loopback TCP sockets (the simulator models the network instead and
    /// ignores this knob).
    pub transport: TransportKind,
    /// Central storage bandwidth, bytes/second (shared by all nodes).
    pub storage_bandwidth: f64,
    /// Per-request storage latency, seconds.
    pub storage_latency: f64,
    /// Inter-node network bandwidth per NIC, bytes/second.
    pub net_bandwidth: f64,
    /// One-way network message latency, seconds.
    pub net_latency: f64,
    /// Root seed for every randomized decision.
    pub seed: u64,
}

impl Scenario {
    /// Starts a builder with paper-style defaults: DAS-5-like storage
    /// (InfiniBand MinIO) and network, distributed cache on, `h = 1`.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// Total GPUs in the cluster.
    pub fn total_gpus(&self) -> usize {
        self.nodes.iter().map(|n| n.gpus.len()).sum()
    }

    /// All device profiles, flattened (for the performance model).
    pub fn all_gpus(&self) -> Vec<DeviceProfile> {
        self.nodes
            .iter()
            .flat_map(|n| n.gpus.iter().cloned())
            .collect()
    }

    /// Returns a copy with a different seed (what [`crate::Replications`]
    /// uses to fan one scenario out over many seeds).
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut s = self.clone();
        s.seed = seed;
        s
    }

    /// Validates internal consistency (what `try_build` enforces).
    pub fn validate(&self) -> Result<(), String> {
        if self.workload.items < 2 {
            return Err("workload needs at least 2 items (no pairs otherwise)".into());
        }
        if self.nodes.is_empty() {
            return Err("cluster needs at least one node".into());
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.gpus.is_empty() {
                return Err(format!("node {i} has no GPUs"));
            }
            if node.device_slots < 2 {
                return Err(format!(
                    "node {i}: device cache needs at least 2 slots (a pair occupies two)"
                ));
            }
            if node.host_slots < 1 {
                return Err(format!("node {i}: host cache needs at least 1 slot"));
            }
        }
        if self.hops < 1 {
            return Err("distributed hops (h) must be at least 1".into());
        }
        if self.hops > rocket_cache::MAX_HOPS {
            return Err(format!(
                "distributed hops (h) capped at {} (probe chains are carried inline)",
                rocket_cache::MAX_HOPS
            ));
        }
        if self.job_limit < 1 {
            return Err("concurrent job limit must be positive".into());
        }
        if self.cpu_threads < 1 {
            return Err("at least one CPU thread is required".into());
        }
        if self.leaf_pairs < 1 {
            return Err("leaf tasks must hold at least one pair".into());
        }
        if self.transport == TransportKind::Socket && self.nodes.len() > MAX_SOCKET_NODES {
            return Err(format!(
                "socket transport supports at most {MAX_SOCKET_NODES} in-process nodes \
                 ({} requested); larger topologies belong on the simulator",
                self.nodes.len()
            ));
        }
        if self.storage_bandwidth <= 0.0
            || self.net_bandwidth <= 0.0
            || self.storage_bandwidth.is_nan()
            || self.net_bandwidth.is_nan()
        {
            return Err("bandwidths must be positive".into());
        }
        if self.storage_latency < 0.0
            || self.net_latency < 0.0
            || self.storage_latency.is_nan()
            || self.net_latency.is_nan()
        {
            return Err("latencies must be non-negative".into());
        }
        Ok(())
    }
}

/// Builder for [`Scenario`] (see [`Scenario::builder`]).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self {
            scenario: Scenario {
                workload: WorkloadProfile::items_only(2),
                nodes: Vec::new(),
                distributed_cache: true,
                hops: 1,
                job_limit: 64,
                cpu_threads: 16,
                leaf_pairs: 64,
                static_partition: false,
                transport: TransportKind::Local,
                storage_bandwidth: 1.2e9, // ~10 Gb/s effective object store
                storage_latency: 2e-3,
                net_bandwidth: 7.0e9, // 56 Gb/s InfiniBand FDR
                net_latency: 20e-6,
                seed: 0x9E3779B97F4A7C15,
            },
        }
    }
}

impl ScenarioBuilder {
    /// Sets the workload profile (items, sizes, stage distributions).
    pub fn workload(mut self, workload: WorkloadProfile) -> Self {
        self.scenario.workload = workload;
        self
    }

    /// Describes the workload by item count only (threaded runs of a real
    /// [`crate::Application`], where the app supplies the compute).
    pub fn items(mut self, items: u64) -> Self {
        self.scenario.workload = WorkloadProfile::items_only(items);
        self
    }

    /// Appends one node to the topology.
    pub fn node(mut self, node: NodeSpec) -> Self {
        self.scenario.nodes.push(node);
        self
    }

    /// Replaces the topology with `count` copies of `node`.
    pub fn nodes(mut self, count: usize, node: NodeSpec) -> Self {
        self.scenario.nodes = vec![node; count];
        self
    }

    /// Replaces the topology with `nodes` uniform nodes of
    /// `gpus_per_node` baseline GPUs each.
    pub fn uniform_cluster(
        self,
        nodes: usize,
        gpus_per_node: usize,
        device_slots: usize,
        host_slots: usize,
    ) -> Self {
        self.nodes(
            nodes,
            NodeSpec::uniform(gpus_per_node, device_slots, host_slots),
        )
    }

    /// Enables/disables the level-3 distributed cache.
    pub fn distributed_cache(mut self, on: bool) -> Self {
        self.scenario.distributed_cache = on;
        self
    }

    /// Sets the distributed-lookup hop limit `h`.
    pub fn hops(mut self, h: usize) -> Self {
        self.scenario.hops = h;
        self
    }

    /// Sets the concurrent job limit per node.
    pub fn job_limit(mut self, limit: usize) -> Self {
        self.scenario.job_limit = limit;
        self
    }

    /// Sets the CPU pool size per node.
    pub fn cpu_threads(mut self, n: usize) -> Self {
        self.scenario.cpu_threads = n;
        self
    }

    /// Sets pairs per leaf task.
    pub fn leaf_pairs(mut self, pairs: u64) -> Self {
        self.scenario.leaf_pairs = pairs;
        self
    }

    /// Enables/disables deterministic static work assignment (threaded
    /// runtime; per-node pair counts become reproducible, load balance
    /// becomes static).
    pub fn static_partition(mut self, on: bool) -> Self {
        self.scenario.static_partition = on;
        self
    }

    /// Selects the cluster transport of the threaded runtime.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.scenario.transport = kind;
        self
    }

    /// Sets the central-storage model (bytes/second, seconds).
    pub fn storage(mut self, bandwidth: f64, latency: f64) -> Self {
        self.scenario.storage_bandwidth = bandwidth;
        self.scenario.storage_latency = latency;
        self
    }

    /// Sets the inter-node network model (bytes/second, seconds).
    pub fn network(mut self, bandwidth: f64, latency: f64) -> Self {
        self.scenario.net_bandwidth = bandwidth;
        self.scenario.net_latency = latency;
        self
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Finalizes, returning an error message for invalid topologies.
    pub fn try_build(self) -> Result<Scenario, String> {
        self.scenario.validate()?;
        Ok(self.scenario)
    }

    /// Finalizes the scenario (panics on invalid settings; use
    /// [`ScenarioBuilder::try_build`] for fallible construction).
    pub fn build(self) -> Scenario {
        self.try_build().expect("invalid Scenario")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> ScenarioBuilder {
        Scenario::builder()
            .items(16)
            .node(NodeSpec::uniform(1, 4, 8))
    }

    #[test]
    fn builder_defaults_validate() {
        let s = valid().build();
        assert_eq!(s.nodes.len(), 1);
        assert_eq!(s.total_gpus(), 1);
        assert!(s.distributed_cache);
        assert_eq!(s.hops, 1);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn empty_topology_rejected() {
        let err = Scenario::builder().items(16).try_build().unwrap_err();
        assert!(err.contains("at least one node"), "{err}");
    }

    #[test]
    fn gpuless_node_rejected() {
        let err = valid()
            .node(NodeSpec::with_gpus(Vec::new(), 4, 8))
            .try_build()
            .unwrap_err();
        assert!(err.contains("no GPUs"), "{err}");
    }

    #[test]
    fn tiny_caches_rejected() {
        let err = Scenario::builder()
            .items(16)
            .node(NodeSpec::uniform(1, 1, 8))
            .try_build()
            .unwrap_err();
        assert!(err.contains("2 slots"), "{err}");
        let err = Scenario::builder()
            .items(16)
            .node(NodeSpec::uniform(1, 4, 0))
            .try_build()
            .unwrap_err();
        assert!(err.contains("host cache"), "{err}");
    }

    #[test]
    fn degenerate_knobs_rejected() {
        assert!(valid().hops(0).try_build().is_err());
        // The probe chain is carried inline; h beyond its capacity would
        // silently clamp, so the builder rejects it up front.
        assert!(valid().hops(rocket_cache::MAX_HOPS).try_build().is_ok());
        assert!(valid()
            .hops(rocket_cache::MAX_HOPS + 1)
            .try_build()
            .is_err());
        assert!(valid().storage(f64::NAN, 1e-3).try_build().is_err());
        assert!(valid().storage(1e9, f64::NAN).try_build().is_err());
        assert!(valid().job_limit(0).try_build().is_err());
        assert!(valid().cpu_threads(0).try_build().is_err());
        assert!(valid().leaf_pairs(0).try_build().is_err());
        assert!(valid().storage(0.0, 1e-3).try_build().is_err());
        assert!(valid().network(-1.0, 1e-3).try_build().is_err());
        assert!(valid().storage(1e9, -1.0).try_build().is_err());
        let err = Scenario::builder()
            .items(1)
            .node(NodeSpec::uniform(1, 4, 8))
            .try_build()
            .unwrap_err();
        assert!(err.contains("2 items"), "{err}");
    }

    #[test]
    fn transport_knob_defaults_local_and_validates() {
        let s = valid().build();
        assert_eq!(s.transport, TransportKind::Local);
        assert!(!s.static_partition);
        let s = valid()
            .transport(TransportKind::Socket)
            .static_partition(true)
            .build();
        assert_eq!(s.transport, TransportKind::Socket);
        assert!(s.static_partition);
        // Socket meshes are capped: the full in-process mesh holds
        // p·(p−1)/2 live loopback connections.
        let err = Scenario::builder()
            .items(512)
            .uniform_cluster(MAX_SOCKET_NODES + 1, 1, 4, 8)
            .transport(TransportKind::Socket)
            .try_build()
            .unwrap_err();
        assert!(err.contains("socket transport"), "{err}");
        assert!(Scenario::builder()
            .items(512)
            .uniform_cluster(MAX_SOCKET_NODES + 1, 1, 4, 8)
            .try_build()
            .is_ok());
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let s = valid().seed(1).build();
        let t = s.with_seed(2);
        assert_eq!(t.seed, 2);
        let mut back = t.clone();
        back.seed = 1;
        assert_eq!(back, s);
    }

    #[test]
    fn heterogeneous_topology_flattens() {
        use rocket_gpu::DeviceProfile;
        let s = Scenario::builder()
            .items(16)
            .node(NodeSpec::with_gpus(vec![DeviceProfile::k20m()], 4, 8))
            .node(NodeSpec::with_gpus(
                vec![DeviceProfile::rtx2080ti(), DeviceProfile::gtx980()],
                4,
                8,
            ))
            .build();
        assert_eq!(s.total_gpus(), 3);
        assert_eq!(s.all_gpus().len(), 3);
    }
}
