//! Cluster driver: wires nodes, the work-stealing pool, and result
//! collection into one `run` call.

use std::sync::Arc;
use std::time::Duration;

use rocket_sanitize::Mutex;

use rocket_cache::{CacheStats, DirectoryStats};
use rocket_comm::{CommSnapshot, Transport, TransportKind};
use rocket_steal::{Pair, StealPool, StealPoolConfig, StealStats, WorkerTopology};
use rocket_storage::ObjectStore;
use rocket_trace::PerfKind;

use crate::app::Application;
use crate::clock;
use crate::engine::node::{node_limiter, spawn_node, NodeReport};
use crate::engine::resource::Recording;
use crate::error::RocketError;
use crate::report::{BusyTimes, RunReport};
use crate::scenario::Scenario;

/// Outcome of a full all-pairs run of a real [`Application`], including
/// the typed per-pair outputs.
#[derive(Debug)]
pub struct AppReport<O> {
    /// Number of items in the data set.
    pub items: u64,
    /// Per-pair outputs (submission order; use
    /// [`AppReport::sorted_outputs`] for a canonical order).
    pub outputs: Vec<(Pair, O)>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-node statistics.
    pub nodes: Vec<NodeReport>,
    /// Work-stealing statistics.
    pub steal: StealStats,
}

impl<O> AppReport<O> {
    /// Total executions of the load pipeline ℓ across the cluster.
    pub fn total_loads(&self) -> u64 {
        self.nodes.iter().map(|n| n.loads).sum()
    }

    /// The paper's R metric: loads relative to the data-set size (§6.1).
    pub fn r_factor(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.total_loads() as f64 / self.items as f64
        }
    }

    /// Items served from remote host caches (level-3 hits).
    pub fn total_remote_fetches(&self) -> u64 {
        self.nodes.iter().map(|n| n.remote_fetches).sum()
    }

    /// Cluster-wide transport traffic (sum of every node's counters;
    /// all-zero on single-node runs, which have no transport).
    pub fn comm_totals(&self) -> CommSnapshot {
        let mut total = CommSnapshot::default();
        for n in &self.nodes {
            total.merge(&n.comm);
        }
        total
    }

    /// Merged device-cache statistics.
    pub fn device_cache(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for n in &self.nodes {
            s.merge(&n.device_cache);
        }
        s
    }

    /// Merged host-cache statistics.
    pub fn host_cache(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for n in &self.nodes {
            s.merge(&n.host_cache);
        }
        s
    }

    /// Merged distributed-cache lookup statistics (Fig 11's data).
    pub fn directory(&self) -> DirectoryStats {
        let mut s = DirectoryStats::default();
        for n in &self.nodes {
            s.merge(&n.directory);
        }
        s
    }

    /// All permanently failed pairs with causes.
    pub fn failed(&self) -> Vec<&(Pair, String)> {
        self.nodes.iter().flat_map(|n| n.failed.iter()).collect()
    }

    /// Outputs sorted by pair (canonical order for comparisons).
    pub fn sorted_outputs(&self) -> Vec<&(Pair, O)> {
        let mut v: Vec<&(Pair, O)> = self.outputs.iter().collect();
        v.sort_by_key(|(p, _)| *p);
        v
    }

    /// Folds this typed report into the backend-agnostic [`RunReport`].
    ///
    /// `scenario` supplies the topology (to roll per-worker steal counters
    /// up into per-node pair counts) and the transport kind (which names
    /// the backend — `"threaded"` or `"threaded+socket"`). Busy times come
    /// from the nodes' perf records when the run was recorded, zero otherwise;
    /// `net_bytes` is the cluster-wide transport payload traffic, and
    /// `io_bytes` is not tracked by the threaded runtime (reports zero).
    pub fn unified(&self, scenario: &Scenario) -> RunReport {
        // One pass over the (O(pairs)-sized) record list folds every class.
        let mut busy = BusyTimes::default();
        for rec in self.nodes.iter().flat_map(|n| &n.perf) {
            let secs = rec.value as f64 / 1e9;
            match rec.kind {
                PerfKind::Preprocess => busy.preprocess += secs,
                PerfKind::Compare => busy.compare += secs,
                PerfKind::CopyIn => busy.h2d += secs,
                PerfKind::CopyOut => busy.d2h += secs,
                PerfKind::Parse | PerfKind::Postprocess => busy.cpu += secs,
                PerfKind::Read => busy.io += secs,
                // Event-valued kinds carry no duration.
                _ => {}
            }
        }
        // steal.pairs_per_worker is indexed by (node, device) in topology
        // order — fold workers back onto their nodes.
        let mut pairs_per_node = vec![0u64; scenario.nodes.len()];
        let mut worker = 0usize;
        for (node, spec) in scenario.nodes.iter().enumerate() {
            for _ in 0..spec.gpus.len() {
                if let Some(&pairs) = self.steal.pairs_per_worker.get(worker) {
                    pairs_per_node[node] += pairs;
                }
                worker += 1;
            }
        }
        RunReport {
            backend: match scenario.transport {
                TransportKind::Local => "threaded",
                TransportKind::Socket => "threaded+socket",
            },
            elapsed: self.elapsed.as_secs_f64(),
            items: self.items,
            pairs: self.outputs.len() as u64,
            failed_pairs: self.failed().len() as u64,
            loads: self.total_loads(),
            remote_fetches: self.total_remote_fetches(),
            io_bytes: 0,
            net_bytes: self.comm_totals().bytes_sent,
            net_msgs: self.comm_totals().msgs_sent,
            steals: self.steal.local_steals + self.steal.remote_steals,
            busy,
            device_cache: self.device_cache(),
            host_cache: self.host_cache(),
            directory: self.directory(),
            pairs_per_node,
            sim_shards: 0,
            sim_windows: 0,
            degraded: false,
        }
    }
}

/// The threaded cluster driver behind [`crate::ThreadedBackend`]: spawns
/// one node engine per [`crate::NodeSpec`], deals the pair triangle to one
/// work-stealing worker per GPU, and waits for every node to drain. The
/// caller has validated `scenario`.
///
/// With `record` on, every resource thread logs its tasks into
/// [`NodeReport::perf`] against the stopwatch that also measures
/// [`AppReport::elapsed`], so all nodes share one clock.
pub(crate) fn run<A: Application>(
    app: &Arc<A>,
    store: &Arc<dyn ObjectStore>,
    scenario: &Scenario,
    record: bool,
) -> Result<AppReport<A::Output>, RocketError> {
    let scenario = Arc::new(scenario.clone());
    let nodes = scenario.nodes.len();
    let n = app.item_count();
    let outputs = Arc::new(Mutex::named("outputs", Vec::new()));
    let start = clock::stopwatch();

    let mut endpoints: Vec<Option<Box<dyn Transport>>> = if nodes > 1 {
        scenario
            .transport
            .connect(nodes)
            .map_err(RocketError::Config)?
            .into_iter()
            .map(Some)
            .collect()
    } else {
        vec![None]
    };

    // Worker topology: one work-stealing worker per GPU (§4.2).
    let mut worker_map = Vec::new();
    for (node, spec) in scenario.nodes.iter().enumerate() {
        for dev in 0..spec.gpus.len() {
            worker_map.push((node, dev));
        }
    }
    let topology = WorkerTopology {
        node_of: worker_map.iter().map(|&(n, _)| n).collect(),
    };

    let limiters: Vec<_> = (0..nodes).map(|id| node_limiter(&scenario, id)).collect();
    let handles: Vec<_> = (0..nodes)
        .map(|node_id| {
            spawn_node(
                Arc::clone(app),
                Arc::clone(&scenario),
                node_id,
                Arc::clone(store),
                endpoints[node_id].take(),
                Arc::clone(&outputs),
                &limiters,
                record.then_some(Recording {
                    clock: start,
                    node: node_id as u32,
                }),
            )
        })
        .collect();

    let pool_cfg = StealPoolConfig {
        leaf_pairs: scenario.leaf_pairs,
        seed: scenario.seed,
        static_partition: scenario.static_partition,
    };
    let steal = StealPool::run_leaves(n, &topology, &pool_cfg, |worker, leaf| {
        let (node, dev) = worker_map[worker];
        let handle = &handles[node];
        // Back-pressure: one permit per in-flight job on the target node.
        // Each grant of free permits leaves as one submission. A closed
        // limiter grants none: a conductor panicked, and the run stops.
        let mut pairs = leaf.pairs();
        let mut left = leaf.count() as usize;
        while left > 0 {
            let granted = handle.limiter.acquire_up_to(left);
            if granted == 0 {
                return;
            }
            handle.submit(pairs.by_ref().take(granted).collect(), dev);
            left -= granted;
        }
    });

    // All pairs submitted. Every job holds its node's permit until it
    // finishes, so a node has drained exactly when all permits are back,
    // or its limiter is closed.
    for h in &handles {
        h.limiter.wait_idle();
    }

    // Finish every node before re-raising the first conductor panic.
    let finished: Vec<_> = handles.into_iter().map(|h| h.finish()).collect();
    let node_reports: Vec<NodeReport> = finished
        .into_iter()
        .collect::<std::thread::Result<_>>()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    let elapsed = start.elapsed();
    let outputs = Arc::try_unwrap(outputs)
        .map(|m| m.into_inner())
        .unwrap_or_default();

    Ok(AppReport {
        items: n,
        outputs,
        elapsed,
        nodes: node_reports,
        steal,
    })
}
