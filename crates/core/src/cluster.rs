//! Cluster driver: wires nodes, the work-stealing pool, and result
//! collection into one `run` call, which returns the typed outputs, the
//! failed pairs and the run's [`RunReport`] as one [`AppReport`].

use std::sync::Arc;

use rocket_sanitize::Mutex;

use rocket_cache::{CacheStats, DirectoryStats};
use rocket_comm::{Transport, TransportKind};
use rocket_steal::{Pair, StealPool, StealPoolConfig, WorkerTopology};
use rocket_storage::ObjectStore;
use rocket_trace::{PerfKind, PerfLog, PerfRecord};

use crate::app::Application;
use crate::clock;
use crate::engine::node::{node_limiter, spawn_node, NodeReport};
use crate::engine::resource::Recording;
use crate::error::RocketError;
use crate::report::{BusyTimes, RunReport};
use crate::scenario::Scenario;

/// Outcome of a full all-pairs run of a real [`Application`]: the typed
/// per-pair outputs, the failed pairs and the run's [`RunReport`].
#[derive(Debug)]
pub struct AppReport<O> {
    /// Per-pair outputs (submission order; use
    /// [`AppReport::sorted_outputs`] for a canonical order).
    pub outputs: Vec<(Pair, O)>,
    /// Pairs that failed permanently, with causes.
    pub failed: Vec<(Pair, String)>,
    /// The run's report, the same shape [`crate::Backend::run`] returns.
    pub report: RunReport,
}

impl<O> AppReport<O> {
    /// Outputs sorted by pair (canonical order for comparisons).
    pub fn sorted_outputs(&self) -> Vec<&(Pair, O)> {
        let mut v: Vec<&(Pair, O)> = self.outputs.iter().collect();
        v.sort_by_key(|(p, _)| *p);
        v
    }

    /// A copy of [`AppReport::report`]; `scenario` is unused. Kept only
    /// because the benchmark harness (`benchmark/src/workloads/rt.rs`)
    /// calls it; new code reads `.report`.
    pub fn unified(&self, _scenario: &Scenario) -> RunReport {
        self.report.clone()
    }
}

/// Adds the durations of a node's stage records to the busy times of their
/// resource classes.
fn add_busy(busy: &mut BusyTimes, records: &[PerfRecord]) {
    for rec in records {
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
}

/// The threaded cluster driver behind [`crate::ThreadedBackend`]: spawns
/// one node engine per [`crate::NodeSpec`], deals the pair triangle to one
/// work-stealing worker per GPU, and waits for every node to drain. The
/// caller has validated `scenario`.
///
/// The report is built once, after the conductors finish: each node's
/// [`crate::engine::NodeCore`] folds its statistics into it, and its
/// transport counters, failed pairs and perf records follow. Busy times
/// come from the perf records, so they are zero unless `perf` is enabled;
/// `io_bytes` is not tracked here and stays zero.
///
/// With `perf` enabled, every resource thread times its tasks against the
/// stopwatch that also measures [`RunReport::elapsed`], so all nodes share
/// one clock, and `perf` receives every node's records.
pub(crate) fn run<A: Application>(
    app: &Arc<A>,
    store: &Arc<dyn ObjectStore>,
    scenario: &Scenario,
    perf: &PerfLog,
) -> Result<AppReport<A::Output>, RocketError> {
    let (mut run, node_reports) = run_nodes(app, store, scenario, perf)?;
    let report = &mut run.report;
    for node in node_reports {
        node.core.fold_into(report);
        report.net_bytes += node.comm.bytes_sent;
        report.net_msgs += node.comm.msgs_sent;
        add_busy(&mut report.busy, &node.perf);
        perf.extend(node.perf);
        run.failed.extend(node.failed);
    }
    report.failed_pairs = run.failed.len() as u64;
    Ok(run)
}

/// Runs the nodes to completion and returns the outputs and the run's
/// report before the nodes are folded into it, with one report per node.
fn run_nodes<A: Application>(
    app: &Arc<A>,
    store: &Arc<dyn ObjectStore>,
    scenario: &Scenario,
    perf: &PerfLog,
) -> Result<(AppReport<A::Output>, Vec<NodeReport>), RocketError> {
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
                perf.is_enabled().then_some(Recording {
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

    // steal.pairs_per_worker is indexed by worker in topology order: fold
    // workers back onto their nodes.
    let mut pairs_per_node = vec![0u64; nodes];
    for (&(node, _), &pairs) in worker_map.iter().zip(&steal.pairs_per_worker) {
        pairs_per_node[node] += pairs;
    }
    let report = RunReport {
        backend: match scenario.transport {
            TransportKind::Local => "threaded",
            TransportKind::Socket => "threaded+socket",
        },
        elapsed: elapsed.as_secs_f64(),
        items: n,
        pairs: outputs.len() as u64,
        failed_pairs: 0,
        loads: 0,
        remote_fetches: 0,
        io_bytes: 0,
        net_bytes: 0,
        net_msgs: 0,
        steals: steal.local_steals + steal.remote_steals,
        busy: BusyTimes::default(),
        device_cache: CacheStats::default(),
        host_cache: CacheStats::default(),
        directory: DirectoryStats::default(),
        pairs_per_node,
        sim_shards: 0,
        sim_windows: 0,
        degraded: false,
    };
    let run = AppReport {
        outputs,
        failed: Vec::new(),
        report,
    };
    Ok((run, node_reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AppError;
    use crate::scenario::NodeSpec;
    use rocket_comm::CommSnapshot;
    use rocket_storage::MemStore;

    /// Each item is one byte; a pair's result is their difference.
    struct Diff;

    impl Application for Diff {
        type Output = i64;
        fn name(&self) -> &str {
            "diff"
        }
        fn item_count(&self) -> u64 {
            12
        }
        fn file_for(&self, item: u64) -> String {
            item.to_string()
        }
        fn parsed_bytes(&self) -> usize {
            1
        }
        fn item_bytes(&self) -> usize {
            1
        }
        fn result_bytes(&self) -> usize {
            1
        }
        fn parse(&self, _item: u64, raw: &[u8], out: &mut [u8]) -> Result<(), AppError> {
            out[0] = raw[0];
            Ok(())
        }
        fn compare(
            &self,
            left: (u64, &[u8]),
            right: (u64, &[u8]),
            out: &mut [u8],
        ) -> Result<(), AppError> {
            out[0] = left.1[0].wrapping_sub(right.1[0]);
            Ok(())
        }
        fn postprocess(&self, _pair: Pair, raw: &[u8]) -> i64 {
            raw[0] as i8 as i64
        }
    }

    /// Without the distributed cache no node sends a `NodeMsg`, so the
    /// only message a transport carries is the token that stops its
    /// node's comm pump. Every node's snapshot, taken before any token is
    /// sent, counts nothing on either side; and an unrecorded run hands
    /// back no perf records.
    #[test]
    fn teardown_wake_token_is_not_counted_on_any_node() {
        for kind in [TransportKind::Local, TransportKind::Socket] {
            let scenario = Scenario::builder()
                .items(12)
                .nodes(2, NodeSpec::uniform(1, 4, 12))
                .job_limit(4)
                .static_partition(true)
                .distributed_cache(false)
                .transport(kind)
                .build();
            let app = Arc::new(Diff);
            let store: Arc<dyn ObjectStore> = Arc::new(MemStore::from_iter(
                (0..12u8).map(|i| (i.to_string(), vec![i])),
            ));
            let (run, nodes) =
                run_nodes(&app, &store, &scenario, &PerfLog::disabled()).expect("cluster run");
            assert_eq!(run.outputs.len(), 66, "{kind:?}");
            assert_eq!(nodes.len(), 2, "{kind:?}");
            for (id, node) in nodes.iter().enumerate() {
                assert_eq!(node.comm, CommSnapshot::default(), "{kind:?}: node {id}");
                assert!(node.perf.is_empty(), "{kind:?}: node {id}");
                assert!(node.failed.is_empty(), "{kind:?}: node {id}");
            }
        }
    }
}
