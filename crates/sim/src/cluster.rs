//! The simulated Rocket cluster.
//!
//! Each simulated node runs the threaded runtime's own per-node state
//! machine, [`rocket_core::engine::NodeCore`] — the
//! [`SlotCache`](rocket_cache::SlotCache) WRITE/READ levels, the
//! candidates-array [`Directory`](rocket_cache::Directory), the fill
//! pipeline, the write-back pin and the item-failure path — beside the
//! quadrant [`TaskDeque`], but advances virtual time through resource
//! servers instead of real threads, which makes 96-GPU experiments
//! deterministic and laptop-fast. Stage durations are sampled from a
//! [`WorkloadProfile`](rocket_core::WorkloadProfile) (Table 1 / Fig 7 of
//! the paper); transfer and I/O times come from device profiles and the
//! storage / network model.
//!
//! The shards (`crate::shard`) are the simulator's executor of `NodeCore`:
//! each side effect the core asks for becomes a sampled duration on a
//! modeled server and an event at its completion. The core decides what
//! each GPU runs, and the shards run it as the conductor does: a compare
//! task is its kernels and one read-back of its results on the GPU's
//! compute engine, then one `Ev::CompareDone`; the node post-processes
//! the results on its own server, and the jobs retire when that ends. One
//! simulator event is one drain of the conductor's event queue, so the
//! shards flush the core after each event. The engines differ in one
//! detail: the slot counts each core is built with, and so its job cap.
//! The simulator clamps them to the item count with
//! [`NodeSpec::sim_slots`](rocket_core::NodeSpec::sim_slots).
//!
//! Simulated loads never fail, so the core's item-failure path never
//! fires here.
//!
//! This module owns the executor's *model*: the per-node server and work
//! tables and the sampling helpers. The [`rocket_core::Scenario`] is the
//! configuration, read as is. The event engine and the report fold live in
//! `crate::shard` — a conservative time-window design that runs the same
//! model on one shard (sequential) or many (parallel over the steal pool)
//! with byte-identical results; the shard count belongs to
//! [`crate::SimBackend`].
//!
//! # Dense-table state layout
//!
//! The per-event handlers run millions of times per simulation, so state is
//! indexed, never hashed: `NodeCore` keeps one dense fill row per cache
//! slot, found through its caches' flat item → slot maps (see its docs),
//! and handlers sample the scenario's stage distributions through `&Dist`
//! without cloning them. A node's fill rows
//! scale with its slot counts, not with the data set; the item maps, one
//! `u32` per item per cache level, are its only per-item state.

use std::collections::VecDeque;

use rocket_core::engine::{JobId, PeerMsg};
use rocket_gpu::DeviceProfile;
use rocket_stats::{Dist, Xoshiro256};
use rocket_steal::{Block, TaskDeque};

use crate::engine::{secs_to_ns, SimTime};
use crate::server::{Engine, Pool};

/// The device-profile numbers a simulated GPU actually consumes on the hot
/// path, denormalized out of [`DeviceProfile`] so handlers never chase the
/// profile struct (or clone its name) per event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GpuRates {
    pub(crate) compute_scale: f64,
    pub(crate) h2d_bytes_per_sec: f64,
    pub(crate) d2h_bytes_per_sec: f64,
}

impl From<&DeviceProfile> for GpuRates {
    fn from(p: &DeviceProfile) -> Self {
        Self {
            compute_scale: p.compute_scale,
            h2d_bytes_per_sec: p.h2d_bytes_per_sec,
            d2h_bytes_per_sec: p.d2h_bytes_per_sec,
        }
    }
}

#[derive(Debug)]
pub(crate) struct SimGpu {
    pub(crate) rates: GpuRates,
    pub(crate) compute: Engine,
    pub(crate) h2d: Engine,
    pub(crate) d2h: Engine,
    /// The jobs of the compare tasks on `compute`, oldest first: the
    /// engine ends its tasks in submission order, and each task's
    /// `Ev::CompareDone` carries its length.
    pub(crate) tasks: VecDeque<JobId>,
    pub(crate) pre_busy_ns: u64,
    pub(crate) cmp_busy_ns: u64,
}

pub(crate) struct SimNode {
    /// Queued work, kept as blocks all the way down to single pairs so the
    /// whole backlog (minus in-flight jobs) stays stealable: the owner pops
    /// one pair at a time off the newest block and pushes the remainder
    /// back, so a straggler's tail can still migrate to idle nodes.
    pub(crate) deque: TaskDeque,
    /// Open row the owner is streaming pairs from, kept out of the deque so
    /// consuming a pair costs no deque traffic. Always a single-row block,
    /// and logically the deque's newest entry: the owner consumes it before
    /// popping, and a thief takes it only once the deque is empty, so the
    /// tail stays stealable exactly as in the one-block-per-pair scheme.
    pub(crate) cursor: Option<Block>,
    /// Stealable blocks: deque entries plus the open cursor.
    pub(crate) blocks: usize,
    /// Un-started pairs across the deque and the cursor. A split leaves it
    /// unchanged; every pair taken drops it by one.
    pub(crate) pending: u64,
    pub(crate) gpus: Vec<SimGpu>,
    pub(crate) cpu: Pool,
    /// Post-processes results one at a time, charged to `busy.cpu` but
    /// not run on `cpu`: like the conductor, the node decodes each result
    /// itself. `retiring` holds the jobs of the tasks it runs, oldest
    /// first, as `tasks` does for a GPU.
    pub(crate) post: Engine,
    pub(crate) retiring: VecDeque<JobId>,
    pub(crate) nic: Engine,
    pub(crate) pairs_done: u64,
    /// Deterministic per-node stream for stage sampling. Per-node (not
    /// global) so a node's draws are invariant under the shard count.
    pub(crate) rng: Xoshiro256,
    /// Out of reachable work; candidate for a window-boundary steal.
    pub(crate) hungry: bool,
    /// Virtual time `hungry` was last set (steal-cadence gate).
    pub(crate) hungry_since: SimTime,
    /// Bytes this node requested from central storage.
    pub(crate) io_bytes: u64,
    /// Bytes this node served to remote fetchers.
    pub(crate) net_bytes: u64,
    /// Latest pair completion on this node.
    pub(crate) makespan_ns: SimTime,
}

/// A peer message: the simulator moves no item bytes.
pub(crate) type Msg = PeerMsg<()>;

#[derive(Debug)]
pub(crate) enum Ev {
    Pull { node: usize },
    IoDone { node: usize, item: u64 },
    ParseDone { node: usize, item: u64 },
    StagingDone { node: usize, s: Staged },
    PreprocessDone { node: usize, s: Staged },
    WritebackDone { node: usize, item: u64 },
    FillCopyDone { node: usize, gpu: usize, item: u64 },
    CompareDone { node: usize, gpu: usize, k: usize },
    PostDone { node: usize, k: usize },
    Net { to: usize, from: usize, msg: Msg },
}

/// A parsed item's way into GPU `gpu` through staging index `staging`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Staged {
    pub(crate) gpu: usize,
    pub(crate) item: u64,
    pub(crate) staging: usize,
}

/// Samples a stage duration in nanoseconds. A free function over disjoint
/// borrows (`&mut rng`, `&Dist`) — the shape that lets handlers sample
/// from the shared scenario while mutating a node's RNG without cloning
/// the distribution.
#[inline]
pub(crate) fn sample_ns(rng: &mut Xoshiro256, dist: &Dist) -> u64 {
    secs_to_ns(dist.sample(rng))
}

/// Time to move `bytes` at `bytes_per_sec`.
#[inline]
pub(crate) fn transfer_ns(bytes: u64, bytes_per_sec: f64) -> u64 {
    secs_to_ns(bytes as f64 / bytes_per_sec)
}

#[cfg(test)]
mod tests {
    use rocket_core::{Backend, NodeSpec, RunReport, Scenario, WorkloadProfile};
    use rocket_gpu::DeviceProfile;
    use rocket_stats::Dist;

    use crate::SimBackend;

    /// A tiny regular workload with constant service times for exact math.
    fn toy_workload(items: u64) -> WorkloadProfile {
        WorkloadProfile {
            name: "toy",
            items,
            file_bytes: 1_000_000,
            item_bytes: 10_000_000,
            parse: Dist::Constant(10e-3),
            preprocess: Some(Dist::Constant(5e-3)),
            compare: Dist::Constant(1e-3),
            postprocess: Dist::Constant(0.0),
            paper_device_slots: 8,
            paper_host_slots: 16,
        }
    }

    fn toy_scenario(items: u64, nodes: usize, slots: usize) -> Scenario {
        Scenario::builder()
            .workload(toy_workload(items))
            .nodes(nodes, NodeSpec::uniform(1, slots, slots * 2))
            .build()
    }

    fn sim(s: &Scenario) -> RunReport {
        SimBackend::new().run(s).expect("sim run")
    }

    #[test]
    fn all_pairs_complete() {
        let r = sim(&toy_scenario(20, 1, 32));
        assert_eq!(r.pairs, 190);
        assert!(r.elapsed > 0.0);
        assert!(r.sim_windows > 0);
    }

    #[test]
    fn perfect_cache_gives_r_one() {
        // Slots >= items on one node: every item loads exactly once.
        let r = sim(&toy_scenario(16, 1, 64));
        assert_eq!(r.loads, 16);
        assert!((r.r_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_close_to_model_when_r_is_one() {
        use crate::model;
        let s = toy_scenario(24, 1, 64);
        let r = sim(&s);
        let tmin = model::t_min(&s.workload);
        // Asynchronous overlap should put the makespan within ~15% of the
        // GPU-bound lower bound.
        assert!(
            r.elapsed < tmin * 1.15 && r.elapsed >= tmin * 0.99,
            "makespan {} vs tmin {tmin}",
            r.elapsed
        );
    }

    #[test]
    fn small_cache_increases_r() {
        let big = sim(&toy_scenario(32, 1, 64));
        let small = sim(&toy_scenario(32, 1, 4));
        assert!(small.loads > big.loads, "{} vs {}", small.loads, big.loads);
        assert!(small.r_factor() > 1.5);
        assert!(small.elapsed > big.elapsed);
    }

    #[test]
    fn multi_node_splits_work() {
        let r = sim(&toy_scenario(32, 4, 32));
        assert_eq!(r.pairs, 32 * 31 / 2);
        let active = r.pairs_per_node.iter().filter(|&&c| c > 0).count();
        assert!(active >= 3, "pairs per node: {:?}", r.pairs_per_node);
        assert!(r.steals > 0);
    }

    #[test]
    fn distributed_cache_reduces_loads() {
        let mut with = toy_scenario(32, 4, 8);
        with.distributed_cache = true;
        let mut without = with.clone();
        without.distributed_cache = false;
        let rw = sim(&with);
        let ro = sim(&without);
        assert!(
            rw.loads < ro.loads,
            "distributed cache must reduce loads: {} vs {}",
            rw.loads,
            ro.loads
        );
        assert!(rw.remote_fetches > 0);
        assert_eq!(ro.remote_fetches, 0);
        assert!(rw.io_bytes < ro.io_bytes);
    }

    #[test]
    fn speedup_with_more_nodes() {
        // Large enough that comparisons dominate over the fixed load cost;
        // tiny instances genuinely do not scale (quadratic work, linear
        // loads — the paper's premise).
        let mut s1 = toy_scenario(64, 1, 64);
        s1.leaf_pairs = 16;
        let mut s4 = toy_scenario(64, 4, 64);
        s4.leaf_pairs = 16;
        let t1 = sim(&s1).elapsed;
        let t4 = sim(&s4).elapsed;
        let speedup = t1 / t4;
        assert!(speedup > 3.0, "4-node speedup only {speedup:.2}");
    }

    #[test]
    fn faster_gpu_does_more_pairs() {
        let s = Scenario::builder()
            .workload(toy_workload(24))
            .node(NodeSpec::with_gpus(vec![DeviceProfile::k20m()], 24, 24))
            .node(NodeSpec::with_gpus(
                vec![DeviceProfile::rtx2080ti()],
                24,
                24,
            ))
            .build();
        let r = sim(&s);
        // RTX (scale 2.0) should process clearly more pairs than K20m (0.52).
        assert!(
            r.pairs_per_node[1] > r.pairs_per_node[0],
            "pairs: {:?}",
            r.pairs_per_node
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let s = toy_scenario(20, 2, 16);
        let a = sim(&s);
        let b = sim(&s);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.pairs_per_node, b.pairs_per_node);
    }

    #[test]
    fn busy_times_accounted() {
        let r = sim(&toy_scenario(16, 1, 64));
        // 16 loads × 5 ms preprocess; 120 pairs × 1 ms compare, plus each
        // compare task's one read-back of its 1 KB results: 120 KB over
        // the run's tasks at 85.3 ns a KB, 10 230 ns once each task's
        // time is rounded to the nanosecond.
        assert!((r.busy.preprocess - 16.0 * 5e-3).abs() < 1e-9);
        assert_eq!(r.busy.compare, (120 * 1_000_000 + 10_230) as f64 / 1e9);
        assert!(r.busy.cpu > 0.0);
        assert!(r.busy.io > 0.0);
    }

    /// A node post-processes one result at a time, as the conductor
    /// decodes them on its thread: 120 pairs × 10 ms of post-processing
    /// on one node take at least 1.2 s, however the GPU overlaps them.
    #[test]
    fn post_processing_runs_on_one_server_per_node() {
        let mut s = toy_scenario(16, 1, 64);
        s.workload.postprocess = Dist::Constant(10e-3);
        let r = sim(&s);
        assert_eq!(r.pairs, 120);
        assert!(r.elapsed >= 1.2, "makespan {}", r.elapsed);
    }

    #[test]
    fn hop_stats_populate_with_multiple_nodes() {
        let mut s = toy_scenario(24, 4, 6);
        s.hops = 3;
        let r = sim(&s);
        assert!(r.directory.lookups() > 0);
        // With h=3 the hits_at_hop vector never exceeds 3 entries.
        assert!(r.directory.hits_at_hop.len() <= 3);
    }

    #[test]
    fn forensics_like_8_nodes_small_caches_completes() {
        // Regression: reproduces the fig12 configuration that once
        // deadlocked (small caches, many nodes, distributed cache on).
        let w = WorkloadProfile {
            name: "forensics-like",
            items: 80,
            file_bytes: 3_900_000,
            item_bytes: 38_100_000,
            parse: Dist::Constant(130.8e-3),
            preprocess: Some(Dist::Constant(20.5e-3)),
            compare: Dist::Constant(11e-3),
            postprocess: Dist::Constant(0.0),
            paper_device_slots: 28,
            paper_host_slots: 104,
        };
        let s = Scenario::builder()
            .workload(w)
            .nodes(4, NodeSpec::uniform(1, 7, 25))
            .build();
        let r = sim(&s);
        assert_eq!(r.pairs, 80 * 79 / 2);
    }

    #[test]
    fn no_preprocess_workload_runs() {
        let mut w = toy_workload(12);
        w.preprocess = None;
        let s = Scenario::builder()
            .workload(w)
            .node(NodeSpec::uniform(1, 16, 16))
            .build();
        let r = sim(&s);
        assert_eq!(r.pairs, 66);
        assert_eq!(r.busy.preprocess, 0.0);
        assert_eq!(r.loads, 12);
    }
}
