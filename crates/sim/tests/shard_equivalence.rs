//! Sequential vs sharded engine: byte-identical results, always.
//!
//! The conservative time-window parallel engine (`SimBackend::sharded(k)`
//! with `k > 1`) promises results byte-identical to the sequential engine
//! for *every* shard count and thread count. These tests pin that promise
//! on the benchmarked configurations (`rocket_bench::anchors` builds the
//! same clusters) and fuzz it over shard counts on a stochastic
//! heterogeneous cluster — the case most likely to expose ordering
//! divergence, since stage times come from per-node RNG streams. The
//! thread axis has no public knob; `shard.rs`'s unit tests cover it.

use rocket_apps::WorkloadProfile;
use rocket_core::{Backend, NodeSpec, RunReport, Scenario};
use rocket_sim::SimBackend;
use rocket_stats::Dist;

/// The anchors' `toy_workload` (`rocket_bench::anchors`), duplicated here
/// (rocket-bench depends on rocket-sim, so this crate cannot import the
/// anchors module without a cycle).
fn bench_workload(items: u64) -> WorkloadProfile {
    WorkloadProfile {
        name: "bench",
        items,
        file_bytes: 1_000_000,
        item_bytes: 10_000_000,
        parse: Dist::Constant(10e-3),
        preprocess: Some(Dist::Constant(5e-3)),
        compare: Dist::Constant(1e-3),
        postprocess: Dist::Constant(0.0),
        paper_device_slots: 16,
        paper_host_slots: 64,
    }
}

/// A workload with stochastic stage times: shard-order bugs that constant
/// stage times mask (ties everywhere) show up as RNG-stream divergence.
fn noisy_workload(items: u64) -> WorkloadProfile {
    WorkloadProfile {
        name: "noisy",
        items,
        file_bytes: 1_000_000,
        item_bytes: 10_000_000,
        parse: Dist::Uniform {
            lo: 5e-3,
            hi: 15e-3,
        },
        preprocess: Some(Dist::Normal {
            mean: 5e-3,
            std: 1e-3,
        }),
        compare: Dist::Uniform {
            lo: 0.5e-3,
            hi: 1.5e-3,
        },
        postprocess: Dist::Constant(0.1e-3),
        paper_device_slots: 16,
        paper_host_slots: 64,
    }
}

fn run(s: &Scenario, shards: usize) -> RunReport {
    SimBackend::sharded(shards).run(s).expect("sim run")
}

/// Debug covers every field of the report — counters, busy times,
/// per-node series, window count — so equality here is byte-identical
/// results, not just matching headline numbers. `sim_shards` records the
/// clamped shard count itself and is checked, then blanked.
fn run_bytes(s: &Scenario, shards: usize) -> String {
    let mut r = run(s, shards);
    assert_eq!(r.sim_shards as usize, shards.min(s.nodes.len()));
    r.sim_shards = 0;
    format!("{r:?}")
}

fn assert_equivalent(s: &Scenario, label: &str) {
    let baseline = run_bytes(s, 1);
    for shards in [2usize, 4, 8, 13] {
        assert_eq!(
            run_bytes(s, shards),
            baseline,
            "{label}: K = {shards} diverged from the sequential engine"
        );
    }
}

#[test]
fn four_node_bench_anchor_is_shard_invariant() {
    // The four-node bench anchor's cluster at n = 48 — the 30-cell knob
    // grid keeps the full anchor (n = 96) out of debug-build reach, and
    // shard invariance does not depend on the item count.
    let s = Scenario::builder()
        .workload(bench_workload(48))
        .nodes(4, NodeSpec::uniform(1, 16, 32))
        .build();
    assert_equivalent(&s, "four_nodes_n48_distcache");
}

#[test]
fn heterogeneous_noisy_cluster_is_shard_invariant() {
    // 13 nodes of three shapes: shard counts {2, 4, 8, 13} all split this
    // cluster unevenly, and 13 shards means one node per shard.
    let mut b = Scenario::builder().workload(noisy_workload(64));
    for i in 0..13usize {
        b = b.node(match i % 3 {
            0 => NodeSpec::uniform(1, 8, 16),
            1 => NodeSpec::uniform(2, 12, 24),
            _ => NodeSpec::uniform(4, 16, 32),
        });
    }
    let mut s = b.build();
    s.net_latency = 200e-6; // cloud-scale lookahead, many short windows
    assert_equivalent(&s, "heterogeneous_noisy_13_nodes");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy: runs in release (CI tests --release)"
)]
fn sixteen_node_anchor_spot_check() {
    // The large bench anchor (64 GPUs, n = 256, 32 640 pairs) once at
    // K = 8: too heavy for the full grid in debug builds, but the headline
    // configuration deserves a direct sequential-vs-sharded comparison.
    let s = Scenario::builder()
        .workload(bench_workload(256))
        .nodes(16, NodeSpec::uniform(4, 24, 96))
        .build();
    assert_eq!(
        run_bytes(&s, 8),
        run_bytes(&s, 1),
        "sixteen-node anchor diverged at K = 8"
    );
}

#[test]
fn window_count_is_shard_invariant_and_reported() {
    let s = Scenario::builder()
        .workload(bench_workload(32))
        .nodes(4, NodeSpec::uniform(1, 8, 16))
        .build();
    let seq = run(&s, 1);
    assert!(seq.sim_windows > 0, "sequential run counted no windows");
    for shards in [2usize, 4, 13] {
        assert_eq!(run(&s, shards).sim_windows, seq.sim_windows, "K = {shards}");
    }
}
