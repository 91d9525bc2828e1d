//! Sequential vs sharded engine: byte-identical results, always.
//!
//! The conservative time-window parallel engine (`SimConfig::shards > 1`)
//! promises results byte-identical to the sequential engine for *every*
//! shard count and thread count. These tests pin that promise on the
//! benchmarked configurations (`rocket_bench::anchors` builds the same
//! clusters through the `Scenario` API) and fuzz it over the shard ×
//! thread grid on a stochastic heterogeneous cluster — the case most
//! likely to expose ordering divergence, since stage times come from
//! per-node RNG streams.

use rocket_apps::WorkloadProfile;
use rocket_sim::{simulate, SimConfig, SimNodeConfig, SimResult};
use rocket_stats::Dist;

/// The `benches/des.rs` anchor workload, duplicated at the `SimConfig`
/// level (rocket-bench depends on rocket-sim, so this crate cannot import
/// the anchors module without a cycle).
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

/// Debug covers every field of the result — counters, busy times,
/// per-node series, window count — so equality here is byte-identical
/// results, not just matching headline numbers.
fn run_bytes(mut cfg: SimConfig, shards: usize, threads: usize) -> String {
    cfg.shards = shards;
    cfg.shard_threads = threads;
    format!("{:?}", simulate(&cfg))
}

fn assert_equivalent(cfg: &SimConfig, label: &str) {
    let baseline = run_bytes(cfg.clone(), 1, 1);
    for shards in [1usize, 2, 4, 8, 13] {
        // Two threads make one thread own several shards at K ≥ 4.
        for threads in [1usize, 2, 4] {
            let got = run_bytes(cfg.clone(), shards, threads);
            assert_eq!(
                got, baseline,
                "{label}: K = {shards}, threads = {threads} \
                 diverged from the sequential engine"
            );
        }
    }
}

#[test]
fn four_node_bench_anchor_is_shard_invariant() {
    // The four-node bench anchor's cluster at n = 48 — the 30-cell knob
    // grid keeps the full anchor (n = 96) out of debug-build reach, and
    // shard invariance does not depend on the item count.
    let cfg = SimConfig::cluster(
        bench_workload(48),
        vec![SimNodeConfig::uniform(1, 16, 32); 4],
    );
    assert_equivalent(&cfg, "four_nodes_n48_distcache");
}

#[test]
fn heterogeneous_noisy_cluster_is_shard_invariant() {
    // 13 nodes of three shapes: shard counts {2, 4, 8, 13} all split this
    // cluster unevenly, and 13 shards means one node per shard.
    let mut nodes = Vec::new();
    for i in 0..13usize {
        nodes.push(match i % 3 {
            0 => SimNodeConfig::uniform(1, 8, 16),
            1 => SimNodeConfig::uniform(2, 12, 24),
            _ => SimNodeConfig::uniform(4, 16, 32),
        });
    }
    let mut cfg = SimConfig::cluster(noisy_workload(64), nodes);
    cfg.net_latency = 200e-6; // cloud-scale lookahead, many short windows
    assert_equivalent(&cfg, "heterogeneous_noisy_13_nodes");
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
    let cfg = SimConfig::cluster(
        bench_workload(256),
        vec![SimNodeConfig::uniform(4, 24, 96); 16],
    );
    let seq = run_bytes(cfg.clone(), 1, 1);
    let par = run_bytes(cfg.clone(), 8, 4);
    assert_eq!(par, seq, "sixteen-node anchor diverged at K = 8");
}

#[test]
fn window_count_is_shard_invariant_and_reported() {
    let cfg = SimConfig::cluster(
        bench_workload(32),
        vec![SimNodeConfig::uniform(1, 8, 16); 4],
    );
    let count = |shards: usize| -> SimResult {
        let mut c = cfg.clone();
        c.shards = shards;
        c.shard_threads = 1;
        simulate(&c)
    };
    let seq = count(1);
    assert!(seq.windows > 0, "sequential run counted no windows");
    for shards in [2usize, 4, 13] {
        assert_eq!(count(shards).windows, seq.windows, "K = {shards}");
    }
}
