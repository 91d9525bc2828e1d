//! Canonical benchmark scenarios ("anchors") shared by the criterion
//! benches (`benches/des.rs`), the `benchmark/` harness, and the
//! simulator's shard-equivalence tests.
//!
//! Keeping these in one place means the repo's benchmark
//! (`BENCHMARK.json`), the CI smoke runs, and the equivalence suite all
//! exercise the *same* configurations — a bench regression and a
//! correctness regression point at the same scenario.

use rocket_core::{NodeSpec, Scenario, WorkloadProfile};
use rocket_stats::Dist;

/// The deterministic synthetic workload every anchor runs: constant stage
/// times so run-to-run noise is zero and only engine overhead varies.
pub fn toy_workload(items: u64) -> WorkloadProfile {
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

/// A uniform cluster over the toy workload.
pub fn scenario(items: u64, nodes: usize, node: NodeSpec) -> Scenario {
    Scenario::builder()
        .workload(toy_workload(items))
        .nodes(nodes, node)
        .build()
}

/// One node, one GPU, n = 96 (4 560 pairs): the single-node baseline.
pub fn single_node_n96() -> Scenario {
    scenario(96, 1, NodeSpec::uniform(1, 32, 64))
}

/// Four single-GPU nodes, n = 96, distributed cache on.
pub fn four_nodes_n96_distcache() -> Scenario {
    scenario(96, 4, NodeSpec::uniform(1, 16, 32))
}

/// Sixteen 4-GPU nodes (64 GPUs), n = 256 (32 640 pairs), distributed
/// cache on: the hot-path scaling anchor.
pub fn sixteen_nodes_4gpu_n256_distcache() -> Scenario {
    scenario(256, 16, NodeSpec::uniform(4, 24, 96))
}

/// 1 024 single-GPU nodes, n = 1 024 (523 776 pairs): the
/// thousands-of-nodes anchor the sharded engine targets. Network latency
/// is cloud-scale (200 µs instead of the InfiniBand default) — that widens
/// the conservative lookahead window, so the parallel engine synchronizes
/// thousands of times instead of millions.
pub fn thousand_nodes() -> Scenario {
    let mut s = scenario(1024, 1024, NodeSpec::uniform(1, 8, 16));
    s.net_latency = 200e-6;
    s
}

/// A named anchor: snapshot/bench name plus its scenario constructor.
pub type Anchor = (&'static str, fn() -> Scenario);

/// Every anchor with its snapshot/bench name.
pub const ALL: &[Anchor] = &[
    ("single_node_n96", single_node_n96),
    ("four_nodes_n96_distcache", four_nodes_n96_distcache),
    (
        "sixteen_nodes_4gpu_n256_distcache",
        sixteen_nodes_4gpu_n256_distcache,
    ),
    ("thousand_nodes", thousand_nodes),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_validate() {
        for (name, make) in ALL {
            let s = make();
            assert!(s.validate().is_ok(), "{name} invalid");
        }
    }

    #[test]
    fn thousand_nodes_shape() {
        let s = thousand_nodes();
        assert_eq!(s.nodes.len(), 1024);
        assert_eq!(s.total_gpus(), 1024);
        assert_eq!(s.workload.pairs(), 1024 * 1023 / 2);
    }
}
