//! Same-seed ⇒ identical-report regression tests for the refactored engine.
//!
//! The hot-path overhaul (slab-backed event queue, dense state tables,
//! zero-clone samplers) must not perturb simulation results: a run is a
//! pure function of its `Scenario` + seed. These tests lock that in by
//! requiring *byte-identical* full reports — every counter, busy time, and
//! per-node series — across repeated runs of the benchmark anchors'
//! configurations (`rocket_bench::anchors`), plus recorded steal decisions
//! that a build cannot match by agreeing with itself. The engine has one
//! event queue, so there is no queue axis to cross-check.

use rocket_apps::WorkloadProfile;
use rocket_core::{Backend, NodeSpec, RunReport, Scenario};
use rocket_sim::SimBackend;
use rocket_stats::Dist;

/// The anchors' `toy_workload`, duplicated here (rocket-bench depends on
/// rocket-sim) so the regression pins the benchmarked configuration
/// byte-for-byte.
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

/// `nodes` copies of `node` running `workload`, on the builder defaults.
fn cluster(workload: WorkloadProfile, nodes: usize, node: NodeSpec) -> Scenario {
    Scenario::builder()
        .workload(workload)
        .nodes(nodes, node)
        .build()
}

fn sim(s: &Scenario) -> RunReport {
    SimBackend::new().run(s).expect("sim run")
}

/// Renders every field of the report (Debug covers the whole struct) so a
/// comparison is sensitive to any divergence, not just headline numbers.
fn report_bytes(r: &RunReport) -> String {
    format!("{r:?}")
}

/// FNV-1a, 64 bit: a dependency-free digest of a whole rendered report.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn single_node_n96_same_seed_identical_report() {
    let s = cluster(bench_workload(96), 1, NodeSpec::uniform(1, 32, 64));
    let a = sim(&s);
    let b = sim(&s);
    assert_eq!(a.pairs, 96 * 95 / 2);
    assert_eq!(report_bytes(&a), report_bytes(&b));
}

#[test]
fn four_nodes_n96_distcache_same_seed_identical_report() {
    let s = cluster(bench_workload(96), 4, NodeSpec::uniform(1, 16, 32));
    assert!(s.distributed_cache, "builder defaults enable the distcache");
    let a = sim(&s);
    let b = sim(&s);
    assert_eq!(a.pairs, 96 * 95 / 2);
    assert!(a.steals > 0, "multi-node run must exercise work stealing");
    assert_eq!(report_bytes(&a), report_bytes(&b));
}

#[test]
fn stochastic_stage_times_same_seed_identical_report() {
    // Randomized stage distributions exercise the RNG-dependent paths; a
    // different seed must (overwhelmingly) give a different report, while
    // the same seed reproduces it exactly.
    let mut workload = bench_workload(48);
    workload.parse = Dist::normal_nonneg(10e-3, 2e-3);
    workload.compare = Dist::LogNormal {
        mean: 1e-3,
        std: 0.4e-3,
    };
    workload.postprocess = Dist::Exponential { mean: 0.2e-3 };
    let mut s = cluster(workload, 2, NodeSpec::uniform(2, 16, 32));
    let a = sim(&s);
    let b = sim(&s);
    assert_eq!(report_bytes(&a), report_bytes(&b));

    s.seed ^= 1;
    let c = sim(&s);
    assert_ne!(
        report_bytes(&a),
        report_bytes(&c),
        "different seed should perturb a stochastic run"
    );
}

/// Steal decisions pinned to recorded values. Every other test here
/// compares a build with itself, so a change to victim order (or to which
/// nodes count as victims) would pass them; these numbers were recorded
/// before `steal_match` moved to per-shard victim bitsets and must not
/// move without a deliberate re-record. Two steal-heavy configurations:
/// `des-shard`'s 64 nodes with 1 ms links, and the 16-node 4-GPU anchor.
///
/// `report_fnv` digests the whole rendered report, so it also pins every
/// field the six others do not: busy-time floats and cache and hop
/// counters. It was recorded before the engine built `RunReport` directly
/// instead of folding a private result type, and re-derived when the
/// report dropped its completion series: each value is the old rendering
/// with its `, completions: …` field cut out. Every value was re-recorded
/// when a compare became one task and one event (kernel and result
/// read-back on the compute engine, post-process on the node), and again
/// when `NodeCore` began to batch the compares that become ready behind a
/// busy GPU into one task and to stage parsed items through four buffers
/// per GPU.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy: runs in release (CI tests --release)"
)]
fn steal_decisions_match_recorded_golden() {
    struct Golden {
        steals: u64,
        windows: u64,
        loads: u64,
        remote_fetches: u64,
        makespan_bits: u64,
        pairs_per_node: &'static [u64],
        report_fnv: u64,
    }
    let mut cloud = cluster(bench_workload(256), 64, NodeSpec::uniform(1, 8, 16));
    cloud.net_latency = 1e-3;
    let anchor = cluster(bench_workload(256), 16, NodeSpec::uniform(4, 24, 96));
    let cases = [
        (
            "64 nodes, 1 ms links",
            cloud,
            Golden {
                steals: 408,
                windows: 2944,
                loads: 3499,
                remote_fetches: 4767,
                makespan_bits: 0x4007_8d4f_70e7_afe3,
                pairs_per_node: &[
                    480, 484, 555, 536, 399, 552, 395, 452, 524, 512, 640, 505, 517, 510, 558, 556,
                    432, 564, 522, 400, 448, 640, 572, 404, 616, 545, 454, 520, 489, 704, 492, 560,
                    520, 508, 518, 560, 584, 516, 456, 420, 404, 519, 576, 460, 391, 532, 524, 514,
                    609, 524, 481, 528, 525, 530, 412, 445, 492, 460, 456, 491, 500, 532, 476, 640,
                ],
                report_fnv: 0x3128_619a_81db_8f00,
            },
        ),
        (
            "16-node 4-GPU anchor",
            anchor,
            Golden {
                steals: 73,
                windows: 18170,
                loads: 784,
                remote_fetches: 1396,
                makespan_bits: 0x3fec_5d10_004a_a004,
                pairs_per_node: &[
                    1720, 2024, 2424, 2032, 2216, 2168, 2192, 1840, 1992, 2128, 1816, 1840, 2072,
                    2176, 2176, 1824,
                ],
                report_fnv: 0x9019_b415_e55d_91e8,
            },
        ),
    ];
    for (label, s, want) in cases {
        let r = sim(&s);
        assert_eq!(r.steals, want.steals, "{label}: steals");
        assert_eq!(r.sim_windows, want.windows, "{label}: windows");
        assert_eq!(r.loads, want.loads, "{label}: loads");
        assert_eq!(
            r.remote_fetches, want.remote_fetches,
            "{label}: remote_fetches"
        );
        assert_eq!(r.elapsed.to_bits(), want.makespan_bits, "{label}: makespan");
        assert_eq!(
            r.pairs_per_node, want.pairs_per_node,
            "{label}: pairs_per_node"
        );
        assert_eq!(
            fnv1a64(report_bytes(&r).as_bytes()),
            want.report_fnv,
            "{label}: whole report"
        );
    }
}
