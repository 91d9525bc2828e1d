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
/// read-back on the compute engine, post-process on the node).
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
                steals: 401,
                windows: 2776,
                loads: 3286,
                remote_fetches: 4825,
                makespan_bits: 0x4006_3490_8ec7_c845,
                pairs_per_node: &[
                    480, 496, 476, 412, 576, 480, 452, 392, 596, 544, 513, 623, 484, 482, 479, 640,
                    452, 564, 515, 477, 448, 557, 512, 466, 504, 525, 448, 507, 456, 640, 462, 444,
                    692, 512, 564, 524, 544, 408, 444, 464, 440, 521, 588, 572, 460, 524, 520, 628,
                    516, 540, 481, 580, 542, 584, 480, 508, 517, 455, 469, 516, 456, 468, 448, 573,
                ],
                report_fnv: 0x350f_f4dd_066e_bf5f,
            },
        ),
        (
            "16-node 4-GPU anchor",
            anchor,
            Golden {
                steals: 69,
                windows: 18084,
                loads: 686,
                remote_fetches: 1557,
                makespan_bits: 0x3feb_1906_864e_5aa3,
                pairs_per_node: &[
                    1648, 1952, 2304, 1704, 2048, 2288, 2304, 1720, 2176, 2240, 1840, 1912, 2056,
                    2240, 2296, 1912,
                ],
                report_fnv: 0x1765_6680_4545_c20a,
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
