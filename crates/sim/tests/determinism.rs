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
/// `des-shard`'s 64 nodes with 1 ms links, and the 16-node 4-GPU anchor
/// with completion recording on.
///
/// `report_fnv` digests the whole rendered report, so it also pins every
/// field the six others do not: busy-time floats, cache and hop counters,
/// and the merged completion series. It was recorded before the engine
/// built `RunReport` directly instead of folding a private result type.
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
    let mut anchor = cluster(bench_workload(256), 16, NodeSpec::uniform(4, 24, 96));
    anchor.record_completions = true;
    let cases = [
        (
            "64 nodes, 1 ms links",
            cloud,
            Golden {
                steals: 447,
                windows: 2995,
                loads: 3550,
                remote_fetches: 4671,
                makespan_bits: 0x4007_f56a_9a75_032f,
                pairs_per_node: &[
                    608, 428, 516, 416, 392, 568, 396, 524, 516, 536, 412, 632, 520, 500, 524, 580,
                    548, 456, 516, 584, 575, 508, 500, 455, 644, 580, 468, 508, 576, 548, 524, 504,
                    516, 524, 588, 616, 584, 452, 348, 364, 476, 524, 580, 524, 560, 508, 504, 540,
                    520, 524, 496, 452, 460, 448, 416, 452, 552, 520, 444, 542, 500, 524, 464, 556,
                ],
                report_fnv: 0xb42a_b5e4_2b7d_7a69,
            },
        ),
        (
            "16-node 4-GPU anchor",
            anchor,
            Golden {
                steals: 70,
                windows: 18425,
                loads: 655,
                remote_fetches: 1603,
                makespan_bits: 0x3feb_2eaa_f35e_310e,
                pairs_per_node: &[
                    1712, 1845, 2353, 1800, 2112, 2355, 2304, 1720, 2280, 2240, 1800, 1912, 2055,
                    2064, 2240, 1848,
                ],
                report_fnv: 0x763c_3824_d742_271e,
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

#[test]
fn completions_recorded_runs_identically() {
    // `record_completions` adds the per-GPU timestamp series to the report;
    // it must be deterministic too (Fig 14 reproductions depend on it).
    let mut s = cluster(bench_workload(32), 2, NodeSpec::uniform(2, 16, 32));
    s.record_completions = true;
    let a = sim(&s);
    let b = sim(&s);
    assert!(a.completions.is_some());
    assert_eq!(report_bytes(&a), report_bytes(&b));
}
