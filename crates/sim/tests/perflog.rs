//! Perf-log pipeline through the simulator: recording never changes
//! results, and the JSONL → query-API → rollup chain round-trips a real
//! run. (That the record stream is identical across thread counts is a
//! unit test in `shard.rs`, which can set the thread count.)
//!
//! The determinism bar matches `shard_equivalence.rs`: Debug formatting
//! covers every field, so string equality is byte-identical data.

use rocket_apps::WorkloadProfile;
use rocket_core::{
    Axis, Backend, NodeSpec, PerfClass, PerfKind, PerfLog, PerfQuery, PerfRecord, PerfRollup,
    Scenario, Study, Sweep,
};
use rocket_sim::SimBackend;
use rocket_stats::Dist;
use rocket_trace::perflog::{parse_jsonl, write_jsonl};
use rocket_trace::PerfMeta;

/// Stochastic stage times (same rationale as the shard-equivalence
/// suite): constant-time workloads tie everywhere and mask ordering bugs
/// that would perturb either the results or the record stream.
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

/// A 4-node distributed-cache scenario small enough for debug builds but
/// busy enough to exercise every record site (loads, probes, steals).
fn scenario() -> Scenario {
    Scenario::builder()
        .workload(noisy_workload(32))
        .nodes(4, NodeSpec::uniform(1, 8, 16))
        .build()
}

#[test]
fn enabling_perf_logging_never_changes_results() {
    let s = scenario();
    for backend in [SimBackend::new(), SimBackend::sharded(4)] {
        let plain = backend.run(&s).expect("plain run");
        let perf = PerfLog::enabled();
        let logged = backend.run_with_perf(&s, &perf).expect("logged run");
        assert_eq!(
            format!("{plain:?}"),
            format!("{logged:?}"),
            "perf logging changed the report"
        );
        assert!(!perf.is_empty(), "enabled log collected nothing");
    }
}

#[test]
fn jsonl_round_trips_a_real_run() {
    let perf = PerfLog::enabled();
    SimBackend::new()
        .run_with_perf(&scenario(), &perf)
        .expect("run");
    let records = perf.take();
    let meta = PerfMeta {
        run: "roundtrip".into(),
        cell: Some(3),
        backend: "sim".into(),
    };
    let text = write_jsonl(&meta, &records);
    let (meta2, records2) = parse_jsonl(&text).expect("parse back");
    assert_eq!(meta2.run, "roundtrip");
    assert_eq!(meta2.cell, Some(3));
    assert_eq!(meta2.backend, "sim");
    assert_eq!(records, records2, "records did not round-trip");
}

#[test]
fn rollup_matches_run_counters() {
    let s = scenario();
    let perf = PerfLog::enabled();
    let r = SimBackend::new().run_with_perf(&s, &perf).expect("run");
    let records = perf.take();
    let rollup = PerfRollup::from_records(&records);
    assert_eq!(rollup.records, records.len() as u64);
    assert!(rollup.span_ns > 0);
    // One Compare record per pair, one Steal record per counted steal:
    // the rollup must agree with the report's own counters.
    let compares = rollup.stage(PerfKind::Compare).expect("compare stage");
    assert_eq!(compares.count, r.pairs);
    assert!(compares.p50_ns > 0 && compares.p99_ns >= compares.p50_ns);
    assert_eq!(rollup.steals, r.steals);
    // 32 items on 4 nodes with a distributed cache: loads and probes both
    // happen, so the cache/directory counters are live, not vacuous.
    assert!(r.loads > 0);
    assert!(rollup.probes > 0);
}

#[test]
fn study_pipeline_writes_per_cell_logs() {
    let dir = std::env::temp_dir().join(format!("rocket-perflog-study-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = Sweep::over(scenario())
        .axis(Axis::tag("variant", ["a", "b"]))
        .try_build()
        .expect("sweep");
    let report = Study::new("perfstudy")
        .perf_log_dir(&dir)
        .run(&SimBackend::new(), &sweep)
        .expect("study");
    assert_eq!(report.cells.len(), 2);
    for cell in &report.cells {
        let rollup = cell.perf.as_ref().expect("cell rollup");
        assert!(rollup.records > 0);
        let path = dir.join(format!("perfstudy-cell{}.perflog.jsonl", cell.cell));
        let text = std::fs::read_to_string(&path).expect("perf log file");
        let (meta, records) = parse_jsonl(&text).expect("file parses");
        assert_eq!(meta.run, "perfstudy");
        assert_eq!(meta.cell, Some(cell.cell as u64));
        assert_eq!(records.len() as u64, rollup.records);
    }
    // The rollup reaches both serialized forms: perf columns in CSV,
    // a "perf" object per cell in JSON.
    let csv = report.to_csv();
    assert!(csv.lines().next().unwrap().contains("read_p50_ns"));
    assert!(report.to_json().contains("\"perf\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pair_done_records_every_pair_once_per_device() {
    let s = Scenario::builder()
        .workload(noisy_workload(32))
        .nodes(4, NodeSpec::uniform(2, 8, 16))
        .build();
    let mut streams = Vec::new();
    for shards in [1, 2, 4] {
        let perf = PerfLog::enabled();
        let r = SimBackend::sharded(shards)
            .run_with_perf(&s, &perf)
            .expect("run");
        let mut done: Vec<PerfRecord> = PerfQuery::new(&perf.take())
            .class(PerfClass::Progress)
            .iter()
            .copied()
            .collect();
        assert!(done.iter().all(|rec| rec.kind == PerfKind::PairDone));
        assert_eq!(
            done.len() as u64,
            r.pairs,
            "K = {shards}: one record per pair"
        );
        for (node, &pairs) in r.pairs_per_node.iter().enumerate() {
            let per_device: Vec<u64> = (0..2)
                .map(|device| {
                    let on = |rec: &&PerfRecord| rec.node == node as u32 && rec.value == device;
                    done.iter().filter(on).count() as u64
                })
                .collect();
            assert!(
                per_device.iter().all(|&n| n > 0),
                "node {node}: idle device"
            );
            assert_eq!(
                per_device.iter().sum::<u64>(),
                pairs,
                "K = {shards}, node {node}"
            );
        }
        // Shards interleave their nodes' records differently; each node's
        // own stream must not depend on the shard count.
        done.sort_by_key(|rec| rec.node);
        streams.push(format!("{done:?}"));
    }
    assert_eq!(streams[0], streams[1], "K = 1 vs K = 2");
    assert_eq!(streams[0], streams[2], "K = 1 vs K = 4");
}
