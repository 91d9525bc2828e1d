//! Integration tests of the unified `Scenario`/`Backend`/`Replications`
//! driver API: replication determinism across thread-pool sizes and
//! backend report parity — all through the public facade.

use std::sync::Arc;

use rocket::core::{
    AppError, Application, Backend, NodeSpec, Pair, Replications, Scenario, ThreadedBackend,
    WorkloadProfile,
};
use rocket::sim::SimBackend;
use rocket::stats::Dist;
use rocket::storage::MemStore;
use rocket::trace::{chrome, PerfClass, PerfKind, PerfLog, PerfQuery};

/// A stochastic simulation workload: randomized stage times make the
/// replication statistics non-degenerate.
fn stochastic_workload(items: u64) -> WorkloadProfile {
    WorkloadProfile {
        name: "driver-api",
        items,
        file_bytes: 1_000_000,
        item_bytes: 10_000_000,
        parse: Dist::normal_nonneg(10e-3, 2e-3),
        preprocess: Some(Dist::Constant(5e-3)),
        compare: Dist::LogNormal {
            mean: 1e-3,
            std: 0.4e-3,
        },
        postprocess: Dist::Constant(0.0),
        paper_device_slots: 16,
        paper_host_slots: 32,
    }
}

fn sim_scenario() -> Scenario {
    Scenario::builder()
        .workload(stochastic_workload(48))
        .nodes(2, NodeSpec::uniform(1, 12, 24))
        .seed(0xC0FFEE)
        .build()
}

#[test]
fn replication_aggregates_identical_across_thread_counts() {
    // The same seed set must produce byte-identical aggregate reports no
    // matter how the replications were distributed over worker threads.
    let scenario = sim_scenario();
    let backend = SimBackend::new();
    let run = |threads: usize| {
        Replications::new(7, 8)
            .threads(threads)
            .run(&backend, &scenario)
            .expect("replications")
    };
    let serial = run(1);
    assert_eq!(serial.replications(), 8);
    assert!(
        serial.elapsed.ci95_half_width() > 0.0,
        "stochastic runs must vary"
    );
    let serial_bytes = format!("{serial:?}");
    for threads in [2, 4, 8] {
        let parallel = run(threads);
        assert_eq!(
            serial_bytes,
            format!("{parallel:?}"),
            "aggregate diverged at {threads} threads"
        );
    }
}

#[test]
fn replication_seeds_are_distinct_and_reported() {
    let reps = Replications::new(1, 8);
    let mut seeds = reps.seeds().to_vec();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), 8, "derived seeds must be distinct");

    let report = reps
        .run(&SimBackend::new(), &sim_scenario())
        .expect("replications");
    assert_eq!(report.seeds, reps.seeds());
    assert_eq!(report.runs.len(), 8);
    // Each run actually used its seed: identical seeds would collapse the
    // elapsed-time spread to zero.
    assert!(report.elapsed.min() < report.elapsed.max());
    assert!(report.summary().contains('±'));
}

#[test]
fn explicit_seed_sets_reproduce_single_runs() {
    let scenario = sim_scenario();
    let backend = SimBackend::new();
    let single = backend.run(&scenario.with_seed(99)).expect("run");
    let reps = Replications::from_seeds(vec![99, 99])
        .run(&backend, &scenario)
        .expect("replications");
    assert_eq!(format!("{:?}", reps.runs[0]), format!("{single:?}"));
    assert_eq!(format!("{:?}", reps.runs[1]), format!("{single:?}"));
    assert_eq!(reps.elapsed.ci95_half_width(), 0.0);
}

#[test]
fn adaptive_replications_honor_the_stopping_rule() {
    let scenario = sim_scenario();
    let backend = SimBackend::new();

    // A loose target is met by the very first batch.
    let loose = Replications::until_ci(3, 100.0, 64)
        .run(&backend, &scenario)
        .expect("loose run");
    assert_eq!(loose.replications(), 4, "default batch size runs once");

    // An unattainable target runs to the cap, not forever.
    let capped = Replications::until_ci(3, 1e-12, 7)
        .run(&backend, &scenario)
        .expect("capped run");
    assert_eq!(capped.replications(), 7);

    // A realistic target: the rule held at the stopping point.
    let adaptive = Replications::until_ci(3, 0.05, 64)
        .run(&backend, &scenario)
        .expect("adaptive run");
    let (mean, hw) = adaptive.elapsed.mean_ci95();
    assert!(
        hw <= 0.05 * mean || adaptive.replications() == 64,
        "stopped at {} runs with hw {hw} vs mean {mean}",
        adaptive.replications()
    );

    // Deterministic: the same base seed reproduces the whole procedure,
    // and the seed stream is the one `Replications::new` draws from.
    let again = Replications::until_ci(3, 0.05, 64)
        .run(&backend, &scenario)
        .expect("repeat run");
    assert_eq!(adaptive.seeds, again.seeds);
    assert_eq!(format!("{adaptive:?}"), format!("{again:?}"));
    let fixed = Replications::new(3, adaptive.replications());
    assert_eq!(adaptive.seeds, fixed.seeds());
}

#[test]
fn adaptive_replications_reject_bad_targets() {
    assert!(Replications::until_ci(1, 0.0, 8)
        .run(&SimBackend::new(), &sim_scenario())
        .is_err());
    assert!(Replications::until_ci(1, f64::NAN, 8)
        .run(&SimBackend::new(), &sim_scenario())
        .is_err());
    assert!(Replications::until_ci(1, 0.1, 1)
        .run(&SimBackend::new(), &sim_scenario())
        .is_err());
}

#[test]
fn reports_serialize_to_json() {
    let scenario = sim_scenario();
    let backend = SimBackend::new();
    let reps = Replications::new(11, 3)
        .run(&backend, &scenario)
        .expect("replications");
    let json = reps.to_json();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert!(json.contains("\"replications\":3"));
    assert!(json.contains("\"backend\":\"sim\""));
    assert!(json.contains("\"runs\":["));
    // Per-run reports embed cleanly and agree with the standalone writer.
    let single = backend.run(&scenario.with_seed(reps.seeds[0])).unwrap();
    assert!(json.contains(&single.to_json()));
}

/// Toy application for threaded-backend parity: sums bytes, compares sums.
struct ByteSum {
    files: u64,
}

impl Application for ByteSum {
    type Output = i64;
    fn name(&self) -> &str {
        "bytesum"
    }
    fn item_count(&self) -> u64 {
        self.files
    }
    fn file_for(&self, item: u64) -> String {
        format!("{item}.bin")
    }
    fn parsed_bytes(&self) -> usize {
        8
    }
    fn item_bytes(&self) -> usize {
        8
    }
    fn result_bytes(&self) -> usize {
        8
    }
    fn has_preprocess(&self) -> bool {
        false
    }
    fn parse(&self, _item: u64, raw: &[u8], out: &mut [u8]) -> Result<(), AppError> {
        let sum: i64 = raw.iter().map(|&b| b as i64).sum();
        out[..8].copy_from_slice(&sum.to_le_bytes());
        Ok(())
    }
    fn compare(
        &self,
        left: (u64, &[u8]),
        right: (u64, &[u8]),
        out: &mut [u8],
    ) -> Result<(), AppError> {
        let l = i64::from_le_bytes(left.1[..8].try_into().unwrap());
        let r = i64::from_le_bytes(right.1[..8].try_into().unwrap());
        out[..8].copy_from_slice(&(l - r).to_le_bytes());
        Ok(())
    }
    fn postprocess(&self, _pair: Pair, raw: &[u8]) -> i64 {
        i64::from_le_bytes(raw[..8].try_into().unwrap())
    }
}

#[test]
fn threaded_backend_reports_unified_shape() {
    let store = MemStore::from_iter((0..8u64).map(|i| (format!("{i}.bin"), vec![i as u8; 16])));
    let scenario = Scenario::builder()
        .items(8)
        .node(NodeSpec::uniform(1, 4, 8))
        .job_limit(4)
        .cpu_threads(2)
        .build();
    let backend = ThreadedBackend::new(Arc::new(ByteSum { files: 8 }), Arc::new(store));

    // Typed path: outputs present and correct count.
    let app_report = backend.run_app(&scenario).expect("run_app");
    assert_eq!(app_report.outputs.len(), 28);
    assert!(app_report.failed.is_empty());

    // Unified path: same aggregate shape as the simulator's.
    let report = backend
        .run_with_perf(&scenario, &PerfLog::enabled())
        .expect("unified run");
    assert_eq!(report.backend, "threaded");
    assert_eq!(report.items, 8);
    assert_eq!(report.pairs, 28);
    assert_eq!(report.failed_pairs, 0);
    assert_eq!(report.loads, 8, "full caches load every item once");
    assert!((report.r_factor() - 1.0).abs() < 1e-12);
    assert_eq!(report.pairs_per_node, vec![28]);
    // The run was recorded: the compare busy time is observable.
    assert!(report.busy.compare > 0.0);
    assert!(report.busy.cpu > 0.0);
}

#[test]
fn chrome_export_accepts_a_simulator_log() {
    let perf = PerfLog::enabled();
    SimBackend::new()
        .run_with_perf(&sim_scenario(), &perf)
        .expect("sim run");
    let records = perf.take();
    let stages = PerfQuery::new(&records).class(PerfClass::Stage).count();
    assert!(stages > 0 && (stages as usize) < records.len());
    let json = chrome::to_chrome_json(&records);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert_eq!(json.matches("\"ph\":\"X\"").count() as u64, stages);
    // Both nodes of the scenario appear as trace processes.
    assert!(json.contains("\"pid\":0,") && json.contains("\"pid\":1,"));
}

#[test]
fn invalid_scenarios_rejected_by_both_backends() {
    let mut bad = sim_scenario();
    bad.hops = 0;
    assert!(SimBackend::new().run(&bad).is_err());
    let store = MemStore::new();
    let backend = ThreadedBackend::new(Arc::new(ByteSum { files: 4 }), Arc::new(store));
    assert!(backend.run(&bad).is_err());
}

#[test]
fn threaded_backend_rejects_item_count_mismatch() {
    // The runtime sizes everything from the app; a scenario written for a
    // different data-set size is a design error, not a request.
    let store = MemStore::from_iter((0..4u64).map(|i| (format!("{i}.bin"), vec![1u8; 4])));
    let backend = ThreadedBackend::new(Arc::new(ByteSum { files: 4 }), Arc::new(store));
    let scenario = Scenario::builder()
        .items(8) // app has 4
        .node(NodeSpec::uniform(1, 4, 8))
        .build();
    let err = backend.run_app(&scenario).unwrap_err();
    assert!(err.to_string().contains("8 items"), "{err}");
}

/// The report's conservation laws hold on both engines, with the
/// distributed cache on and off: every pair is accounted for once, on
/// some node; every item is loaded at least once and R = loads/n; each
/// pair asks the device cache for both of its items; and without the
/// distributed cache no node looks up or fetches from a peer.
#[test]
fn reports_obey_conservation_laws_on_both_engines() {
    let n = 12u64;
    let store = MemStore::from_iter((0..n).map(|i| (format!("{i}.bin"), vec![i as u8; 16])));
    let threaded = ThreadedBackend::new(Arc::new(ByteSum { files: n }), Arc::new(store));
    let sim = SimBackend::new();
    for distributed in [true, false] {
        let scenario = Scenario::builder()
            .items(n)
            .nodes(2, NodeSpec::uniform(1, 4, 6))
            .job_limit(4)
            .cpu_threads(2)
            .leaf_pairs(2)
            .distributed_cache(distributed)
            .build();
        let engines: [&dyn Backend; 2] = [&sim, &threaded];
        for engine in engines {
            let r = engine.run(&scenario).expect("run");
            let label = format!("{} (distributed cache {distributed})", r.backend);
            let pairs = n * (n - 1) / 2;
            assert_eq!(r.pairs + r.failed_pairs, pairs, "{label}: pairs");
            assert_eq!(r.failed_pairs, 0, "{label}: failed pairs");
            assert_eq!(r.pairs_per_node.len(), 2, "{label}: nodes");
            assert_eq!(
                r.pairs_per_node.iter().sum::<u64>(),
                pairs,
                "{label}: pairs per node"
            );
            assert!(r.loads >= n, "{label}: {} loads of {n} items", r.loads);
            assert_eq!(
                r.r_factor(),
                r.loads as f64 / n as f64,
                "{label}: R = loads/n"
            );
            assert!(
                r.device_cache.requests() >= 2 * r.pairs,
                "{label}: {} device-cache requests for {} pairs",
                r.device_cache.requests(),
                r.pairs
            );
            if !distributed {
                assert_eq!(r.directory.lookups(), 0, "{label}: lookups");
                assert_eq!(r.remote_fetches, 0, "{label}: remote fetches");
            }
        }
    }
}

/// Both engines log every cache and probe event the node core notes. On
/// a recorded 2-node run with the distributed cache on, each cache level's
/// hit and miss records equal the report's counters, and the probe records
/// equal the probe hits plus misses, one per directory lookup.
#[test]
fn perf_log_cache_and_probe_records_match_the_report_on_both_engines() {
    use PerfKind::{DevHit, DevMiss, HostHit, HostMiss, Probe, ProbeHit, ProbeMiss};
    let n = 12u64;
    let store = MemStore::from_iter((0..n).map(|i| (format!("{i}.bin"), vec![i as u8; 16])));
    let threaded = ThreadedBackend::new(Arc::new(ByteSum { files: n }), Arc::new(store));
    let sim = SimBackend::new();
    let scenario = Scenario::builder()
        .items(n)
        .nodes(2, NodeSpec::uniform(1, 4, 6))
        .job_limit(4)
        .cpu_threads(2)
        .leaf_pairs(2)
        .distributed_cache(true)
        .build();
    let engines: [&dyn Backend; 2] = [&sim, &threaded];
    for engine in engines {
        let perf = PerfLog::enabled();
        let r = engine.run_with_perf(&scenario, &perf).expect("run");
        let records = perf.take();
        let count = |kind| PerfQuery::new(&records).kind(kind).count();
        let label = r.backend;
        assert_eq!(r.failed_pairs, 0, "{label}: failed pairs");
        let levels = [
            ("device", r.device_cache, DevHit, DevMiss),
            ("host", r.host_cache, HostHit, HostMiss),
        ];
        for (level, stats, hit, miss) in levels {
            assert_eq!(count(hit), stats.hits, "{label}: {level} hits");
            assert_eq!(count(miss), stats.misses, "{label}: {level} misses");
        }
        let probes = count(Probe);
        assert!(probes > 0, "{label}: no directory probe on a 2-node run");
        assert_eq!(
            count(ProbeHit) + count(ProbeMiss),
            probes,
            "{label}: probe resolutions"
        );
        assert_eq!(r.directory.lookups(), probes, "{label}: lookups");
    }
}
