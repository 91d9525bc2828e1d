//! Integration tests spanning the whole stack: real applications executed
//! through the threaded runtime, single- and multi-node, validated against
//! sequential oracles and generator ground truth.

use std::sync::Arc;

use rocket::apps::{
    BioApp, BioConfig, BioDataset, ForensicsApp, ForensicsConfig, ForensicsDataset, MicroscopyApp,
    MicroscopyConfig, MicroscopyDataset,
};
use rocket::core::{
    AppError, AppReport, Application, Backend, NodeSpec, Pair, Scenario, ScenarioBuilder,
    ThreadedBackend,
};
use rocket::storage::{FaultStore, MemStore, ObjectStore, StorageError};
use rocket::trace::{chrome, PerfKind, PerfLog, PerfQuery};

/// `nodes` one-GPU nodes with the given cache slots, two CPU threads each,
/// and single-pair leaf tasks: many small tasks keep every node of a
/// multi-node run stealing.
fn cluster(items: u64, nodes: usize, device_slots: usize, host_slots: usize) -> ScenarioBuilder {
    Scenario::builder()
        .items(items)
        .nodes(nodes, NodeSpec::uniform(1, device_slots, host_slots))
        .cpu_threads(2)
        .leaf_pairs(1)
}

/// One node: 8 device slots, 16 host slots, 6 jobs in flight.
fn small_scenario(items: u64) -> Scenario {
    cluster(items, 1, 8, 16).job_limit(6).build()
}

/// Runs `app` over `store` on the threaded backend.
fn run<A: Application>(
    app: A,
    store: impl ObjectStore + 'static,
    scenario: &Scenario,
) -> AppReport<A::Output> {
    ThreadedBackend::new(Arc::new(app), Arc::new(store))
        .run_app(scenario)
        .expect("run")
}

/// Sequential oracle: run the application's stages directly, no runtime.
fn oracle<A: Application>(app: &A, store: &dyn ObjectStore) -> Vec<(Pair, A::Output)> {
    let n = app.item_count();
    let mut items = Vec::new();
    for i in 0..n {
        let raw = store.read(&app.file_for(i)).expect("oracle read");
        let mut parsed = vec![0u8; app.parsed_bytes()];
        app.parse(i, &raw, &mut parsed).expect("oracle parse");
        if app.has_preprocess() {
            let mut item = vec![0u8; app.item_bytes()];
            app.preprocess(i, &parsed, &mut item)
                .expect("oracle preprocess");
            items.push(item);
        } else {
            parsed.resize(app.item_bytes(), 0);
            items.push(parsed);
        }
    }
    let mut out = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let mut result = vec![0u8; app.result_bytes()];
            app.compare(
                (i, &items[i as usize]),
                (j, &items[j as usize]),
                &mut result,
            )
            .expect("oracle compare");
            let pair = Pair::new(i, j);
            out.push((pair, app.postprocess(pair, &result)));
        }
    }
    out
}

fn assert_outputs_match_oracle<O: PartialEq + std::fmt::Debug>(
    report: &AppReport<O>,
    oracle: &[(Pair, O)],
) {
    assert!(
        report.failed.is_empty(),
        "failed pairs: {:?}",
        report.failed
    );
    assert_outputs_equal(report, oracle);
}

/// The run delivered exactly `oracle`'s pairs, with its outputs.
fn assert_outputs_equal<O: PartialEq + std::fmt::Debug>(
    report: &AppReport<O>,
    oracle: &[(Pair, O)],
) {
    let got = report.sorted_outputs();
    assert_eq!(got.len(), oracle.len(), "pair count mismatch");
    for (g, o) in got.iter().zip(oracle) {
        assert_eq!(g.0, o.0, "pair order mismatch");
        assert!(
            g.1 == o.1,
            "output mismatch at {:?}: {:?} vs {:?}",
            g.0,
            g.1,
            o.1
        );
    }
}

#[test]
fn forensics_matches_sequential_oracle() {
    let cfg = ForensicsConfig {
        images: 14,
        cameras: 3,
        width: 48,
        height: 48,
        ..Default::default()
    };
    let ds = ForensicsDataset::generate(cfg.clone());
    let app = ForensicsApp::new(&cfg);
    let expected = oracle(&app, &ds.store);
    let report = run(app, ds.store, &small_scenario(14));
    assert_outputs_match_oracle(&report, &expected);
    assert_eq!(report.outputs.len(), 14 * 13 / 2);
}

#[test]
fn bioinformatics_matches_sequential_oracle() {
    let cfg = BioConfig {
        species: 12,
        clusters: 3,
        proteome_len: 2000,
        ..Default::default()
    };
    let ds = BioDataset::generate(cfg.clone());
    let app = BioApp::new(&cfg);
    let expected = oracle(&app, &ds.store);
    let report = run(app, ds.store, &small_scenario(12));
    assert_outputs_match_oracle(&report, &expected);
    // Distances are symmetric-by-construction and in [0, 1].
    for &(_, d) in report.sorted_outputs().into_iter() {
        assert!((0.0..=1.0).contains(&d));
    }
}

#[test]
fn microscopy_runs_without_preprocess_stage() {
    let cfg = MicroscopyConfig {
        particles: 8,
        ..Default::default()
    };
    let ds = MicroscopyDataset::generate(cfg.clone());
    let app = MicroscopyApp::new(&cfg);
    let expected = oracle(&app, &ds.store);
    let report = run(app, ds.store, &small_scenario(8));
    assert_outputs_match_oracle(&report, &expected);
}

#[test]
fn multi_node_cluster_produces_identical_results() {
    let cfg = ForensicsConfig {
        images: 12,
        cameras: 3,
        width: 32,
        height: 32,
        ..Default::default()
    };
    let ds = ForensicsDataset::generate(cfg.clone());
    let app = ForensicsApp::new(&cfg);
    let expected = oracle(&app, &ds.store);
    // Three nodes, tiny caches, distributed cache on.
    let scenario = cluster(12, 3, 6, 8)
        .job_limit(4)
        .distributed_cache(true)
        .build();
    let report = run(app, ds.store, &scenario);
    assert_outputs_match_oracle(&report, &expected);
    // All nodes participated (one worker per node).
    let per_node = &report.report.pairs_per_node;
    assert_eq!(per_node.iter().sum::<u64>(), report.outputs.len() as u64);
    let active = per_node.iter().filter(|&&c| c > 0).count();
    assert!(active >= 2, "pairs per node: {per_node:?}");
}

/// A write-back reads its device slot on the D2H thread after the slot is
/// published, so the slot must stay pinned until that copy completes.
/// Unpinned, a fill can evict and overwrite it mid-copy: the host cache,
/// and every peer that fetches from it, then holds another item's bytes.
/// Four device slots on each of two nodes keep that window wide; without
/// the pin about one run in seven corrupts a score, hence the repetitions.
#[test]
fn write_back_never_reads_a_refilled_device_slot() {
    let cfg = ForensicsConfig {
        images: 24,
        cameras: 4,
        width: 128,
        height: 128,
        ..Default::default()
    };
    let ds = ForensicsDataset::generate(cfg.clone());
    let app = ForensicsApp::new(&cfg);
    let expected = oracle(&app, &ds.store);
    let scenario = Scenario::builder()
        .items(24)
        .nodes(2, NodeSpec::uniform(1, 4, 8))
        .cpu_threads(1)
        .job_limit(16)
        .distributed_cache(true)
        .build();
    let backend = ThreadedBackend::new(Arc::new(app), Arc::new(ds.store));
    for _ in 0..40 {
        let report = backend.run_app(&scenario).expect("run");
        assert_outputs_match_oracle(&report, &expected);
    }
}

#[test]
fn distributed_cache_reduces_cluster_loads() {
    let cfg = ForensicsConfig {
        images: 16,
        cameras: 4,
        width: 32,
        height: 32,
        ..Default::default()
    };
    // Static partition: both runs compare the same pairs on the same
    // nodes, so each node needs the same items in both. The host cache
    // holds the whole set, so each node fills each item it needs once —
    // from storage (a load) or from a peer (a remote fetch) — whatever
    // the thread schedule.
    let make = |dist: bool| {
        let ds = ForensicsDataset::generate(cfg.clone());
        let scenario = cluster(16, 4, 8, 16)
            .job_limit(4)
            .distributed_cache(dist)
            .static_partition(true)
            .build();
        run(ForensicsApp::new(&cfg), ds.store, &scenario)
    };
    let with = make(true);
    let without = make(false);
    assert!(with.failed.is_empty() && without.failed.is_empty());
    let (with, without) = (with.report, without.report);
    assert_eq!(
        with.loads + with.remote_fetches,
        without.loads,
        "every item a node needs is filled once, locally or remotely"
    );
    assert!(
        with.remote_fetches > 0,
        "the distributed cache must replace some loads"
    );
    assert_eq!(without.remote_fetches, 0);
}

#[test]
fn transient_storage_faults_are_retried() {
    let cfg = ForensicsConfig {
        images: 8,
        cameras: 2,
        width: 32,
        height: 32,
        ..Default::default()
    };
    let ds = ForensicsDataset::generate(cfg.clone());
    let app = ForensicsApp::new(&cfg);
    let expected = oracle(&app, &ds.store);
    // Every 5th read fails; the runtime restarts the failed item's load.
    let flaky = FaultStore::every(ds.store, 5);
    let scenario = cluster(8, 1, 4, 8).job_limit(4).build();
    let report = run(app, flaky, &scenario);
    assert_outputs_match_oracle(&report, &expected);
}

#[test]
fn missing_files_fail_only_dependent_pairs() {
    // Item 3's file is absent: the 7 pairs touching it fail, the rest run.
    let cfg = ForensicsConfig {
        images: 8,
        cameras: 2,
        width: 32,
        height: 32,
        ..Default::default()
    };
    let ds = ForensicsDataset::generate(cfg.clone());
    let partial = MemStore::new();
    for key in ds.store.list() {
        if key != ForensicsDataset::key(3) {
            partial.put(key.clone(), ds.store.read(&key).unwrap());
        }
    }
    let scenario = cluster(8, 1, 4, 8).job_limit(4).build();
    let report = run(ForensicsApp::new(&cfg), partial, &scenario);
    assert_eq!(report.failed.len(), 7, "failed: {:?}", report.failed);
    // Each failed pair names the item and the store's error.
    let not_found = StorageError::NotFound(ForensicsDataset::key(3)).to_string();
    for (pair, cause) in &report.failed {
        assert!(pair.left == 3 || pair.right == 3, "{pair:?}");
        assert!(cause.starts_with("item 3: "), "{cause}");
        assert!(cause.contains(&not_found), "{cause}");
    }
    assert_eq!(report.outputs.len(), 8 * 7 / 2 - 7);
}

/// [`ForensicsApp`] with a fault injected on one pair: its compare kernel
/// fails, or, with `panic_in_postprocess`, its post-process panics.
struct FailingCompare {
    inner: ForensicsApp,
    bad: Pair,
    panic_in_postprocess: bool,
}

impl Application for FailingCompare {
    type Output = <ForensicsApp as Application>::Output;
    fn name(&self) -> &str {
        "failing-compare"
    }
    fn item_count(&self) -> u64 {
        self.inner.item_count()
    }
    fn file_for(&self, item: u64) -> String {
        self.inner.file_for(item)
    }
    fn parsed_bytes(&self) -> usize {
        self.inner.parsed_bytes()
    }
    fn item_bytes(&self) -> usize {
        self.inner.item_bytes()
    }
    fn result_bytes(&self) -> usize {
        self.inner.result_bytes()
    }
    fn parse(&self, item: u64, raw: &[u8], out: &mut [u8]) -> Result<(), AppError> {
        self.inner.parse(item, raw, out)
    }
    fn preprocess(&self, item: u64, input: &[u8], out: &mut [u8]) -> Result<(), AppError> {
        self.inner.preprocess(item, input, out)
    }
    fn compare(
        &self,
        left: (u64, &[u8]),
        right: (u64, &[u8]),
        out: &mut [u8],
    ) -> Result<(), AppError> {
        if Pair::new(left.0, right.0) == self.bad && !self.panic_in_postprocess {
            return Err(AppError::new("compare", "injected"));
        }
        self.inner.compare(left, right, out)
    }
    fn postprocess(&self, pair: Pair, raw: &[u8]) -> Self::Output {
        assert!(
            pair != self.bad || !self.panic_in_postprocess,
            "injected post-process panic"
        );
        self.inner.postprocess(pair, raw)
    }
}

#[test]
fn failed_compare_fails_only_its_pair() {
    let cfg = ForensicsConfig {
        images: 8,
        cameras: 2,
        width: 32,
        height: 32,
        ..Default::default()
    };
    let ds = ForensicsDataset::generate(cfg.clone());
    let expected = oracle(&ForensicsApp::new(&cfg), &ds.store);
    let bad = Pair::new(2, 5);
    // Every item fits the device and the whole triangle is one leaf, so
    // the submitter hands over up to 16 pairs at a time and the bad
    // pair's compare shares a GPU task (of up to 8) with others.
    let scenario = cluster(8, 1, 32, 8).job_limit(16).leaf_pairs(28).build();
    let app = FailingCompare {
        inner: ForensicsApp::new(&cfg),
        bad,
        panic_in_postprocess: false,
    };
    // The run returning at all means every permit came back: the driver
    // waits for all of them before it finishes the node.
    let report = run(app, ds.store, &scenario);
    let failed = &report.failed;
    assert_eq!(failed.len(), 1, "failed: {failed:?}");
    assert_eq!(failed[0].0, bad);
    assert!(
        failed[0].1.starts_with("compare failed: "),
        "{}",
        failed[0].1
    );
    let want: Vec<_> = expected.into_iter().filter(|(p, _)| *p != bad).collect();
    assert_outputs_equal(&report, &want);
}

/// A post-process runs on its node's conductor, so a panicking one kills
/// the conductor and with it every permit it holds. The run must end and
/// re-raise that panic, not wait forever for those permits: on one node,
/// and on two, where the live node may wait on the dead one's messages.
#[test]
fn conductor_panic_ends_the_run() {
    let cfg = ForensicsConfig {
        images: 8,
        cameras: 2,
        width: 32,
        height: 32,
        ..Default::default()
    };
    for nodes in [1, 2] {
        let ds = ForensicsDataset::generate(cfg.clone());
        let app = FailingCompare {
            inner: ForensicsApp::new(&cfg),
            bad: Pair::new(2, 5),
            panic_in_postprocess: true,
        };
        let scenario = cluster(8, nodes, 4, 4)
            .job_limit(4)
            .distributed_cache(true)
            .build();
        let backend = ThreadedBackend::new(Arc::new(app), Arc::new(ds.store));
        // The runner drops `done` as it returns or unwinds, which ends the
        // wait early either way.
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let runner = std::thread::spawn(move || {
            let _done = done;
            backend.run_app(&scenario).map(|r| r.outputs.len())
        });
        let waited = finished.recv_timeout(std::time::Duration::from_secs(30));
        assert!(
            waited != Err(std::sync::mpsc::RecvTimeoutError::Timeout),
            "{nodes} node(s): the run still hangs 30 s after a conductor panic"
        );
        let payload = match runner.join() {
            Err(payload) => payload,
            Ok(outcome) => panic!("{nodes} node(s): the run returned {outcome:?}"),
        };
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            message.contains("injected post-process panic"),
            "{nodes} node(s): re-raised {message:?}"
        );
    }
}

/// The 8-image forensics fixture behind a [`ThreadedBackend`], on
/// [`small_scenario`].
fn forensics_fixture() -> (Scenario, ThreadedBackend<ForensicsApp>) {
    let cfg = ForensicsConfig {
        images: 8,
        cameras: 2,
        width: 32,
        height: 32,
        ..Default::default()
    };
    let ds = ForensicsDataset::generate(cfg.clone());
    let scenario = small_scenario(8);
    let backend = ThreadedBackend::new(Arc::new(ForensicsApp::new(&cfg)), Arc::new(ds.store));
    (scenario, backend)
}

#[test]
fn perf_log_captures_all_pipeline_stages() {
    let (scenario, backend) = forensics_fixture();
    let perf = PerfLog::enabled();
    let report = backend
        .run_app_with_perf(&scenario, &perf)
        .expect("recorded run");
    let records = perf.take();
    let q = PerfQuery::new(&records);
    assert_eq!(report.outputs.len(), 28);
    assert_eq!(q.kind(PerfKind::Compare).count(), 28);
    assert_eq!(q.kind(PerfKind::Postprocess).count(), 28);
    assert!(q.kind(PerfKind::Read).count() >= 8);
    assert!(q.kind(PerfKind::Parse).count() >= 8);
    assert!(q.kind(PerfKind::Preprocess).count() >= 8);
    // No resource is busier than its servers allow: the summed stage
    // durations fit into elapsed × servers (one node, one GPU here).
    let elapsed_ns = (report.report.elapsed * 1e9).round() as u64;
    let gpus = scenario.total_gpus() as u64;
    let resources: [(&str, &[PerfKind], u64); 5] = [
        (
            "CPU",
            &[PerfKind::Parse, PerfKind::Postprocess],
            scenario.cpu_threads as u64,
        ),
        ("GPU", &[PerfKind::Preprocess, PerfKind::Compare], gpus),
        ("CPU→GPU", &[PerfKind::CopyIn], gpus),
        ("GPU→CPU", &[PerfKind::CopyOut], gpus),
        ("IO", &[PerfKind::Read], 1),
    ];
    for (name, kinds, servers) in resources {
        let busy: u64 = kinds.iter().map(|&k| q.kind(k).total()).sum();
        assert!(busy > 0, "{name} recorded no busy time");
        assert!(
            busy <= elapsed_ns * servers,
            "{name}: {busy} ns busy exceeds {elapsed_ns} ns × {servers} servers"
        );
    }
    // Chrome export is well-formed and carries one event per task.
    let json = chrome::to_chrome_json(&records);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert_eq!(json.matches("\"ph\":\"X\"").count(), records.len());
}

/// A GPU task is one kernel launch, logged as one `Compare` record per
/// pair: the records count the delivered pairs, and they sum to the run's
/// compare busy time.
#[test]
fn one_compare_record_per_delivered_pair() {
    let cfg = ForensicsConfig {
        images: 12,
        cameras: 2,
        width: 32,
        height: 32,
        ..Default::default()
    };
    let ds = ForensicsDataset::generate(cfg.clone());
    // One leaf and 16 permits: GPU tasks of up to 8 compares.
    let scenario = cluster(12, 1, 32, 12).job_limit(16).leaf_pairs(66).build();
    let backend = ThreadedBackend::new(Arc::new(ForensicsApp::new(&cfg)), Arc::new(ds.store));
    let perf = PerfLog::enabled();
    let report = backend
        .run_app_with_perf(&scenario, &perf)
        .expect("recorded run");
    assert_eq!(report.outputs.len(), 66);
    let records = perf.take();
    let compares = PerfQuery::new(&records).kind(PerfKind::Compare);
    assert_eq!(compares.count(), report.outputs.len() as u64);
    let busy_ns = report.report.busy.compare * 1e9;
    let total_ns = compares.total() as f64;
    assert!(
        (busy_ns - total_ns).abs() <= 1e-9 * total_ns,
        "busy.compare {busy_ns} ns vs {total_ns} ns of Compare records"
    );
}

#[test]
fn recording_never_changes_results() {
    let (scenario, backend) = forensics_fixture();
    let plain = backend.run_app(&scenario).expect("plain run");
    let perf = PerfLog::enabled();
    let recorded = backend
        .run_app_with_perf(&scenario, &perf)
        .expect("recorded run");
    assert!(!perf.is_empty());
    assert_eq!(plain.sorted_outputs(), recorded.sorted_outputs());
    let (plain, recorded) = (plain.report, recorded.report);
    assert_eq!((plain.pairs, plain.loads), (recorded.pairs, recorded.loads));
    assert!(recorded.busy.compare > 0.0 && plain.busy.compare == 0.0);

    // A disabled log is the same run as `run`: nothing is recorded.
    let off = PerfLog::disabled();
    let report = backend.run_with_perf(&scenario, &off).expect("run");
    assert!(off.is_empty());
    assert_eq!((report.pairs, report.loads), (plain.pairs, plain.loads));
    assert!(report.busy.rows().iter().all(|&(_, secs)| secs == 0.0));
}

#[test]
fn tiny_caches_still_complete() {
    // Stress the back-pressure/livelock protections: minimum legal caches.
    let cfg = ForensicsConfig {
        images: 10,
        cameras: 2,
        width: 32,
        height: 32,
        ..Default::default()
    };
    let ds = ForensicsDataset::generate(cfg.clone());
    let scenario = cluster(10, 1, 2, 2).job_limit(8).build();
    let report = run(ForensicsApp::new(&cfg), ds.store, &scenario);
    assert!(report.failed.is_empty());
    assert_eq!(report.outputs.len(), 45);
    // With 2 slots, items are reloaded constantly.
    let r = report.report.r_factor();
    assert!(r > 2.0, "R = {r}");
}
