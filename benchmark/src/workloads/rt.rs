//! `rt-reuse` and `rt-dist`: real forensics kernels through the threaded
//! runtime, on the cache-hit path (one node, everything fits) and on the
//! miss path (two nodes over loopback TCP, small caches).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use rocket::apps::{ForensicsApp, ForensicsConfig, ForensicsDataset};
use rocket::comm::TransportKind;
use rocket::core::{Application, Backend, NodeSpec, Pair, Scenario, ThreadedBackend};
use rocket::storage::{MemStore, ObjectStore, StorageError};
use rocket::trace::PerfLog;

use super::{check_report, ratio, Ctx, RepOut, Scale, Workload};
use crate::sysinfo::timed;
use crate::Metrics;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Reuse,
    Distributed,
}

/// Image edge in pixels: 128 × 128 f32 residuals are 64 KB cache items.
pub const EDGE: usize = 128;
const CAMERAS: usize = 4;

/// An [`ObjectStore`] that counts reads, so `storage.reads` is measured at
/// the layer boundary instead of inferred from load counts.
pub struct CountingStore<S> {
    inner: S,
    reads: AtomicU64,
}

impl<S: ObjectStore> ObjectStore for CountingStore<S> {
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn size(&self, key: &str) -> Result<u64, StorageError> {
        self.inner.size(key)
    }

    fn read(&self, key: &str) -> Result<Bytes, StorageError> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read(key)
    }
}

/// Scores of every pair in row-major triangle order, from calling the
/// application's four stages directly on one thread: the oracle for the
/// runtime's outputs and the plain single-threaded baseline.
pub struct SerialReference {
    pub scores: Vec<f64>,
    pub wall_s: f64,
}

impl SerialReference {
    pub fn compute(app: &ForensicsApp, store: &dyn ObjectStore) -> SerialReference {
        let n = app.item_count();
        let (scores, wall_s, _) = timed(|| {
            let items: Vec<Vec<u8>> = (0..n)
                .map(|i| {
                    let raw = store.read(&app.file_for(i)).expect("image in store");
                    let mut parsed = vec![0u8; app.parsed_bytes()];
                    app.parse(i, &raw, &mut parsed).expect("parse");
                    let mut item = vec![0u8; app.item_bytes()];
                    app.preprocess(i, &parsed, &mut item).expect("preprocess");
                    item
                })
                .collect();
            let mut raw = vec![0u8; app.result_bytes()];
            let mut scores = Vec::with_capacity((n * n.saturating_sub(1) / 2) as usize);
            for i in 0..n {
                for j in i + 1..n {
                    let (a, b) = (&items[i as usize], &items[j as usize]);
                    app.compare((i, a), (j, b), &mut raw).expect("compare");
                    scores.push(app.postprocess(Pair::new(i, j), &raw));
                }
            }
            scores
        });
        SerialReference { scores, wall_s }
    }

    pub fn pairs_per_s(&self) -> f64 {
        ratio(self.scores.len() as f64, self.wall_s)
    }
}

/// Index of pair `(i, j)`, `i < j`, in row-major triangle order.
fn pair_index(n: u64, i: u64, j: u64) -> usize {
    (i * n - i * (i + 1) / 2 + (j - i - 1)) as usize
}

pub fn forensics_config(images: u64, seed: u64) -> ForensicsConfig {
    ForensicsConfig {
        images,
        cameras: CAMERAS,
        width: EDGE,
        height: EDGE,
        seed,
        ..Default::default()
    }
}

pub struct Rt {
    scenario: Scenario,
    backend: ThreadedBackend<ForensicsApp>,
    store: Arc<CountingStore<MemStore>>,
    camera_of: Vec<usize>,
    reference: Option<SerialReference>,
    /// `min same-camera NCC − max cross-camera NCC` of the reference.
    separation: f64,
}

impl Rt {
    pub fn setup(kind: Kind, seed: u64, scale: Scale, ctx: Ctx) -> Rt {
        let images: u64 = match scale {
            Scale::Full => 192,
            Scale::Test => 24,
        };
        let config = forensics_config(images, seed);
        let dataset = ctx.scope("setup.dataset", |_| {
            ForensicsDataset::generate(config.clone())
        });
        ctx.scope("setup.backend", |_| {
            let store = Arc::new(CountingStore {
                inner: dataset.store,
                reads: AtomicU64::new(0),
            });
            let app = Arc::new(ForensicsApp::new(&config));
            let n = images as usize;
            let builder = Scenario::builder()
                .items(images)
                .cpu_threads(1)
                .job_limit(16)
                .seed(seed);
            let scenario = match kind {
                // Every item fits the host cache; a sixth fits the device.
                Kind::Reuse => builder.node(NodeSpec::uniform(1, n / 6, n)),
                // Each host cache holds 55 % of the items and the device
                // cache thrashes, so misses become directory probes and
                // 64 KB fetches over loopback TCP.
                Kind::Distributed => builder
                    .nodes(2, NodeSpec::uniform(1, 8, n * 55 / 100))
                    .transport(TransportKind::Socket)
                    .distributed_cache(true)
                    .hops(1),
            }
            .build();
            Rt {
                scenario,
                backend: ThreadedBackend::new(app, Arc::clone(&store) as Arc<dyn ObjectStore>),
                store,
                camera_of: dataset.camera_of,
                reference: None,
                separation: 0.0,
            }
        })
    }

    fn reference(&self) -> &SerialReference {
        self.reference.as_ref().expect("prepare_oracle ran")
    }

    /// Every pair delivered exactly once, with the reference's score.
    fn check_scores(&self, outputs: &[(Pair, f64)], out: &mut RepOut) {
        let n = self.scenario.workload.items;
        let want = &self.reference().scores;
        let mut seen = vec![false; want.len()];
        for &(pair, score) in outputs {
            let at = (pair.left < pair.right && pair.right < n)
                .then(|| pair_index(n, pair.left, pair.right));
            match at {
                Some(at) if !seen[at] => {
                    seen[at] = true;
                    if score != want[at] {
                        out.fail(1, || {
                            let want = want[at];
                            format!("pair {pair:?} scored {score}, the serial reference {want}")
                        });
                    }
                }
                _ => out.fail(1, || {
                    format!("pair {pair:?} is out of range or delivered twice")
                }),
            }
        }
        let missing = seen.iter().filter(|&&s| !s).count() as u64;
        if missing > 0 {
            out.fail(missing, || format!("{missing} pairs were never delivered"));
        }
    }

    fn camera_separation(&self) -> f64 {
        let n = self.scenario.workload.items;
        let (mut min_same, mut max_cross) = (f64::INFINITY, f64::NEG_INFINITY);
        for i in 0..n {
            for j in i + 1..n {
                let score = self.reference().scores[pair_index(n, i, j)];
                if self.camera_of[i as usize] == self.camera_of[j as usize] {
                    min_same = min_same.min(score);
                } else {
                    max_cross = max_cross.max(score);
                }
            }
        }
        min_same - max_cross
    }
}

impl Workload for Rt {
    fn pairs_per_rep(&self) -> u64 {
        self.scenario.workload.pairs()
    }

    fn prepare_oracle(&mut self, ctx: Ctx) {
        ctx.scope("oracle.serial_reference", |_| {
            let reference =
                SerialReference::compute(self.backend.app(), self.backend.store().as_ref());
            self.reference = Some(reference);
            self.separation = self.camera_separation();
        });
    }

    fn rep(&self, _round: usize, perf: &PerfLog, ctx: Ctx) -> RepOut {
        self.store.reads.store(0, Ordering::Relaxed);
        let (mut out, report) = if perf.is_enabled() {
            // The perf-log entry point returns only the unified report, so
            // the traced repetition is checked at report level.
            let (report, wall_s, cpu_s) = ctx.scope("Backend::run", |_| {
                timed(|| self.backend.run_with_perf(&self.scenario, perf))
            });
            (RepOut::timed(wall_s, cpu_s), report.expect("threaded run"))
        } else {
            let (typed, wall_s, cpu_s) = ctx.scope("Backend::run", |_| {
                timed(|| self.backend.run_app(&self.scenario))
            });
            let typed = typed.expect("threaded run");
            let mut out = RepOut::timed(wall_s, cpu_s);
            self.check_scores(&typed.outputs, &mut out);
            (out, typed.unified(&self.scenario))
        };
        if self.separation <= 0.0 {
            out.fail(report.pairs, || {
                "same-camera NCC does not exceed cross-camera NCC".to_string()
            });
        }
        check_report(&report, &mut out);
        out.reports.push(report);
        out
    }

    fn layer_metrics(&self, wall_s: f64, _ctx: Ctx, out: &mut Metrics) {
        let pairs = self.pairs_per_rep() as f64;
        let serial = self.reference();
        // The counter restarts with every repetition: these are the latest one's.
        let reads = self.store.reads.load(Ordering::Relaxed);
        out.insert("storage.reads", reads as f64);
        out.insert("apps.serial_pairs_per_s", serial.pairs_per_s());
        out.insert(
            "core.rt_overhead_us_per_pair",
            (wall_s - serial.wall_s) / pairs * 1e6,
        );
        out.insert(
            "core.rt_efficiency",
            ratio(ratio(pairs, wall_s), serial.pairs_per_s()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Spans;

    #[test]
    fn pair_index_enumerates_the_triangle_in_order() {
        let n = 7;
        let mut next = 0;
        for i in 0..n {
            for j in i + 1..n {
                assert_eq!(pair_index(n, i, j), next);
                next += 1;
            }
        }
        assert_eq!(next as u64, n * (n - 1) / 2);
    }

    #[test]
    fn both_kinds_match_the_serial_reference_at_test_scale() {
        let spans = Spans::disabled();
        let ctx = Ctx::root(&spans);
        for kind in [Kind::Reuse, Kind::Distributed] {
            let mut w = Rt::setup(kind, 3, Scale::Test, ctx);
            w.prepare_oracle(ctx);
            assert!(w.separation > 0.0);
            let rep = w.rep(0, &PerfLog::disabled(), ctx);
            assert_eq!(rep.first_failure, None, "{kind:?}");
            assert_eq!(rep.failed_ops, 0);
            assert_eq!(rep.reports[0].pairs, w.pairs_per_rep());
            assert!(
                w.store.reads.load(Ordering::Relaxed) >= 24,
                "every load reads the store"
            );
        }
    }

    #[test]
    fn a_wrong_score_fails_exactly_that_pair() {
        let spans = Spans::disabled();
        let ctx = Ctx::root(&spans);
        let mut w = Rt::setup(Kind::Reuse, 3, Scale::Test, ctx);
        w.prepare_oracle(ctx);
        let reference = w.reference.as_mut().expect("oracle");
        reference.scores[5] += 1.0;
        let rep = w.rep(0, &PerfLog::disabled(), ctx);
        // The doctored reference also breaks camera separation or not; the
        // per-pair check must fire either way.
        assert!(rep.failed_ops >= 1);
        assert!(rep.first_failure.expect("message").contains("scored"));
    }
}
