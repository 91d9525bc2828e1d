//! `cluster-study`: a sweep of cells so small that dealing them through
//! `ClusterBackend` — dispatch, codec, framing, sockets, poll ticks — is
//! the whole cost.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rocket::cluster::{serve, ClusterBackend, ClusterEvent, ClusterOptions, ServeReport};
use rocket::comm::TransportKind;
use rocket::core::{Backend, NodeSpec, Scenario};
use rocket::sim::SimBackend;
use rocket::trace::PerfLog;
use rocket::{Axis, AxisValue, Study, StudyReport, Sweep};
use rocket_bench::anchors;

use super::{
    canonical_debug, check_report, first_difference, Ctx, RepOut, Scale, SpanTap, Workload,
};
use crate::stats::{median, percentile};
use crate::sysinfo::timed;
use crate::Metrics;

/// Worker ranks behind the driver, and the study's cell threads: what two
/// hardware threads carry.
const WORKERS: usize = 2;
/// Local control studies behind `cluster.overhead_ms_per_cell`.
const LOCAL_RUNS: usize = 5;

/// The toy cell: 4 single-GPU nodes, n = 32 (496 pairs), about a quarter
/// of a millisecond on `SimBackend`.
pub fn toy_cell() -> Scenario {
    anchors::scenario(32, 4, NodeSpec::uniform(1, 8, 16))
}

/// The sweep: one axis of `cells` consecutive seeds starting at `seed`.
pub fn seed_sweep(seed: u64, cells: u64) -> Sweep {
    Sweep::over(toy_cell())
        .axis(Axis::points(
            "seed",
            (seed..seed + cells)
                .map(|s| (AxisValue::from(s), move |sc: &mut Scenario| sc.seed = s)),
        ))
        .build()
}

/// One study repetition as a user would run it: all cells, then both
/// serialisations.
fn run_study(backend: &dyn Backend, sweep: &Sweep, ctx: Ctx) -> StudyReport {
    let report = ctx.scope("Study::run", |ctx| {
        let tap = SpanTap {
            inner: backend,
            ctx,
        };
        // Untraced runs hand the backend over bare, so the tap's span
        // bookkeeping never sits on a measured path.
        let backend: &dyn Backend = if ctx.parent.is_some() { &tap } else { backend };
        Study::new("cluster-study")
            .threads(WORKERS)
            .run(backend, sweep)
            .expect("study run")
    });
    let json = ctx.scope("StudyReport::to_json", |_| report.to_json());
    let csv = ctx.scope("StudyReport::to_csv", |_| report.to_csv());
    std::hint::black_box((json, csv));
    report
}

pub struct ClusterStudy {
    sweep: Sweep,
    /// `Some` until drop, which must shut the dispatcher down before the
    /// workers can be joined.
    backend: Option<ClusterBackend>,
    workers: Vec<JoinHandle<ServeReport>>,
    setup_ms: f64,
    /// The same sweep on local `SimBackend`, cell by cell.
    local: Vec<String>,
    local_wall_s: f64,
}

impl ClusterStudy {
    pub fn setup(seed: u64, scale: Scale, ctx: Ctx) -> ClusterStudy {
        let started = Instant::now();
        let cells = match scale {
            Scale::Full => 96,
            Scale::Test => 6,
        };
        let sweep = ctx.scope("setup.sweep", |_| seed_sweep(seed, cells));
        let mut endpoints = ctx.scope("setup.mesh_connect", |_| {
            TransportKind::Socket
                .connect(WORKERS + 1)
                .expect("loopback socket mesh")
        });
        let workers = ctx.scope("setup.worker_start", |_| {
            endpoints
                .drain(1..)
                .map(|endpoint| {
                    std::thread::spawn(move || serve(endpoint.as_ref(), &SimBackend::new()))
                })
                .collect()
        });
        let driver = endpoints.pop().expect("rank 0 endpoint");
        let backend = ctx.scope("setup.ready_handshake", |_| {
            let backend = ClusterBackend::over(driver, ClusterOptions::default())
                .expect("cluster backend over the mesh");
            let deadline = Instant::now() + Duration::from_secs(30);
            while backend.events().len() < WORKERS {
                assert!(Instant::now() < deadline, "workers never reported Ready");
                std::thread::sleep(Duration::from_millis(1));
            }
            backend
        });
        ClusterStudy {
            sweep,
            backend: Some(backend),
            workers,
            setup_ms: started.elapsed().as_secs_f64() * 1e3,
            local: Vec::new(),
            local_wall_s: 0.0,
        }
    }

    fn backend(&self) -> &ClusterBackend {
        self.backend.as_ref().expect("backend lives until drop")
    }

    /// Everything the dispatcher logged beyond the two `WorkerReady`s.
    fn fault_events(&self) -> Vec<ClusterEvent> {
        let mut events = self.backend().events();
        events.retain(|e| !matches!(e, ClusterEvent::WorkerReady { .. }));
        events
    }
}

impl Drop for ClusterStudy {
    fn drop(&mut self) {
        // Dropping the backend sends Shutdown to the workers and joins the
        // dispatcher; only then do the serve loops return.
        self.backend = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Workload for ClusterStudy {
    fn pairs_per_rep(&self) -> u64 {
        self.sweep
            .cells()
            .iter()
            .map(|c| c.scenario.workload.pairs())
            .sum()
    }

    fn prepare_oracle(&mut self, ctx: Ctx) {
        ctx.scope("oracle.local_study", |ctx| {
            let mut walls = Vec::with_capacity(LOCAL_RUNS);
            for _ in 0..LOCAL_RUNS {
                let (report, wall, _) = timed(|| run_study(&SimBackend::new(), &self.sweep, ctx));
                walls.push(wall);
                self.local = report
                    .cells
                    .iter()
                    .map(|c| canonical_debug(c.run()))
                    .collect();
            }
            self.local_wall_s = median(&walls);
        });
    }

    /// `ClusterBackend` keeps the default `run_with_perf`, which records
    /// nothing: worker-side logs never reach the driver, so the traced
    /// repetition differs only in its spans.
    fn rep(&self, _round: usize, _perf: &PerfLog, ctx: Ctx) -> RepOut {
        let (study, wall_s, cpu_s) = timed(|| run_study(self.backend(), &self.sweep, ctx));
        let mut out = RepOut::timed(wall_s, cpu_s);
        if study.cells.len() != self.local.len() {
            out.fail(self.pairs_per_rep(), || {
                format!(
                    "{} cells came back, {} were dealt",
                    study.cells.len(),
                    self.local.len()
                )
            });
        }
        for (cell, want) in study.cells.iter().zip(&self.local) {
            let report = cell.run();
            check_report(report, &mut out);
            let got = canonical_debug(report);
            if cell.degraded() {
                out.fail(report.pairs, || format!("cell {} is degraded", cell.cell));
            } else if got != *want {
                out.fail(report.pairs, || {
                    let diff = first_difference(want, &got);
                    format!("cell {} differs from the local run: {diff}", cell.cell)
                });
            }
            out.reports.push(report.clone());
        }
        if let Some(event) = self.fault_events().first() {
            out.fail(self.pairs_per_rep(), || format!("cluster fault: {event:?}"));
        }
        out
    }

    fn layer_metrics(&self, wall_s: f64, ctx: Ctx, out: &mut Metrics) {
        let cells = self.sweep.cells();
        let cell_ms: Vec<f64> = ctx.scope("kernel.cluster.back_to_back_cells", |_| {
            cells
                .iter()
                .map(|cell| {
                    let (report, wall, _) = timed(|| self.backend().run(&cell.scenario));
                    report.expect("cluster run");
                    wall * 1e3
                })
                .collect()
        });
        out.insert("cluster.cell_p50_ms", percentile(&cell_ms, 50));
        out.insert("cluster.cell_p95_ms", percentile(&cell_ms, 95));
        out.insert(
            "cluster.overhead_ms_per_cell",
            (wall_s - self.local_wall_s) / cells.len() as f64 * 1e3,
        );
        out.insert("cluster.setup_ms", self.setup_ms);
        let events = self.fault_events();
        let count = |f: fn(&ClusterEvent) -> bool| events.iter().filter(|e| f(e)).count() as f64;
        out.insert(
            "cluster.redeals",
            count(|e| matches!(e, ClusterEvent::Redealt { .. })),
        );
        out.insert(
            "cluster.lost_workers",
            count(|e| matches!(e, ClusterEvent::WorkerLost { .. })),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Spans;

    #[test]
    fn cells_match_the_local_study_and_workers_exit_cleanly() {
        let spans = Spans::enabled();
        let ctx = Ctx::root(&spans);
        let mut w = ClusterStudy::setup(7, Scale::Test, ctx);
        w.prepare_oracle(ctx);
        let root = ctx.scope("rep", |ctx| {
            let rep = w.rep(0, &PerfLog::disabled(), ctx);
            assert_eq!(rep.first_failure, None);
            assert_eq!(rep.failed_ops, 0);
            assert_eq!(rep.reports.len(), 6);
            ctx.parent
        });
        // One tapped span per cell, from the study's threads, under the
        // repetition's Study::run span.
        let recorded = spans.snapshot();
        let study = recorded
            .iter()
            .rposition(|s| s.name == "Study::run")
            .expect("study span");
        assert_eq!(recorded[study].parent, root);
        let cell_spans = recorded
            .iter()
            .filter(|s| s.name == "Backend::run" && s.parent == Some(study))
            .count();
        assert_eq!(cell_spans, 6);

        let mut metrics = Metrics::new();
        w.layer_metrics(0.5, ctx, &mut metrics);
        assert!(metrics["cluster.cell_p50_ms"] > 0.0);
        assert_eq!(metrics["cluster.redeals"], 0.0);

        let workers = std::mem::take(&mut w.workers);
        w.backend = None;
        for worker in workers {
            let served = worker.join().expect("worker thread");
            assert!(served.clean_exit);
            assert!(served.jobs >= 6 / WORKERS as u64);
        }
    }

    #[test]
    fn a_cell_that_differs_from_the_local_run_fails_its_pairs() {
        let spans = Spans::disabled();
        let ctx = Ctx::root(&spans);
        let mut w = ClusterStudy::setup(7, Scale::Test, ctx);
        w.prepare_oracle(ctx);
        w.local[2] = w.local[3].clone();
        let rep = w.rep(0, &PerfLog::disabled(), ctx);
        assert_eq!(rep.failed_ops, 496);
        assert!(rep
            .first_failure
            .expect("message")
            .starts_with("cell 2 differs"));
    }
}
