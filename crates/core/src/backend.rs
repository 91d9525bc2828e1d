//! Execution backends: anything that can run a [`Scenario`].
//!
//! The [`Backend`] trait is the seam between scenario *description* and
//! scenario *execution*. Two implementations exist:
//!
//! * [`ThreadedBackend`] (here) — the real runtime: threads, virtual GPUs,
//!   an actual [`Application`] over an object store,
//! * `rocket_sim::SimBackend` — the discrete-event simulator, which samples
//!   the scenario's workload profile in virtual time.
//!
//! Both produce the same [`RunReport`], so drivers (experiments, the
//! [`crate::Replications`] runner, examples) are backend-agnostic, and
//! both record natively into the same perf log: the [`PerfLog`] handed to
//! [`Backend::run_with_perf`] is the one switch that turns profiling on.

use std::sync::Arc;

use rocket_storage::ObjectStore;
use rocket_trace::PerfLog;

use crate::app::Application;
use crate::cluster::{self, AppReport};
use crate::error::RocketError;
use crate::report::RunReport;
use crate::scenario::Scenario;

/// An execution engine for [`Scenario`]s.
///
/// Implementations must be `Sync`: the [`crate::Replications`] runner
/// shares one backend across its worker threads.
pub trait Backend: Sync {
    /// Short backend identifier (appears in [`RunReport::backend`]).
    fn name(&self) -> &'static str;

    /// Runs the scenario to completion and reports aggregate results.
    fn run(&self, scenario: &Scenario) -> Result<RunReport, RocketError>;

    /// Runs the scenario while streaming perf samples into `perf`.
    ///
    /// The default implementation ignores the log (backends without
    /// instrumentation — e.g. the remote cluster driver, whose work
    /// happens in other processes — record nothing). Backends that
    /// override this guarantee the *result* is unchanged by recording:
    /// perf data travels out-of-band, never through `RunReport` wire
    /// structs.
    fn run_with_perf(&self, scenario: &Scenario, perf: &PerfLog) -> Result<RunReport, RocketError> {
        let _ = perf;
        self.run(scenario)
    }
}

/// The threaded runtime as a [`Backend`]: executes a real
/// [`Application`] over an [`ObjectStore`] on the in-process cluster the
/// scenario's topology describes.
///
/// The scenario's workload profile contributes only the item count (the
/// application supplies the actual compute); [`ThreadedBackend::run_app`]
/// additionally returns the typed per-pair outputs. The scenario's
/// transport knob selects how nodes communicate — in-process channels by
/// default, loopback TCP via `TransportKind::Socket` (the report then
/// names the backend `"threaded+socket"`; `net_bytes` counts transport
/// payload traffic on either transport — self-addressed protocol
/// messages included, framing overhead excluded).
pub struct ThreadedBackend<A: Application> {
    app: Arc<A>,
    store: Arc<dyn ObjectStore>,
}

impl<A: Application> ThreadedBackend<A> {
    /// Wraps an application and its object store as a backend.
    pub fn new(app: Arc<A>, store: Arc<dyn ObjectStore>) -> Self {
        Self { app, store }
    }

    /// The wrapped application.
    pub fn app(&self) -> &Arc<A> {
        &self.app
    }

    /// The wrapped object store.
    pub fn store(&self) -> &Arc<dyn ObjectStore> {
        &self.store
    }

    /// Runs the scenario and returns the typed report (per-pair outputs
    /// included). [`Backend::run`] is this plus [`AppReport::unified`].
    ///
    /// The scenario's item count must match the application's — the
    /// runtime sizes every structure from the app, so a mismatch means
    /// the topology/caches were designed for a different data set.
    pub fn run_app(&self, scenario: &Scenario) -> Result<AppReport<A::Output>, RocketError> {
        self.run_app_with_perf(scenario, &PerfLog::disabled())
    }

    /// [`ThreadedBackend::run_app`] while recording into `perf`: an enabled
    /// log makes every resource thread time its tasks and each conductor
    /// its post-processes (one stage record per task, stamped at completion
    /// on a clock all nodes share, `value` = duration); it receives the
    /// records once the run is complete.
    /// [`Backend::run_with_perf`] is this plus [`AppReport::unified`].
    /// Recording changes only the report's busy times, never the computed
    /// results.
    pub fn run_app_with_perf(
        &self,
        scenario: &Scenario,
        perf: &PerfLog,
    ) -> Result<AppReport<A::Output>, RocketError> {
        scenario.validate().map_err(RocketError::Config)?;
        if scenario.workload.items != self.app.item_count() {
            return Err(RocketError::Config(format!(
                "scenario describes {} items but application `{}` has {}",
                scenario.workload.items,
                self.app.name(),
                self.app.item_count()
            )));
        }
        let report = cluster::run(&self.app, &self.store, scenario, perf.is_enabled())?;
        for node in &report.nodes {
            perf.extend(node.perf.iter().copied());
        }
        Ok(report)
    }
}

impl<A: Application> Backend for ThreadedBackend<A> {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn run(&self, scenario: &Scenario) -> Result<RunReport, RocketError> {
        Ok(self.run_app(scenario)?.unified(scenario))
    }

    fn run_with_perf(&self, scenario: &Scenario, perf: &PerfLog) -> Result<RunReport, RocketError> {
        Ok(self.run_app_with_perf(scenario, perf)?.unified(scenario))
    }
}
