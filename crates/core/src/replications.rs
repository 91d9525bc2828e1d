//! Parallel replications: N seeds of one [`Scenario`] with
//! confidence-interval aggregation.
//!
//! Simulation studies (and noisy wall-clock measurements) need replicated
//! runs: the same scenario executed under independent seeds, reported as
//! `mean ± 95% CI`. [`Replications`] fans the seeds out over the
//! work-stealing crate's thread pool and folds the per-run
//! [`RunReport`]s into [`OnlineStats`]-backed summaries.
//!
//! Determinism: every replication is an independent pure function of
//! `(scenario, seed)`, results are stored by seed index, and aggregation
//! runs sequentially in seed order after all replications complete — so
//! the aggregate report is byte-identical regardless of the thread-pool
//! size (the test suite asserts this).

use rocket_sanitize::Mutex;

use rocket_stats::{splitmix64, OnlineStats};
use rocket_steal::StealPool;
use rocket_trace::json;

use crate::backend::Backend;
use crate::error::RocketError;
use crate::report::RunReport;
use crate::scenario::Scenario;

/// Runs N seeds of a scenario in parallel and aggregates the reports.
#[derive(Debug, Clone)]
pub struct Replications {
    seeds: Vec<u64>,
    threads: usize,
}

impl Replications {
    /// `n` replications with seeds derived deterministically from
    /// `base_seed` (a splitmix64 stream, so seeds are well-separated).
    pub fn new(base_seed: u64, n: usize) -> Self {
        let mut state = base_seed;
        let seeds = (0..n).map(|_| splitmix64(&mut state)).collect();
        Self { seeds, threads: 0 }
    }

    /// Replications with an explicit seed set.
    pub fn from_seeds(seeds: Vec<u64>) -> Self {
        Self { seeds, threads: 0 }
    }

    /// Adaptive replication counts: runs batches of seeds (drawn from the
    /// same deterministic splitmix64 stream [`Replications::new`] uses)
    /// until the relative 95% confidence-interval half-width of the
    /// elapsed time drops below `rel_half_width`, or `max_n` replications
    /// have run. See [`AdaptiveReplications`] for the stopping rule.
    pub fn until_ci(base_seed: u64, rel_half_width: f64, max_n: usize) -> AdaptiveReplications {
        AdaptiveReplications {
            base_seed,
            rel_half_width,
            max_n,
            threads: 0,
        }
    }

    /// Caps the worker-thread count (`0`, the default, uses the machine's
    /// available parallelism). The aggregate result does not depend on
    /// this — only the wall-clock time does.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The seeds that will run.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Executes every seed of `scenario` on `backend` and folds the
    /// results. Fails if any replication fails (first error in seed order
    /// wins) or if no seeds were configured.
    pub fn run(
        &self,
        backend: &dyn Backend,
        scenario: &Scenario,
    ) -> Result<ReplicationReport, RocketError> {
        if self.seeds.is_empty() {
            return Err(RocketError::Config(
                "replications need at least one seed".into(),
            ));
        }
        scenario.validate().map_err(RocketError::Config)?;
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.threads
        };
        let slots: Vec<Mutex<Option<Result<RunReport, RocketError>>>> = self
            .seeds
            .iter()
            .map(|_| Mutex::named("slots", None))
            .collect();
        StealPool::run_tasks(self.seeds.len(), threads, |i| {
            let result = backend.run(&scenario.with_seed(self.seeds[i]));
            *slots[i].lock() = Some(result);
        });
        // Sequential fold in seed order: the aggregate is independent of
        // which thread ran which replication.
        let mut runs = Vec::with_capacity(self.seeds.len());
        for slot in slots {
            runs.push(slot.into_inner().expect("replication ran")?);
        }
        Ok(ReplicationReport::fold(
            backend.name(),
            self.seeds.clone(),
            runs,
        ))
    }
}

/// Runs replications until the elapsed-time confidence interval is tight
/// (build with [`Replications::until_ci`]).
///
/// Stopping rule: after each batch of [`AdaptiveReplications::BATCH`]
/// replications, stop when
/// `ci95_half_width(elapsed) ≤ rel_half_width · |mean(elapsed)|`.
/// At least one full batch always runs (a CI needs two observations);
/// `max_n` caps the total. Seeds come from the deterministic stream
/// seeded by `base_seed`, so on a deterministic backend the entire
/// procedure — which seeds run and the aggregate report — is a pure
/// function of `(scenario, base_seed)`.
#[derive(Debug, Clone)]
pub struct AdaptiveReplications {
    base_seed: u64,
    rel_half_width: f64,
    max_n: usize,
    threads: usize,
}

impl AdaptiveReplications {
    /// Replications added per round.
    pub const BATCH: usize = 4;

    /// Caps the worker-thread count (`0`, the default, uses the machine's
    /// available parallelism). Does not affect the result.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Executes batches of `scenario` on `backend` until the stopping rule
    /// holds, folding every run into one [`ReplicationReport`].
    pub fn run(
        &self,
        backend: &dyn Backend,
        scenario: &Scenario,
    ) -> Result<ReplicationReport, RocketError> {
        if !self.rel_half_width.is_finite() || self.rel_half_width <= 0.0 {
            return Err(RocketError::Config(
                "relative CI half-width target must be positive and finite".into(),
            ));
        }
        if self.max_n < 2 {
            return Err(RocketError::Config(
                "adaptive replications need max_n >= 2 (a CI needs two runs)".into(),
            ));
        }
        let mut state = self.base_seed;
        let mut seeds: Vec<u64> = Vec::new();
        let mut runs: Vec<RunReport> = Vec::new();
        loop {
            let take = Self::BATCH.min(self.max_n - seeds.len());
            let fresh: Vec<u64> = (0..take).map(|_| splitmix64(&mut state)).collect();
            let round = Replications::from_seeds(fresh.clone())
                .threads(self.threads)
                .run(backend, scenario)?;
            seeds.extend(fresh);
            runs.extend(round.runs);
            // The fold is cheap relative to a run: recompute over all runs
            // so the stopping rule sees the full-sample CI.
            let report = ReplicationReport::fold(backend.name(), seeds.clone(), runs.clone());
            let (mean, hw) = report.elapsed.mean_ci95();
            if hw <= self.rel_half_width * mean.abs() || seeds.len() >= self.max_n {
                return Ok(report);
            }
        }
    }
}

/// Aggregate of N replicated runs: per-run reports plus
/// confidence-interval summaries of the headline metrics.
#[derive(Debug, Clone)]
pub struct ReplicationReport {
    /// Backend that executed the replications.
    pub backend: &'static str,
    /// Seed of each run (index-aligned with `runs`).
    pub seeds: Vec<u64>,
    /// The per-run reports, in seed order.
    pub runs: Vec<RunReport>,
    /// Run time (seconds) across replications.
    pub elapsed: OnlineStats,
    /// Reuse factor R across replications.
    pub r_factor: OnlineStats,
    /// Throughput (pairs/second) across replications.
    pub throughput: OnlineStats,
    /// Load-pipeline executions across replications.
    pub loads: OnlineStats,
}

impl ReplicationReport {
    /// Builds a report from runs that already happened (what
    /// [`crate::Study`] uses to wrap single-run cells). `seeds` must be
    /// index-aligned with `runs`.
    pub fn from_runs(backend: &'static str, seeds: Vec<u64>, runs: Vec<RunReport>) -> Self {
        Self::fold(backend, seeds, runs)
    }

    fn fold(backend: &'static str, seeds: Vec<u64>, runs: Vec<RunReport>) -> Self {
        let mut elapsed = OnlineStats::new();
        let mut r_factor = OnlineStats::new();
        let mut throughput = OnlineStats::new();
        let mut loads = OnlineStats::new();
        for run in &runs {
            elapsed.push(run.elapsed);
            r_factor.push(run.r_factor());
            throughput.push(run.throughput());
            loads.push(run.loads as f64);
        }
        Self {
            backend,
            seeds,
            runs,
            elapsed,
            r_factor,
            throughput,
            loads,
        }
    }

    /// Number of replications.
    pub fn replications(&self) -> usize {
        self.runs.len()
    }

    /// Serializes the aggregate as one JSON object: backend, seeds,
    /// `mean ± ci95` summaries of the headline metrics, and the per-run
    /// [`RunReport`]s (in seed order). Hand-rolled for the same reason as
    /// [`RunReport::to_json`]: no registry, no serde.
    pub fn to_json(&self) -> String {
        let metric = |s: &OnlineStats| {
            format!(
                "{{\"n\":{},\"mean\":{},\"ci95\":{},\"min\":{},\"max\":{}}}",
                s.count(),
                json::num(s.mean()),
                json::num(s.ci95_half_width()),
                json::num(if s.count() == 0 { 0.0 } else { s.min() }),
                json::num(if s.count() == 0 { 0.0 } else { s.max() }),
            )
        };
        let mut out = String::with_capacity(1024);
        out.push_str("{\"backend\":");
        json::push_str(&mut out, self.backend);
        out.push_str(&format!(",\"replications\":{}", self.replications()));
        out.push_str(",\"seeds\":[");
        for (i, s) in self.seeds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_string());
        }
        out.push(']');
        out.push_str(&format!(",\"elapsed_s\":{}", metric(&self.elapsed)));
        out.push_str(&format!(",\"r_factor\":{}", metric(&self.r_factor)));
        out.push_str(&format!(
            ",\"throughput_pairs_s\":{}",
            metric(&self.throughput)
        ));
        out.push_str(&format!(",\"loads\":{}", metric(&self.loads)));
        out.push_str(",\"runs\":[");
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&run.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Multi-line human-readable `mean ± 95% CI` summary.
    pub fn summary(&self) -> String {
        format!(
            "{} replications on {} | runtime {} s | R {} | throughput {} pairs/s",
            self.replications(),
            self.backend,
            self.elapsed.avg_pm_ci95(),
            self.r_factor.avg_pm_ci95(),
            self.throughput.avg_pm_ci95(),
        )
    }
}
