//! The five workloads. Each pins the program's own threads by
//! configuration to what two hardware threads carry, takes every input
//! from `--seed`, and checks every repetition's outputs.

use rocket::cache::{CacheStats, DirectoryStats};
use rocket::core::{Backend, RocketError, RunReport, Scenario};
use rocket::trace::PerfLog;

use crate::spans::{SpanId, Spans};
use crate::Metrics;

pub mod cluster;
pub mod des;
pub mod rt;

/// Full size for measured runs; a seconds-long size for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Test,
}

/// Where a call's spans go.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    pub spans: &'a Spans,
    pub parent: Option<SpanId>,
}

impl<'a> Ctx<'a> {
    /// A context whose spans have no parent.
    pub fn root(spans: &'a Spans) -> Ctx<'a> {
        Ctx {
            spans,
            parent: None,
        }
    }

    pub fn scope<R>(&self, name: &str, f: impl FnOnce(Ctx<'a>) -> R) -> R {
        self.spans.scope(name, self.parent, |id| {
            f(Ctx {
                spans: self.spans,
                parent: id,
            })
        })
    }
}

/// One repetition: its timed region, the reports it produced (one per
/// run; one per cell for the study) and what its checks found.
pub struct RepOut {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub reports: Vec<RunReport>,
    /// Operations (pairs) whose checks failed.
    pub failed_ops: u64,
    /// The first mismatching pair, cell or report field.
    pub first_failure: Option<String>,
}

impl RepOut {
    /// A repetition whose timed region took `wall_s` and `cpu_s`, nothing
    /// checked yet.
    pub fn timed(wall_s: f64, cpu_s: f64) -> RepOut {
        RepOut {
            wall_s,
            cpu_s,
            reports: Vec::new(),
            failed_ops: 0,
            first_failure: None,
        }
    }

    /// Records `count` failed operations, keeping the first message.
    pub fn fail(&mut self, count: u64, what: impl FnOnce() -> String) {
        self.failed_ops += count;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }
}

pub trait Workload {
    /// Pairs (operations) one repetition attempts.
    fn pairs_per_rep(&self) -> u64;

    /// Builds the reference results the checks compare against. Not part
    /// of set-up time.
    fn prepare_oracle(&mut self, ctx: Ctx);

    /// The `round`-th checked repetition (workloads that hold several
    /// scenarios cycle through them by it); with an enabled `perf` it runs
    /// under the program's perf log.
    fn rep(&self, round: usize, perf: &PerfLog, ctx: Ctx) -> RepOut;

    /// The per-layer metrics only this workload can measure; `wall_s` is
    /// the untraced median of its repetitions.
    fn layer_metrics(&self, wall_s: f64, ctx: Ctx, out: &mut Metrics);
}

/// Sets a workload up from the seed; this call is what `setup_s` times.
pub fn setup(name: &str, seed: u64, scale: Scale, ctx: Ctx) -> Box<dyn Workload> {
    match name {
        "des-seq" => Box::new(des::Des::setup(des::Kind::Sequential, seed, scale, ctx)),
        "des-shard" => Box::new(des::Des::setup(des::Kind::Sharded, seed, scale, ctx)),
        "rt-reuse" => Box::new(rt::Rt::setup(rt::Kind::Reuse, seed, scale, ctx)),
        "rt-dist" => Box::new(rt::Rt::setup(rt::Kind::Distributed, seed, scale, ctx)),
        "cluster-study" => Box::new(cluster::ClusterStudy::setup(seed, scale, ctx)),
        other => panic!("unknown workload `{other}`"),
    }
}

/// The checks every report must pass; a failure fails all its pairs.
pub fn check_report(report: &RunReport, out: &mut RepOut) {
    let n = report.items;
    let expected = n * n.saturating_sub(1) / 2;
    let per_node: u64 = report.pairs_per_node.iter().sum();
    let problem = if report.pairs != expected {
        Some(format!("pairs {} != n(n-1)/2 = {expected}", report.pairs))
    } else if report.failed_pairs != 0 {
        Some(format!("{} failed pairs", report.failed_pairs))
    } else if per_node != report.pairs {
        Some(format!(
            "pairs_per_node sums to {per_node}, pairs is {}",
            report.pairs
        ))
    } else if report.loads < n {
        Some(format!("{} loads for {n} items", report.loads))
    } else {
        None
    };
    if let Some(problem) = problem {
        out.fail(expected, || format!("[{}] {problem}", report.backend));
    }
}

/// `Debug` text of a report with the fields that legitimately differ
/// between equivalent runs (backend name, shard count) blanked.
pub fn canonical_debug(report: &RunReport) -> String {
    let mut r = report.clone();
    r.backend = "";
    r.sim_shards = 0;
    format!("{r:?}")
}

/// Where two texts first differ, for failure messages.
pub fn first_difference(a: &str, b: &str) -> String {
    let at = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    let lo = a[..at].rfind(' ').map_or(0, |p| p + 1);
    let excerpt = |s: &str| s[lo.min(s.len())..].chars().take(60).collect::<String>();
    format!("`{}` vs `{}`", excerpt(a), excerpt(b))
}

/// Counters of a repetition summed over its reports.
#[derive(Default)]
pub struct Totals {
    pub items: u64,
    pub pairs: u64,
    pub loads: u64,
    pub remote_fetches: u64,
    pub io_bytes: u64,
    pub net_bytes: u64,
    pub net_msgs: u64,
    pub steals: u64,
    pub windows: u64,
    pub elapsed_s: f64,
    pub busy_compare_s: f64,
    /// Σ elapsed × GPUs, the denominator of compare utilisation (every
    /// workload has one GPU per node).
    pub gpu_seconds: f64,
    pub device_cache: CacheStats,
    pub host_cache: CacheStats,
    pub directory: DirectoryStats,
    /// Mean over reports of max ÷ mean of `pairs_per_node`.
    pub imbalance: f64,
}

impl Totals {
    pub fn of(reports: &[RunReport]) -> Totals {
        let mut t = Totals::default();
        for r in reports {
            t.items += r.items;
            t.pairs += r.pairs;
            t.loads += r.loads;
            t.remote_fetches += r.remote_fetches;
            t.io_bytes += r.io_bytes;
            t.net_bytes += r.net_bytes;
            t.net_msgs += r.net_msgs;
            t.steals += r.steals;
            t.windows += r.sim_windows;
            t.elapsed_s += r.elapsed;
            t.busy_compare_s += r.busy.compare;
            t.gpu_seconds += r.elapsed * r.pairs_per_node.len() as f64;
            t.device_cache.merge(&r.device_cache);
            t.host_cache.merge(&r.host_cache);
            t.directory.merge(&r.directory);
            let max = r.pairs_per_node.iter().copied().max().unwrap_or(0) as f64;
            let mean = r.pairs as f64 / r.pairs_per_node.len().max(1) as f64;
            t.imbalance += if mean > 0.0 { max / mean } else { 0.0 };
        }
        t.imbalance /= reports.len().max(1) as f64;
        t
    }

    /// The paper's R.
    pub fn loads_per_item(&self) -> f64 {
        ratio(self.loads as f64, self.items as f64)
    }
}

/// `a ÷ b`, 0 when `b` is 0 (a layer the workload leaves idle).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Records a span around every `run` a study makes on `inner`, from
/// whichever thread makes it.
pub struct SpanTap<'a> {
    pub inner: &'a dyn Backend,
    pub ctx: Ctx<'a>,
}

impl Backend for SpanTap<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, scenario: &Scenario) -> Result<RunReport, RocketError> {
        self.ctx.scope("Backend::run", |_| self.inner.run(scenario))
    }

    fn run_with_perf(&self, scenario: &Scenario, perf: &PerfLog) -> Result<RunReport, RocketError> {
        self.ctx
            .scope("Backend::run", |_| self.inner.run_with_perf(scenario, perf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocket::core::NodeSpec;
    use rocket::sim::SimBackend;

    #[test]
    fn check_report_passes_a_good_report_and_fails_a_doctored_one() {
        let scenario = Scenario::builder()
            .items(12)
            .node(NodeSpec::uniform(1, 4, 8))
            .build();
        let good = SimBackend::new().run(&scenario).expect("sim run");
        let mut out = RepOut::timed(0.0, 0.0);
        check_report(&good, &mut out);
        assert_eq!((out.failed_ops, out.first_failure.clone()), (0, None));

        let mut bad = good.clone();
        bad.pairs_per_node[0] -= 1;
        check_report(&bad, &mut out);
        let mut short = good.clone();
        short.loads = 3;
        check_report(&short, &mut out);
        assert_eq!(out.failed_ops, 2 * 66);
        assert!(out
            .first_failure
            .expect("message")
            .contains("pairs_per_node"));
    }

    #[test]
    fn canonical_debug_ignores_backend_and_shards_only() {
        let scenario = Scenario::builder()
            .items(16)
            .nodes(2, NodeSpec::uniform(1, 4, 8))
            .build();
        let seq = SimBackend::new().run(&scenario).expect("sim run");
        let sharded = SimBackend::sharded(2).run(&scenario).expect("sharded run");
        assert_ne!(format!("{seq:?}"), format!("{sharded:?}"));
        assert_eq!(canonical_debug(&seq), canonical_debug(&sharded));
        let other = SimBackend::new()
            .run(&scenario.with_seed(scenario.seed + 1))
            .expect("sim run");
        let (a, b) = (canonical_debug(&seq), canonical_debug(&other));
        if a != b {
            assert!(first_difference(&a, &b).contains(" vs "));
        }
    }

    #[test]
    fn totals_sum_reports() {
        let scenario = Scenario::builder()
            .items(16)
            .nodes(2, NodeSpec::uniform(1, 4, 8))
            .build();
        let r = SimBackend::new().run(&scenario).expect("sim run");
        let t = Totals::of(&[r.clone(), r.clone()]);
        assert_eq!(t.pairs, 2 * r.pairs);
        assert_eq!(t.loads_per_item(), r.r_factor());
        assert!(t.imbalance >= 1.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
