//! `des-seq` and `des-shard`: the discrete-event simulator used both
//! ways — every layer of it on one thread, and the lock-step windows of
//! the sharded engine.

use std::sync::OnceLock;

use rocket::core::{Backend, NodeSpec, Scenario};
use rocket::sim::SimBackend;
use rocket::stats::splitmix64;
use rocket::trace::PerfLog;
use rocket_bench::anchors;

use super::{canonical_debug, check_report, first_difference, ratio, Ctx, RepOut, Scale, Workload};
use crate::stats::median;
use crate::sysinfo::timed;
use crate::Metrics;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sequential,
    Sharded,
}

/// Shards (and so shard threads) of `des-shard`: what two hardware threads
/// carry.
const SHARDS: usize = 2;

impl Kind {
    /// Scenario seeds drawn from `--seed`. Victim selection makes loads,
    /// windows and so wall-clock time move by several percent with the
    /// scenario seed; repetitions cycle through this many so that a run's
    /// medians describe the workload and not one draw. Sized to recur
    /// within the repetitions a ten-second window holds.
    fn scenario_seeds(self, scale: Scale) -> usize {
        match (self, scale) {
            (_, Scale::Test) => 2,
            (Kind::Sequential, Scale::Full) => 4,
            (Kind::Sharded, Scale::Full) => 8,
        }
    }
}

pub struct Des {
    kind: Kind,
    /// One scenario per scenario seed; repetition `r` runs `r mod len`.
    scenarios: Vec<Scenario>,
    backend: SimBackend,
    /// What every report of a scenario must equal: for `des-shard` the
    /// sequential run of the same scenario, for `des-seq` its first
    /// repetition (counts must repeat exactly for one seed).
    references: Vec<OnceLock<String>>,
    seq_wall_s: f64,
}

impl Des {
    pub fn setup(kind: Kind, seed: u64, scale: Scale, ctx: Ctx) -> Des {
        ctx.scope("setup.scenarios", |_| {
            let base = match (kind, scale) {
                (Kind::Sequential, Scale::Full) => anchors::thousand_nodes(),
                (Kind::Sequential, Scale::Test) => cloud(40, 8, 200e-6),
                // 64 nodes, 32 640 pairs; 1 ms links keep it to about 2 700
                // windows, so a repetition takes a second, not four.
                (Kind::Sharded, Scale::Full) => cloud(256, 64, 1e-3),
                (Kind::Sharded, Scale::Test) => cloud(32, 4, 2e-3),
            };
            base.validate().expect("workload scenario is valid");
            let mut stream = seed;
            let scenarios: Vec<Scenario> = (0..kind.scenario_seeds(scale))
                .map(|_| base.with_seed(splitmix64(&mut stream)))
                .collect();
            let backend = match kind {
                Kind::Sequential => SimBackend::new(),
                Kind::Sharded => SimBackend::sharded(SHARDS),
            };
            Des {
                kind,
                references: scenarios.iter().map(|_| OnceLock::new()).collect(),
                scenarios,
                backend,
                seq_wall_s: 0.0,
            }
        })
    }
}

/// `nodes` single-GPU nodes (8 device / 16 host slots) over the anchors'
/// constant-time workload, with cloud-scale link latency as in
/// `thousand_nodes` (the lock-step window is one link latency long).
fn cloud(items: u64, nodes: usize, net_latency: f64) -> Scenario {
    let mut s = anchors::scenario(items, nodes, NodeSpec::uniform(1, 8, 16));
    s.net_latency = net_latency;
    s
}

impl Workload for Des {
    fn pairs_per_rep(&self) -> u64 {
        self.scenarios[0].workload.pairs()
    }

    fn prepare_oracle(&mut self, ctx: Ctx) {
        if self.kind == Kind::Sequential {
            return;
        }
        ctx.scope("oracle.sequential", |_| {
            let sequential = SimBackend::new();
            let mut walls = Vec::with_capacity(self.scenarios.len());
            for (scenario, reference) in self.scenarios.iter().zip(&self.references) {
                let (report, wall, _) = timed(|| sequential.run(scenario));
                let report = report.expect("sequential control run");
                walls.push(wall);
                reference.get_or_init(|| canonical_debug(&report));
            }
            self.seq_wall_s = median(&walls);
        });
    }

    fn rep(&self, round: usize, perf: &PerfLog, ctx: Ctx) -> RepOut {
        let which = round % self.scenarios.len();
        let (report, wall_s, cpu_s) = ctx.scope("Backend::run", |_| {
            timed(|| self.backend.run_with_perf(&self.scenarios[which], perf))
        });
        let report = report.expect("simulator run");
        let mut out = RepOut::timed(wall_s, cpu_s);
        check_report(&report, &mut out);
        let got = canonical_debug(&report);
        let want = self.references[which].get_or_init(|| got.clone());
        if *want != got {
            out.fail(report.pairs, || {
                format!(
                    "report differs from the reference: {}",
                    first_difference(want, &got)
                )
            });
        }
        out.reports.push(report);
        out
    }

    fn layer_metrics(&self, wall_s: f64, _ctx: Ctx, out: &mut Metrics) {
        match self.kind {
            Kind::Sequential => {
                out.insert("sim.seq_wall_s", wall_s);
            }
            Kind::Sharded => {
                out.insert("sim.seq_wall_s", self.seq_wall_s);
                out.insert("sim.shard_ratio", ratio(self.seq_wall_s, wall_s));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Spans;
    use crate::workloads::Totals;

    fn counts(kind: Kind, seed: u64) -> (Vec<u64>, String) {
        let spans = Spans::disabled();
        let ctx = Ctx::root(&spans);
        let mut w = Des::setup(kind, seed, Scale::Test, ctx);
        w.prepare_oracle(ctx);
        let mut counts = Vec::new();
        let mut text = String::new();
        // Twice through every scenario seed: the second pass is checked
        // against the first (des-seq) or the sequential run (des-shard).
        for round in 0..2 * kind.scenario_seeds(Scale::Test) {
            let rep = w.rep(round, &PerfLog::disabled(), ctx);
            assert_eq!(rep.first_failure, None);
            assert_eq!(rep.failed_ops, 0);
            let t = Totals::of(&rep.reports);
            assert_eq!(t.pairs, w.pairs_per_rep());
            counts.extend([
                t.loads,
                t.steals,
                t.windows,
                t.net_msgs,
                t.device_cache.evictions,
            ]);
            text.push_str(&format!("{:?}", rep.reports[0]));
        }
        (counts, text)
    }

    #[test]
    fn scaled_down_runs_repeat_exactly_for_a_seed_and_differ_across_seeds() {
        for kind in [Kind::Sequential, Kind::Sharded] {
            let (a, a_text) = counts(kind, 1);
            let (b, b_text) = counts(kind, 1);
            assert_eq!(a, b, "{kind:?}");
            assert_eq!(a_text, b_text, "{kind:?}");
            let (_, other) = counts(kind, 2);
            assert_ne!(a_text, other, "{kind:?}: the seed must reach the program");
        }
    }

    #[test]
    fn a_report_that_drifts_from_the_reference_fails_its_pairs() {
        let spans = Spans::disabled();
        let ctx = Ctx::root(&spans);
        let w = Des::setup(Kind::Sequential, 1, Scale::Test, ctx);
        w.references[1].set("something else".into()).expect("unset");
        assert_eq!(w.rep(0, &PerfLog::disabled(), ctx).failed_ops, 0);
        let rep = w.rep(1, &PerfLog::disabled(), ctx);
        assert_eq!(rep.failed_ops, w.pairs_per_rep());
        assert!(rep.first_failure.expect("message").contains("reference"));
    }
}
