//! The discrete-event simulator as a [`Backend`].
//!
//! [`SimBackend`] is the only way to run the simulator: the engine reads
//! the [`Scenario`] as is and reports the unified [`RunReport`] — the same
//! shape the threaded runtime reports, so experiment drivers and the
//! replication runner treat both engines interchangeably.

use rocket_core::{Backend, PerfLog, RocketError, RunReport, Scenario};

use crate::shard;

/// The DES execution engine (stateless; share one instance freely).
///
/// The shard count is a property of the engine, not of the scenario:
/// [`SimBackend::new`] runs the sequential engine and
/// [`SimBackend::sharded`] runs every scenario on `k` shards, on as many
/// threads as the machine has cores (capped at `k`, the calling thread
/// included). Reports are byte-identical for every `k` except
/// `RunReport::sim_shards` — sharding changes wall-clock time only.
#[derive(Debug, Clone, Copy)]
pub struct SimBackend {
    shards: usize,
}

impl Default for SimBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl SimBackend {
    /// The sequential engine (one shard).
    pub fn new() -> Self {
        Self::sharded(1)
    }

    /// The windowed engine on `shards` shards (clamped to the node count;
    /// `0` and `1` run sequentially).
    pub fn sharded(shards: usize) -> Self {
        Self { shards }
    }
}

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(&self, scenario: &Scenario) -> Result<RunReport, RocketError> {
        self.run_with_perf(scenario, &PerfLog::disabled())
    }

    /// Same run, with the engine's perf instrumentation streaming into
    /// `perf`. The simulator buffers records out-of-band and folds them
    /// in after the report is final, so the report is byte-identical
    /// with recording on or off (`crates/sim/tests/perflog.rs` pins it).
    fn run_with_perf(&self, scenario: &Scenario, perf: &PerfLog) -> Result<RunReport, RocketError> {
        scenario.validate().map_err(RocketError::Config)?;
        // 0 threads: the machine's parallelism, capped at the shard count.
        Ok(shard::run(scenario, self.shards, 0, perf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocket_core::NodeSpec;
    use rocket_stats::Dist;

    fn toy_scenario() -> Scenario {
        let mut workload = rocket_core::WorkloadProfile::items_only(16);
        workload.file_bytes = 1_000_000;
        workload.item_bytes = 10_000_000;
        workload.parse = Dist::Constant(10e-3);
        workload.preprocess = Some(Dist::Constant(5e-3));
        workload.compare = Dist::Constant(1e-3);
        Scenario::builder()
            .workload(workload)
            .nodes(2, NodeSpec::uniform(1, 8, 16))
            .build()
    }

    #[test]
    fn backend_runs_and_reports() {
        let s = toy_scenario();
        let r = SimBackend::new().run(&s).expect("sim run");
        assert_eq!(r.backend, "sim");
        assert_eq!(r.pairs, 16 * 15 / 2);
        assert!(r.elapsed > 0.0);
        assert!(r.r_factor() >= 1.0);
        assert_eq!(r.pairs_per_node.len(), 2);
    }

    #[test]
    fn invalid_scenario_rejected() {
        let mut s = toy_scenario();
        s.nodes.clear();
        assert!(SimBackend::new().run(&s).is_err());
    }

    #[test]
    fn sharded_backend_matches_sequential() {
        let s = toy_scenario();
        let seq = SimBackend::new().run(&s).unwrap();
        assert_eq!(seq.sim_shards, 1);
        assert!(seq.sim_windows > 0);
        let mut par = SimBackend::sharded(2).run(&s).unwrap();
        assert_eq!(par.sim_shards, 2);
        // Everything but the shard count itself is byte-identical.
        par.sim_shards = seq.sim_shards;
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }
}
