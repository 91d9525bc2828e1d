//! The discrete-event simulator as a [`Backend`].
//!
//! [`SimBackend`] turns a [`Scenario`] into the simulator's internal
//! [`SimConfig`], runs [`crate::simulate`], and folds the [`SimResult`]
//! into the unified [`RunReport`] — the same shape the threaded runtime
//! reports, so experiment drivers and the replication runner treat both
//! engines interchangeably.

use rocket_core::{Backend, BusyTimes, PerfLog, RocketError, RunReport, Scenario};

use crate::cluster::{simulate, SimConfig, SimNodeConfig, SimResult};

/// The DES execution engine (stateless; share one instance freely).
///
/// The shard count is a property of the engine, not of the scenario:
/// [`SimBackend::new`] runs the sequential engine and
/// [`SimBackend::sharded`] runs every scenario on `k` shards. Reports are
/// byte-identical for every `k` except `RunReport::sim_shards` — sharding
/// changes wall-clock time only.
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

impl From<&Scenario> for SimConfig {
    fn from(s: &Scenario) -> Self {
        SimConfig {
            workload: s.workload.clone(),
            nodes: s
                .nodes
                .iter()
                .map(|n| SimNodeConfig {
                    gpus: n.gpus.clone(),
                    device_slots: n.device_slots,
                    host_slots: n.host_slots,
                })
                .collect(),
            distributed_cache: s.distributed_cache,
            hops: s.hops,
            job_limit: s.job_limit,
            cpu_threads: s.cpu_threads,
            leaf_pairs: s.leaf_pairs,
            storage_bandwidth: s.storage_bandwidth,
            storage_latency: s.storage_latency,
            net_bandwidth: s.net_bandwidth,
            net_latency: s.net_latency,
            seed: s.seed,
            record_completions: s.record_completions,
            shards: 1,
            shard_threads: 0,
            perf: PerfLog::disabled(),
        }
    }
}

/// Folds a [`SimResult`] into the unified report shape.
fn unified(r: SimResult, sim_shards: u32) -> RunReport {
    RunReport {
        backend: "sim",
        elapsed: r.makespan,
        items: r.items,
        pairs: r.pairs,
        failed_pairs: 0, // the simulator models no storage faults
        loads: r.loads,
        remote_fetches: r.remote_fetches,
        io_bytes: r.io_bytes,
        net_bytes: r.net_bytes,
        net_msgs: r.directory.messages_sent,
        steals: r.steals,
        busy: BusyTimes {
            preprocess: r.busy_preprocess,
            compare: r.busy_compare,
            h2d: r.busy_h2d,
            d2h: r.busy_d2h,
            cpu: r.busy_cpu,
            io: r.busy_io,
        },
        device_cache: r.device_cache,
        host_cache: r.host_cache,
        directory: r.directory,
        pairs_per_node: r.pairs_per_node,
        completions: r.completions,
        sim_shards,
        sim_windows: r.windows,
        degraded: false,
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
    /// in after [`SimResult`] is final, so the report is byte-identical
    /// with recording on or off (`crates/sim/tests/perflog.rs` pins it).
    fn run_with_perf(&self, scenario: &Scenario, perf: &PerfLog) -> Result<RunReport, RocketError> {
        scenario.validate().map_err(RocketError::Config)?;
        let mut cfg = SimConfig::from(scenario);
        cfg.shards = self.shards;
        cfg.perf = perf.clone();
        let shards = cfg.effective_shards() as u32;
        Ok(unified(simulate(&cfg), shards))
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
    fn scenario_round_trips_into_sim_config() {
        let s = toy_scenario();
        let cfg = SimConfig::from(&s);
        assert_eq!(cfg.nodes.len(), 2);
        assert_eq!(cfg.workload.items, 16);
        assert_eq!(cfg.seed, s.seed);
        assert_eq!(cfg.shards, 1);
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
