//! The unified run report every [`crate::Backend`] produces.
//!
//! Both execution engines — the threaded runtime over virtual devices and
//! the discrete-event simulator — fold their outcome into the same
//! [`RunReport`], so experiment drivers, replication runners, and examples
//! aggregate one shape regardless of how a scenario was executed.

use rocket_cache::{CacheStats, DirectoryStats};
use rocket_trace::json;

fn push_u64_array(out: &mut String, values: impl Iterator<Item = u64>) {
    out.push('[');
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

fn push_cache_json(out: &mut String, s: &CacheStats) {
    out.push_str(&format!(
        "{{\"hits\":{},\"hits_pending\":{},\"misses\":{},\"capacity_stalls\":{},\
         \"evictions\":{},\"aborts\":{},\"hit_ratio\":{}}}",
        s.hits,
        s.hits_pending,
        s.misses,
        s.capacity_stalls,
        s.evictions,
        s.aborts,
        json::num(s.hit_ratio()),
    ));
}

/// Busy seconds per resource class (the paper's Fig 8 / Fig 10 rows).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BusyTimes {
    /// GPU pre-processing kernels.
    pub preprocess: f64,
    /// GPU comparison kernels.
    pub compare: f64,
    /// Host-to-device copy engines.
    pub h2d: f64,
    /// Device-to-host copy engines.
    pub d2h: f64,
    /// CPU pools (parse / post-process).
    pub cpu: f64,
    /// Central storage pipe.
    pub io: f64,
}

impl BusyTimes {
    /// `(label, seconds)` rows in the paper's reporting order.
    pub fn rows(&self) -> [(&'static str, f64); 6] {
        [
            ("GPU (preprocess)", self.preprocess),
            ("GPU (compare)", self.compare),
            ("CPU", self.cpu),
            ("CPU→GPU", self.h2d),
            ("GPU→CPU", self.d2h),
            ("IO", self.io),
        ]
    }
}

/// Outcome of running one [`crate::Scenario`] on one [`crate::Backend`].
///
/// `elapsed` is wall-clock seconds for the threaded runtime and virtual
/// (simulated) seconds for the DES backend; every other field has the same
/// meaning on both. Counters a backend cannot observe are zero (`io_bytes`
/// on the threaded runtime, and its busy times unless the run is recorded
/// through `Backend::run_with_perf`).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Name of the backend that produced the report.
    pub backend: &'static str,
    /// Run time in seconds (wall clock or virtual time).
    pub elapsed: f64,
    /// Items in the data set.
    pub items: u64,
    /// Pairs completed.
    pub pairs: u64,
    /// Pairs that failed permanently.
    pub failed_pairs: u64,
    /// Executions of the load pipeline ℓ cluster-wide.
    pub loads: u64,
    /// Items served from remote host caches (level-3 hits).
    pub remote_fetches: u64,
    /// Bytes read from central storage.
    pub io_bytes: u64,
    /// Bytes moved between nodes (item fetches).
    pub net_bytes: u64,
    /// Messages between nodes (threaded runtime: transport messages sent;
    /// simulator: distributed-directory protocol messages).
    pub net_msgs: u64,
    /// Work-steal count (blocks moved between workers/nodes).
    pub steals: u64,
    /// Busy seconds per resource class.
    pub busy: BusyTimes,
    /// Merged device-cache counters (level 1).
    pub device_cache: CacheStats,
    /// Merged host-cache counters (level 2).
    pub host_cache: CacheStats,
    /// Merged distributed-lookup counters (level 3, Fig 11).
    pub directory: DirectoryStats,
    /// Pairs completed per node.
    pub pairs_per_node: Vec<u64>,
    /// Shards the DES backend ran on (0 for backends without sharding).
    pub sim_shards: u32,
    /// Time windows the sharded DES entered (invariant under the shard
    /// count; 0 for backends without sharding).
    pub sim_windows: u64,
    /// True when fault handling touched this run — its work was re-dealt
    /// after a worker loss, or it finished below the cluster's quorum — so
    /// totals are correct but timings may not be representative. In-process
    /// backends always report `false`.
    pub degraded: bool,
}

impl RunReport {
    /// The paper's R metric: loads relative to the data-set size (§6.1).
    pub fn r_factor(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.loads as f64 / self.items as f64
        }
    }

    /// Average throughput in pairs/second (Fig 13's metric).
    pub fn throughput(&self) -> f64 {
        if self.elapsed <= 0.0 {
            0.0
        } else {
            self.pairs as f64 / self.elapsed
        }
    }

    /// Average I/O usage in MB/s (Fig 12 bottom row; 0 when the backend
    /// does not track I/O bytes).
    pub fn avg_io_mbps(&self) -> f64 {
        if self.elapsed <= 0.0 {
            0.0
        } else {
            self.io_bytes as f64 / 1e6 / self.elapsed
        }
    }

    /// Serializes the report as one JSON object (hand-rolled writer — the
    /// crate registry is unreachable, so no serde). Derived metrics
    /// (`r_factor`, `throughput`) are included so downstream tooling needs
    /// no formulas; the optional per-GPU completion series is omitted (it
    /// is plot data, not a summary).
    ///
    /// Intended for cross-PR performance tracking: one report per line of
    /// a JSON-Lines file diffs cleanly between runs (see `repro --json`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"backend\":");
        json::push_str(&mut out, self.backend);
        out.push_str(&format!(
            ",\"elapsed_s\":{},\"items\":{},\"pairs\":{},\"failed_pairs\":{},\
             \"loads\":{},\"remote_fetches\":{},\"io_bytes\":{},\"net_bytes\":{},\
             \"net_msgs\":{},\"steals\":{},\"r_factor\":{},\"throughput_pairs_s\":{}",
            json::num(self.elapsed),
            self.items,
            self.pairs,
            self.failed_pairs,
            self.loads,
            self.remote_fetches,
            self.io_bytes,
            self.net_bytes,
            self.net_msgs,
            self.steals,
            json::num(self.r_factor()),
            json::num(self.throughput()),
        ));
        out.push_str(&format!(
            ",\"busy_s\":{{\"preprocess\":{},\"compare\":{},\"h2d\":{},\"d2h\":{},\
             \"cpu\":{},\"io\":{}}}",
            json::num(self.busy.preprocess),
            json::num(self.busy.compare),
            json::num(self.busy.h2d),
            json::num(self.busy.d2h),
            json::num(self.busy.cpu),
            json::num(self.busy.io),
        ));
        out.push_str(",\"device_cache\":");
        push_cache_json(&mut out, &self.device_cache);
        out.push_str(",\"host_cache\":");
        push_cache_json(&mut out, &self.host_cache);
        out.push_str(&format!(
            ",\"directory\":{{\"hits_at_hop\":{},\"misses\":{},\"messages_sent\":{}}}",
            {
                let mut hops = String::new();
                push_u64_array(&mut hops, self.directory.hits_at_hop.iter().copied());
                hops
            },
            self.directory.misses,
            self.directory.messages_sent,
        ));
        out.push_str(",\"pairs_per_node\":");
        push_u64_array(&mut out, self.pairs_per_node.iter().copied());
        out.push_str(&format!(
            ",\"sim_shards\":{},\"sim_windows\":{}",
            self.sim_shards, self.sim_windows
        ));
        out.push_str(&format!(",\"degraded\":{}", self.degraded));
        out.push('}');
        out
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "[{}] {} pairs in {:.3}s | R = {:.2} | {:.1} pairs/s | dev hits {:.0}% | host hits {:.0}%",
            self.backend,
            self.pairs,
            self.elapsed,
            self.r_factor(),
            self.throughput(),
            self.device_cache.hit_ratio() * 100.0,
            self.host_cache.hit_ratio() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            backend: "test",
            elapsed: 2.0,
            items: 10,
            pairs: 45,
            failed_pairs: 0,
            loads: 25,
            remote_fetches: 3,
            io_bytes: 4_000_000,
            net_bytes: 0,
            net_msgs: 0,
            steals: 1,
            busy: BusyTimes::default(),
            device_cache: CacheStats::default(),
            host_cache: CacheStats::default(),
            directory: DirectoryStats::default(),
            pairs_per_node: vec![45],
            sim_shards: 0,
            sim_windows: 0,
            degraded: false,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.r_factor() - 2.5).abs() < 1e-12);
        assert!((r.throughput() - 22.5).abs() < 1e-12);
        assert!((r.avg_io_mbps() - 2.0).abs() < 1e-12);
        assert!(r.summary().contains("45 pairs"));
    }

    #[test]
    fn zero_guards() {
        let mut r = report();
        r.items = 0;
        r.elapsed = 0.0;
        assert_eq!(r.r_factor(), 0.0);
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.avg_io_mbps(), 0.0);
    }

    #[test]
    fn json_is_balanced_and_carries_the_metrics() {
        let mut r = report();
        r.pairs_per_node = vec![20, 25];
        let json = r.to_json();
        // Balanced structure (no serde available to parse, so check the
        // invariants a JSON parser would).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.starts_with('{') && json.ends_with('}'));
        for needle in [
            "\"backend\":\"test\"",
            "\"elapsed_s\":2",
            "\"pairs\":45",
            "\"r_factor\":2.5",
            "\"throughput_pairs_s\":22.5",
            "\"pairs_per_node\":[20,25]",
            "\"net_bytes\":0",
            "\"hits_at_hop\":[]",
            "\"sim_shards\":0",
            "\"sim_windows\":0",
            "\"degraded\":false",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn busy_rows_order() {
        let b = BusyTimes {
            preprocess: 1.0,
            compare: 2.0,
            h2d: 3.0,
            d2h: 4.0,
            cpu: 5.0,
            io: 6.0,
        };
        let rows = b.rows();
        assert_eq!(rows[0], ("GPU (preprocess)", 1.0));
        assert_eq!(rows[2], ("CPU", 5.0));
        assert_eq!(rows[5], ("IO", 6.0));
    }
}
