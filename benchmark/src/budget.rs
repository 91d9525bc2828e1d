//! Where a wall-second goes: counted operations × the isolated cost of one,
//! over the repetition's wall-clock time. Meant for `des-seq`, where one
//! thread does everything; the traced run of that workload writes the
//! table to `out/BUDGET.md`.

use std::collections::BTreeMap;

use rocket::trace::{PerfKind, PerfQuery, PerfRecord};

use crate::run::RunResult;
use crate::sysinfo;
use crate::workloads::{ratio, Totals};
use crate::Metrics;

/// Events the engine handled: the `Window` gauge carries each shard's
/// cumulative event count (`node` is the shard), so the total is the sum
/// of the per-shard maxima. A log without the gauge (the threaded
/// runtime's) has none.
fn events(records: &[PerfRecord]) -> u64 {
    let mut per_shard: BTreeMap<u32, u64> = BTreeMap::new();
    for r in PerfQuery::new(records).kind(PerfKind::Window).iter() {
        let seen = per_shard.entry(r.node).or_default();
        *seen = (*seen).max(r.value);
    }
    per_shard.values().sum()
}

/// Adds the `budget.*` shares, from `out`'s kernel costs and the counters
/// `t` of one repetition.
pub fn shares(t: &Totals, records: &[PerfRecord], wall_s: f64, out: &mut Metrics) {
    let ns = |name: &str| out.get(name).copied().unwrap_or(0.0) * 1e-9;
    let (dev, host) = (t.device_cache, t.host_cache);
    let hits = dev.hits + dev.hits_pending + host.hits + host.hits_pending;
    let misses = dev.misses + host.misses;
    let queue = events(records) as f64 * ns("sim.event_queue_ns");
    let cache = hits as f64 * ns("cache.slot_hit_ns") + misses as f64 * ns("cache.slot_evict_ns");
    // The scenarios probe one hop deep.
    let directory = t.directory.lookups() as f64 * ns("cache.dir_lookup_ns_h1");
    let (queue, cache, directory) = (
        ratio(queue, wall_s),
        ratio(cache, wall_s),
        ratio(directory, wall_s),
    );
    out.insert("budget.queue_share", queue);
    out.insert("budget.cache_share", cache);
    out.insert("budget.directory_share", directory);
    out.insert("budget.unattributed_share", 1.0 - queue - cache - directory);
}

/// The budget table of a traced `des-seq` run.
pub fn markdown(result: &RunResult) -> String {
    let value = |name: &str| {
        result
            .metrics
            .iter()
            .find(|m| m.spec.name == name)
            .map_or(0.0, |m| m.value)
    };
    let mut out = format!(
        "# Where a wall-second of `{}` goes\n\n\
         Generated by `--workload {} --trace 1` (seed {}, host_parallelism {}). \
         Each share is counted operations × the isolated cost of one operation \
         (the layer kernels of the same run) ÷ the untraced median wall-clock \
         time of a repetition; what the kernels do not explain — event \
         handlers, steal matching, report folding, allocation — is the \
         unattributed rest.\n\n\
         | layer | isolated cost | share of wall |\n|---|---|---|\n",
        result.workload,
        result.workload,
        result.seed,
        sysinfo::host_parallelism()
    );
    let rows = [
        (
            "event queue (schedule + pop)",
            format!("{:.1} ns", value("sim.event_queue_ns")),
            "budget.queue_share",
        ),
        (
            "SlotCache (hit+release, evict+publish)",
            format!(
                "{:.1} / {:.1} ns",
                value("cache.slot_hit_ns"),
                value("cache.slot_evict_ns")
            ),
            "budget.cache_share",
        ),
        (
            "Directory lookup (h = 1)",
            format!("{:.1} ns", value("cache.dir_lookup_ns_h1")),
            "budget.directory_share",
        ),
        ("unattributed", "—".to_string(), "budget.unattributed_share"),
    ];
    for (layer, cost, share) in rows {
        out.push_str(&format!(
            "| {layer} | {cost} | {:.1} % |\n",
            value(share) * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocket::core::{Backend, NodeSpec, Scenario};
    use rocket::sim::SimBackend;
    use rocket::trace::PerfLog;

    #[test]
    fn shares_sum_to_one_and_follow_the_kernel_costs() {
        let scenario = Scenario::builder()
            .items(32)
            .nodes(4, NodeSpec::uniform(1, 4, 8))
            .build();
        let perf = PerfLog::enabled();
        let report = SimBackend::new()
            .run_with_perf(&scenario, &perf)
            .expect("sim run");
        let records = perf.take();
        assert!(events(&records) > 0, "the simulator logs its windows");
        let mut m = Metrics::new();
        m.insert("sim.event_queue_ns", 100.0);
        m.insert("cache.slot_hit_ns", 10.0);
        m.insert("cache.slot_evict_ns", 20.0);
        m.insert("cache.dir_lookup_ns_h1", 50.0);
        shares(&Totals::of(&[report]), &records, 1e-3, &mut m);
        let sum: f64 = ["queue", "cache", "directory", "unattributed"]
            .iter()
            .map(|k| m[format!("budget.{k}_share").as_str()])
            .sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(m["budget.queue_share"] > 0.0 && m["budget.cache_share"] > 0.0);
        let expected_queue = events(&records) as f64 * 100e-9 / 1e-3;
        assert!((m["budget.queue_share"] - expected_queue).abs() < 1e-12);
    }
}
