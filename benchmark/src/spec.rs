//! The benchmark's contract: workload and metric names, units, directions
//! and bounds. `BENCHMARK.json` at the repository root states the same
//! tables for the driver; `--check` and the self-tests hold the two
//! together.

use rocket::apps::json::Json;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "des-seq",
        why: "1024-node anchor on the sequential simulator: event queue, SlotCache, Directory and steal matching on one thread; no threads, sockets or codec",
    },
    WorkloadSpec {
        name: "des-shard",
        why: "64-node scenario on SimBackend::sharded(2): thousands of lock-step windows, so run_rounds barriers and cross-shard merge are the cost and event handlers a few percent",
    },
    WorkloadSpec {
        name: "rt-reuse",
        why: "forensics kernels on the threaded runtime, one node, host cache holds every item: the hit path (pipeline hand-off, JobLimiter, VirtualDevice, NCC kernel); no network",
    },
    WorkloadSpec {
        name: "rt-dist",
        why: "same data on two nodes over loopback TCP with small caches: the miss path (evict/publish, Directory probes, 64 KB FetchReply frames, inter-node steals)",
    },
    WorkloadSpec {
        name: "cluster-study",
        why: "96 tiny cells dealt through ClusterBackend to two socket workers: dispatch, core::codec, framing, sockets and poll ticks are the cost and simulation about 1 %",
    },
];

pub const END_TO_END: &[MetricSpec] = &[
    e2e("wall_s", "s", Better::Lower, 0.20),
    e2e("pairs_per_s", "pairs/s", Better::Higher, 0.20),
    e2e("cpu_s", "s", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    e2e("loads_per_item", "ratio", Better::Lower, 0.10),
];

pub const PER_LAYER: &[MetricSpec] = &[
    // sim
    lo("sim.event_queue_ns", "ns"),
    lo("sim.calendar_queue_ns", "ns"),
    hi("sim.records_per_s", "1/s"),
    lo("sim.queue_depth_p99", "count"),
    lo("sim.windows", "count"),
    lo("sim.window_us", "us"),
    lo("sim.seq_wall_s", "s"),
    hi("sim.shard_ratio", "ratio"),
    hi("sim.gpu_compare_util", "ratio"),
    lo("sim.steals", "count"),
    lo("sim.makespan_s", "virtual_s"),
    // cache
    lo("cache.slot_hit_ns", "ns"),
    lo("cache.slot_evict_ns", "ns"),
    lo("cache.dir_lookup_ns_h1", "ns"),
    lo("cache.dir_lookup_ns_h4", "ns"),
    lo("cache.dir_lookup_ns_h8", "ns"),
    hi("cache.dev_hit_ratio", "ratio"),
    hi("cache.host_hit_ratio", "ratio"),
    lo("cache.dev_evictions", "count"),
    lo("cache.host_evictions", "count"),
    lo("cache.capacity_stalls", "count"),
    lo("cache.dir_probes", "count"),
    hi("cache.dir_probe_hit_ratio", "ratio"),
    hi("cache.remote_fetches", "count"),
    // steal
    lo("steal.block_split_ns", "ns"),
    lo("steal.decompose_n512_us", "us"),
    hi("steal.pool_pairs_per_s", "pairs/s"),
    lo("steal.run_tasks_dispatch_us", "us"),
    lo("steal.run_rounds_barrier_us", "us"),
    lo("steal.run_rounds_inline_us", "us"),
    lo("steal.limiter_acquire_ns", "ns"),
    lo("steal.steals", "count"),
    lo("steal.imbalance", "ratio"),
    // comm
    lo("comm.encode_probe_ns", "ns"),
    lo("comm.decode_probe_ns", "ns"),
    hi("comm.encode_fetch_64k_mbps", "MB/s"),
    hi("comm.decode_fetch_64k_mbps", "MB/s"),
    hi("comm.frame_encode_mbps", "MB/s"),
    hi("comm.frame_decode_mbps", "MB/s"),
    lo("comm.local_rtt_us", "us"),
    lo("comm.socket_rtt_us", "us"),
    lo("comm.socket_rtt_p95_us", "us"),
    hi("comm.socket_mbps", "MB/s"),
    lo("comm.net_bytes", "bytes"),
    lo("comm.net_msgs", "count"),
    // core
    lo("core.codec_scenario_ns", "ns"),
    lo("core.codec_report_ns", "ns"),
    lo("core.codec_scenario_bytes", "bytes"),
    lo("core.codec_report_bytes", "bytes"),
    lo("core.study_sim_wall_s", "s"),
    lo("core.study_overhead_us_per_cell", "us"),
    hi("core.report_json_mbps", "MB/s"),
    lo("core.report_csv_us", "us"),
    lo("core.replications_8_wall_ms", "ms"),
    lo("core.rt_overhead_us_per_pair", "us"),
    hi("core.rt_efficiency", "ratio"),
    // cluster
    lo("cluster.cell_p50_ms", "ms"),
    lo("cluster.cell_p95_ms", "ms"),
    lo("cluster.overhead_ms_per_cell", "ms"),
    lo("cluster.setup_ms", "ms"),
    lo("cluster.redeals", "count"),
    lo("cluster.lost_workers", "count"),
    lo("cluster.degraded_cells", "count"),
    // gpu
    lo("gpu.alloc_free_ns", "ns"),
    hi("gpu.h2d_64k_mbps", "MB/s"),
    hi("gpu.d2h_64k_mbps", "MB/s"),
    lo("gpu.launch_empty_ns", "ns"),
    // storage
    lo("storage.memstore_get_ns", "ns"),
    lo("storage.reads", "count"),
    // apps
    lo("apps.parse_us", "us"),
    lo("apps.preprocess_us", "us"),
    lo("apps.compare_us", "us"),
    lo("apps.postprocess_us", "us"),
    hi("apps.serial_pairs_per_s", "pairs/s"),
    // trace
    lo("trace.perflog_overhead_pct", "%"),
    lo("trace.records", "count"),
    hi("trace.perflog_write_mbps", "MB/s"),
    hi("trace.perflog_parse_mbps", "MB/s"),
    lo("trace.rollup_ms", "ms"),
    // budget
    lo("budget.queue_share", "ratio"),
    lo("budget.cache_share", "ratio"),
    lo("budget.directory_share", "ratio"),
    lo("budget.unattributed_share", "ratio"),
];

/// Per-layer metrics that a deterministic simulator must repeat
/// bit-for-bit for one seed on the simulator-backed workloads;
/// `--compare` requires them equal where both files carry them.
pub const EXACT_ON_SIM: &[&str] = &[
    "sim.makespan_s",
    "sim.windows",
    "sim.steals",
    "steal.steals",
    "cache.dev_evictions",
    "cache.host_evictions",
    "cache.dir_probes",
    "cache.remote_fetches",
    "comm.net_bytes",
    "comm.net_msgs",
    "storage.reads",
];

/// Workloads whose programs are the deterministic simulator.
pub const SIM_WORKLOADS: &[&str] = &["des-seq", "des-shard", "cluster-study"];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn str_field<'a>(row: &'a Json, key: &str) -> Result<&'a str, String> {
    match row.get(key) {
        Some(Json::Str(s)) => Ok(s),
        _ => Err(format!("a row lacks the string field `{key}`")),
    }
}

fn check_metrics(rows: &[Json], specs: &[MetricSpec], section: &str) -> Result<(), String> {
    if rows.len() != specs.len() {
        return Err(format!(
            "{section}: BENCHMARK.json lists {} metrics, the harness {}",
            rows.len(),
            specs.len()
        ));
    }
    for (row, spec) in rows.iter().zip(specs) {
        let name = str_field(row, "name")?;
        if name != spec.name {
            return Err(format!(
                "{section}: BENCHMARK.json has `{name}` where the harness has `{}`",
                spec.name
            ));
        }
        if str_field(row, "unit")? != spec.unit || str_field(row, "better")? != spec.better.label()
        {
            return Err(format!(
                "{section}: `{name}` disagrees on unit or direction"
            ));
        }
        if row.get("bound").and_then(Json::as_f64) != spec.bound {
            return Err(format!("{section}: `{name}` disagrees on its bound"));
        }
    }
    Ok(())
}

/// Checks the harness tables for well-formed, unique names and that
/// `benchmark_json` (the text of `BENCHMARK.json`) agrees with them one to
/// one, in order.
pub fn check(benchmark_json: &str) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
    for name in names {
        if !valid_name(name) {
            return Err(format!("`{name}` is not a valid name"));
        }
        if !seen.insert(name) {
            return Err(format!("`{name}` is used twice"));
        }
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        if !valid_unit(m.unit) {
            return Err(format!("`{}` has the invalid unit `{}`", m.name, m.unit));
        }
    }
    if WORKLOADS
        .iter()
        .any(|w| w.why.len() > 200 || w.why.contains('\n'))
    {
        return Err("a workload's `why` is longer than 200 characters or one line".into());
    }

    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let rows = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json lacks the array `{key}`"))
    };
    if doc.get("run_seconds").and_then(Json::as_f64) != Some(RUN_SECONDS as f64) {
        return Err(format!("BENCHMARK.json: run_seconds is not {RUN_SECONDS}"));
    }
    let workloads = rows("workloads")?;
    if workloads.len() != WORKLOADS.len() {
        return Err("BENCHMARK.json and the harness list different workloads".into());
    }
    for (row, spec) in workloads.iter().zip(WORKLOADS) {
        if str_field(row, "name")? != spec.name || str_field(row, "why")? != spec.why {
            return Err(format!(
                "workload `{}` differs between BENCHMARK.json and the harness",
                spec.name
            ));
        }
    }
    check_metrics(rows("end_to_end")?, END_TO_END, "end_to_end")?;
    check_metrics(rows("per_layer")?, PER_LAYER, "per_layer")
}

/// `BENCHMARK.json` as the harness tables state it (`--print-spec`; the
/// committed file is this output).
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{comma}\n",
            Json::Str(w.name.into()).to_string_compact(),
            Json::Str(w.why.into()).to_string_compact()
        ));
    }
    out.push_str("  ],\n");
    for (key, specs, last) in [
        ("end_to_end", END_TO_END, false),
        ("per_layer", PER_LAYER, true),
    ] {
        out.push_str(&format!("  \"{key}\": [\n"));
        for (i, m) in specs.iter().enumerate() {
            let comma = if i + 1 < specs.len() { "," } else { "" };
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}{comma}\n",
                m.name,
                m.unit,
                m.better.label()
            ));
        }
        out.push_str(if last { "  ]\n" } else { "  ],\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_agree_with_the_committed_benchmark_json() {
        let committed = include_str!("../../BENCHMARK.json");
        check(committed).expect("BENCHMARK.json matches the harness");
        assert_eq!(committed, benchmark_json(), "regenerate with --print-spec");
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("sim.event_queue_ns") && valid_name("des-seq") && valid_name("9x"));
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("µs"));
        assert!(valid_unit("pairs/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(
            !valid_unit("virtual s") && !valid_unit("") && !valid_unit("a_very_long_unit_name")
        );
    }

    #[test]
    fn check_rejects_drift() {
        let good = benchmark_json();
        assert!(check(&good).is_ok());
        assert!(check(&good.replace("\"wall_s\"", "\"wall_ms\"")).is_err());
        assert!(check(&good.replace("\"bound\": 0.1}", "\"bound\": 0.15}")).is_err());
        assert!(check(&good.replace("\"des-shard\"", "\"des-par\"")).is_err());
        assert!(check(&good.replace("\"run_seconds\": 10", "\"run_seconds\": 9")).is_err());
        assert!(check("{").is_err());
    }
}
