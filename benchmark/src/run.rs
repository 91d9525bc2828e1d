//! One run of one workload: set-up, oracle, warm-up, a closed loop of
//! checked repetitions on one generator thread for the measuring window,
//! and the metrics. Untraced runs give the end-to-end metrics; traced runs
//! alternate untraced and perf-logged repetitions, record harness spans,
//! measure the layer kernels and give the per-layer metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rocket::apps::json::Json;
use rocket::trace::{PerfKind, PerfLog, PerfQuery, PerfRecord};

use crate::spans::{self, Spans};
use crate::spec::{self, MetricSpec};
use crate::stats::{median, Summary};
use crate::sysinfo::{self, timed};
use crate::workloads::{self, ratio, Ctx, RepOut, Scale, Totals};
use crate::{budget, layers, obj, out_dir, Metrics};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest measured repetitions of a run, whatever the window.
const MIN_REPS: usize = 3;

/// Per-layer metrics a workload may leave unmeasured because the layer
/// takes no part in it; they read 0 there. Every other metric must be
/// measured on every workload.
const MAY_BE_IDLE: &[&str] = &[
    "sim.seq_wall_s",
    "sim.shard_ratio",
    "core.rt_overhead_us_per_pair",
    "core.rt_efficiency",
    "cluster.cell_p50_ms",
    "cluster.cell_p95_ms",
    "cluster.overhead_ms_per_cell",
    "cluster.setup_ms",
    "cluster.redeals",
    "cluster.lost_workers",
];

pub struct MetricValue {
    pub spec: &'static MetricSpec,
    pub value: f64,
    /// Quartiles and sample count, for metrics that are medians of samples.
    pub summary: Option<Summary>,
}

pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Measured repetitions (warm-up excluded).
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub metrics: Vec<MetricValue>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result object the contract asks for on the last line.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let row = obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.spec.unit.into())),
                ]);
                (m.spec.name.to_string(), row)
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Every metric by name with its unit, labelled with what the numbers
    /// depend on; then the result object as the last line.
    pub fn print(&self) {
        println!(
            "# workload {} | seed {} | {} | {} measured reps | host_parallelism {}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.reps,
            sysinfo::host_parallelism(),
        );
        for m in &self.metrics {
            match m.summary {
                Some(s) => println!(
                    "{:<34} {:>16.6} {:<9} (q1 {:.6}, q3 {:.6}, n {}, spread {:.1} %)",
                    m.spec.name,
                    m.value,
                    m.spec.unit,
                    s.q1,
                    s.q3,
                    s.n,
                    s.spread() * 100.0
                ),
                None => println!("{:<34} {:>16.6} {}", m.spec.name, m.value, m.spec.unit),
            }
        }
        println!(
            "# ops {} | failed_ops {}{}",
            self.attempted,
            self.failed,
            self.first_failure
                .as_ref()
                .map_or(String::new(), |f| format!(" | first failure: {f}"))
        );
        println!("{}", self.to_json().to_string_compact());
    }
}

/// Attempted and failed operations over every repetition of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn add(&mut self, pairs: u64, rep: &RepOut) {
        self.attempted += pairs;
        self.failed += rep.failed_ops.min(pairs);
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&rep.first_failure);
        }
    }
}

pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> RunResult {
    let window = Duration::from_secs_f64(seconds);
    if traced {
        run_traced(workload, seed, window, Scale::Full)
    } else {
        run_untraced(workload, seed, window, Scale::Full)
    }
}

fn run_untraced(name: &str, seed: u64, window: Duration, scale: Scale) -> RunResult {
    let spans = Spans::disabled();
    let ctx = Ctx::root(&spans);
    // Set-up is everything before steady state: building the workload from
    // the seed and its first, cold repetition (page faults, allocator
    // growth, first connections, lazy tables). Building alone takes the
    // simulator workloads microseconds, which no relative bound can gate.
    // The oracle is built in between and not timed. Set up several times
    // and measure on the last.
    let off = PerfLog::disabled();
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut peak_rss_mb = 0.0;
    let workload = loop {
        let (mut workload, build_s, _) = timed(|| workloads::setup(name, seed, scale, ctx));
        workload.prepare_oracle(ctx);
        let first = workload.rep(0, &off, ctx);
        tally.add(workload.pairs_per_rep(), &first);
        if setups.is_empty() {
            // Memory after one set-up and one repetition. Later
            // repetitions run on fresh threads whose allocator arenas keep
            // what they freed, so the high-water mark then creeps up by an
            // amount that depends on thread timing, not on the program.
            peak_rss_mb = sysinfo::peak_rss_mb();
        }
        setups.push(build_s + first.wall_s);
        if setups.len() == SETUP_REPS {
            break workload;
        }
    };
    let pairs = workload.pairs_per_rep();

    let (mut walls, mut cpus, mut loads) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while started.elapsed() < window || walls.len() < MIN_REPS {
        let rep = workload.rep(1 + walls.len(), &off, ctx);
        tally.add(pairs, &rep);
        walls.push(rep.wall_s);
        cpus.push(rep.cpu_s);
        loads.push(Totals::of(&rep.reports).loads_per_item());
    }

    let wall = Summary::of(&walls);
    let rates: Vec<f64> = walls.iter().map(|w| pairs as f64 / w).collect();
    let measured = [
        ("wall_s", wall.median, Some(wall)),
        ("pairs_per_s", median(&rates), Some(Summary::of(&rates))),
        ("cpu_s", median(&cpus), Some(Summary::of(&cpus))),
        ("setup_s", median(&setups), Some(Summary::of(&setups))),
        ("peak_rss_mb", peak_rss_mb, None),
        ("loads_per_item", median(&loads), Some(Summary::of(&loads))),
    ];
    let metrics = spec::END_TO_END
        .iter()
        .zip(measured)
        .map(|(spec, (name, value, summary))| {
            assert_eq!(spec.name, name, "measured in the spec's order");
            MetricValue {
                spec,
                value,
                summary,
            }
        })
        .collect();
    RunResult {
        workload: name.to_string(),
        seed,
        traced: false,
        reps: walls.len(),
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        metrics,
    }
}

fn run_traced(name: &str, seed: u64, window: Duration, scale: Scale) -> RunResult {
    let spans = Spans::enabled();
    let root = Ctx::root(&spans);
    let mut tally = Tally::default();
    let mut metrics = Metrics::new();
    let mut records: Vec<PerfRecord> = Vec::new();
    let mut reps = 0;

    root.scope(&format!("workload.{name}"), |ctx| {
        let mut workload = ctx.scope("setup", |ctx| workloads::setup(name, seed, scale, ctx));
        ctx.scope("oracle", |ctx| workload.prepare_oracle(ctx));
        let pairs = workload.pairs_per_rep();
        let off = PerfLog::disabled();
        tally.add(
            pairs,
            &ctx.scope("warmup", |ctx| workload.rep(0, &off, ctx)),
        );

        let (mut plain, mut logged) = (Vec::new(), Vec::new());
        // The first traced repetition is the one whose counters and perf
        // log are reported: a fixed round, so count metrics repeat exactly
        // however many rounds the window holds.
        let mut counted = None;
        let started = Instant::now();
        while started.elapsed() < window || logged.len() < 2 {
            // Both repetitions of a round run the same scenario, so their
            // difference is the perf log's cost.
            let round = 1 + logged.len();
            let rep = ctx.scope("rep", |ctx| workload.rep(round, &off, ctx));
            tally.add(pairs, &rep);
            plain.push(rep.wall_s);

            let perf = PerfLog::enabled();
            let rep = ctx.scope("rep.traced", |ctx| workload.rep(round, &perf, ctx));
            tally.add(pairs, &rep);
            logged.push(rep.wall_s);
            if counted.is_none() {
                records = perf.take();
                counted = Some(rep);
            }
        }
        reps = plain.len() + logged.len();
        let counted = counted.expect("at least two traced repetitions");
        let wall_s = median(&plain);

        let totals = Totals::of(&counted.reports);
        let degraded = counted.reports.iter().filter(|r| r.degraded).count();
        metrics.insert("cluster.degraded_cells", degraded as f64);
        counted_metrics(&totals, &records, wall_s, &mut metrics);
        metrics.insert(
            "trace.perflog_overhead_pct",
            (ratio(median(&logged), wall_s) - 1.0) * 100.0,
        );
        if let Some(problem) = probe_mismatch(&records) {
            tally.failed += pairs.min(tally.attempted - tally.failed);
            tally.first_failure.get_or_insert(problem);
        }
        ctx.scope("layers", |ctx| {
            workload.layer_metrics(wall_s, ctx, &mut metrics);
            layers::measure(seed, scale, ctx, &mut metrics);
        });
        budget::shares(&totals, &records, wall_s, &mut metrics);
    });

    for name in MAY_BE_IDLE {
        metrics.entry(name).or_insert(0.0);
    }
    let values: Vec<MetricValue> = spec::PER_LAYER
        .iter()
        .map(|spec| MetricValue {
            spec,
            value: *metrics
                .get(spec.name)
                .unwrap_or_else(|| panic!("per-layer metric `{}` was not measured", spec.name)),
            summary: None,
        })
        .collect();
    assert_eq!(
        values.len(),
        metrics.len(),
        "a measured metric is missing from the spec"
    );

    let result = RunResult {
        workload: name.to_string(),
        seed,
        traced: true,
        reps,
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        metrics: values,
    };
    if scale == Scale::Full {
        write_trace_files(&result, &spans, &records);
    }
    result
}

/// Per-layer metrics counted by the program itself during one traced
/// repetition: report counters and perf-log records.
fn counted_metrics(t: &Totals, records: &[PerfRecord], wall_s: f64, out: &mut Metrics) {
    let depth_p99 = PerfQuery::new(records)
        .kind(PerfKind::QueueDepth)
        .percentile(99)
        .unwrap_or(0);
    let us = 1e6;
    let rows = [
        ("sim.records_per_s", ratio(records.len() as f64, wall_s)),
        ("sim.queue_depth_p99", depth_p99 as f64),
        ("sim.windows", t.windows as f64),
        ("sim.window_us", ratio(wall_s * us, t.windows as f64)),
        (
            "sim.gpu_compare_util",
            ratio(t.busy_compare_s, t.gpu_seconds),
        ),
        (
            "sim.steals",
            if t.windows > 0 { t.steals as f64 } else { 0.0 },
        ),
        (
            "sim.makespan_s",
            if t.windows > 0 { t.elapsed_s } else { 0.0 },
        ),
        ("cache.dev_hit_ratio", t.device_cache.hit_ratio()),
        ("cache.host_hit_ratio", t.host_cache.hit_ratio()),
        ("cache.dev_evictions", t.device_cache.evictions as f64),
        ("cache.host_evictions", t.host_cache.evictions as f64),
        (
            "cache.capacity_stalls",
            (t.device_cache.capacity_stalls + t.host_cache.capacity_stalls) as f64,
        ),
        ("cache.dir_probes", t.directory.lookups() as f64),
        (
            "cache.dir_probe_hit_ratio",
            ratio(t.directory.hits() as f64, t.directory.lookups() as f64),
        ),
        ("cache.remote_fetches", t.remote_fetches as f64),
        ("steal.steals", t.steals as f64),
        ("steal.imbalance", t.imbalance),
        ("comm.net_bytes", t.net_bytes as f64),
        ("comm.net_msgs", t.net_msgs as f64),
        // One object read per execution of the load pipeline.
        ("storage.reads", t.loads as f64),
        ("trace.records", records.len() as f64),
    ];
    out.extend(rows);
}

/// On a log that carries directory probes, every probe must have resolved
/// to a hit or a miss.
fn probe_mismatch(records: &[PerfRecord]) -> Option<String> {
    let count = |kind| PerfQuery::new(records).kind(kind).count();
    let (probes, hits, misses) = (
        count(PerfKind::Probe),
        count(PerfKind::ProbeHit),
        count(PerfKind::ProbeMiss),
    );
    (probes > 0 && hits + misses != probes)
        .then(|| format!("perf log: {hits} probe hits + {misses} misses != {probes} probes"))
}

/// Records per kind, by wire label (one pass: `des-seq` logs millions).
fn perf_counts(records: &[PerfRecord]) -> Json {
    let mut counts: BTreeMap<&str, u64> = PerfKind::ALL.iter().map(|k| (k.label(), 0)).collect();
    for r in records {
        *counts.entry(r.kind.label()).or_default() += 1;
    }
    Json::Obj(
        counts
            .into_iter()
            .map(|(label, n)| (label.to_string(), Json::Num(n as f64)))
            .collect(),
    )
}

/// Writes `out/<workload>.trace.json` (spans, perf-log counts, metrics,
/// labels) and, for `des-seq`, the budget table.
fn write_trace_files(result: &RunResult, spans: &Spans, records: &[PerfRecord]) {
    let dir = out_dir();
    let run_id = format!("{}/seed{}", result.workload, result.seed);
    let mut doc = match spans::to_json(&run_id, &spans.snapshot()) {
        Json::Obj(map) => map,
        _ => unreachable!("the span file is an object"),
    };
    doc.insert("workload".into(), Json::Str(result.workload.clone()));
    doc.insert("seed".into(), Json::Num(result.seed as f64));
    doc.insert(
        "host_parallelism".into(),
        Json::Num(sysinfo::host_parallelism() as f64),
    );
    doc.insert("perflog_counts".into(), perf_counts(records));
    doc.insert("result".into(), result.to_json());
    let path = dir.join(format!("{}.trace.json", result.workload));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, Json::Obj(doc).to_string_compact()));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
    }
    if result.workload == "des-seq" {
        let path = dir.join("BUDGET.md");
        if let Err(e) = std::fs::write(&path, budget::markdown(result)) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BRIEF: Duration = Duration::from_millis(200);

    #[test]
    fn untraced_runs_report_exactly_the_end_to_end_metrics() {
        for w in spec::WORKLOADS {
            let result = run_untraced(w.name, 5, BRIEF, Scale::Test);
            assert!(result.correct(), "{}: {:?}", w.name, result.first_failure);
            assert!(result.reps >= MIN_REPS);
            let names: Vec<_> = result.metrics.iter().map(|m| m.spec.name).collect();
            let want: Vec<_> = spec::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, want);
            for m in &result.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {} = {}",
                    w.name,
                    m.spec.name,
                    m.value
                );
            }
        }
    }

    #[test]
    fn traced_runs_report_exactly_the_per_layer_metrics() {
        // des-shard and rt-dist between them leave idle, or fill, every
        // metric that only some workloads measure, bar the cluster's.
        for name in ["des-shard", "rt-dist"] {
            let result = run_traced(name, 5, BRIEF, Scale::Test);
            assert!(result.correct(), "{name}: {:?}", result.first_failure);
            let names: Vec<_> = result.metrics.iter().map(|m| m.spec.name).collect();
            let want: Vec<_> = spec::PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, want);
            let value = |metric: &str| {
                let found = result.metrics.iter().find(|m| m.spec.name == metric);
                found.expect("a per-layer metric").value
            };
            assert!(result.metrics.iter().all(|m| m.value.is_finite()));
            assert!(value("trace.records") > 0.0);
            assert!(value("sim.event_queue_ns") > 0.0 && value("comm.socket_rtt_us") > 0.0);
            assert_eq!(value("sim.shard_ratio") > 0.0, name == "des-shard");
            assert_eq!(value("core.rt_efficiency") > 0.0, name == "rt-dist");
            assert_eq!(value("cluster.cell_p50_ms"), 0.0);
        }
    }

    #[test]
    fn the_result_line_round_trips_through_the_parser() {
        let result = run_untraced("des-shard", 5, BRIEF, Scale::Test);
        let text = result.to_json().to_string_compact();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            parsed.get("attempted").and_then(Json::as_f64),
            Some(result.attempted as f64)
        );
        assert_eq!(parsed.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = parsed.get("metrics").expect("metrics");
        for m in &result.metrics {
            let row = metrics.get(m.spec.name).expect("metric row");
            assert_eq!(row.get("value").and_then(Json::as_f64), Some(m.value));
            assert_eq!(row.get("unit"), Some(&Json::Str(m.spec.unit.into())));
        }
    }

    #[test]
    fn a_probe_that_never_resolves_is_a_mismatch() {
        let rec = |kind| PerfRecord {
            t_ns: 1,
            kind,
            node: 0,
            value: 9,
        };
        let ok = [rec(PerfKind::Probe), rec(PerfKind::ProbeHit)];
        assert_eq!(probe_mismatch(&ok), None);
        assert_eq!(probe_mismatch(&[rec(PerfKind::ProbeHit)]), None);
        let lost = [
            rec(PerfKind::Probe),
            rec(PerfKind::Probe),
            rec(PerfKind::ProbeMiss),
        ];
        assert!(probe_mismatch(&lost)
            .expect("mismatch")
            .contains("2 probes"));
    }
}
