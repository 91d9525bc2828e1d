//! Studies: drive a [`Sweep`] through any [`Backend`] into a structured,
//! machine-readable [`StudyReport`].
//!
//! A [`Study`] is the execution policy around a parameter grid: how many
//! replications each cell gets ([`ReplicationPolicy`]) and how many cells
//! run concurrently ([`Study::threads`]). The result is one
//! [`CellReport`] per grid cell — its coordinates, its scenario, and the
//! full [`ReplicationReport`] — plus serializers (`to_json`, JSON-Lines,
//! `to_csv`) and a rendered comparison table.
//!
//! Determinism: every cell is an independent pure function of its
//! scenario and the policy's seed schedule, results are folded in cell
//! order after all cells complete, so the report is byte-identical
//! regardless of cell parallelism (the test suite asserts
//! `threads(1) == threads(4)`).
//!
//! ```
//! use rocket_core::{Axis, NodeSpec, Scenario, Study, Sweep};
//!
//! # struct NullBackend;
//! # impl rocket_core::Backend for NullBackend {
//! #     fn name(&self) -> &'static str { "sim" }
//! #     fn run(&self, s: &Scenario) -> Result<rocket_core::RunReport, rocket_core::RocketError> {
//! #         Ok(rocket_core::RunReport {
//! #             backend: "sim", elapsed: 1.0, items: s.workload.items,
//! #             pairs: s.workload.pairs(), failed_pairs: 0, loads: s.workload.items,
//! #             remote_fetches: 0, io_bytes: 0, net_bytes: 0, net_msgs: 0, steals: 0,
//! #             busy: Default::default(), device_cache: Default::default(),
//! #             host_cache: Default::default(), directory: Default::default(),
//! #             pairs_per_node: vec![s.workload.pairs()],
//! #             sim_shards: 0, sim_windows: 0,
//! #             degraded: false,
//! #         })
//! #     }
//! # }
//! let base = Scenario::builder()
//!     .items(32)
//!     .node(NodeSpec::uniform(1, 8, 16))
//!     .build();
//! let sweep = Sweep::over(base)
//!     .axis(Axis::nodes([1, 2]))
//!     .try_build()
//!     .unwrap();
//! let report = Study::new("scaling").run(&NullBackend, &sweep).unwrap();
//! assert_eq!(report.cells.len(), 2);
//! println!("{}", report.render());
//! ```

use std::borrow::Cow;
use std::path::PathBuf;

use rocket_sanitize::Mutex;

use rocket_steal::StealPool;
use rocket_trace::json;
use rocket_trace::perflog::write_jsonl;
use rocket_trace::{PerfKind, PerfLog, PerfMeta, PerfRollup};

use crate::backend::Backend;
use crate::error::RocketError;
use crate::replications::{ReplicationReport, Replications};
use crate::report::RunReport;
use crate::scenario::Scenario;
use crate::sweep::{AxisValue, Sweep};

/// How many replications each grid cell receives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplicationPolicy {
    /// One run per cell, under the cell scenario's own seed (the default;
    /// a single run of cell `c` equals `backend.run(&c.scenario)`).
    Once,
    /// `n` replications per cell, seeds derived from the cell scenario's
    /// seed by the deterministic stream of [`Replications::new`].
    Fixed(usize),
    /// Adaptive replication per cell: batches until the elapsed-time 95%
    /// CI half-width is within `rel_half_width` of the mean, capped at
    /// `max_n` runs (see [`Replications::until_ci`]).
    UntilCi {
        /// Target relative CI half-width (e.g. `0.05` for ±5%).
        rel_half_width: f64,
        /// Replication cap.
        max_n: usize,
    },
}

impl ReplicationPolicy {
    /// One run per cell (the default policy).
    pub fn once() -> Self {
        ReplicationPolicy::Once
    }

    /// `n` replications per cell.
    pub fn fixed(n: usize) -> Self {
        ReplicationPolicy::Fixed(n)
    }

    /// Adaptive replications per cell (see [`Replications::until_ci`]).
    pub fn until_ci(rel_half_width: f64, max_n: usize) -> Self {
        ReplicationPolicy::UntilCi {
            rel_half_width,
            max_n,
        }
    }
}

/// Drives a [`Sweep`] through a [`Backend`]: per-cell replication policy
/// plus optional parallelism across cells.
#[derive(Debug, Clone)]
pub struct Study {
    name: String,
    policy: ReplicationPolicy,
    threads: usize,
    perf_dir: Option<PathBuf>,
}

impl Study {
    /// A study named `name` (the experiment label carried by the report),
    /// defaulting to [`ReplicationPolicy::Once`] and sequential cells.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            policy: ReplicationPolicy::Once,
            threads: 1,
            perf_dir: None,
        }
    }

    /// Sets the per-cell replication policy.
    pub fn replication(mut self, policy: ReplicationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Cell parallelism: how many grid cells run concurrently (`1`, the
    /// default, runs cells sequentially; `0` uses the machine's available
    /// parallelism). The report does not depend on this — only wall-clock
    /// time does.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables per-cell perf logging: every cell records one perf log
    /// (under replicated policies: the cell's deterministic first
    /// replication), written to `dir` as
    /// `<experiment>-cell<N>.perflog.jsonl`, with the rollup attached as
    /// [`CellReport::perf`] and carried into CSV/JSON. The directory is
    /// created if missing. Recording never changes run results —
    /// instrumented backends keep perf data out-of-band.
    pub fn perf_log_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.perf_dir = Some(dir.into());
        self
    }

    /// Executes every cell of `sweep` on `backend` and folds the results
    /// in cell order. Fails on the first failing cell (lowest index wins).
    pub fn run(&self, backend: &dyn Backend, sweep: &Sweep) -> Result<StudyReport, RocketError> {
        let cells = sweep.cells();
        if cells.is_empty() {
            return Err(RocketError::Config("study sweep has no cells".into()));
        }
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.threads
        };
        // When cells run concurrently, keep each cell's replications
        // sequential (the cell grid is the outer parallelism source);
        // sequential cells let the replication runner use the machine.
        let inner_threads = if threads == 1 { 0 } else { 1 };
        let slots: Vec<Mutex<Option<Result<ReplicationReport, RocketError>>>> =
            cells.iter().map(|_| Mutex::named("slots", None)).collect();
        // One recording handle per cell when perf logging is on. Each cell
        // records exactly one replication — the deterministic first seed of
        // the policy's schedule — so perf logs are comparable across runs
        // and replication counts.
        let perf_logs: Option<Vec<PerfLog>> = self
            .perf_dir
            .as_ref()
            .map(|_| cells.iter().map(|_| PerfLog::enabled()).collect());
        StealPool::run_tasks(cells.len(), threads, |i| {
            let scenario = &cells[i].scenario;
            let tap;
            let eff: &dyn Backend = match &perf_logs {
                Some(logs) => {
                    let designated = match self.policy {
                        ReplicationPolicy::Once => scenario.seed,
                        _ => Replications::new(scenario.seed, 1).seeds()[0],
                    };
                    tap = PerfTap {
                        inner: backend,
                        perf: &logs[i],
                        seed: designated,
                    };
                    &tap
                }
                None => backend,
            };
            let result = match self.policy {
                ReplicationPolicy::Once => eff.run(scenario).map(|run| {
                    ReplicationReport::from_runs(backend.name(), vec![scenario.seed], vec![run])
                }),
                ReplicationPolicy::Fixed(n) => Replications::new(scenario.seed, n)
                    .threads(inner_threads)
                    .run(eff, scenario),
                ReplicationPolicy::UntilCi {
                    rel_half_width,
                    max_n,
                } => Replications::until_ci(scenario.seed, rel_half_width, max_n)
                    .threads(inner_threads)
                    .run(eff, scenario),
            };
            *slots[i].lock() = Some(result);
        });
        // Sequential fold in cell order: the report is independent of
        // which thread ran which cell.
        if let Some(dir) = &self.perf_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| RocketError::Config(format!("perf log dir {}: {e}", dir.display())))?;
        }
        let mut reports = Vec::with_capacity(cells.len());
        for (cell, slot) in cells.iter().zip(slots) {
            let report = slot
                .into_inner()
                .expect("cell ran")
                .map_err(|e| RocketError::Config(format!("cell {} failed: {e}", cell.index)))?;
            let perf = match (&self.perf_dir, &perf_logs) {
                (Some(dir), Some(logs)) => {
                    let records = logs[cell.index].take();
                    let meta = PerfMeta {
                        run: self.name.clone(),
                        cell: Some(cell.index as u64),
                        backend: backend.name().to_string(),
                    };
                    let path = dir.join(format!(
                        "{}-cell{}.perflog.jsonl",
                        file_slug(&self.name),
                        cell.index
                    ));
                    std::fs::write(&path, write_jsonl(&meta, &records)).map_err(|e| {
                        RocketError::Config(format!("perf log {}: {e}", path.display()))
                    })?;
                    Some(PerfRollup::from_records(&records))
                }
                _ => None,
            };
            reports.push(CellReport {
                cell: cell.index,
                coords: cell.coords.clone(),
                scenario: cell.scenario.clone(),
                report,
                perf,
            });
        }
        Ok(StudyReport {
            experiment: self.name.clone(),
            backend: backend.name().to_string(),
            axes: sweep.axis_names(),
            cells: reports,
            notes: String::new(),
        })
    }
}

/// Routes exactly one replication — the one carrying the designated
/// seed — through [`Backend::run_with_perf`]; every other run passes
/// through untouched. This keeps perf logs to one deterministic
/// replication per cell regardless of the replication policy.
struct PerfTap<'a> {
    inner: &'a dyn Backend,
    perf: &'a PerfLog,
    seed: u64,
}

impl Backend for PerfTap<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, scenario: &Scenario) -> Result<RunReport, RocketError> {
        if scenario.seed == self.seed {
            self.inner.run_with_perf(scenario, self.perf)
        } else {
            self.inner.run(scenario)
        }
    }
}

/// Filesystem-safe slug of an experiment name.
fn file_slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Outcome of one grid cell: coordinates, the applied scenario, and the
/// replicated runs.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Flat cell index in grid expansion order.
    pub cell: usize,
    /// `(axis name, value)` coordinates, in axis declaration order.
    pub coords: Vec<(String, AxisValue)>,
    /// The fully-applied scenario this cell ran.
    pub scenario: Scenario,
    /// The replicated runs (one run under [`ReplicationPolicy::Once`]).
    pub report: ReplicationReport,
    /// Perf rollup of the cell's recorded replication (`Some` iff the
    /// study ran with [`Study::perf_log_dir`]).
    pub perf: Option<PerfRollup>,
}

impl CellReport {
    /// Looks up one coordinate by axis name.
    pub fn coord(&self, axis: &str) -> Option<&AxisValue> {
        self.coords
            .iter()
            .find(|(name, _)| name == axis)
            .map(|(_, v)| v)
    }

    /// The first (for [`ReplicationPolicy::Once`]: the only) run.
    pub fn run(&self) -> &RunReport {
        &self.report.runs[0]
    }

    /// True when any replication of this cell ran degraded (its work was
    /// re-dealt after a worker loss, or it finished below quorum).
    pub fn degraded(&self) -> bool {
        self.report.runs.iter().any(|r| r.degraded)
    }

    fn coords_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.coords.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            out.push(':');
            out.push_str(&value.to_json());
        }
        out.push('}');
        out
    }
}

/// Structured outcome of a [`Study`]: one [`CellReport`] per grid cell,
/// in deterministic grid order, plus free-form notes a driver may attach.
#[derive(Debug, Clone)]
pub struct StudyReport {
    /// The study/experiment name.
    pub experiment: String,
    /// Name of the backend that executed the cells.
    pub backend: String,
    /// Axis names, in declaration order (the coordinate key order).
    pub axes: Vec<String>,
    /// Per-cell reports, in grid expansion order.
    pub cells: Vec<CellReport>,
    /// Free-form narrative attached by the driver (rendered after the
    /// comparison table; not serialized).
    pub notes: String,
}

impl StudyReport {
    /// Appends narrative text rendered after the comparison table.
    pub fn push_notes(&mut self, text: &str) {
        if !self.notes.is_empty() && !self.notes.ends_with('\n') {
            self.notes.push('\n');
        }
        self.notes.push_str(text);
    }

    /// Concatenates sub-studies (same axes, same backend) into one report
    /// under `experiment`, renumbering cells sequentially. Lets a driver
    /// compose a study from grids run under different replication
    /// policies (tag the parts with a policy axis to keep cells
    /// distinguishable).
    pub fn concat(
        experiment: impl Into<String>,
        parts: Vec<StudyReport>,
    ) -> Result<StudyReport, RocketError> {
        let mut parts = parts.into_iter();
        let Some(first) = parts.next() else {
            return Err(RocketError::Config("concat of zero studies".into()));
        };
        let mut out = StudyReport {
            experiment: experiment.into(),
            ..first
        };
        for part in parts {
            if part.axes != out.axes {
                return Err(RocketError::Config(format!(
                    "cannot concat studies with different axes: {:?} vs {:?}",
                    out.axes, part.axes
                )));
            }
            if part.backend != out.backend {
                return Err(RocketError::Config(format!(
                    "cannot concat studies from different backends: {} vs {}",
                    out.backend, part.backend
                )));
            }
            out.cells.extend(part.cells);
            if !part.notes.is_empty() {
                out.push_notes(&part.notes);
            }
        }
        for (i, cell) in out.cells.iter_mut().enumerate() {
            cell.cell = i;
        }
        Ok(out)
    }

    /// Indices of cells that ran degraded (fault handling touched them).
    /// Empty for a healthy study.
    pub fn degraded_cells(&self) -> Vec<usize> {
        self.cells
            .iter()
            .filter(|c| c.degraded())
            .map(|c| c.cell)
            .collect()
    }

    /// Serializes the whole study as one JSON object (cells inline; notes
    /// and scenarios are presentation/config, not results, and are
    /// omitted).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"experiment\":");
        json::push_str(&mut out, &self.experiment);
        out.push_str(",\"backend\":");
        json::push_str(&mut out, &self.backend);
        out.push_str(",\"axes\":[");
        for (i, axis) in self.axes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, axis);
        }
        out.push_str("],\"cells\":[");
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"cell\":{},\"coords\":{},\"report\":{}",
                cell.cell,
                cell.coords_json(),
                cell.report.to_json()
            ));
            if let Some(perf) = &cell.perf {
                out.push_str(&format!(",\"perf\":{}", perf.to_json()));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// One self-contained JSON object per cell — the JSON-Lines records
    /// `repro --json` appends (`{"experiment":…,"cell":…,"coords":…,
    /// "report":…}`).
    pub fn json_lines(&self) -> Vec<String> {
        self.cells
            .iter()
            .map(|cell| {
                let mut out = String::with_capacity(1024);
                out.push_str("{\"experiment\":");
                json::push_str(&mut out, &self.experiment);
                out.push_str(&format!(
                    ",\"cell\":{},\"coords\":{},\"report\":{}",
                    cell.cell,
                    cell.coords_json(),
                    cell.report.to_json()
                ));
                if let Some(perf) = &cell.perf {
                    out.push_str(&format!(",\"perf\":{}", perf.to_json()));
                }
                out.push('}');
                out
            })
            .collect()
    }

    /// Renders the study as CSV: one row per cell, one column per axis,
    /// then the headline replication statistics.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("experiment,cell");
        for axis in &self.axes {
            out.push(',');
            out.push_str(&csv_field(axis));
        }
        out.push_str(
            ",replications,pairs,elapsed_s_mean,elapsed_s_ci95,r_factor_mean,\
             r_factor_ci95,throughput_mean,throughput_ci95,loads_mean,degraded",
        );
        // Perf columns appear only when the study recorded perf logs, so
        // perf-less CSV output is byte-identical to earlier versions.
        let with_perf = self.cells.iter().any(|c| c.perf.is_some());
        if with_perf {
            out.push_str(
                ",read_p50_ns,read_p99_ns,parse_p50_ns,parse_p99_ns,compare_p50_ns,\
                 compare_p99_ns,steals_per_sec,probes_per_sec",
            );
        }
        out.push('\n');
        for cell in &self.cells {
            out.push_str(&csv_field(&self.experiment));
            out.push_str(&format!(",{}", cell.cell));
            for axis in &self.axes {
                out.push(',');
                let value = cell.coord(axis).map(|v| v.to_string()).unwrap_or_default();
                out.push_str(&csv_field(&value));
            }
            let r = &cell.report;
            out.push_str(&format!(
                ",{},{},{},{},{},{},{},{},{},{}",
                r.replications(),
                cell.run().pairs,
                json::num(r.elapsed.mean()),
                json::num(r.elapsed.ci95_half_width()),
                json::num(r.r_factor.mean()),
                json::num(r.r_factor.ci95_half_width()),
                json::num(r.throughput.mean()),
                json::num(r.throughput.ci95_half_width()),
                json::num(r.loads.mean()),
                cell.degraded(),
            ));
            if with_perf {
                let stage = |kind: PerfKind| {
                    cell.perf
                        .as_ref()
                        .and_then(|p| p.stage(kind))
                        .map(|s| format!("{},{}", s.p50_ns, s.p99_ns))
                        .unwrap_or_else(|| ",".into())
                };
                out.push_str(&format!(
                    ",{},{},{},{},{}",
                    stage(PerfKind::Read),
                    stage(PerfKind::Parse),
                    stage(PerfKind::Compare),
                    cell.perf
                        .as_ref()
                        .map(|p| json::num(p.steal_per_sec).to_string())
                        .unwrap_or_default(),
                    cell.perf
                        .as_ref()
                        .map(|p| json::num(p.probe_per_sec).to_string())
                        .unwrap_or_default(),
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the comparison table: one row per cell, axis coordinates
    /// first, then runtime / R / throughput (`mean ± 95% CI` when a cell
    /// has more than one replication).
    pub fn table(&self) -> String {
        let mut header: Vec<String> = vec!["cell".into()];
        header.extend(self.axes.iter().cloned());
        header.extend(
            ["reps", "runtime (s)", "R", "pairs/s"]
                .iter()
                .map(|s| s.to_string()),
        );
        let mut rows = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let r = &cell.report;
            let stat = |s: &rocket_stats::OnlineStats, digits: usize| {
                if r.replications() > 1 {
                    s.avg_pm_ci95()
                } else {
                    format!("{:.*}", digits, s.mean())
                }
            };
            let mut row = vec![cell.cell.to_string()];
            for axis in &self.axes {
                row.push(cell.coord(axis).map(|v| v.to_string()).unwrap_or_default());
            }
            row.push(r.replications().to_string());
            row.push(stat(&r.elapsed, 3));
            row.push(stat(&r.r_factor, 2));
            row.push(stat(&r.throughput, 1));
            rows.push(row);
        }
        render_table(&header, &rows)
    }

    /// Full human-readable rendering: header line, comparison table, then
    /// the driver's notes.
    pub fn render(&self) -> String {
        let mut out = format!(
            "study {} — backend {}, {} cell{} over axes [{}]\n\n{}",
            self.experiment,
            self.backend,
            self.cells.len(),
            if self.cells.len() == 1 { "" } else { "s" },
            self.axes.join(" × "),
            self.table(),
        );
        if !self.notes.is_empty() {
            out.push('\n');
            out.push_str(&self.notes);
            if !out.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }
}

/// Right-aligned fixed-width table rendering: header row, dash
/// separator, two-space column gap. The one table renderer of the
/// workspace — [`StudyReport::table`] uses it, and the experiment
/// harness's `Table` builder delegates to it.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], out: &mut String| {
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            for _ in 0..w.saturating_sub(cell.chars().count()) {
                out.push(' ');
            }
            out.push_str(cell);
        }
        out.push('\n');
    };
    fmt_row(header, &mut out);
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        fmt_row(row, &mut out);
    }
    out
}

/// `s` as one CSV field: quoted, with `"` doubled, when it holds a comma,
/// a quote, a CR or an LF (RFC 4180). The one CSV escaper of the
/// workspace — [`StudyReport::to_csv`] uses it, and so does the experiment
/// harness's `Table` builder.
pub fn csv_field(s: &str) -> Cow<'_, str> {
    if s.contains([',', '"', '\r', '\n']) {
        Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::NodeSpec;
    use crate::sweep::Axis;

    /// A deterministic toy backend: "runtime" is a pure function of the
    /// scenario (nodes, cache flag, seed), so studies are reproducible.
    struct ToyBackend;

    impl Backend for ToyBackend {
        fn name(&self) -> &'static str {
            "toy"
        }

        fn run(&self, s: &Scenario) -> Result<RunReport, RocketError> {
            s.validate().map_err(RocketError::Config)?;
            let nodes = s.nodes.len() as f64;
            let cache = if s.distributed_cache { 0.8 } else { 1.0 };
            let jitter = (s.seed % 7) as f64 * 0.01;
            Ok(RunReport {
                backend: "toy",
                elapsed: 10.0 * cache / nodes + jitter,
                items: s.workload.items,
                pairs: s.workload.pairs(),
                failed_pairs: 0,
                loads: s.workload.items * s.nodes.len() as u64,
                remote_fetches: 0,
                io_bytes: 0,
                net_bytes: 0,
                net_msgs: 0,
                steals: 0,
                busy: Default::default(),
                device_cache: Default::default(),
                host_cache: Default::default(),
                directory: Default::default(),
                pairs_per_node: vec![s.workload.pairs()],
                sim_shards: 0,
                sim_windows: 0,
                degraded: false,
            })
        }
    }

    fn sweep_2x2() -> Sweep {
        let base = Scenario::builder()
            .items(16)
            .node(NodeSpec::uniform(1, 4, 8))
            .seed(5)
            .build();
        Sweep::over(base)
            .axis(Axis::nodes([1, 2]))
            .axis(Axis::distributed_cache([true, false]))
            .try_build()
            .unwrap()
    }

    #[test]
    fn once_policy_equals_direct_runs() {
        let sweep = sweep_2x2();
        let study = Study::new("toy-grid").run(&ToyBackend, &sweep).unwrap();
        assert_eq!(study.cells.len(), 4);
        assert_eq!(study.axes, vec!["nodes", "distributed_cache"]);
        for cell in &study.cells {
            let direct = ToyBackend.run(&cell.scenario).unwrap();
            assert_eq!(format!("{:?}", cell.run()), format!("{direct:?}"));
            assert_eq!(cell.report.replications(), 1);
            assert_eq!(cell.report.seeds, vec![cell.scenario.seed]);
        }
    }

    #[test]
    fn report_is_identical_across_cell_parallelism() {
        let sweep = sweep_2x2();
        let serial = Study::new("p").threads(1).run(&ToyBackend, &sweep).unwrap();
        for threads in [2, 4, 0] {
            let parallel = Study::new("p")
                .threads(threads)
                .run(&ToyBackend, &sweep)
                .unwrap();
            assert_eq!(
                format!("{serial:?}"),
                format!("{parallel:?}"),
                "diverged at {threads} cell threads"
            );
        }
    }

    #[test]
    fn fixed_policy_replicates_each_cell() {
        let sweep = sweep_2x2();
        let study = Study::new("reps")
            .replication(ReplicationPolicy::fixed(3))
            .run(&ToyBackend, &sweep)
            .unwrap();
        for cell in &study.cells {
            assert_eq!(cell.report.replications(), 3);
            assert_eq!(
                cell.report.seeds,
                Replications::new(cell.scenario.seed, 3).seeds()
            );
        }
    }

    #[test]
    fn zero_replications_rejected() {
        let err = Study::new("bad")
            .replication(ReplicationPolicy::fixed(0))
            .run(&ToyBackend, &sweep_2x2())
            .unwrap_err();
        assert!(err.to_string().contains("cell 0"), "{err}");
    }

    #[test]
    fn csv_has_axis_columns_and_one_row_per_cell() {
        let study = Study::new("grid").run(&ToyBackend, &sweep_2x2()).unwrap();
        let csv = study.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(
            header.starts_with("experiment,cell,nodes,distributed_cache,replications,pairs"),
            "{header}"
        );
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 4);
        assert!(rows[0].starts_with("grid,0,1,true,1,120"), "{}", rows[0]);
        assert!(rows[3].starts_with("grid,3,2,false,1,120"), "{}", rows[3]);
    }

    #[test]
    fn json_and_lines_are_balanced_and_coordinated() {
        let study = Study::new("grid").run(&ToyBackend, &sweep_2x2()).unwrap();
        let json = study.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"experiment\":\"grid\""));
        assert!(json.contains("\"axes\":[\"nodes\",\"distributed_cache\"]"));
        assert!(json.contains("\"coords\":{\"nodes\":2,\"distributed_cache\":false}"));
        let lines = study.json_lines();
        assert_eq!(lines.len(), 4);
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"cell\":{i}")), "{line}");
            assert!(line.contains("\"coords\":{\"nodes\":"), "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn degraded_cells_surface_in_csv_and_lookup() {
        let mut study = Study::new("grid").run(&ToyBackend, &sweep_2x2()).unwrap();
        assert!(study.degraded_cells().is_empty());
        study.cells[2].report.runs[0].degraded = true;
        assert_eq!(study.degraded_cells(), vec![2]);
        assert!(study.cells[2].degraded());
        let csv = study.to_csv();
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().ends_with(",degraded"));
        let rows: Vec<&str> = lines.collect();
        assert!(rows[0].ends_with(",false"), "{}", rows[0]);
        assert!(rows[2].ends_with(",true"), "{}", rows[2]);
    }

    #[test]
    fn render_includes_table_and_notes() {
        let mut study = Study::new("grid").run(&ToyBackend, &sweep_2x2()).unwrap();
        study.push_notes("Shape check: cache on is faster.");
        let text = study.render();
        assert!(text.contains("study grid — backend toy, 4 cells"));
        assert!(text.contains("nodes × distributed_cache"));
        assert!(text.contains("runtime (s)"));
        assert!(text.contains("Shape check"), "{text}");
    }

    #[test]
    fn concat_merges_compatible_studies_and_rejects_mismatches() {
        let sweep = sweep_2x2();
        let a = Study::new("a").run(&ToyBackend, &sweep).unwrap();
        let b = Study::new("b").run(&ToyBackend, &sweep).unwrap();
        let merged = StudyReport::concat("ab", vec![a.clone(), b.clone()]).unwrap();
        assert_eq!(merged.experiment, "ab");
        assert_eq!(merged.cells.len(), 8);
        let indices: Vec<usize> = merged.cells.iter().map(|c| c.cell).collect();
        assert_eq!(indices, (0..8).collect::<Vec<_>>());

        let mut other = b.clone();
        other.axes = vec!["different".into()];
        assert!(StudyReport::concat("bad", vec![a.clone(), other]).is_err());
        let mut other = b;
        other.backend = "elsewhere".into();
        assert!(StudyReport::concat("bad", vec![a, other]).is_err());
        assert!(StudyReport::concat("empty", vec![]).is_err());
    }

    #[test]
    fn coord_lookup() {
        let study = Study::new("grid").run(&ToyBackend, &sweep_2x2()).unwrap();
        let cell = &study.cells[1];
        assert_eq!(cell.coord("nodes"), Some(&AxisValue::U64(1)));
        assert_eq!(
            cell.coord("distributed_cache"),
            Some(&AxisValue::Bool(false))
        );
        assert_eq!(cell.coord("missing"), None);
    }
}
