//! Drivers reproducing every table and figure of the paper's evaluation
//! (§6), expressed as first-class parameter sweeps.
//!
//! Every driver describes its runs as a [`Sweep`] — a base [`Scenario`]
//! plus named axes — and executes the grid through a [`Study`] on the
//! unified [`Backend`] API: the multi-node experiments run on
//! [`SimBackend`] (the discrete-event simulator parameterized with the
//! paper's Table 1 stage times); `table1` and `transports` run the *real*
//! applications through [`ThreadedBackend`] on synthetic data. Each
//! driver returns the structured [`StudyReport`] (one record per grid
//! cell, tagged with its axis coordinates); the figure-specific narrative
//! and CSV series ride along as report notes and files under the results
//! directory. Formatting and persistence of the study itself (text
//! rendering, JSON-Lines, CSV) belong to the caller — see the `repro`
//! binary.
//!
//! Data-set sizes are divided by a per-experiment scale factor (cache
//! slots scale along, preserving the slots-to-items ratio that the reuse
//! factor R depends on); [`ExpOptions::extra_scale`] divides further and
//! applies to **every** experiment, including the threaded-runtime ones
//! (synthetic data-set sizes shrink by the same factor, floored so every
//! experiment stays meaningful).

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use rocket_apps::{profiles, WorkloadProfile};
use rocket_apps::{BioApp, BioConfig, BioDataset};
use rocket_apps::{ForensicsApp, ForensicsConfig, ForensicsDataset};
use rocket_apps::{MicroscopyApp, MicroscopyConfig, MicroscopyDataset};
use rocket_core::{
    Application, Axis, AxisValue, Backend, NodeSpec, ReplicationPolicy, RocketError, RunReport,
    Scenario, Study, StudyReport, Sweep, ThreadedBackend, TransportKind,
};
use rocket_gpu::DeviceProfile;
use rocket_sim::{model, SimBackend};
use rocket_stats::{Distribution, Histogram, OnlineStats, Xoshiro256};
use rocket_trace::{PerfKind, PerfLog, PerfQuery};

use crate::anchors;
use crate::util::{fmt_bytes, fmt_secs, write_result, Table};
use rocket_core::clock::stopwatch;

/// One reproducible experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table 1: application characteristics.
    Table1,
    /// Fig 7: comparison-kernel run-time histograms.
    Fig7,
    /// Fig 8: per-thread busy time vs run time and T_min, one node.
    Fig8,
    /// Fig 9: efficiency and R vs cache size.
    Fig9,
    /// Fig 10: per-thread time for shrinking host caches (forensics).
    Fig10,
    /// Fig 11: distributed-cache hits per hop, h = 3, 16 nodes.
    Fig11,
    /// Fig 12: speedup / efficiency / R / I-O vs node count, cache on+off.
    Fig12,
    /// Fig 13: heterogeneous nodes, individual vs combined throughput.
    Fig13,
    /// Fig 14: per-GPU throughput over time (microscopy, heterogeneous).
    Fig14,
    /// Fig 15: large-scale run, 1–48 nodes × 2 GPUs.
    Fig15,
    /// Cartesius-scale 96-GPU distributed-cache sweep with replicated
    /// confidence intervals (beyond the paper's figures).
    Cartesius96,
    /// Threaded runtime over both cluster transports (in-process channels
    /// vs loopback TCP sockets): same results, measured wire traffic.
    Transports,
    /// §6.1 model sanity: closed form vs simulation at R = 1.
    Model,
    /// Sharded-DES scaling on the 1024-node bench anchor: wall-clock vs
    /// shard count, identical virtual-time results (beyond the paper).
    Scale1k,
}

impl Experiment {
    /// One-line description (what `repro --list` prints).
    pub fn description(self) -> &'static str {
        match self {
            Experiment::Table1 => {
                "Table 1: application characteristics (real apps, threaded runtime)"
            }
            Experiment::Fig7 => "Fig 7: comparison-kernel run-time histograms per application",
            Experiment::Fig8 => "Fig 8: per-thread busy time vs run time and T_min, one node",
            Experiment::Fig9 => "Fig 9: system efficiency and R vs cache size, one node",
            Experiment::Fig10 => "Fig 10: per-thread time for shrinking host caches (forensics)",
            Experiment::Fig11 => "Fig 11: distributed-cache hits per hop (h = 3, 16 nodes)",
            Experiment::Fig12 => "Fig 12: speedup/efficiency/R/IO vs node count, cache on+off",
            Experiment::Fig13 => "Fig 13: heterogeneous nodes, individual vs combined throughput",
            Experiment::Fig14 => "Fig 14: per-GPU throughput over time (microscopy, 7 GPUs)",
            Experiment::Fig15 => "Fig 15: large-scale run, 1-48 nodes x 2 GPUs (Cartesius)",
            Experiment::Cartesius96 => {
                "Cartesius 96-GPU sweep with fixed + adaptive replication CIs"
            }
            Experiment::Transports => {
                "threaded runtime over channels vs sockets: same results, wire traffic"
            }
            Experiment::Model => "S6.1 model sanity: closed form vs simulation at R = 1",
            Experiment::Scale1k => "sharded DES on the 1024-node anchor: wall-clock vs shard count",
        }
    }
}

/// All experiments with their CLI names.
pub const ALL_EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", Experiment::Table1),
    ("fig7", Experiment::Fig7),
    ("fig8", Experiment::Fig8),
    ("fig9", Experiment::Fig9),
    ("fig10", Experiment::Fig10),
    ("fig11", Experiment::Fig11),
    ("fig12", Experiment::Fig12),
    ("fig13", Experiment::Fig13),
    ("fig14", Experiment::Fig14),
    ("fig15", Experiment::Fig15),
    ("cartesius96", Experiment::Cartesius96),
    ("transports", Experiment::Transports),
    ("model", Experiment::Model),
    ("scale1k", Experiment::Scale1k),
];

/// Options shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Extra scale divisor on top of each experiment's default (1 = the
    /// documented defaults). Applies to every experiment: simulated
    /// workloads shrink via [`WorkloadProfile::scaled`], synthetic
    /// data-set sizes of the threaded experiments divide by the same
    /// factor (floored to stay runnable), and fig7's sample count scales
    /// down too.
    pub extra_scale: u64,
    /// Output directory for figure-specific CSV series and artifacts.
    pub out_dir: PathBuf,
    /// Seed for every randomized component.
    pub seed: u64,
    /// When set, every study records per-cell perf logs into this
    /// directory (see [`Study::perf_log_dir`]) and the report carries
    /// per-cell rollups. `None` (the default) leaves instrumentation
    /// disabled — the zero-cost path.
    pub perf_log: Option<PathBuf>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            extra_scale: 1,
            out_dir: PathBuf::from("results"),
            seed: 0xC0FFEE,
            perf_log: None,
        }
    }
}

/// A [`Study`] named `name` with the shared experiment options applied:
/// the perf-log directory when `--perf-log` is set, nothing otherwise.
/// Experiments that build several studies pass distinct names so their
/// perf-log files never collide in the shared directory.
fn study(name: impl Into<String>, opts: &ExpOptions) -> Study {
    let mut s = Study::new(name);
    if let Some(dir) = &opts.perf_log {
        s = s.perf_log_dir(dir);
    }
    s
}

/// Default data-set scale divisors (relative to the paper's full sizes)
/// chosen so each experiment runs in seconds-to-minutes on a laptop core.
fn default_scale(w: &WorkloadProfile) -> u64 {
    match w.name {
        "forensics" => 10,
        "bioinformatics" => 5,
        _ => 1,
    }
}

/// The effective scale divisor for a workload: its per-app default times
/// the extra CLI factor. Keyed on the profile *name* only — the one field
/// [`WorkloadProfile::scaled`] is guaranteed to preserve — so drivers may
/// re-derive the scale from a cell's already-scaled workload (axis
/// closures do exactly that). Keep `default_scale` name-keyed.
fn scale_of(w: &WorkloadProfile, extra: u64) -> u64 {
    default_scale(w) * extra.max(1)
}

fn scaled(w: WorkloadProfile, opts: &ExpOptions) -> (WorkloadProfile, u64) {
    let scale = scale_of(&w, opts.extra_scale);
    (w.scaled(scale), scale)
}

/// Device-cache slots a GPU with `mem_bytes` fits at the paper's scale,
/// mapped into the scaled data set (slot count shrinks with the same
/// factor, preserving the slots/items ratio).
fn slots_for(mem_bytes: f64, w: &WorkloadProfile, scale: u64) -> usize {
    ((mem_bytes / w.item_bytes as f64 / scale as f64) as usize).max(2)
}

/// The paper's single-node baseline: one TitanX Maxwell with ~11 GB of
/// usable device memory and a 40 GB host cache.
fn baseline_node(w: &WorkloadProfile, scale: u64) -> NodeSpec {
    NodeSpec {
        gpus: vec![DeviceProfile::titanx_maxwell()],
        device_slots: slots_for(11e9, w, scale),
        host_slots: slots_for(40e9, w, scale),
    }
}

/// A simulation scenario over explicit (possibly heterogeneous) nodes with
/// the experiment seed applied.
fn scenario_of(w: &WorkloadProfile, nodes: Vec<NodeSpec>, opts: &ExpOptions) -> Scenario {
    let mut b = Scenario::builder().workload(w.clone()).seed(opts.seed);
    for node in nodes {
        b = b.node(node);
    }
    b.build()
}

/// Base scenario for app-axis simulator sweeps: the first profile on its
/// baseline node (every `app` axis point replaces workload + topology).
fn sim_base(opts: &ExpOptions) -> Scenario {
    let (w, scale) = scaled(profiles::forensics(), opts);
    scenario_of(&w, vec![baseline_node(&w, scale)], opts)
}

/// The `app` axis all per-application simulator sweeps share: each point
/// installs one paper workload (scaled) and its single baseline node.
/// Later axes (node counts, cache sizes, …) mutate from there.
fn app_axis(opts: &ExpOptions) -> Axis {
    let points: Vec<_> = profiles::all()
        .into_iter()
        .map(|w| {
            let (w, scale) = scaled(w, opts);
            let node = baseline_node(&w, scale);
            (w.name, w, node)
        })
        .collect();
    Axis::points(
        "app",
        points.into_iter().map(|(name, w, node)| {
            (AxisValue::from(name), move |s: &mut Scenario| {
                s.workload = w.clone();
                s.nodes = vec![node.clone()];
            })
        }),
    )
}

/// Runs one experiment and returns its structured study report (one
/// record per grid cell). Figure CSV series land under
/// [`ExpOptions::out_dir`]; text rendering and study persistence belong
/// to the caller ([`StudyReport::render`] / [`StudyReport::json_lines`] /
/// [`StudyReport::to_csv`]).
pub fn run_experiment(exp: Experiment, opts: &ExpOptions) -> StudyReport {
    match exp {
        Experiment::Table1 => table1(opts),
        Experiment::Fig7 => fig7(opts),
        Experiment::Fig8 => fig8(opts),
        Experiment::Fig9 => fig9(opts),
        Experiment::Fig10 => fig10(opts),
        Experiment::Fig11 => fig11(opts),
        Experiment::Fig12 => fig12(opts),
        Experiment::Fig13 => fig13(opts),
        Experiment::Fig14 => fig14(opts),
        Experiment::Fig15 => fig15(opts),
        Experiment::Cartesius96 => cartesius96(opts),
        Experiment::Transports => transports(opts),
        Experiment::Model => model_check(opts),
        Experiment::Scale1k => scale1k(opts),
    }
}

// ---------------------------------------------------------------------------
// Table 1 — real applications through the threaded runtime
// ---------------------------------------------------------------------------

/// Per-application facts Table 1 reports beyond the unified run report
/// (per-stage duration statistics come from the run's perf log).
struct AppRun {
    name: &'static str,
    items: u64,
    raw_bytes: u64,
    item_bytes: u64,
    pairs: u64,
    parse: OnlineStats,
    preprocess: Option<OnlineStats>,
    compare: OnlineStats,
    r_factor: f64,
    failed: usize,
}

/// One backend over all three real applications, dispatching on the
/// scenario's workload name — what lets Table 1 run as a single study
/// with an `app` axis even though each application is a different
/// [`ThreadedBackend`] type. Each run stashes the figure-specific
/// [`AppRun`] facts (from the typed report and the perf log) for the driver.
struct Table1Backend {
    forensics: ThreadedBackend<ForensicsApp>,
    bio: ThreadedBackend<BioApp>,
    micro: ThreadedBackend<MicroscopyApp>,
    runs: Mutex<Vec<AppRun>>,
}

impl Table1Backend {
    fn run_one<A: Application>(
        &self,
        backend: &ThreadedBackend<A>,
        scenario: &Scenario,
    ) -> Result<RunReport, RocketError>
    where
        A::Output: std::fmt::Debug,
    {
        let perf = PerfLog::enabled();
        let app_report = backend.run_app_with_perf(scenario, &perf)?;
        let records = perf.take();
        let stat_of = |kind: PerfKind| {
            let mut s = OnlineStats::new();
            for rec in PerfQuery::new(&records).kind(kind).iter() {
                s.push(rec.value as f64 / 1e6); // ms
            }
            s
        };
        let app = backend.app();
        self.runs.lock().expect("table1 stash").push(AppRun {
            name: scenario.workload.name,
            items: app.item_count(),
            raw_bytes: backend.store().total_bytes(),
            item_bytes: app.item_bytes() as u64,
            pairs: app_report.outputs.len() as u64,
            parse: stat_of(PerfKind::Parse),
            preprocess: app.has_preprocess().then(|| stat_of(PerfKind::Preprocess)),
            compare: stat_of(PerfKind::Compare),
            r_factor: app_report.r_factor(),
            failed: app_report.failed().len(),
        });
        Ok(app_report.unified(scenario))
    }
}

impl Backend for Table1Backend {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn run(&self, scenario: &Scenario) -> Result<RunReport, RocketError> {
        match scenario.workload.name {
            "forensics" => self.run_one(&self.forensics, scenario),
            "bioinformatics" => self.run_one(&self.bio, scenario),
            "microscopy" => self.run_one(&self.micro, scenario),
            other => Err(RocketError::Config(format!(
                "no application registered for workload `{other}`"
            ))),
        }
    }
}

fn table1(opts: &ExpOptions) -> StudyReport {
    let extra = opts.extra_scale.max(1);
    let f_cfg = ForensicsConfig {
        images: (24 / extra).max(8),
        cameras: 4,
        width: 64,
        height: 64,
        seed: opts.seed,
        ..Default::default()
    };
    let b_cfg = BioConfig {
        species: (16 / extra).max(8),
        clusters: 4,
        proteome_len: 3000,
        seed: opts.seed,
        ..Default::default()
    };
    let m_cfg = MicroscopyConfig {
        particles: (12 / extra).max(6),
        seed: opts.seed,
        ..Default::default()
    };

    let f_ds = ForensicsDataset::generate(f_cfg.clone());
    let b_ds = BioDataset::generate(b_cfg.clone());
    let m_ds = MicroscopyDataset::generate(m_cfg.clone());
    let backend = Table1Backend {
        forensics: ThreadedBackend::new(Arc::new(ForensicsApp::new(&f_cfg)), Arc::new(f_ds.store)),
        bio: ThreadedBackend::new(Arc::new(BioApp::new(&b_cfg)), Arc::new(b_ds.store)),
        micro: ThreadedBackend::new(Arc::new(MicroscopyApp::new(&m_cfg)), Arc::new(m_ds.store)),
        runs: Mutex::new(Vec::new()),
    };

    // One cell per application; each point installs the app's item count
    // and the single-node topology the old driver used.
    let apps: [(&'static str, u64); 3] = [
        ("forensics", backend.forensics.app().item_count()),
        ("bioinformatics", backend.bio.app().item_count()),
        ("microscopy", backend.micro.app().item_count()),
    ];
    let app_points = Axis::points(
        "app",
        apps.into_iter().map(|(name, n)| {
            (AxisValue::from(name), move |s: &mut Scenario| {
                s.workload = rocket_core::WorkloadProfile::items_only(n);
                s.workload.name = name;
                s.nodes = vec![NodeSpec::uniform(1, (n as usize / 2).max(4), n as usize)];
            })
        }),
    );
    let base = Scenario::builder()
        .items(apps[0].1)
        .node(NodeSpec::uniform(
            1,
            (apps[0].1 as usize / 2).max(4),
            apps[0].1 as usize,
        ))
        .job_limit(16)
        .cpu_threads(2)
        .seed(opts.seed)
        .build();
    let sweep = Sweep::over(base)
        .axis(app_points)
        .try_build()
        .expect("table1 sweep");
    let mut report = study("table1", opts)
        .run(&backend, &sweep)
        .expect("table1 study");

    // Column order is fixed regardless of which order the cells ran in.
    let mut runs = backend.runs.into_inner().expect("table1 stash");
    runs.sort_by_key(|r| apps.iter().position(|&(name, _)| name == r.name));
    let mut t = Table::new(&[
        "characteristic",
        "forensics",
        "bioinformatics",
        "microscopy",
    ]);
    let col = |f: &dyn Fn(&AppRun) -> String| -> Vec<String> { runs.iter().map(f).collect() };
    let mut push = |label: &str, f: &dyn Fn(&AppRun) -> String| {
        let vals = col(f);
        t.row(vec![
            label.to_string(),
            vals[0].clone(),
            vals[1].clone(),
            vals[2].clone(),
        ]);
    };
    push("no. of input files (n)", &|r| r.items.to_string());
    push("raw data on disk", &|r| fmt_bytes(r.raw_bytes));
    push("preprocessed in memory", &|r| {
        fmt_bytes(r.items * r.item_bytes)
    });
    push("no. of pairs", &|r| r.pairs.to_string());
    push("cache slot size", &|r| fmt_bytes(r.item_bytes));
    push("parse CPU (ms avg±std)", &|r| r.parse.avg_pm_std());
    push("preprocess GPU (ms)", &|r| {
        r.preprocess
            .as_ref()
            .map_or("N/A".into(), |s| s.avg_pm_std())
    });
    push("compare GPU (ms)", &|r| r.compare.avg_pm_std());
    push("R factor", &|r| format!("{:.2}", r.r_factor));
    push("failed pairs", &|r| r.failed.to_string());

    write_result(&opts.out_dir, "table1.csv", &t.to_csv());
    report.push_notes(&format!(
        "Table 1 — application characteristics (synthetic data, threaded runtime)\n\
         Paper sizes: n = 4980 / 2500 / 256; synthetic runs are scaled down\n\
         but exercise the full pipeline with real kernels.\n\n{}",
        t.render()
    ));
    report
}

// ---------------------------------------------------------------------------
// Fig 7 — comparison-time histograms
// ---------------------------------------------------------------------------

fn fig7(opts: &ExpOptions) -> StudyReport {
    let sweep = Sweep::over(sim_base(opts))
        .axis(app_axis(opts))
        .try_build()
        .expect("fig7 sweep");
    let mut report = study("fig7", opts)
        .run(&SimBackend::new(), &sweep)
        .expect("fig7 study");

    // The figure itself is sampled straight from the paper's Table 1
    // moments (unscaled profiles); the study cells complement it with one
    // simulated baseline run per application.
    let samples_n = (50_000 / opts.extra_scale.max(1)).max(2_000);
    let mut out = String::from(
        "Fig 7 — distribution of comparison-kernel run times\n\
         (profile-parameterized samples; paper Table 1 moments)\n\n",
    );
    let mut csv = String::from("app,bin_center_ms,count\n");
    for w in profiles::all() {
        let mut rng = Xoshiro256::seed_from(opts.seed ^ w.items);
        let mut stats = OnlineStats::new();
        let samples: Vec<f64> = (0..samples_n)
            .map(|_| w.compare.sample(&mut rng) * 1e3)
            .collect();
        for &s in &samples {
            stats.push(s);
        }
        let hi = stats.max() * 1.02;
        let mut hist = Histogram::new(0.0, hi.max(1e-6), 40);
        for &s in &samples {
            hist.push(s);
        }
        out.push_str(&format!(
            "{:<16} mean {:>8.2} ms  std {:>8.2} ms  min {:>7.2}  max {:>8.2}\n  |{}|\n  0 ms {}{:.0} ms\n\n",
            w.name,
            stats.mean(),
            stats.std(),
            stats.min(),
            stats.max(),
            hist.ascii(1),
            " ".repeat(34),
            hi,
        ));
        for (center, count) in hist.centers() {
            csv.push_str(&format!("{},{:.4},{}\n", w.name, center, count));
        }
    }
    out.push_str(
        "Shape check: forensics is tightly peaked (regular); bioinformatics is\n\
         right-skewed; microscopy is heavy-tailed over ~0–2000 ms (irregular).\n",
    );
    write_result(&opts.out_dir, "fig7.csv", &csv);
    report.push_notes(&out);
    report
}

// ---------------------------------------------------------------------------
// Fig 8 / Fig 10 — per-thread busy time on one node
// ---------------------------------------------------------------------------

fn fig8(opts: &ExpOptions) -> StudyReport {
    let sweep = Sweep::over(sim_base(opts))
        .axis(app_axis(opts))
        .try_build()
        .expect("fig8 sweep");
    let mut report = study("fig8", opts)
        .run(&SimBackend::new(), &sweep)
        .expect("fig8 study");

    let mut out =
        String::from("Fig 8 — processing time per thread class, one node (TitanX Maxwell)\n\n");
    let mut csv = String::from("app,class,busy_s,runtime_s,tmin_s\n");
    for cell in &report.cells {
        let w = &cell.scenario.workload;
        let scale = scale_of(w, opts.extra_scale);
        let r = cell.run();
        let tmin = model::t_min(w);
        let eff = model::system_efficiency(w, &cell.scenario.all_gpus(), r.elapsed);
        out.push_str(&format!(
            "{} (scale 1/{scale}): runtime {} | T_min {} | efficiency {:.1}%\n",
            w.name,
            fmt_secs(r.elapsed),
            fmt_secs(tmin),
            eff * 100.0
        ));
        let mut t = Table::new(&["thread class", "busy", "fraction of runtime"]);
        for (label, busy) in r.busy.rows() {
            t.row(vec![
                label.to_string(),
                fmt_secs(busy),
                format!("{:.1}%", busy / r.elapsed * 100.0),
            ]);
            csv.push_str(&format!(
                "{},{},{:.4},{:.4},{:.4}\n",
                w.name, label, busy, r.elapsed, tmin
            ));
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "Shape check: GPU busy ≈ overall runtime for every app (asynchronous\n\
         processing hides CPU, transfer, and I/O time behind the GPU).\n",
    );
    write_result(&opts.out_dir, "fig8.csv", &csv);
    report.push_notes(&out);
    report
}

fn fig10(opts: &ExpOptions) -> StudyReport {
    let (w, scale) = scaled(profiles::forensics(), opts);
    let sizes_gb = [20.0f64, 10.0, 5.0];
    let cache_axis = Axis::points(
        "host_cache_gb",
        sizes_gb.into_iter().map(|gb| {
            let w = w.clone();
            (AxisValue::from(gb), move |s: &mut Scenario| {
                s.nodes = vec![NodeSpec {
                    gpus: vec![DeviceProfile::titanx_maxwell()],
                    device_slots: slots_for(11e9, &w, scale).min(slots_for(gb * 1e9, &w, scale)),
                    host_slots: slots_for(gb * 1e9, &w, scale),
                }];
            })
        }),
    );
    let base = scenario_of(&w, vec![baseline_node(&w, scale)], opts);
    let sweep = Sweep::over(base)
        .axis(cache_axis)
        .try_build()
        .expect("fig10 sweep");
    let mut report = study("fig10", opts)
        .run(&SimBackend::new(), &sweep)
        .expect("fig10 study");

    let mut out =
        format!("Fig 10 — forensics per-thread time vs host cache size (scale 1/{scale})\n\n");
    let mut csv = String::from("host_cache_gb,class,busy_s,runtime_s\n");
    for (cell, gb) in report.cells.iter().zip(sizes_gb) {
        let r = cell.run();
        out.push_str(&format!(
            "host cache {gb} GB: runtime {} | R = {:.1}\n",
            fmt_secs(r.elapsed),
            r.r_factor()
        ));
        let mut t = Table::new(&["thread class", "busy"]);
        for (label, busy) in r.busy.rows() {
            t.row(vec![label.to_string(), fmt_secs(busy)]);
            csv.push_str(&format!("{gb},{label},{busy:.4},{:.4}\n", r.elapsed));
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str("Shape check: every class's busy time grows as the cache shrinks\n(items are re-loaded more often).\n");
    write_result(&opts.out_dir, "fig10.csv", &csv);
    report.push_notes(&out);
    report
}

// ---------------------------------------------------------------------------
// Fig 9 — efficiency and R vs cache size
// ---------------------------------------------------------------------------

const FIG9_SIZES_GB: [f64; 11] = [0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 11.0, 15.0, 20.0, 28.0, 40.0];

fn fig9(opts: &ExpOptions) -> StudyReport {
    let extra = opts.extra_scale.max(1);
    // The cache axis derives slot counts from whatever workload the app
    // axis installed — later axes see earlier mutations.
    let cache_axis = Axis::points(
        "cache_gb",
        FIG9_SIZES_GB.into_iter().map(move |gb| {
            (AxisValue::from(gb), move |s: &mut Scenario| {
                let scale = scale_of(&s.workload, extra);
                let paper_slot = |g: f64| slots_for(g * 1e9, &s.workload, scale);
                // Below the device limit: device-only cache of size S (host
                // disabled ≈ 2 slots). Above: device pinned at 11 GB, host = S.
                let (dev, host) = if gb <= 11.0 {
                    (paper_slot(gb), 2)
                } else {
                    (paper_slot(11.0), paper_slot(gb))
                };
                for node in &mut s.nodes {
                    node.device_slots = dev;
                    node.host_slots = host;
                }
            })
        }),
    );
    let sweep = Sweep::over(sim_base(opts))
        .axis(app_axis(opts))
        .axis(cache_axis)
        .try_build()
        .expect("fig9 sweep");
    let mut report = study("fig9", opts)
        .run(&SimBackend::new(), &sweep)
        .expect("fig9 study");

    let mut out = String::from(
        "Fig 9 — system efficiency and R vs total cache size, one node\n\
         (sizes are paper-equivalent GB; device limit 11 GB)\n\n",
    );
    let mut csv = String::from("app,cache_gb,device_slots,host_slots,efficiency,r_factor\n");
    for app_cells in report.cells.chunks(FIG9_SIZES_GB.len()) {
        let w = &app_cells[0].scenario.workload;
        let scale = scale_of(w, extra);
        let mut t = Table::new(&["cache", "dev slots", "host slots", "efficiency", "R"]);
        for (cell, gb) in app_cells.iter().zip(FIG9_SIZES_GB) {
            let r = cell.run();
            let dev = cell.scenario.nodes[0].device_slots;
            let host = cell.scenario.nodes[0].host_slots;
            let eff = model::system_efficiency(w, &cell.scenario.all_gpus(), r.elapsed);
            t.row(vec![
                format!("{gb} GB"),
                dev.to_string(),
                host.to_string(),
                format!("{:.1}%", eff * 100.0),
                format!("{:.1}", r.r_factor()),
            ]);
            csv.push_str(&format!(
                "{},{gb},{dev},{host},{:.4},{:.4}\n",
                w.name,
                eff,
                r.r_factor()
            ));
        }
        out.push_str(&format!("{} (scale 1/{scale}):\n{}\n", w.name, t.render()));
    }
    out.push_str(
        "Shape check: microscopy is flat (fits in any cache); the other two\n\
         degrade as the cache shrinks while R grows hyperbolically.\n",
    );
    write_result(&opts.out_dir, "fig9.csv", &csv);
    report.push_notes(&out);
    report
}

// ---------------------------------------------------------------------------
// Fig 11 — distributed-cache hops
// ---------------------------------------------------------------------------

fn fig11(opts: &ExpOptions) -> StudyReport {
    let mut base = sim_base(opts);
    base.hops = 3;
    let sweep = Sweep::over(base)
        .axis(app_axis(opts))
        .axis(Axis::nodes([16]))
        .try_build()
        .expect("fig11 sweep");
    let mut report = study("fig11", opts)
        .run(&SimBackend::new(), &sweep)
        .expect("fig11 study");

    let mut out = String::from("Fig 11 — distributed-cache request outcomes (h = 3, 16 nodes)\n\n");
    let mut t = Table::new(&["app", "hit@1", "hit@2", "hit@3", "miss", "lookups"]);
    let mut csv = String::from("app,hop1,hop2,hop3,miss\n");
    for cell in &report.cells {
        let w = &cell.scenario.workload;
        let r = cell.run();
        let lookups = r.directory.lookups().max(1);
        let pct = |x: u64| x as f64 / lookups as f64 * 100.0;
        let hop = |i: usize| r.directory.hits_at_hop.get(i).copied().unwrap_or(0);
        t.row(vec![
            w.name.to_string(),
            format!("{:.1}%", pct(hop(0))),
            format!("{:.1}%", pct(hop(1))),
            format!("{:.1}%", pct(hop(2))),
            format!("{:.1}%", pct(r.directory.misses)),
            lookups.to_string(),
        ]);
        csv.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4}\n",
            w.name,
            pct(hop(0)),
            pct(hop(1)),
            pct(hop(2)),
            pct(r.directory.misses)
        ));
    }
    out.push_str(&t.render());
    out.push_str(
        "\nShape check: the vast majority of requests either hit at the first\n\
         hop or miss; later hops contribute little (the paper's argument for\n\
         running with h = 1).\n",
    );
    write_result(&opts.out_dir, "fig11.csv", &csv);
    report.push_notes(&out);
    report
}

// ---------------------------------------------------------------------------
// Fig 12 — scalability 1..16 nodes, distributed cache on/off
// ---------------------------------------------------------------------------

const FIG12_NODES: [usize; 6] = [1, 2, 4, 8, 12, 16];

fn fig12(opts: &ExpOptions) -> StudyReport {
    let sweep = Sweep::over(sim_base(opts))
        .axis(app_axis(opts))
        .axis(Axis::distributed_cache([true, false]))
        .axis(Axis::nodes(FIG12_NODES))
        .try_build()
        .expect("fig12 sweep");
    let mut report = study("fig12", opts)
        .run(&SimBackend::new(), &sweep)
        .expect("fig12 study");

    let mut out = String::from(
        "Fig 12 — speedup, efficiency, R, and I/O usage vs node count\n\
         (1 TitanX Maxwell per node; dist = level-3 distributed cache)\n\n",
    );
    let mut csv =
        String::from("app,dist_cache,nodes,runtime_s,speedup,efficiency,r_factor,io_mbps\n");
    for app_cells in report.cells.chunks(2 * FIG12_NODES.len()) {
        let w = &app_cells[0].scenario.workload;
        let scale = scale_of(w, opts.extra_scale);
        out.push_str(&format!("{} (scale 1/{scale}):\n", w.name));
        let mut t = Table::new(&[
            "nodes",
            "dist",
            "runtime",
            "speedup",
            "efficiency",
            "R",
            "IO MB/s",
        ]);
        for dist_cells in app_cells.chunks(FIG12_NODES.len()) {
            let dist = dist_cells[0].scenario.distributed_cache;
            let mut t1 = None;
            for (cell, p) in dist_cells.iter().zip(FIG12_NODES) {
                let r = cell.run();
                let t1v = *t1.get_or_insert(r.elapsed);
                let speedup = t1v / r.elapsed;
                let eff = model::system_efficiency(w, &cell.scenario.all_gpus(), r.elapsed);
                t.row(vec![
                    p.to_string(),
                    if dist { "on" } else { "off" }.to_string(),
                    fmt_secs(r.elapsed),
                    format!("{speedup:.2}x"),
                    format!("{:.1}%", eff * 100.0),
                    format!("{:.2}", r.r_factor()),
                    format!("{:.1}", r.avg_io_mbps()),
                ]);
                csv.push_str(&format!(
                    "{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
                    w.name,
                    dist,
                    p,
                    r.elapsed,
                    speedup,
                    eff,
                    r.r_factor(),
                    r.avg_io_mbps()
                ));
            }
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "Shape check: data-intensive apps (forensics, bioinformatics) scale\n\
         better with the distributed cache on — R falls with node count and\n\
         speedup can exceed the node count; with it off, R grows with node\n\
         count and I/O pressure rises sharply. Microscopy is insensitive.\n",
    );
    write_result(&opts.out_dir, "fig12.csv", &csv);
    report.push_notes(&out);
    report
}

// ---------------------------------------------------------------------------
// Fig 13 / Fig 14 — heterogeneous platform (§6.5)
// ---------------------------------------------------------------------------

/// The four heterogeneous nodes of §6.5.
fn heterogeneous_nodes(w: &WorkloadProfile, scale: u64) -> Vec<NodeSpec> {
    let mk = |gpus: Vec<DeviceProfile>| {
        let min_mem = gpus
            .iter()
            .map(|g| g.memory_bytes as f64 * 0.92)
            .fold(f64::INFINITY, f64::min);
        NodeSpec {
            device_slots: slots_for(min_mem, w, scale),
            host_slots: slots_for(40e9, w, scale),
            gpus,
        }
    };
    vec![
        mk(vec![DeviceProfile::k20m()]),
        mk(vec![
            DeviceProfile::gtx980(),
            DeviceProfile::titanx_pascal(),
        ]),
        mk(vec![DeviceProfile::rtx2080ti(), DeviceProfile::rtx2080ti()]),
        mk(vec![
            DeviceProfile::gtx_titan(),
            DeviceProfile::titanx_pascal(),
        ]),
    ]
}

const FIG13_CONFIGS: [&str; 5] = ["node-1", "node-2", "node-3", "node-4", "all"];

fn fig13(opts: &ExpOptions) -> StudyReport {
    let extra = opts.extra_scale.max(1);
    let config_axis = Axis::points(
        "config",
        (0..FIG13_CONFIGS.len()).map(move |i| {
            (
                AxisValue::from(FIG13_CONFIGS[i]),
                move |s: &mut Scenario| {
                    let scale = scale_of(&s.workload, extra);
                    let nodes = heterogeneous_nodes(&s.workload, scale);
                    s.nodes = if i < 4 { vec![nodes[i].clone()] } else { nodes };
                },
            )
        }),
    );
    let sweep = Sweep::over(sim_base(opts))
        .axis(app_axis(opts))
        .axis(config_axis)
        .try_build()
        .expect("fig13 sweep");
    let mut report = study("fig13", opts)
        .run(&SimBackend::new(), &sweep)
        .expect("fig13 study");

    let mut out = String::from(
        "Fig 13 — heterogeneous nodes: individual vs combined throughput\n\
         node I: K20m | II: GTX980 + TitanX-Pascal | III: 2x RTX2080Ti |\n\
         node IV: GTX-Titan + TitanX-Pascal\n\n",
    );
    let mut csv = String::from("app,config,throughput_pairs_per_s\n");
    for app_cells in report.cells.chunks(FIG13_CONFIGS.len()) {
        let w = &app_cells[0].scenario.workload;
        let scale = scale_of(w, extra);
        let mut t = Table::new(&["config", "throughput (pairs/s)"]);
        let mut sum = 0.0;
        for (i, cell) in app_cells[..4].iter().enumerate() {
            let r = cell.run();
            sum += r.throughput();
            t.row(vec![
                format!("node {}", ["I", "II", "III", "IV"][i]),
                format!("{:.1}", r.throughput()),
            ]);
            csv.push_str(&format!(
                "{},node-{},{:.4}\n",
                w.name,
                i + 1,
                r.throughput()
            ));
        }
        let all = app_cells[4].run();
        t.row(vec!["sum of nodes".into(), format!("{sum:.1}")]);
        t.row(vec![
            "all (4 nodes)".into(),
            format!("{:.1}", all.throughput()),
        ]);
        csv.push_str(&format!("{},sum,{sum:.4}\n", w.name));
        csv.push_str(&format!("{},all,{:.4}\n", w.name, all.throughput()));
        out.push_str(&format!(
            "{} (scale 1/{scale}): combined = {:.0}% of sum\n{}\n",
            w.name,
            all.throughput() / sum * 100.0,
            t.render()
        ));
    }
    out.push_str(
        "Shape check: the combined run reaches (or exceeds, thanks to the\n\
         distributed cache) the sum of the individual nodes.\n",
    );
    write_result(&opts.out_dir, "fig13.csv", &csv);
    report.push_notes(&out);
    report
}

/// The simulator with every run also recorded into `log`: Fig 14 reads
/// the `pair_done` records of the one run its study makes, while a
/// `--perf-log` study still receives the same records in its own log.
struct Recorded {
    inner: SimBackend,
    log: PerfLog,
}

impl Backend for Recorded {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, scenario: &Scenario) -> Result<RunReport, RocketError> {
        self.inner.run_with_perf(scenario, &self.log)
    }

    fn run_with_perf(&self, scenario: &Scenario, perf: &PerfLog) -> Result<RunReport, RocketError> {
        let report = self.run(scenario)?;
        perf.extend(self.log.snapshot());
        Ok(report)
    }
}

fn fig14(opts: &ExpOptions) -> StudyReport {
    let (w, scale) = scaled(profiles::microscopy(), opts);
    let nodes = heterogeneous_nodes(&w, scale);
    // (label, node, device index on the node): the `pair_done` record key.
    let gpus: Vec<(String, u32, u64)> = nodes
        .iter()
        .enumerate()
        .flat_map(|(n, nc)| {
            nc.gpus.iter().enumerate().map(move |(d, g)| {
                let label = format!("{} (node {})", g.name, ["I", "II", "III", "IV"][n]);
                (label, n as u32, d as u64)
            })
        })
        .collect();
    let sweep = Sweep::over(scenario_of(&w, nodes, opts))
        .axis(Axis::tag("config", ["heterogeneous"]))
        .try_build()
        .expect("fig14 sweep");
    let backend = Recorded {
        inner: SimBackend::new(),
        log: PerfLog::enabled(),
    };
    let mut report = study("fig14", opts)
        .run(&backend, &sweep)
        .expect("fig14 study");
    let records = backend.log.take();

    let end_ns = (report.cells[0].run().elapsed * 1e9) as u64;
    let window = 60_000_000_000u64; // 1-minute rolling average, like the paper
    let step = window / 2;
    let mut csv = String::from("gpu,t_s,pairs_per_s\n");
    let mut t = Table::new(&["GPU", "avg pairs/s", "total pairs"]);
    for (name, node, device) in &gpus {
        let mut done: Vec<u64> = PerfQuery::new(&records)
            .kind(PerfKind::PairDone)
            .node(*node)
            .iter()
            .filter(|r| r.value == *device)
            .map(|r| r.t_ns)
            .collect();
        done.sort_unstable();
        let done_by = |at: u64| done.partition_point(|&t_ns| t_ns <= at);
        for at in (0..=end_ns).step_by(step as usize) {
            let in_window = done_by(at) - done_by(at.saturating_sub(window));
            let window_s = window.min(at.max(1)) as f64 / 1e9;
            let rate = in_window as f64 / window_s;
            csv.push_str(&format!("{name},{:.1},{rate:.4}\n", at as f64 / 1e9));
        }
        t.row(vec![
            name.clone(),
            format!("{:.2}", done.len() as f64 / (end_ns as f64 / 1e9)),
            done.len().to_string(),
        ]);
    }
    write_result(&opts.out_dir, "fig14.csv", &csv);
    report.push_notes(&format!(
        "Fig 14 — per-GPU throughput, microscopy on 7 heterogeneous GPUs\n\
         (scale 1/{scale}; rolling 1-minute average in fig14.csv)\n\n{}\n\
         Shape check: all GPUs stay busy until the end (balanced finish) and\n\
         faster GPUs sustain proportionally higher rates.\n",
        t.render()
    ));
    report
}

// ---------------------------------------------------------------------------
// Fig 15 — large-scale (Cartesius) run
// ---------------------------------------------------------------------------

const FIG15_NODES: [usize; 7] = [1, 8, 16, 24, 32, 40, 48];

fn fig15(opts: &ExpOptions) -> StudyReport {
    let scale = 10 * opts.extra_scale.max(1);
    let w = profiles::bioinformatics_large().scaled(scale);
    let node = NodeSpec {
        gpus: vec![DeviceProfile::k40m(), DeviceProfile::k40m()],
        device_slots: slots_for(11e9, &w, scale),
        host_slots: slots_for(80e9, &w, scale),
    };
    let base = scenario_of(&w, vec![node], opts);
    let sweep = Sweep::over(base)
        .axis(Axis::nodes(FIG15_NODES))
        .try_build()
        .expect("fig15 sweep");
    let mut report = study("fig15", opts)
        .run(&SimBackend::new(), &sweep)
        .expect("fig15 study");

    let mut out = format!(
        "Fig 15 — large-scale bioinformatics (all 6818 proteomes, scale 1/{scale})\n\
         Cartesius nodes: 2x Tesla K40m, 80 GB host cache\n\n",
    );
    let mut csv = String::from("nodes,gpus,runtime_s,speedup,r_factor,efficiency\n");
    let mut t = Table::new(&["nodes", "GPUs", "runtime", "speedup", "R", "efficiency"]);
    let mut t1 = None;
    for (cell, p) in report.cells.iter().zip(FIG15_NODES) {
        let r = cell.run();
        let t1v = *t1.get_or_insert(r.elapsed);
        let speedup = t1v / r.elapsed;
        let eff = model::system_efficiency(&w, &cell.scenario.all_gpus(), r.elapsed);
        t.row(vec![
            p.to_string(),
            (2 * p).to_string(),
            fmt_secs(r.elapsed),
            format!("{speedup:.1}x"),
            format!("{:.1}", r.r_factor()),
            format!("{:.1}%", eff * 100.0),
        ]);
        csv.push_str(&format!(
            "{p},{},{:.4},{speedup:.4},{:.4},{eff:.4}\n",
            2 * p,
            r.elapsed,
            r.r_factor()
        ));
    }
    out.push_str(&t.render());
    out.push_str(
        "\nShape check: R falls steeply with node count (paper: 31.9 → 2.7\n\
         going 1 → 48 nodes) and speedup stays super-linear throughout.\n",
    );
    write_result(&opts.out_dir, "fig15.csv", &csv);
    report.push_notes(&out);
    report
}

// ---------------------------------------------------------------------------
// Cartesius 96-GPU sweep (beyond the paper's figures)
// ---------------------------------------------------------------------------

const C96_NODES: [usize; 3] = [12, 24, 48];

/// Distributed-cache sweep up to the full Cartesius allocation (48 nodes ×
/// 2 Tesla K40m = 96 GPUs) on the large bioinformatics workload, plus the
/// 96-GPU point under two replication policies: a fixed 8-seed run
/// reported as mean ± 95% CI and an adaptive run that stops once the
/// runtime CI is within 10% of the mean. Three sub-studies (tagged by a
/// `policy` axis) concatenated into one report.
fn cartesius96(opts: &ExpOptions) -> StudyReport {
    let scale = 10 * opts.extra_scale.max(1);
    let w = profiles::bioinformatics_large().scaled(scale);
    let node = NodeSpec {
        gpus: vec![DeviceProfile::k40m(), DeviceProfile::k40m()],
        device_slots: slots_for(11e9, &w, scale),
        host_slots: slots_for(80e9, &w, scale),
    };

    // The grid: distributed cache on/off × node count, one run per cell.
    let grid = Sweep::over(scenario_of(&w, vec![node.clone()], opts))
        .axis(Axis::distributed_cache([true, false]))
        .axis(Axis::nodes(C96_NODES))
        .axis(Axis::tag("policy", ["once"]))
        .try_build()
        .expect("cartesius96 sweep");
    let grid_report = study("cartesius96", opts)
        .run(&SimBackend::new(), &grid)
        .expect("cartesius96 grid");

    // Replicated 96-GPU point: stage times are stochastic, so report the
    // headline metrics with confidence intervals over 8 seeds.
    let point = scenario_of(&w, vec![node; 48], opts);
    let point_sweep = |policy_label: &str| {
        Sweep::over(point.clone())
            .axis(Axis::tag("distributed_cache", [true]))
            .axis(Axis::tag("nodes", [48usize]))
            .axis(Axis::tag("policy", [policy_label]))
            .try_build()
            .expect("cartesius96 point sweep")
    };
    let fixed_report = study("cartesius96-fixed8", opts)
        .replication(ReplicationPolicy::fixed(8))
        .run(&SimBackend::new(), &point_sweep("fixed8"))
        .expect("cartesius96 replicated point");
    // The same point under adaptive replication: keep adding batches of
    // seeds until the runtime CI half-width is within 10% of the mean
    // (capped at 16 runs) — usually fewer runs than the fixed-count
    // schedule needs for the same confidence.
    let adaptive_report = study("cartesius96-untilci", opts)
        .replication(ReplicationPolicy::until_ci(0.10, 16))
        .run(&SimBackend::new(), &point_sweep("until_ci"))
        .expect("cartesius96 adaptive point");

    let mut out = format!(
        "Cartesius 96-GPU sweep — bioinformatics-large (scale 1/{scale}),\n\
         2x Tesla K40m per node, distributed cache on vs off\n\n",
    );
    let mut csv = String::from("dist_cache,nodes,gpus,runtime_s,r_factor,throughput,io_mbps\n");
    let mut t = Table::new(&[
        "nodes", "GPUs", "dist", "runtime", "R", "pairs/s", "IO MB/s",
    ]);
    for cell in &grid_report.cells {
        let dist = cell.scenario.distributed_cache;
        let p = cell.scenario.nodes.len();
        let r = cell.run();
        t.row(vec![
            p.to_string(),
            (2 * p).to_string(),
            if dist { "on" } else { "off" }.to_string(),
            fmt_secs(r.elapsed),
            format!("{:.2}", r.r_factor()),
            format!("{:.1}", r.throughput()),
            format!("{:.1}", r.avg_io_mbps()),
        ]);
        csv.push_str(&format!(
            "{dist},{p},{},{:.4},{:.4},{:.4},{:.4}\n",
            2 * p,
            r.elapsed,
            r.r_factor(),
            r.throughput(),
            r.avg_io_mbps()
        ));
    }
    out.push_str(&t.render());

    let reps = &fixed_report.cells[0].report;
    out.push_str(&format!(
        "\n96-GPU point, {}:\n  runtime    {} s\n  R          {}\n  throughput {} pairs/s\n",
        reps.summary().split('|').next().unwrap_or("").trim(),
        reps.elapsed.avg_pm_ci95(),
        reps.r_factor.avg_pm_ci95(),
        reps.throughput.avg_pm_ci95(),
    ));
    let adaptive = &adaptive_report.cells[0].report;
    out.push_str(&format!(
        "  adaptive   stopped after {} replications (target: CI ≤ 10% of mean): runtime {} s\n",
        adaptive.replications(),
        adaptive.elapsed.avg_pm_ci95(),
    ));
    let mut rep_csv = String::from("seed,runtime_s,r_factor,throughput\n");
    for (seed, run) in reps.seeds.iter().zip(&reps.runs) {
        rep_csv.push_str(&format!(
            "{seed},{:.4},{:.4},{:.4}\n",
            run.elapsed,
            run.r_factor(),
            run.throughput()
        ));
    }
    out.push_str(
        "\nShape check: with the distributed cache on, the 96-GPU run keeps\n\
         R low and I/O flat; off, R and I/O grow with node count. CI widths\n\
         are small relative to the means (the workload is stochastic but\n\
         well-averaged).\n",
    );
    write_result(&opts.out_dir, "cartesius96.csv", &csv);
    write_result(&opts.out_dir, "cartesius96_replications.csv", &rep_csv);

    let mut report = StudyReport::concat(
        "cartesius96",
        vec![grid_report, fixed_report, adaptive_report],
    )
    .expect("cartesius96 concat");
    report.push_notes(&out);
    report
}

// ---------------------------------------------------------------------------
// Transports — threaded runtime over channels vs sockets
// ---------------------------------------------------------------------------

/// Runs a real application on a 4-node threaded cluster twice — once over
/// in-process channels, once over loopback TCP — and compares results and
/// wire traffic. The pair accounting must match exactly (the work
/// assignment is statically partitioned, so it is deterministic); the
/// socket run additionally reports genuine payload bytes on the wire.
fn transports(opts: &ExpOptions) -> StudyReport {
    let cfg = ForensicsConfig {
        images: (24 / opts.extra_scale.max(1)).max(8),
        cameras: 4,
        width: 32,
        height: 32,
        seed: opts.seed,
        ..Default::default()
    };
    let ds = ForensicsDataset::generate(cfg.clone());
    let app = Arc::new(ForensicsApp::new(&cfg));
    let items = app.item_count();
    let backend = ThreadedBackend::new(app, Arc::new(ds.store));

    let base = Scenario::builder()
        .items(items)
        .nodes(4, NodeSpec::uniform(1, 8, items as usize))
        .job_limit(8)
        .cpu_threads(2)
        .leaf_pairs(8)
        .static_partition(true)
        .seed(opts.seed)
        .build();
    let sweep = Sweep::over(base)
        .axis(Axis::transport([
            TransportKind::Local,
            TransportKind::Socket,
        ]))
        .try_build()
        .expect("transports sweep");
    let mut report = study("transports", opts)
        .run(&backend, &sweep)
        .expect("transports study");

    let mut out = String::from(
        "Cluster transports — forensics on 4 threaded nodes, in-process\n\
         channels vs loopback TCP sockets (static partition, distributed\n\
         cache on)\n\n",
    );
    let mut csv =
        String::from("transport,backend,pairs,failed,r_factor,net_msgs,net_bytes,runtime_s\n");
    let mut t = Table::new(&[
        "transport",
        "backend",
        "pairs",
        "R",
        "net msgs",
        "net bytes",
        "runtime",
    ]);
    let mut pair_splits = Vec::new();
    for cell in &report.cells {
        let label = cell
            .coord("transport")
            .expect("transport coord")
            .to_string();
        let r = cell.run();
        t.row(vec![
            label.clone(),
            r.backend.to_string(),
            r.pairs.to_string(),
            format!("{:.2}", r.r_factor()),
            r.net_msgs.to_string(),
            fmt_bytes(r.net_bytes),
            fmt_secs(r.elapsed),
        ]);
        csv.push_str(&format!(
            "{},{},{},{},{:.4},{},{},{:.4}\n",
            label,
            r.backend,
            r.pairs,
            r.failed_pairs,
            r.r_factor(),
            r.net_msgs,
            r.net_bytes,
            r.elapsed,
        ));
        pair_splits.push((r.pairs, r.failed_pairs, r.pairs_per_node.clone()));
    }
    out.push_str(&t.render());
    assert_eq!(
        pair_splits[0], pair_splits[1],
        "transports disagree on pair accounting"
    );
    out.push_str(
        "\nShape check: both transports complete every pair with the same\n\
         per-node split; the socket run moves the directory/fetch protocol\n\
         over real TCP (non-zero wire bytes) and is somewhat slower — the\n\
         transport is the only difference between the two rows.\n",
    );
    write_result(&opts.out_dir, "transports.csv", &csv);
    report.push_notes(&out);
    report
}

// ---------------------------------------------------------------------------
// Model sanity
// ---------------------------------------------------------------------------

fn model_check(opts: &ExpOptions) -> StudyReport {
    // Caches big enough for the whole (scaled) data set → R = 1.
    let points: Vec<_> = profiles::all()
        .into_iter()
        .map(|w| {
            let (w, _) = scaled(w, opts);
            (w.name, w)
        })
        .collect();
    let full_cache_axis = Axis::points(
        "app",
        points.into_iter().map(|(name, w)| {
            (AxisValue::from(name), move |s: &mut Scenario| {
                s.nodes = vec![NodeSpec::uniform(1, w.items as usize, w.items as usize)];
                s.workload = w.clone();
            })
        }),
    );
    let sweep = Sweep::over(sim_base(opts))
        .axis(full_cache_axis)
        .try_build()
        .expect("model sweep");
    let mut report = study("model", opts)
        .run(&SimBackend::new(), &sweep)
        .expect("model study");

    let mut out = String::from("§6.1 performance model vs simulation (R = 1 configurations)\n\n");
    let mut t = Table::new(&["app", "T_min (model)", "runtime (sim)", "ratio"]);
    let mut csv = String::from("app,tmin_s,sim_s,ratio\n");
    for cell in &report.cells {
        let w = &cell.scenario.workload;
        let r = cell.run();
        assert!(
            (r.r_factor() - 1.0).abs() < 1e-9,
            "{}: R = {}",
            w.name,
            r.r_factor()
        );
        let tmin = model::t_min(w);
        let ratio = r.elapsed / tmin;
        t.row(vec![
            w.name.to_string(),
            fmt_secs(tmin),
            fmt_secs(r.elapsed),
            format!("{ratio:.3}"),
        ]);
        csv.push_str(&format!(
            "{},{tmin:.4},{:.4},{ratio:.4}\n",
            w.name, r.elapsed
        ));
    }
    out.push_str(&t.render());
    out.push_str(
        "\nShape check: with perfect reuse the simulated runtime sits within a\n\
         few percent of the modelled lower bound (perfect overlap).\n",
    );
    write_result(&opts.out_dir, "model.csv", &csv);
    report.push_notes(&out);
    report
}

// ---------------------------------------------------------------------------
// scale1k — sharded DES on the thousand-node bench anchor (beyond the paper)
// ---------------------------------------------------------------------------

const SCALE1K_SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Sharded-DES scaling on the `thousand_nodes` bench anchor: the same
/// 1024-node scenario simulated at 1/2/4/8 shards. Virtual-time results
/// are byte-identical across shard counts (asserted here; the simulator's
/// shard-equivalence suite covers it exhaustively) — only wall-clock
/// differs, and the note and CSV report it per shard count. The
/// `des-seq` / `des-shard` workloads of `BENCHMARK.json` record the same
/// measurement from the bench side.
fn scale1k(opts: &ExpOptions) -> StudyReport {
    let scale = opts.extra_scale.max(1);
    let mut base = anchors::thousand_nodes();
    // The extra CLI factor shrinks the cluster and the data set together,
    // preserving per-node load (at the default scale this is the full
    // 1024-node anchor).
    base.workload = base.workload.scaled(scale);
    let nodes = (base.nodes.len() as u64 / scale).max(8) as usize;
    base.nodes.truncate(nodes);
    base.seed = opts.seed;

    // One single-cell study per shard count, each on its own
    // `SimBackend::sharded(k)`, so each cell's wall-clock can be measured
    // around its run; concatenated under a `sim_shards` tag axis.
    let mut parts = Vec::new();
    let mut walls = Vec::new();
    for k in SCALE1K_SHARDS {
        let sweep = Sweep::over(base.clone())
            .axis(Axis::tag("sim_shards", [k]))
            .try_build()
            .expect("scale1k sweep");
        let sw = stopwatch();
        let part = study(format!("scale1k-k{k}"), opts)
            .run(&SimBackend::sharded(k), &sweep)
            .expect("scale1k study");
        walls.push(sw.elapsed_secs());
        parts.push(part);
    }
    let mut report = StudyReport::concat("scale1k", parts).expect("scale1k concat");

    let (seq_pairs, seq_elapsed) = {
        let r = report.cells[0].run();
        (r.pairs, r.elapsed)
    };
    let mut csv = String::from("sim_shards,windows,wall_s,speedup,virtual_runtime_s\n");
    let mut t = Table::new(&["shards", "windows", "wall", "speedup", "virtual runtime"]);
    for (cell, (&k, &wall)) in report.cells.iter().zip(SCALE1K_SHARDS.iter().zip(&walls)) {
        let r = cell.run();
        assert_eq!(r.pairs, seq_pairs, "sharded run diverged at K = {k}");
        assert_eq!(
            r.elapsed.to_bits(),
            seq_elapsed.to_bits(),
            "sharded run diverged at K = {k}"
        );
        let speedup = walls[0] / wall;
        t.row(vec![
            k.to_string(),
            r.sim_windows.to_string(),
            format!("{wall:.2}s"),
            format!("{speedup:.2}x"),
            fmt_secs(r.elapsed),
        ]);
        csv.push_str(&format!(
            "{k},{},{wall:.4},{speedup:.4},{:.4}\n",
            r.sim_windows, r.elapsed
        ));
    }
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let (best_k, best_wall) = SCALE1K_SHARDS
        .iter()
        .zip(&walls)
        .skip(1)
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("sharded cells");
    write_result(&opts.out_dir, "scale1k.csv", &csv);
    report.push_notes(&format!(
        "scale1k — sharded DES on the 1024-node anchor (scale 1/{scale}, \
         {seq_pairs} pairs)\nHost parallelism: {threads} hardware threads\n\n{}\n\
         Shape check: identical virtual-time results at every shard count\n\
         (asserted above). Wall-clock on this host: the fastest sharded run is\n\
         K = {best_k} at {:.2}x the sequential engine.\n",
        t.render(),
        walls[0] / best_wall
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocket_apps::json::Json;

    fn tiny_opts() -> ExpOptions {
        ExpOptions {
            extra_scale: 20, // shrink everything hard: tests must be quick
            out_dir: std::env::temp_dir().join(format!("rocket-exp-{}", std::process::id())),
            seed: 7,
            perf_log: None,
        }
    }

    /// Asserts the study's JSON-Lines records parse with a real JSON
    /// parser and carry one record per grid cell with its coordinates.
    fn assert_round_trips(report: &StudyReport) {
        let lines = report.json_lines();
        assert_eq!(lines.len(), report.cells.len(), "one record per cell");
        for (i, line) in lines.iter().enumerate() {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("bad JSON line {i}: {e}\n{line}"));
            assert_eq!(
                v.get("experiment").and_then(|j| match j {
                    Json::Str(s) => Some(s.as_str()),
                    _ => None,
                }),
                Some(report.experiment.as_str())
            );
            assert_eq!(v.get("cell").and_then(Json::as_f64), Some(i as f64));
            for axis in &report.axes {
                assert!(
                    v.get("coords").and_then(|c| c.get(axis)).is_some(),
                    "cell {i} missing coordinate `{axis}`"
                );
            }
            assert!(v.get("report").and_then(|r| r.get("runs")).is_some());
        }
        // The whole-study document parses too.
        let doc = Json::parse(&report.to_json()).expect("study JSON parses");
        assert_eq!(
            doc.get("cells").and_then(Json::as_arr).map(<[Json]>::len),
            Some(report.cells.len())
        );
    }

    #[test]
    fn model_check_runs_and_validates() {
        let report = model_check(&tiny_opts());
        assert_eq!(report.axes, vec!["app"]);
        assert_eq!(report.cells.len(), 3);
        let text = report.render();
        assert!(text.contains("T_min"));
        assert!(text.contains("forensics"));
        assert_round_trips(&report);
    }

    #[test]
    fn fig7_reports_all_apps() {
        let report = fig7(&tiny_opts());
        let text = report.render();
        for name in ["forensics", "bioinformatics", "microscopy"] {
            assert!(text.contains(name), "missing {name}");
        }
        assert_round_trips(&report);
    }

    #[test]
    fn fig11_percentages_sum_to_one() {
        let opts = tiny_opts();
        let report = fig11(&opts);
        assert!(report.render().contains("hit@1"));
        assert_eq!(report.axes, vec!["app", "nodes"]);
        for cell in &report.cells {
            assert_eq!(cell.scenario.nodes.len(), 16);
            assert_eq!(cell.scenario.hops, 3);
        }
        let csv = std::fs::read_to_string(opts.out_dir.join("fig11.csv")).unwrap();
        for line in csv.lines().skip(1) {
            let parts: Vec<f64> = line
                .split(',')
                .skip(1)
                .map(|v| v.parse().unwrap())
                .collect();
            let total: f64 = parts.iter().sum();
            assert!((total - 100.0).abs() < 1.0, "outcomes sum to {total}");
        }
        assert_round_trips(&report);
    }

    #[test]
    fn fig14_has_one_series_per_gpu() {
        let opts = tiny_opts();
        let report = fig14(&opts);
        let table: Vec<&str> = report
            .notes
            .lines()
            .filter(|l| l.contains("(node "))
            .collect();
        assert_eq!(table.len(), 7, "one row per GPU:\n{}", report.notes);
        let total: u64 = table
            .iter()
            .map(|row| {
                row.split_whitespace()
                    .last()
                    .unwrap()
                    .parse::<u64>()
                    .unwrap()
            })
            .sum();
        assert_eq!(total, report.cells[0].run().pairs);
        let csv = std::fs::read_to_string(opts.out_dir.join("fig14.csv")).unwrap();
        for row in &table {
            let name = row.trim_start().split("  ").next().unwrap();
            assert!(
                csv.lines().any(|l| l.starts_with(&format!("{name},"))),
                "no series for {name}"
            );
        }
        assert_round_trips(&report);
    }

    #[test]
    fn experiment_registry_is_complete() {
        assert_eq!(ALL_EXPERIMENTS.len(), 14);
        let names: Vec<&str> = ALL_EXPERIMENTS.iter().map(|&(n, _)| n).collect();
        assert!(names.contains(&"table1"));
        assert!(names.contains(&"fig15"));
        assert!(names.contains(&"cartesius96"));
        assert!(names.contains(&"transports"));
        assert!(names.contains(&"scale1k"));
        for &(name, exp) in ALL_EXPERIMENTS {
            assert!(!exp.description().is_empty(), "{name} lacks a description");
        }
    }

    #[test]
    fn scale1k_shard_counts_agree() {
        let opts = tiny_opts();
        let report = scale1k(&opts);
        assert_eq!(report.axes, vec!["sim_shards"]);
        assert_eq!(report.cells.len(), SCALE1K_SHARDS.len());
        // The driver itself asserts identical virtual-time results across
        // shard counts; here check the surfaced shard metadata and files.
        for (cell, k) in report.cells.iter().zip(SCALE1K_SHARDS) {
            assert_eq!(cell.run().sim_shards, k as u32);
            assert!(cell.run().sim_windows > 0, "K = {k} counted no windows");
        }
        let csv = std::fs::read_to_string(opts.out_dir.join("scale1k.csv")).unwrap();
        assert_eq!(csv.lines().count(), 1 + SCALE1K_SHARDS.len());
        assert_round_trips(&report);
    }

    #[test]
    fn transports_agree_and_sockets_carry_bytes() {
        let opts = tiny_opts();
        let report = transports(&opts);
        assert!(report.render().contains("threaded+socket"), "bad report");
        assert_eq!(report.axes, vec!["transport"]);
        assert_eq!(report.cells.len(), 2);
        // Identical pair counts, zero failures on both transports.
        let (local, socket) = (report.cells[0].run(), report.cells[1].run());
        assert_eq!(local.pairs, socket.pairs);
        assert_eq!(local.failed_pairs, 0);
        assert_eq!(socket.failed_pairs, 0);
        assert_eq!(local.pairs_per_node, socket.pairs_per_node);
        // The socket row carries real traffic and names its backend.
        assert_eq!(socket.backend, "threaded+socket");
        assert!(socket.net_bytes > 0);
        assert!(socket.net_msgs > 0);
        let csv = std::fs::read_to_string(opts.out_dir.join("transports.csv")).unwrap();
        assert_eq!(csv.lines().count(), 3, "header + one row per transport");
        assert_round_trips(&report);
    }

    #[test]
    fn cartesius96_runs_at_tiny_scale() {
        // extra_scale 20 shrinks the workload to 34 items; the sweep and
        // its replicated points must still complete and report CIs.
        let opts = tiny_opts();
        let report = cartesius96(&opts);
        let text = report.render();
        assert!(text.contains("96"), "missing gpu column: {text}");
        assert!(text.contains('±'), "missing CI: {text}");
        assert!(text.contains("adaptive"), "missing adaptive run: {text}");
        // 6 grid cells + fixed point + adaptive point, uniform axes.
        assert_eq!(report.cells.len(), 8);
        assert_eq!(report.axes, vec!["distributed_cache", "nodes", "policy"]);
        assert_eq!(report.cells[6].report.replications(), 8);
        assert!(report.cells[7].report.replications() >= 2);
        let csv =
            std::fs::read_to_string(opts.out_dir.join("cartesius96_replications.csv")).unwrap();
        assert_eq!(csv.lines().count(), 9, "8 replications + header");
        assert_round_trips(&report);
    }

    #[test]
    fn extra_scale_shrinks_every_experiment_family() {
        // The scale knob must reach the threaded experiments and fig7 too
        // (they historically ignored it).
        let opts = tiny_opts();
        let report = transports(&opts);
        assert_eq!(report.cells[0].run().items, 8, "images shrink with scale");
        let t1 = table1(&opts);
        let items: Vec<u64> = t1.cells.iter().map(|c| c.run().items).collect();
        assert_eq!(items, vec![8, 8, 6]);
        assert_round_trips(&t1);
    }
}
