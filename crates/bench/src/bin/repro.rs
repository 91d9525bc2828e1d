//! `repro` — regenerate the Rocket paper's tables and figures.
//!
//! ```text
//! repro <experiment|all> [--scale N] [--out DIR] [--seed S] [--json PATH] [--csv PATH]
//!       [--perf-log DIR]
//! repro --list
//! ```
//!
//! Every experiment is a parameter *study*: a `Sweep` (base scenario ×
//! named axes) driven through a `Backend`, yielding a structured
//! `StudyReport` with one record per grid cell. This binary owns all
//! formatting and persistence of those reports:
//!
//! * stdout + `--out DIR/<name>.txt` — the rendered report (comparison
//!   table plus the figure's text); the figure's CSV series land in the
//!   same directory (`--out` defaults to `results`),
//! * `--json PATH` — one JSON-Lines record per grid cell
//!   (`{"experiment":…,"cell":…,"coords":…,"report":…}`) — the durable
//!   format for tracking performance across changes; the file is
//!   rewritten after each experiment so one invocation produces one
//!   coherent snapshot,
//! * `--csv PATH` — the study grid as CSV (axis columns + headline
//!   replication statistics); with multiple experiments the file holds
//!   one header+rows section per study, separated by blank lines,
//! * `--perf-log DIR` — per-cell perf logs: every study cell records the
//!   engine's structured perf samples to
//!   `DIR/<study>-cell<N>.perflog.jsonl` and its JSON/CSV rows gain
//!   p50/p99 stage rollups (see `docs/perf-log.md`). Recording never
//!   changes results — instrumentation stays out-of-band.
//!
//! `--scale N` divides every data set further (`N` ≥ 1). `--list` prints
//! every experiment with a one-line description; unknown experiment names
//! suggest the closest match. An experiment that fails prints
//! `experiment <name> failed: <error>` and exits 1.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use rocket_bench::{ExpOptions, Experiment, EXPERIMENTS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <experiment|all> [--scale N] [--out DIR] [--seed S] [--json PATH] [--csv PATH] [--perf-log DIR]"
    );
    eprintln!("       repro --list");
    eprintln!("experiments:");
    for e in EXPERIMENTS {
        eprintln!("  {}", e.name);
    }
    ExitCode::FAILURE
}

fn list() -> ExitCode {
    let width = EXPERIMENTS.iter().map(|e| e.name.len()).max().unwrap_or(0);
    for e in EXPERIMENTS {
        println!("{:<width$}  {}", e.name, e.description);
    }
    ExitCode::SUCCESS
}

/// Levenshtein edit distance (iterative two-row DP) for closest-match
/// suggestions on unknown experiment names.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            cur[j + 1] = subst.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The known experiment name closest to `target` (including `all`), if
/// any is close enough to plausibly be a typo.
fn closest_experiment(target: &str) -> Option<&'static str> {
    EXPERIMENTS
        .iter()
        .map(|e| e.name)
        .chain(std::iter::once("all"))
        .map(|n| (edit_distance(target, n), n))
        .min()
        .filter(|&(d, n)| d <= n.len().max(target.len()) / 2)
        .map(|(_, n)| n)
}

/// Writes each `(path, content)`, creating parent directories as needed.
fn write_files(files: &[(PathBuf, &str)]) -> Result<(), std::io::Error> {
    for (path, content) in files {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, content)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    if args.iter().any(|a| a == "--list") {
        return list();
    }
    let mut target = String::new();
    let mut opts = ExpOptions::default();
    let mut out_dir = PathBuf::from("results");
    let mut json_out: Option<PathBuf> = None;
    let mut csv_out: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            usage();
            return ExitCode::SUCCESS;
        }
        if !arg.starts_with("--") && target.is_empty() {
            target = arg;
            continue;
        }
        // Every option takes one value.
        let Some(value) = it.next() else {
            return usage();
        };
        match arg.as_str() {
            "--out" => out_dir = PathBuf::from(value),
            "--json" => json_out = Some(PathBuf::from(value)),
            "--csv" => csv_out = Some(PathBuf::from(value)),
            "--perf-log" => opts.perf_log = Some(PathBuf::from(value)),
            // A `NonZeroU64`: `--scale 0` is rejected, not read as 1.
            "--scale" => match value.parse() {
                Ok(v) => opts.extra_scale = v,
                Err(_) => return usage(),
            },
            "--seed" => match value.parse() {
                Ok(v) => opts.seed = v,
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
    }
    let selected: Vec<&Experiment> = if target == "all" {
        EXPERIMENTS.iter().collect()
    } else {
        match EXPERIMENTS.iter().find(|e| e.name == target) {
            Some(e) => vec![e],
            None => {
                eprintln!("unknown experiment '{target}'");
                if let Some(suggestion) = closest_experiment(&target) {
                    eprintln!("did you mean '{suggestion}'?");
                }
                return usage();
            }
        }
    };
    // One invocation = one snapshot: the JSON and CSV sinks hold every
    // experiment run so far and are rewritten whole after each one.
    let (mut json, mut csv) = (String::new(), String::new());
    for exp in selected {
        let name = exp.name;
        eprintln!("== running {name} ==");
        let t0 = std::time::Instant::now();
        let figure = match (exp.run)(&opts) {
            Ok(figure) => figure,
            Err(e) => {
                eprintln!("experiment {name} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let report = &figure.report;
        let rendered = report.render();
        println!("{rendered}");
        for line in report.json_lines() {
            json.push_str(&line);
            json.push('\n');
        }
        if !csv.is_empty() {
            csv.push('\n');
        }
        csv.push_str(&report.to_csv());
        let txt = out_dir.join(format!("{name}.txt"));
        let mut files = vec![(txt.clone(), rendered.as_str())];
        for (stem, content) in &figure.csv {
            files.push((out_dir.join(format!("{stem}.csv")), content.as_str()));
        }
        files.extend(json_out.iter().map(|p| (p.clone(), json.as_str())));
        files.extend(csv_out.iter().map(|p| (p.clone(), csv.as_str())));
        if let Err(e) = write_files(&files) {
            eprintln!("cannot write the results of {name}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "== {name} done in {:.1}s ({} cells, written to {}) ==\n",
            t0.elapsed().as_secs_f64(),
            report.cells.len(),
            txt.display()
        );
    }
    ExitCode::SUCCESS
}
