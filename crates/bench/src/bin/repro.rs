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
//!   table plus the figure narrative); figure-specific CSV series land in
//!   the same directory,
//! * `--json PATH` — one JSON-Lines record per grid cell
//!   (`{"experiment":…,"cell":…,"coords":…,"report":…}`) — the durable
//!   format for cross-PR performance tracking; the file is truncated at
//!   startup so one invocation produces one coherent snapshot,
//! * `--csv PATH` — the study grid as CSV (axis columns + headline
//!   replication statistics); with multiple experiments the file holds
//!   one header+rows section per study, separated by blank lines,
//! * `--perf-log DIR` — per-cell perf logs: every study cell records the
//!   engine's structured perf samples to
//!   `DIR/<study>-cell<N>.perflog.jsonl` and its JSON/CSV rows gain
//!   p50/p99 stage rollups (see `docs/perf-log.md`). Recording never
//!   changes results — instrumentation stays out-of-band.
//!
//! `--list` prints every experiment with a one-line description; unknown
//! experiment names suggest the closest match.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use rocket_bench::experiments::{run_experiment, ExpOptions, ALL_EXPERIMENTS};
use rocket_bench::util::write_result;

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <experiment|all> [--scale N] [--out DIR] [--seed S] [--json PATH] [--csv PATH] [--perf-log DIR]"
    );
    eprintln!("       repro --list");
    eprintln!("experiments:");
    for (name, _) in ALL_EXPERIMENTS {
        eprintln!("  {name}");
    }
    ExitCode::FAILURE
}

fn list() -> ExitCode {
    let width = ALL_EXPERIMENTS
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(0);
    for (name, exp) in ALL_EXPERIMENTS {
        println!("{name:<width$}  {}", exp.description());
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
    ALL_EXPERIMENTS
        .iter()
        .map(|&(n, _)| n)
        .chain(std::iter::once("all"))
        .map(|n| (edit_distance(target, n), n))
        .min()
        .filter(|&(d, n)| d <= n.len().max(target.len()) / 2)
        .map(|(_, n)| n)
}

/// Truncates `path` (creating parent directories), so appended records
/// form one coherent snapshot per invocation.
fn start_fresh(path: &PathBuf) -> Result<(), std::io::Error> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, "")
}

fn append(path: &PathBuf, content: &str) {
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, content.as_bytes()));
    if let Err(e) = written {
        eprintln!("warning: could not persist to {}: {e}", path.display());
    }
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
    let mut json_out: Option<PathBuf> = None;
    let mut csv_out: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.extra_scale = v,
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(v) => opts.out_dir = PathBuf::from(v),
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.seed = v,
                None => return usage(),
            },
            "--json" => match it.next() {
                Some(v) => json_out = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--csv" => match it.next() {
                Some(v) => csv_out = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--perf-log" => match it.next() {
                Some(v) => opts.perf_log = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            name if target.is_empty() => target = name.to_string(),
            _ => return usage(),
        }
    }
    let selected: Vec<_> = if target == "all" {
        ALL_EXPERIMENTS.to_vec()
    } else {
        match ALL_EXPERIMENTS.iter().find(|&&(n, _)| n == target) {
            Some(&entry) => vec![entry],
            None => {
                eprintln!("unknown experiment '{target}'");
                if let Some(suggestion) = closest_experiment(&target) {
                    eprintln!("did you mean '{suggestion}'?");
                }
                return usage();
            }
        }
    };
    // One invocation = one snapshot: start the sink files fresh.
    for path in [&json_out, &csv_out].into_iter().flatten() {
        if let Err(e) = start_fresh(path) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let mut first_csv = true;
    for (name, exp) in selected {
        eprintln!("== running {name} ==");
        let t0 = std::time::Instant::now();
        let report = run_experiment(exp, &opts);
        let rendered = report.render();
        println!("{rendered}");
        write_result(&opts.out_dir, &format!("{name}.txt"), &rendered);
        if let Some(path) = &json_out {
            let mut lines = report.json_lines().join("\n");
            lines.push('\n');
            append(path, &lines);
        }
        if let Some(path) = &csv_out {
            let mut section = String::new();
            if !first_csv {
                section.push('\n');
            }
            section.push_str(&report.to_csv());
            append(path, &section);
            first_csv = false;
        }
        eprintln!(
            "== {name} done in {:.1}s ({} cells, written to {}) ==\n",
            t0.elapsed().as_secs_f64(),
            report.cells.len(),
            opts.out_dir.join(format!("{name}.txt")).display()
        );
    }
    ExitCode::SUCCESS
}
