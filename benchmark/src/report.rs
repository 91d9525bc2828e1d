//! `--all`: every workload in its own child process, gathered into one
//! results file. `--compare`: two results files against the bounds.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use rocket::apps::json::Json;

use crate::spec::{self, Better, MetricSpec};
use crate::{obj, out_dir, sysinfo};

/// Set-up time differences smaller than this many seconds are ignored by
/// `--compare`: a relative bound on a millisecond set-up gates noise.
const SETUP_FLOOR_S: f64 = 0.05;

/// Runs `--workload name` in a child process, echoing its output, and
/// returns the result object of its last line.
fn run_child(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let result = Json::parse(last)
        .map_err(|e| format!("{name}: the last output line is no result ({e:?}): {last}"))?;
    if !output.status.success() && result.get("correct") != Some(&Json::Bool(false)) {
        return Err(format!("{name}: the run ended with {}", output.status));
    }
    Ok(result)
}

/// `{metric: value}` from a run's result object.
fn values_of(result: &Json) -> Json {
    let rows = match result.get("metrics") {
        Some(Json::Obj(rows)) => rows.clone(),
        _ => BTreeMap::new(),
    };
    Json::Obj(
        rows.into_iter()
            .map(|(name, row)| (name, row.get("value").cloned().unwrap_or(Json::Null)))
            .collect(),
    )
}

pub fn run_all(seed: u64, seconds: f64, traced: bool, out: Option<&Path>) -> Result<bool, String> {
    println!(
        "# host_parallelism {} | {} | commit {} | seed {seed} | {seconds} s per run",
        sysinfo::host_parallelism(),
        sysinfo::rustc_version(),
        sysinfo::commit(),
    );
    let mut all_correct = true;
    let mut workloads = BTreeMap::new();
    for w in spec::WORKLOADS {
        let plain = run_child(w.name, seed, seconds, false)?;
        let mut correct = plain.get("correct") == Some(&Json::Bool(true));
        let mut row = BTreeMap::from([
            ("end_to_end".to_string(), values_of(&plain)),
            (
                "attempted".to_string(),
                plain.get("attempted").cloned().unwrap_or(Json::Null),
            ),
            (
                "failed".to_string(),
                plain.get("failed").cloned().unwrap_or(Json::Null),
            ),
        ]);
        if traced {
            let layered = run_child(w.name, seed, seconds, true)?;
            correct &= layered.get("correct") == Some(&Json::Bool(true));
            row.insert("per_layer".to_string(), values_of(&layered));
        }
        println!(
            "# {}: {}",
            w.name,
            if correct {
                "every check passed"
            } else {
                "CHECKS FAILED"
            }
        );
        all_correct &= correct;
        workloads.insert(w.name.to_string(), Json::Obj(row));
    }
    let doc = obj([
        (
            "host_parallelism",
            Json::Num(sysinfo::host_parallelism() as f64),
        ),
        ("rustc", Json::Str(sysinfo::rustc_version())),
        ("commit", Json::Str(sysinfo::commit())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = out.map_or_else(
        || out_dir().join(format!("results-seed{seed}.json")),
        Path::to_path_buf,
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.to_string_compact())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok(all_correct)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    match spec.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// One line per finding; `Err` lines are outside a bound.
fn compare(a: &Json, b: &Json) -> Vec<Result<String, String>> {
    let mut lines = Vec::new();
    let value = |doc: &Json, workload: &str, section: &str, metric: &str| {
        doc.get("workloads")?
            .get(workload)?
            .get(section)?
            .get(metric)?
            .as_f64()
    };
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let (Some(va), Some(vb)) = (
                value(a, w.name, "end_to_end", m.name),
                value(b, w.name, "end_to_end", m.name),
            ) else {
                lines.push(Err(format!("{} {}: missing from a file", w.name, m.name)));
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry bounds");
            let worse = worsening(m, va, vb);
            let ignored = m.name == "setup_s" && (vb - va).abs() < SETUP_FLOOR_S;
            let line = format!(
                "{:<14} {:<15} {va:>14.6} -> {vb:>14.6} {:<8} {:+6.1} % (bound {:.0} %)",
                w.name,
                m.name,
                m.unit,
                worse * 100.0,
                bound * 100.0
            );
            lines.push(if worse > bound && !ignored {
                Err(line)
            } else {
                Ok(line)
            });
        }
        if !spec::SIM_WORKLOADS.contains(&w.name) {
            continue;
        }
        for name in spec::EXACT_ON_SIM {
            if let (Some(va), Some(vb)) = (
                value(a, w.name, "per_layer", name),
                value(b, w.name, "per_layer", name),
            ) {
                let line = format!("{:<14} {name:<15} {va} -> {vb} (exact)", w.name);
                lines.push(if va == vb { Ok(line) } else { Err(line) });
            }
        }
    }
    lines
}

pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |path: &Path| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
    };
    let (a, b) = (load(a)?, load(b)?);
    if a.get("seed") != b.get("seed") {
        println!("# the files hold different seeds: exact metrics will differ");
    }
    let mut within = true;
    for line in compare(&a, &b) {
        match line {
            Ok(line) => println!("ok    {line}"),
            Err(line) => {
                within = false;
                println!("WORSE {line}");
            }
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(wall: f64, rate: f64, setup: f64, makespan: f64) -> Json {
        let e2e = obj([
            ("wall_s", Json::Num(wall)),
            ("pairs_per_s", Json::Num(rate)),
            ("cpu_s", Json::Num(1.0)),
            ("setup_s", Json::Num(setup)),
            ("peak_rss_mb", Json::Num(50.0)),
            ("loads_per_item", Json::Num(2.0)),
        ]);
        let layer = obj([("sim.makespan_s", Json::Num(makespan))]);
        let row = obj([("end_to_end", e2e), ("per_layer", layer)]);
        let workloads = spec::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), row.clone()))
            .collect();
        obj([
            ("seed", Json::Num(1.0)),
            ("workloads", Json::Obj(workloads)),
        ])
    }

    fn failures(a: &Json, b: &Json) -> Vec<String> {
        compare(a, b).into_iter().filter_map(Result::err).collect()
    }

    #[test]
    fn identical_files_pass_and_every_pairing_is_listed() {
        let a = results(1.0, 100.0, 0.01, 5.0);
        let lines = compare(&a, &a);
        assert!(lines.iter().all(Result::is_ok));
        let exact_rows = spec::SIM_WORKLOADS.len();
        assert_eq!(
            lines.len(),
            spec::WORKLOADS.len() * spec::END_TO_END.len() + exact_rows
        );
    }

    #[test]
    fn direction_and_bound_decide() {
        let a = results(1.0, 100.0, 0.01, 5.0);
        // 19 % slower and 19 % lower rate: inside the 20 % bounds.
        assert!(failures(&a, &results(1.19, 81.0, 0.01, 5.0)).is_empty());
        // 21 % slower wall fails on every workload; a faster one never does.
        let slow = failures(&a, &results(1.21, 100.0, 0.01, 5.0));
        assert_eq!(slow.len(), spec::WORKLOADS.len());
        assert!(slow[0].contains("wall_s"));
        assert!(failures(&a, &results(0.5, 100.0, 0.01, 5.0)).is_empty());
        // A rate is worse when it falls.
        let low = failures(&a, &results(1.0, 75.0, 0.01, 5.0));
        assert!(low.iter().all(|l| l.contains("pairs_per_s")) && !low.is_empty());
        assert!(failures(&a, &results(1.0, 150.0, 0.01, 5.0)).is_empty());
    }

    #[test]
    fn small_setup_differences_are_ignored_and_exact_metrics_are_exact() {
        let a = results(1.0, 100.0, 0.010, 5.0);
        // Three times slower but 20 ms apart: ignored.
        assert!(failures(&a, &results(1.0, 100.0, 0.030, 5.0)).is_empty());
        // 40 % and 0.4 s apart: gated.
        let b = results(1.0, 100.0, 1.0, 5.0);
        assert!(!failures(&b, &results(1.0, 100.0, 1.4, 5.0)).is_empty());
        // The simulated makespan may not move at all on simulator workloads.
        let moved = failures(&a, &results(1.0, 100.0, 0.010, 5.000001));
        assert_eq!(moved.len(), spec::SIM_WORKLOADS.len());
        // A file without the metric is reported, not skipped.
        let hollow = obj([("seed", Json::Num(1.0)), ("workloads", obj([]))]);
        assert_eq!(
            failures(&a, &hollow).len(),
            spec::WORKLOADS.len() * spec::END_TO_END.len()
        );
    }
}
