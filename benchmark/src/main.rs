//! The repository's benchmark: five workloads, six end-to-end metrics and
//! the per-layer metrics of every crate, behind one command. See
//! `README.md` beside this package and `BENCHMARK.json` at the repository
//! root.
//!
//! ```text
//! rocket-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! rocket-benchmark --all [--seed N] [--seconds S] [--trace] [--out FILE]
//! rocket-benchmark --compare A.json B.json
//! rocket-benchmark --check | --print-spec
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use rocket::apps::json::Json;

mod budget;
mod layers;
mod report;
mod run;
mod spans;
mod spec;
mod stats;
mod sysinfo;
mod timing;
mod workloads;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A JSON object from `(key, value)` rows.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Where traced runs and `--all` leave their files: `out/` beside this
/// package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

const USAGE: &str = "usage:
  rocket-benchmark --workload NAME --seed N --seconds S --trace 0|1
  rocket-benchmark --all [--seed N] [--seconds S] [--trace] [--out FILE]
  rocket-benchmark --compare A.json B.json
  rocket-benchmark --check
  rocket-benchmark --print-spec";

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    check: bool,
    print_spec: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out: None,
        compare: None,
        check: false,
        print_spec: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // `--trace 0|1` as the driver passes it; bare `--trace` with --all.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--all" => args.all = true,
            "--out" => args.out = Some(PathBuf::from(value("a file path")?)),
            "--compare" => {
                let a = PathBuf::from(value("two result files")?);
                let b = PathBuf::from(value("two result files")?);
                args.compare = Some((a, b));
            }
            "--check" => args.check = true,
            "--print-spec" => args.print_spec = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if !spec::is_workload(w) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.print_spec {
        print!("{}", spec::benchmark_json());
        Ok(true)
    } else if args.check {
        std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))
            .and_then(|text| spec::check(&text))
            .map(|()| {
                println!("BENCHMARK.json agrees with the harness");
                true
            })
    } else if let Some((a, b)) = &args.compare {
        report::compare_files(a, b)
    } else if args.all {
        report::run_all(args.seed, args.seconds, args.trace, args.out.as_deref())
    } else if let Some(workload) = &args.workload {
        let result = run::run(workload, args.seed, args.seconds, args.trace);
        result.print();
        Ok(result.correct())
    } else {
        Err(USAGE.to_string())
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload rt-dist --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload.as_deref(), Some("rt-dist"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(!parse("--workload des-seq --trace 0").expect("valid").trace);
        let all = parse("--all --trace --seed 2").expect("valid");
        assert!(all.all && all.trace && all.seed == 2);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds 61").is_err());
        assert!(parse("--compare only-one").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
