//! CLI for the offline workspace analyzer (`crates/lint`).
//!
//! ```text
//! rocket-lint [--root DIR] [--config PATH] [--json] [--json-out FILE]
//!             [--list-rules]
//! ```
//!
//! Exit status: 0 clean (suppressed findings allowed), 1 unsuppressed
//! diagnostics, 2 configuration or I/O error — so CI can distinguish
//! "code is dirty" from "the linter itself broke".

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use rocket_lint::config::LintConfig;
use rocket_lint::diag::{render_human, render_json};

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    json: bool,
    json_out: Option<PathBuf>,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        config: None,
        json: false,
        json_out: None,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?),
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a path")?))
            }
            "--json" => args.json = true,
            "--json-out" => {
                args.json_out = Some(PathBuf::from(it.next().ok_or("--json-out needs a path")?))
            }
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                out("rocket-lint: offline workspace analyzer\n\
                     \n\
                     Options:\n\
                       --root DIR        workspace root (default: .)\n\
                       --config PATH     lint.toml (default: <root>/lint.toml)\n\
                       --json            print the JSON report to stdout\n\
                       --json-out FILE   also write the JSON report to FILE\n\
                       --list-rules      print the rule catalog and exit");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// Prints to stdout, ignoring broken pipes (`rocket-lint | head` must
/// not panic — this tool polices panic-free fault paths, after all).
fn out(s: &str) {
    let _ = writeln!(std::io::stdout(), "{s}");
}

const RULE_CATALOG: &str = "\
RL-D001  determinism  std HashMap/HashSet (randomized iteration order)
RL-D002  determinism  wall-clock read (Instant::now / SystemTime)
RL-D003  determinism  host-timed thread::sleep
RL-D004  determinism  unseeded RNG entry point
RL-P001  panic-path   unwrap()/expect() on a fault path
RL-P002  panic-path   panic!/unreachable!/todo!/unimplemented! on a fault path
RL-P003  panic-path   slice indexing on a fault path";

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.list_rules {
        out(RULE_CATALOG);
        return Ok(ExitCode::SUCCESS);
    }
    let config_path = args
        .config
        .clone()
        .unwrap_or_else(|| args.root.join("lint.toml"));
    let cfg_src = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("read {}: {e}", config_path.display()))?;
    let cfg = LintConfig::parse(&cfg_src)?;
    let diags = rocket_lint::run(&args.root, &cfg)?;
    let json = render_json(&diags);
    if let Some(path) = &args.json_out {
        std::fs::write(path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if args.json {
        let _ = write!(std::io::stdout(), "{json}");
    } else {
        for d in &diags {
            out(&render_human(d));
        }
        let unsuppressed = diags.iter().filter(|d| !d.suppressed).count();
        let suppressed = diags.len() - unsuppressed;
        out(&format!(
            "rocket-lint: {unsuppressed} unsuppressed finding(s), {suppressed} suppressed"
        ));
    }
    if diags.iter().any(|d| !d.suppressed) {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rocket-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}
