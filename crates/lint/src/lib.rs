//! rocket-lint: an offline analyzer for the Rocket workspace.
//!
//! Rocket's correctness claims rest on properties the compiler does not
//! check: bit-identical replay for a fixed seed, and fault paths that
//! degrade instead of aborting. This crate enforces both as a CI gate,
//! with no dependency on `syn`, `rustc` internals, or the network — it
//! tokenizes the source directly ([`lexer`]) and runs two rule families
//! ([`rules`]) over the scopes named in `lint.toml` ([`config`]). Lock
//! order is checked at run time instead, by `rocket-sanitize`'s online
//! cycle assertion under `--features sanitize`. Wire-codec completeness
//! is checked by rustc (the codec destructures every struct it ships)
//! and by the protocol golden in `rocket-cluster`.
//!
//! Findings carry stable codes (`RL-D001`, ...) and can be excused in
//! place with a `// lint:allow(<rule-or-code>) — rationale` comment on
//! (or immediately above) the offending line, or wholesale for a
//! sanctioned file via `allow_files`. Suppressed findings still appear in
//! the report, marked, so the exception inventory stays visible.
//!
//! The `rocket-lint` binary (in the workspace root crate) is the CLI:
//! exit 0 when clean, 1 on unsuppressed diagnostics, 2 on config errors.

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;

use std::path::{Path, PathBuf};

use config::LintConfig;
use diag::Diagnostic;
use source::SourceFile;

/// Collects `.rs` files under each configured path (relative to `root`),
/// in deterministic sorted order. A path may be a single file.
fn rs_files(root: &Path, rel_paths: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for rel in rel_paths {
        let full = root.join(rel);
        if full.is_file() {
            out.push(full);
        } else if full.is_dir() {
            walk(&full, &mut out)?;
        } else {
            return Err(format!("lint.toml names `{rel}`, which does not exist"));
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Root-relative display path (falls back to the full path).
fn rel_display(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn load_scope(
    root: &Path,
    paths: &[String],
    allow_files: &[String],
) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    for path in rs_files(root, paths)? {
        let rel = rel_display(root, &path);
        if allow_files.contains(&rel) {
            continue;
        }
        let src =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        files.push(SourceFile::new(rel, &src));
    }
    Ok(files)
}

/// Runs every configured rule family over the workspace at `root`.
///
/// The result contains suppressed findings too (marked); callers gate on
/// the unsuppressed count. `Err` means the run itself could not proceed
/// (missing files, malformed config) — distinct from "found problems".
pub fn run(root: &Path, cfg: &LintConfig) -> Result<Vec<Diagnostic>, String> {
    let mut out = Vec::new();

    if !cfg.determinism.paths.is_empty() {
        for file in load_scope(root, &cfg.determinism.paths, &cfg.determinism.allow_files)? {
            rules::determinism::check(&file, &mut out);
        }
    }
    if !cfg.panic_path.paths.is_empty() {
        for file in load_scope(root, &cfg.panic_path.paths, &cfg.panic_path.allow_files)? {
            rules::panic_path::check(&file, &mut out);
        }
    }

    diag::sort(&mut out);
    Ok(out)
}

/// Loads `lint.toml` from `path` and runs over `root`.
pub fn run_with_config_file(root: &Path, config_path: &Path) -> Result<Vec<Diagnostic>, String> {
    let src = std::fs::read_to_string(config_path)
        .map_err(|e| format!("read {}: {e}", config_path.display()))?;
    let cfg = LintConfig::parse(&src)?;
    run(root, &cfg)
}
