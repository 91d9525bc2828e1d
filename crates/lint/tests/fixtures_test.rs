//! Fixture corpus: each rule family is proven by a violating fixture
//! (checked against golden JSON diagnostics) and a clean fixture full of
//! near-misses that must stay silent.
//!
//! Regenerate goldens with `UPDATE_GOLDEN=1 cargo test -p rocket-lint`.

use std::path::{Path, PathBuf};

use rocket_lint::config::{LintConfig, RuleScope};
use rocket_lint::diag::{render_json, Diagnostic};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn unsuppressed(diags: &[Diagnostic]) -> usize {
    diags.iter().filter(|d| !d.suppressed).count()
}

fn check_golden(name: &str, diags: &[Diagnostic]) {
    let actual = render_json(diags);
    let path = fixtures().join("golden").join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run UPDATE_GOLDEN=1"));
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "golden mismatch for {name}; run UPDATE_GOLDEN=1 cargo test -p rocket-lint to refresh"
    );
}

fn scope(paths: &[&str]) -> RuleScope {
    RuleScope {
        paths: paths.iter().map(|p| p.to_string()).collect(),
        allow_files: Vec::new(),
    }
}

#[test]
fn determinism_violating_matches_golden() {
    let cfg = LintConfig {
        determinism: scope(&["violating.rs"]),
        ..Default::default()
    };
    let diags = rocket_lint::run(&fixtures().join("determinism"), &cfg).unwrap();
    assert_eq!(unsuppressed(&diags), 4, "{diags:?}");
    let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["RL-D001", "RL-D002", "RL-D003", "RL-D004"]);
    check_golden("determinism.json", &diags);
}

#[test]
fn determinism_clean_is_silent() {
    let cfg = LintConfig {
        determinism: scope(&["clean.rs"]),
        ..Default::default()
    };
    let diags = rocket_lint::run(&fixtures().join("determinism"), &cfg).unwrap();
    // The clean fixture carries one deliberately suppressed finding to
    // exercise the lint:allow path end to end.
    assert_eq!(unsuppressed(&diags), 0, "{diags:?}");
    assert_eq!(diags.len(), 1);
    assert!(diags[0].suppressed);
}

#[test]
fn panic_path_violating_matches_golden() {
    let cfg = LintConfig {
        panic_path: scope(&["violating.rs"]),
        ..Default::default()
    };
    let diags = rocket_lint::run(&fixtures().join("panic_path"), &cfg).unwrap();
    assert_eq!(unsuppressed(&diags), 4, "{diags:?}");
    let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["RL-P001", "RL-P001", "RL-P002", "RL-P003"]);
    check_golden("panic_path.json", &diags);
}

#[test]
fn panic_path_clean_is_silent() {
    let cfg = LintConfig {
        panic_path: scope(&["clean.rs"]),
        ..Default::default()
    };
    let diags = rocket_lint::run(&fixtures().join("panic_path"), &cfg).unwrap();
    assert!(diags.is_empty(), "{diags:?}");
}
