//! Fixture corpus: each rule family is proven by a violating fixture
//! (checked against golden JSON diagnostics) and a clean fixture full of
//! near-misses that must stay silent.
//!
//! Regenerate goldens with `UPDATE_GOLDEN=1 cargo test -p rocket-lint`.

use std::path::{Path, PathBuf};

use rocket_lint::config::{LintConfig, RuleScope, WireDriftConfig};
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

fn wire_cfg(fingerprint: &str) -> LintConfig {
    LintConfig {
        wire_drift: WireDriftConfig {
            struct_paths: vec!["model.rs".into()],
            structs: vec!["JobSpec".into(), "JobResult".into()],
            codec: "codec.rs".into(),
            protocol: "protocol.rs".into(),
            protocol_version: 1,
            protocol_fingerprint: fingerprint.into(),
        },
        ..Default::default()
    }
}

#[test]
fn wire_drift_clean_is_silent() {
    let root = fixtures().join("wire_drift/clean");
    // Record the clean tree's own fingerprint, as lint.toml would.
    let (fp, version) = rocket_lint::protocol_identity(&root, &wire_cfg("")).unwrap();
    assert_eq!(version, Some(1));
    let diags = rocket_lint::run(&root, &wire_cfg(&fp)).unwrap();
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn wire_drift_drifted_matches_golden() {
    let clean = fixtures().join("wire_drift/clean");
    let (clean_fp, _) = rocket_lint::protocol_identity(&clean, &wire_cfg("")).unwrap();
    // Lint the drifted tree against the fingerprint recorded when the
    // protocol was last blessed (i.e. the clean tree's).
    let root = fixtures().join("wire_drift/drifted");
    let diags = rocket_lint::run(&root, &wire_cfg(&clean_fp)).unwrap();
    let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
    // JobSpec::priority missing from both codec directions, plus the
    // unbumped protocol edit.
    assert_eq!(codes, ["RL-W001", "RL-W001", "RL-W002"], "{diags:?}");
    check_golden("wire_drift.json", &diags);
}

#[test]
fn wire_drift_bumped_version_asks_for_rerecord() {
    let clean = fixtures().join("wire_drift/clean");
    let (clean_fp, _) = rocket_lint::protocol_identity(&clean, &wire_cfg("")).unwrap();
    let root = fixtures().join("wire_drift/drifted");
    // Same drifted tree, but pretend the recorded version predates a
    // bump: fingerprint differs AND the file's version (1) differs from
    // the recorded one (0) — the instructive RL-W003 path.
    let mut cfg = wire_cfg(&clean_fp);
    cfg.wire_drift.protocol_version = 0;
    let diags = rocket_lint::run(&root, &cfg).unwrap();
    assert!(
        diags
            .iter()
            .any(|d| d.code == "RL-W003" && d.message.contains("re-record")),
        "{diags:?}"
    );
}
