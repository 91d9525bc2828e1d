//! Fixture corpus: each rule family is proven by a violating fixture
//! (checked against golden JSON diagnostics) and a clean fixture full of
//! near-misses that must stay silent.
//!
//! Regenerate goldens with `UPDATE_GOLDEN=1 cargo test -p rocket-lint`.

use std::path::{Path, PathBuf};

use rocket_lint::config::{HotPathConfig, LintConfig, RuleScope, WireDriftConfig};
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

#[test]
fn lock_order_inversion_matches_golden() {
    let cfg = LintConfig {
        lock_order: scope(&["violating.rs"]),
        ..Default::default()
    };
    let diags = rocket_lint::run(&fixtures().join("lock_order"), &cfg).unwrap();
    assert_eq!(unsuppressed(&diags), 1, "{diags:?}");
    assert_eq!(diags[0].code, "RL-L001");
    assert!(diags[0].message.contains("jobs"));
    assert!(diags[0].message.contains("stats"));
    check_golden("lock_order.json", &diags);
}

#[test]
fn lock_order_clean_is_silent() {
    let cfg = LintConfig {
        lock_order: scope(&["clean.rs"]),
        ..Default::default()
    };
    let diags = rocket_lint::run(&fixtures().join("lock_order"), &cfg).unwrap();
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

#[test]
fn blocking_violating_matches_golden() {
    // Acceptance proof: a blocking call under a held lock is an
    // unsuppressed finding, which the CLI maps to exit code 1. Hoisting
    // the blocking calls out of the critical sections (clean.rs) maps
    // back to exit 0.
    let cfg = LintConfig {
        blocking: scope(&["violating.rs"]),
        ..Default::default()
    };
    let diags = rocket_lint::run(&fixtures().join("blocking"), &cfg).unwrap();
    assert!(unsuppressed(&diags) > 0, "must flip the exit code");
    let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["RL-B001", "RL-B001", "RL-B002"], "{diags:?}");
    check_golden("blocking.json", &diags);
}

#[test]
fn blocking_clean_is_silent() {
    let cfg = LintConfig {
        blocking: scope(&["clean.rs"]),
        ..Default::default()
    };
    let diags = rocket_lint::run(&fixtures().join("blocking"), &cfg).unwrap();
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn shared_state_violating_matches_golden() {
    let cfg = LintConfig {
        shared_state: scope(&["violating.rs"]),
        ..Default::default()
    };
    let diags = rocket_lint::run(&fixtures().join("shared_state"), &cfg).unwrap();
    let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
    assert_eq!(
        codes,
        ["RL-S001", "RL-S002", "RL-S003", "RL-S004"],
        "{diags:?}"
    );
    check_golden("shared_state.json", &diags);
}

#[test]
fn shared_state_clean_is_silent() {
    let cfg = LintConfig {
        shared_state: scope(&["clean.rs"]),
        ..Default::default()
    };
    let diags = rocket_lint::run(&fixtures().join("shared_state"), &cfg).unwrap();
    assert!(diags.is_empty(), "{diags:?}");
}

fn hot_cfg(file: &str, roots: &[&str]) -> LintConfig {
    LintConfig {
        hot_path: HotPathConfig {
            paths: vec![file.into()],
            allow_files: Vec::new(),
            hot_fns: roots.iter().map(|r| r.to_string()).collect(),
        },
        ..Default::default()
    }
}

#[test]
fn hot_path_violating_matches_golden() {
    let cfg = hot_cfg("violating.rs", &["handle"]);
    let diags = rocket_lint::run(&fixtures().join("hot_path"), &cfg).unwrap();
    let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["RL-A001", "RL-A001", "RL-A002"], "{diags:?}");
    check_golden("hot_path.json", &diags);
}

#[test]
fn hot_path_clean_is_silent() {
    // `preallocate` allocates freely: it is not reachable from the root.
    let cfg = hot_cfg("clean.rs", &["handle"]);
    let diags = rocket_lint::run(&fixtures().join("hot_path"), &cfg).unwrap();
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn hot_path_unknown_root_is_config_error() {
    let cfg = hot_cfg("clean.rs", &["no_such_fn"]);
    let err = rocket_lint::run(&fixtures().join("hot_path"), &cfg).unwrap_err();
    assert!(err.contains("no_such_fn"), "{err}");
}

fn witness_cfg() -> LintConfig {
    LintConfig {
        lock_order: scope(&["src.rs"]),
        ..Default::default()
    }
}

fn cross_check(witness_file: &str) -> Result<Vec<Diagnostic>, String> {
    let root = fixtures().join("witness");
    rocket_lint::cross_check_witness(&root, &witness_cfg(), &root.join(witness_file))
}

#[test]
fn witness_matching_runtime_is_silent() {
    // The runtime saw exactly the edge the static model derives.
    let diags = cross_check("witnessed.json").unwrap();
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn witness_stale_flags_unwitnessed_static_edge() {
    // Acceptance proof for "deleting a lock() from an instrumented guard
    // path flips the exit code": stale.json models a runtime where both
    // locks were still acquired somewhere, but the nested acquisition in
    // `settle` is gone — RL-X001, unsuppressed, exit 1.
    let diags = cross_check("stale.json").unwrap();
    assert!(unsuppressed(&diags) > 0, "must flip the exit code");
    let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["RL-X001"], "{diags:?}");
    assert!(diags[0].message.contains("`intake` -> `ledger`"));
    check_golden("witness_stale.json", &diags);
}

#[test]
fn witness_gap_flags_underived_runtime_edge() {
    // The runtime nested `journal` under `ledger`; the static model has
    // no such edge — an analysis gap or a drifted Mutex::named label.
    let diags = cross_check("gap.json").unwrap();
    let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["RL-X002"], "{diags:?}");
    assert!(diags[0].message.contains("`ledger` -> `journal`"));
    // Root-relative like every other rule's path, so the golden holds in
    // any checkout.
    assert_eq!(diags[0].path, "gap.json");
    check_golden("witness_gap.json", &diags);
}

#[test]
fn witness_partial_coverage_stays_silent() {
    // Only `intake` was ever acquired at runtime: the static edge's far
    // endpoint was never witnessed, so its absence is not disagreement.
    let diags = cross_check("partial.json").unwrap();
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn witness_unsupported_schema_is_an_error() {
    let err = cross_check("bad_schema.json").unwrap_err();
    assert!(err.contains("unsupported witness schema"), "{err}");
}
