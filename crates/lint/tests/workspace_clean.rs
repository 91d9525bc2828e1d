//! The live workspace must lint clean: every rule family runs over the
//! real sources with the checked-in `lint.toml`, and every finding must
//! carry an explicit `lint:allow` rationale. A new unsuppressed finding
//! fails this test (and the CI gate) until fixed or excused.

use std::path::Path;

#[test]
fn workspace_has_no_unsuppressed_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = root.join("lint.toml");
    let diags = rocket_lint::run_with_config_file(&root, &config)
        .expect("lint run must succeed on the workspace");
    let dirty: Vec<_> = diags.iter().filter(|d| !d.suppressed).collect();
    assert!(
        dirty.is_empty(),
        "unsuppressed lint findings in the workspace:\n{}",
        dirty
            .iter()
            .map(|d| rocket_lint::diag::render_human(d))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_suppressions_are_the_known_set() {
    // The exception inventory is deliberate and small; growing it should
    // be a conscious act (update this list alongside the rationale
    // comment).
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = root.join("lint.toml");
    let diags = rocket_lint::run_with_config_file(&root, &config).unwrap();
    let suppressed: Vec<String> = diags
        .iter()
        .filter(|d| d.suppressed)
        .map(|d| format!("{}:{}", d.code, d.path))
        .collect();
    assert_eq!(
        suppressed,
        [
            // Host-timed sleep in the steal backoff (paced, not timed).
            "RL-D003:crates/steal/src/pool.rs",
        ],
        "suppression inventory changed — update this test with the new rationale"
    );
}
