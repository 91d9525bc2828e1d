//! End-to-end exercise of the lock-witness sanitizer: drive real
//! workloads under instrumentation, dump the witness, cross-check it
//! against the static model in-process, and prove the online cycle
//! assertion fires. Built only with `--features sanitize`.

#![cfg(feature = "sanitize")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

use rocket::apps::{ForensicsApp, ForensicsConfig, ForensicsDataset};
use rocket::core::sanitize::{self, Mutex};
use rocket::core::{NodeSpec, Scenario, ThreadedBackend};
use rocket::steal::JobLimiter;

/// One test fn: the global witness graph is process-wide, so the phases
/// must run in a fixed order (workloads -> dump -> cross-check -> cycle
/// experiment -> reset).
#[test]
fn witnessed_locks_agree_with_the_static_model() {
    // Phase 1: real workloads under instrumentation. The threaded engine
    // exercises host_slots/outputs/objects; the limiter its semaphore.
    let cfg = ForensicsConfig {
        images: 10,
        cameras: 2,
        width: 32,
        height: 32,
        ..Default::default()
    };
    let ds = ForensicsDataset::generate(cfg.clone());
    let app = ForensicsApp::new(&cfg);
    let scenario = Scenario::builder()
        .items(10)
        .node(NodeSpec::uniform(1, 8, 16))
        .job_limit(6)
        .cpu_threads(2)
        .leaf_pairs(1)
        .build();
    let report = ThreadedBackend::new(Arc::new(app), Arc::new(ds.store))
        .run_app(&scenario)
        .expect("instrumented run");
    assert_eq!(report.outputs.len(), 10 * 9 / 2);

    let limiter = JobLimiter::new(2);
    limiter.acquire();
    limiter.release();

    let locks = sanitize::locks();
    for name in ["available", "host_slots", "outputs", "objects"] {
        assert!(
            locks.iter().any(|l| l == name),
            "lock `{name}` not witnessed: {locks:?}"
        );
    }

    // Phase 2: dump and cross-check against the checked-in lint.toml.
    // Acceptance: no static/dynamic disagreement on the real workspace.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let witness_dir = std::env::temp_dir().join(format!("rocket-witness-{}", std::process::id()));
    std::fs::create_dir_all(&witness_dir).expect("witness dir");
    let witness_file = witness_dir.join("witness-test.json");
    sanitize::write_witness(&witness_file).expect("write witness");

    let lint_cfg = {
        let src = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml");
        rocket_lint::config::LintConfig::parse(&src).expect("parse lint.toml")
    };
    let diags =
        rocket_lint::cross_check_witness(root, &lint_cfg, &witness_file).expect("cross-check");
    let disagreements: Vec<_> = diags.iter().filter(|d| !d.suppressed).collect();
    assert!(
        disagreements.is_empty(),
        "static/dynamic disagreement:\n{}",
        disagreements
            .iter()
            .map(|d| rocket_lint::diag::render_human(d))
            .collect::<Vec<_>>()
            .join("\n")
    );
    let _ = std::fs::remove_dir_all(&witness_dir);

    // Phase 3: the online cycle assertion. Nest zz_a -> zz_b, then
    // invert; the second nesting must panic with the witnessed cycle
    // instead of deadlocking some future run.
    let a = Mutex::named("zz_a", ());
    let b = Mutex::named("zz_b", ());
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    let inverted = catch_unwind(AssertUnwindSafe(|| {
        let _gb = b.lock();
        let _ga = a.lock();
    }));
    let err = inverted.expect_err("lock-order inversion must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_else(|| {
        err.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_default()
    });
    assert!(msg.contains("lock-order cycle"), "unexpected panic: {msg}");

    // Phase 4: clear the (now cyclic) graph so nothing after us trips.
    sanitize::reset();
}
