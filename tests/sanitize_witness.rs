//! End-to-end exercise of the lock-order sanitizer: drive real workloads
//! under instrumentation, check their locks were witnessed, and prove the
//! online cycle assertion fires. Built only with `--features sanitize`.

#![cfg(feature = "sanitize")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rocket::apps::{ForensicsApp, ForensicsConfig, ForensicsDataset};
use rocket::core::sanitize::{self, Mutex};
use rocket::core::{NodeSpec, Scenario, ThreadedBackend};
use rocket::steal::JobLimiter;

/// One test fn: the global witness graph is process-wide, so the phases
/// must run in a fixed order (workloads -> cycle experiment -> reset).
#[test]
fn instrumented_workloads_are_witnessed_and_inversions_panic() {
    // Phase 1: real workloads under instrumentation. The threaded engine
    // exercises host_slots/outputs/objects, its channels and the steal
    // pool's deques; the limiter its semaphore.
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
    for name in [
        "available",
        "host_slots",
        "outputs",
        "objects",
        "channel",
        "deques",
    ] {
        assert!(
            locks.iter().any(|l| l == name),
            "lock `{name}` not witnessed: {locks:?}"
        );
    }

    // Phase 2: the online cycle assertion. Nest zz_a -> zz_b, then
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

    // Phase 3: clear the (now cyclic) graph so nothing after us trips.
    sanitize::reset();
}
