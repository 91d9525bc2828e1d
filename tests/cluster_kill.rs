//! The harshest fault-tolerance check there is: real `rocket-node --serve`
//! OS processes join a socket mesh, a `Study` sweeps over the resulting
//! [`ClusterBackend`], and one worker is `SIGKILL`ed mid-sweep. The sweep
//! must still complete, every cell must match a local in-process run
//! bit-for-bit (modulo the `degraded` flag on re-dealt cells), and the
//! loss must be reported in the study notes.

use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rocket::cluster::{ClusterBackend, ClusterEvent, ClusterOptions};
use rocket::core::{Axis, NodeSpec, Scenario, Study, Sweep, WorkloadProfile};
use rocket::sim::SimBackend;
use rocket::stats::Dist;

const WORKERS: usize = 3;

/// Reserve `n` distinct loopback ports by binding ephemeral listeners,
/// recording their addresses, and releasing them all at once. The usual
/// test-suite trick: a tiny reuse race in exchange for no fixed ports.
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

fn spawn_worker(rank: usize, addrs: &[SocketAddr]) -> Child {
    let peers = addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    Command::new(env!("CARGO_BIN_EXE_rocket-node"))
        .args(["--rank", &rank.to_string(), "--peers", &peers, "--serve"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rocket-node --serve")
}

fn base_scenario() -> Scenario {
    let mut workload = WorkloadProfile::items_only(24);
    workload.file_bytes = 1_000_000;
    workload.item_bytes = 10_000_000;
    workload.parse = Dist::Constant(10e-3);
    workload.preprocess = Some(Dist::Constant(5e-3));
    workload.compare = Dist::Constant(1e-3);
    Scenario::builder()
        .workload(workload)
        .nodes(2, NodeSpec::uniform(1, 8, 16))
        .seed(0xDEAD_BEEF)
        .build()
}

fn sweep() -> Sweep {
    Sweep::over(base_scenario())
        .axis(Axis::items([12, 16, 20, 24, 28, 32]))
        .axis(Axis::hops([1, 2]))
        .try_build()
        .expect("12-cell sweep")
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn sigkilled_worker_does_not_sink_the_sweep() {
    let addrs = free_addrs(WORKERS + 1);
    let mut children: Vec<Child> = (1..=WORKERS).map(|r| spawn_worker(r, &addrs)).collect();

    // Rank 0: the driver. SocketTransport::join retries connects for ~10s,
    // which covers any spawn/accept ordering between us and the children.
    let backend = ClusterBackend::join(
        &addrs,
        ClusterOptions {
            ping_interval: Duration::from_millis(50),
            liveness_timeout: Duration::from_millis(500),
            job_timeout: Duration::from_secs(10),
            quorum: None, // majority of 3 = 2; one loss stays at quorum
        },
    )
    .expect("driver joins the mesh");
    wait_for(
        || {
            backend
                .events()
                .iter()
                .filter(|e| matches!(e, ClusterEvent::WorkerReady { .. }))
                .count()
                == WORKERS
        },
        "all workers to handshake",
    );

    let study = std::thread::spawn({
        let sweep = sweep();
        move || {
            let report = Study::new("kill-smoke")
                .threads(WORKERS)
                .run(&backend, &sweep)
                .expect("sweep survives the kill");
            (backend, report)
        }
    });

    // kill(2) with SIGKILL — no atexit, no socket shutdown handshake, the
    // kernel just reaps the process. The driver finds out the hard way.
    std::thread::sleep(Duration::from_millis(100));
    children[0].kill().expect("SIGKILL rank 1");

    let (backend, mut report) = study.join().expect("study thread");

    // The sweep completed on the survivors with totals identical to a
    // local, single-process run.
    let mut reference = Study::new("kill-smoke");
    // CI sets ROCKET_PERF_DIR to keep the smoke run's perf logs as an
    // artifact; the reference study is the single-process run, so its
    // logs describe the same cells the cluster executed.
    if let Ok(dir) = std::env::var("ROCKET_PERF_DIR") {
        reference = reference.perf_log_dir(dir);
    }
    let local = reference
        .run(&SimBackend::new(), &sweep())
        .expect("local study");
    assert_eq!(report.cells.len(), local.cells.len());
    for (c, l) in report.cells.iter().zip(&local.cells) {
        let mut run = c.run().clone();
        run.degraded = false; // re-dealt cells are flagged; totals still match
        assert_eq!(format!("{run:?}"), format!("{:?}", l.run()));
    }

    // The loss is always eventually recorded (heartbeats keep running
    // after the sweep), even if the kill landed between jobs.
    wait_for(
        || backend.lost_workers().contains(&1),
        "rank 1 declared lost",
    );
    report.push_notes(&backend.fault_summary());
    assert!(
        report.notes.contains("lost [1]"),
        "loss surfaced in the study report: {}",
        report.notes
    );

    // Dropping the backend broadcasts Shutdown; the survivors exit clean.
    drop(backend);
    let killed = children.remove(0).wait().expect("reap rank 1");
    assert!(!killed.success(), "SIGKILL is not a clean exit");
    for mut child in children {
        let status = child.wait().expect("reap survivor");
        assert!(status.success(), "survivor exited {status:?}");
    }
}
