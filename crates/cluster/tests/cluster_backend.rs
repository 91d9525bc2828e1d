//! Integration tests for [`ClusterBackend`]: equivalence with in-process
//! backends, the event-driven control plane (neither a step of a cell
//! nor shutdown waits on a timer), and the worker-failure matrix (wrong
//! protocol version / killed before handshake / during a cell / duplicate
//! late reports / job timeouts / total loss / below-quorum degradation),
//! over both transports.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rocket_cluster::{
    serve, ClusterBackend, ClusterEvent, ClusterOptions, ServeReport, ToDriver, ToWorker,
    PROTOCOL_VERSION,
};
use rocket_comm::wire::Wire;
use rocket_comm::TransportKind;
use rocket_core::{Axis, Backend, NodeSpec, RocketError, Scenario, Study, Sweep};
use rocket_sim::SimBackend;
use rocket_stats::Dist;

fn toy_scenario(seed: u64) -> Scenario {
    let mut workload = rocket_core::WorkloadProfile::items_only(12);
    workload.file_bytes = 1_000_000;
    workload.item_bytes = 10_000_000;
    workload.parse = Dist::Constant(10e-3);
    workload.preprocess = Some(Dist::Constant(5e-3));
    workload.compare = Dist::Constant(1e-3);
    Scenario::builder()
        .workload(workload)
        .nodes(2, NodeSpec::uniform(1, 8, 16))
        .seed(seed)
        .build()
}

/// Aggressive timings so faults surface within milliseconds, not seconds.
fn fast() -> ClusterOptions {
    ClusterOptions {
        ping_interval: Duration::from_millis(25),
        liveness_timeout: Duration::from_millis(150),
        job_timeout: Duration::from_secs(30),
        quorum: None,
    }
}

/// Timers so slow that none can fire inside a test: whatever completes
/// quickly under these completed because something woke the dispatcher.
fn no_timers() -> ClusterOptions {
    ClusterOptions {
        ping_interval: Duration::from_secs(30),
        liveness_timeout: Duration::from_secs(60),
        job_timeout: Duration::from_secs(60),
        quorum: None,
    }
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn ready_workers(backend: &ClusterBackend) -> usize {
    backend
        .events()
        .iter()
        .filter(|e| matches!(e, ClusterEvent::WorkerReady { .. }))
        .count()
}

/// A driver plus `workers` real serve loops over a mesh of `kind`.
fn cluster_over(
    kind: TransportKind,
    workers: usize,
    opts: ClusterOptions,
) -> (ClusterBackend, Vec<std::thread::JoinHandle<ServeReport>>) {
    let mut eps = kind.connect(workers + 1).unwrap();
    let driver_ep = eps.remove(0);
    let handles = eps
        .into_iter()
        .map(|ep| std::thread::spawn(move || serve(ep.as_ref(), &SimBackend::new())))
        .collect();
    let backend = ClusterBackend::over(driver_ep, opts).unwrap();
    (backend, handles)
}

#[test]
fn study_on_cluster_matches_local_sim() {
    let (backend, handles) = cluster_over(TransportKind::Local, 3, fast());
    let sweep = Sweep::over(toy_scenario(11))
        .axis(Axis::items([8, 10, 12]))
        .axis(Axis::hops([1, 2]))
        .try_build()
        .unwrap();
    let on_cluster = Study::new("equiv")
        .threads(3)
        .run(&backend, &sweep)
        .expect("cluster study");
    let local = Study::new("equiv")
        .run(&SimBackend::new(), &sweep)
        .expect("local study");

    assert_eq!(on_cluster.cells.len(), local.cells.len());
    for (c, l) in on_cluster.cells.iter().zip(&local.cells) {
        // Byte-identical per cell: the worker ran the same deterministic
        // engine on the bit-exact decoded scenario.
        assert_eq!(format!("{:?}", c.run()), format!("{:?}", l.run()));
        assert!(!c.degraded());
    }
    assert!(on_cluster.degraded_cells().is_empty());
    assert_eq!(on_cluster.backend, "cluster");
    assert!(backend.lost_workers().is_empty());
    assert!(backend.fault_summary().contains("no faults"));

    drop(backend);
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn no_step_of_a_cell_waits_for_a_timer() {
    const RUNS: u64 = 200;
    // The smallest cell there is, so the control plane is all the test
    // times — in a debug build too.
    let cell = |seed| {
        Scenario::builder()
            .items(4)
            .node(NodeSpec::uniform(1, 4, 8))
            .seed(seed)
            .build()
    };
    let local: Vec<String> = (0..RUNS)
        .map(|seed| format!("{:?}", SimBackend::new().run(&cell(seed)).unwrap()))
        .collect();
    for kind in [TransportKind::Local, TransportKind::Socket] {
        let (backend, handles) = cluster_over(kind, 1, no_timers());
        // A lone cell is submit -> deal -> run -> report -> reply. Were any
        // of those hand-offs picked up by a tick instead of a wake-up (the
        // old dispatcher needed three ticks of >= 10 ms per cell), 200
        // cells in sequence would take over 6 s; event-driven they take
        // about 0.15 s. The bound sits an order of magnitude from both.
        let started = Instant::now();
        for (seed, want) in (0..RUNS).zip(&local) {
            let report = backend.run(&cell(seed)).expect("cluster run");
            assert_eq!(&format!("{report:?}"), want, "{kind:?}, seed {seed}");
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "{RUNS} sequential cells over {kind:?} took {elapsed:?}"
        );
        assert!(backend.fault_summary().contains("no faults"));

        // Shutdown neither: the dispatcher is asleep until the first ping
        // comes due, half a minute from here, and Drop has to wake it.
        let started = Instant::now();
        drop(backend);
        for h in handles {
            assert!(h.join().unwrap().clean_exit);
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "shutdown over {kind:?} took {elapsed:?}"
        );
    }
}

#[test]
fn sequential_jobs_are_spread_over_every_worker() {
    let (backend, handles) = cluster_over(TransportKind::Local, 2, no_timers());
    wait_for(|| ready_workers(&backend) == 2, "both workers ready");
    // Each job is done before the next is submitted, so both workers are
    // idle at every deal: rank alone would give all six to rank 1.
    for seed in 0..6 {
        backend.run(&toy_scenario(seed)).expect("cluster run");
    }
    drop(backend);
    for h in handles {
        assert_eq!(h.join().unwrap().jobs, 3);
    }
}

#[test]
fn worker_speaking_an_older_protocol_is_refused() {
    let mut eps = TransportKind::Local.connect(3).unwrap();
    let driver_ep = eps.remove(0);
    let stale = eps.remove(0);
    let w2 = eps.remove(0);

    // Rank 1 announces the previous protocol revision, then counts the
    // jobs it is dealt until the test stops it.
    let stop = Arc::new(AtomicBool::new(false));
    let stub_stop = Arc::clone(&stop);
    let h1 = std::thread::spawn(move || {
        let version = PROTOCOL_VERSION - 1;
        stale
            .send(0, ToDriver::Ready { version }.to_bytes())
            .unwrap();
        let mut jobs = 0;
        while !stub_stop.load(Ordering::SeqCst) {
            if let Ok(msg) = stale.recv_timeout(Duration::from_millis(10)) {
                let frame = ToWorker::from_bytes(msg.payload).unwrap();
                jobs += usize::from(matches!(frame, ToWorker::Job { .. }));
            }
        }
        jobs
    });
    let h2 = std::thread::spawn(move || serve(w2.as_ref(), &SimBackend::new()));
    let opts = ClusterOptions {
        quorum: Some(1),
        ..no_timers()
    };
    let backend = ClusterBackend::over(driver_ep, opts).unwrap();
    let ready = || backend.lost_workers() == [1] && ready_workers(&backend) == 1;
    wait_for(ready, "rank 1 refused and rank 2 ready");
    let v = PROTOCOL_VERSION;
    let cause = format!("speaks protocol v{}, driver speaks v{v}", v - 1);
    let refused = ClusterEvent::WorkerLost {
        worker: 1,
        cause,
        requeued: None,
    };
    let events = backend.events();
    assert!(events.contains(&refused), "{events:?}");

    let report = backend.run(&toy_scenario(81)).expect("cluster run");
    let local = SimBackend::new().run(&toy_scenario(81)).unwrap();
    assert_eq!(format!("{report:?}"), format!("{local:?}"));

    drop(backend);
    stop.store(true, Ordering::SeqCst);
    assert_eq!(h1.join().unwrap(), 0, "the refused worker was dealt a job");
    assert_eq!(h2.join().unwrap().jobs, 1);
}

#[test]
fn worker_killed_before_handshake_is_tolerated() {
    let mut eps = TransportKind::Local.connect(4).unwrap();
    let driver_ep = eps.remove(0);
    let dead = eps.pop().unwrap(); // rank 3: never handshakes
    let handles: Vec<_> = eps
        .into_iter()
        .map(|ep| {
            std::thread::spawn(move || {
                serve(ep.as_ref(), &SimBackend::new());
            })
        })
        .collect();
    drop(dead);
    let backend = ClusterBackend::over(driver_ep, fast()).unwrap();

    let report = backend.run(&toy_scenario(5)).expect("run succeeds");
    let local = SimBackend::new().run(&toy_scenario(5)).unwrap();
    assert_eq!(format!("{report:?}"), format!("{local:?}"));
    assert!(!report.degraded, "2 of 3 workers is still at quorum");

    wait_for(
        || backend.lost_workers().contains(&3),
        "rank 3 declared lost",
    );
    assert_eq!(backend.lost_workers(), vec![3]);

    drop(backend);
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn worker_dying_mid_cell_gets_redealt() {
    let mut eps = TransportKind::Local.connect(3).unwrap();
    let driver_ep = eps.remove(0);
    let w1 = eps.remove(0);
    let w2 = eps.remove(0);

    // Rank 1 handshakes, answers pings — then dies on its first job.
    let h1 = std::thread::spawn(move || {
        w1.send(
            0,
            ToDriver::Ready {
                version: PROTOCOL_VERSION,
            }
            .to_bytes(),
        )
        .unwrap();
        loop {
            match w1.recv_timeout(Duration::from_secs(10)) {
                Ok(msg) => match ToWorker::from_bytes(msg.payload).unwrap() {
                    ToWorker::Job { .. } => return, // endpoint drops: mid-cell death
                    ToWorker::Ping { nonce } => {
                        let _ = w1.send(0, ToDriver::Pong { nonce }.to_bytes());
                    }
                    ToWorker::Shutdown => return,
                },
                Err(_) => return,
            }
        }
    });
    let h2 = std::thread::spawn(move || {
        serve(w2.as_ref(), &SimBackend::new());
    });
    let backend = ClusterBackend::over(driver_ep, fast()).unwrap();
    // Both ready first, so dispatch deterministically picks rank 1.
    wait_for(|| ready_workers(&backend) == 2, "both workers ready");

    let mut report = backend.run(&toy_scenario(21)).expect("survivor finishes");
    assert!(report.degraded, "re-dealt work is flagged");
    report.degraded = false;
    let local = SimBackend::new().run(&toy_scenario(21)).unwrap();
    assert_eq!(
        format!("{report:?}"),
        format!("{local:?}"),
        "totals identical to the no-fault run"
    );

    let events = backend.events();
    assert!(
        events.iter().any(|e| matches!(
            e,
            ClusterEvent::WorkerLost {
                worker: 1,
                requeued: Some(_),
                ..
            }
        )),
        "loss with requeue recorded: {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            ClusterEvent::Redealt {
                attempt: 2,
                to: 2,
                ..
            }
        )),
        "re-deal to rank 2 recorded: {events:?}"
    );
    assert!(backend.fault_summary().contains("re-dealt"));

    drop(backend);
    h1.join().unwrap();
    h2.join().unwrap();
}

#[test]
fn duplicate_late_reports_are_dropped() {
    let mut eps = TransportKind::Local.connect(2).unwrap();
    let driver_ep = eps.remove(0);
    let w1 = eps.remove(0);

    // Rank 1 reports every job twice — byte-identical frames.
    let h1 = std::thread::spawn(move || {
        w1.send(
            0,
            ToDriver::Ready {
                version: PROTOCOL_VERSION,
            }
            .to_bytes(),
        )
        .unwrap();
        loop {
            match w1.recv_timeout(Duration::from_secs(10)) {
                Ok(msg) => match ToWorker::from_bytes(msg.payload).unwrap() {
                    ToWorker::Job { id, scenario } => {
                        let report = SimBackend::new().run(&scenario).unwrap();
                        let frame = ToDriver::Done { id, report }.to_bytes();
                        w1.send(0, frame.clone()).unwrap();
                        w1.send(0, frame).unwrap();
                    }
                    ToWorker::Ping { nonce } => {
                        let _ = w1.send(0, ToDriver::Pong { nonce }.to_bytes());
                    }
                    ToWorker::Shutdown => return,
                },
                Err(_) => return,
            }
        }
    });
    let backend = ClusterBackend::over(
        driver_ep,
        ClusterOptions {
            quorum: Some(1),
            ..fast()
        },
    )
    .unwrap();

    let first = backend.run(&toy_scenario(31)).expect("first job");
    let second = backend.run(&toy_scenario(32)).expect("second job");
    assert!(!first.degraded && !second.degraded);
    assert_eq!(first.pairs, 12 * 11 / 2);
    assert_eq!(second.pairs, 12 * 11 / 2);

    wait_for(
        || {
            backend
                .events()
                .iter()
                .filter(|e| matches!(e, ClusterEvent::DuplicateDropped { .. }))
                .count()
                >= 2
        },
        "both duplicates observed and dropped",
    );
    assert!(backend.fault_summary().contains("duplicate"));

    drop(backend);
    h1.join().unwrap();
}

#[test]
fn stuck_worker_times_out_and_job_is_redealt() {
    let mut eps = TransportKind::Local.connect(3).unwrap();
    let driver_ep = eps.remove(0);
    let w1 = eps.remove(0);
    let w2 = eps.remove(0);

    // Rank 1 stays perfectly alive but swallows every job.
    let h1 = std::thread::spawn(move || {
        w1.send(
            0,
            ToDriver::Ready {
                version: PROTOCOL_VERSION,
            }
            .to_bytes(),
        )
        .unwrap();
        loop {
            match w1.recv_timeout(Duration::from_secs(10)) {
                Ok(msg) => match ToWorker::from_bytes(msg.payload).unwrap() {
                    ToWorker::Job { .. } => { /* accept silently, never report */ }
                    ToWorker::Ping { nonce } => {
                        let _ = w1.send(0, ToDriver::Pong { nonce }.to_bytes());
                    }
                    ToWorker::Shutdown => return,
                },
                Err(_) => return,
            }
        }
    });
    let h2 = std::thread::spawn(move || {
        serve(w2.as_ref(), &SimBackend::new());
    });
    let backend = ClusterBackend::over(
        driver_ep,
        ClusterOptions {
            job_timeout: Duration::from_millis(200),
            quorum: Some(1),
            ..fast()
        },
    )
    .unwrap();
    wait_for(|| ready_workers(&backend) == 2, "both workers ready");

    let mut report = backend
        .run(&toy_scenario(41))
        .expect("redealt job finishes");
    assert!(report.degraded, "timeout-triggered re-deal is flagged");
    report.degraded = false;
    let local = SimBackend::new().run(&toy_scenario(41)).unwrap();
    assert_eq!(format!("{report:?}"), format!("{local:?}"));

    let events = backend.events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ClusterEvent::JobTimedOut { worker: 1, .. })),
        "timeout recorded: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ClusterEvent::Redealt { to: 2, .. })),
        "re-deal recorded: {events:?}"
    );
    assert!(
        backend.lost_workers().is_empty(),
        "a slow worker is not a dead worker"
    );

    drop(backend);
    h1.join().unwrap();
    h2.join().unwrap();
}

#[test]
fn losing_every_worker_fails_with_typed_error() {
    let mut eps = TransportKind::Local.connect(3).unwrap();
    let driver_ep = eps.remove(0);
    drop(eps); // both workers die before handshaking
    let backend = ClusterBackend::over(driver_ep, fast()).unwrap();

    match backend.run(&toy_scenario(51)) {
        Err(RocketError::WorkerLost { worker, cause }) => {
            assert!(worker == 1 || worker == 2);
            assert!(!cause.is_empty());
        }
        other => panic!("expected WorkerLost, got {other:?}"),
    }
    // Later submissions fail fast instead of hanging.
    assert!(matches!(
        backend.run(&toy_scenario(52)),
        Err(RocketError::WorkerLost { .. })
    ));
}

#[test]
fn below_quorum_completions_are_degraded_and_reported() {
    let mut eps = TransportKind::Local.connect(4).unwrap();
    let driver_ep = eps.remove(0);
    let w1 = eps.remove(0);
    drop(eps); // ranks 2 and 3 die before handshaking
    let h1 = std::thread::spawn(move || {
        serve(w1.as_ref(), &SimBackend::new());
    });
    let backend = ClusterBackend::over(driver_ep, fast()).unwrap();
    wait_for(|| backend.lost_workers().len() == 2, "ranks 2 and 3 lost");

    let sweep = Sweep::over(toy_scenario(61))
        .axis(Axis::items([8, 10]))
        .try_build()
        .unwrap();
    let mut study = Study::new("degraded")
        .threads(2)
        .run(&backend, &sweep)
        .expect("partial capacity still completes the sweep");
    assert_eq!(study.degraded_cells(), vec![0, 1]);
    for line in study.to_csv().lines().skip(1) {
        assert!(line.ends_with(",true"), "degraded column set: {line}");
    }
    study.push_notes(&backend.fault_summary());
    assert!(study.notes.contains("lost [2, 3]"), "{}", study.notes);

    let events = backend.events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ClusterEvent::BelowQuorum { live: 1, quorum: 2 })),
        "quorum transition recorded: {events:?}"
    );

    drop(backend);
    h1.join().unwrap();
}

#[test]
fn socket_mesh_survives_mid_cell_disconnect() {
    let mut eps = TransportKind::Socket.connect(3).unwrap();
    let driver_ep = eps.remove(0);
    let w1 = eps.remove(0);
    let w2 = eps.remove(0);

    // Rank 1 dies on its first job by dropping its socket endpoint; the
    // driver sees the connection reset (peer_alive turns false) without
    // waiting for a heartbeat deadline.
    let h1 = std::thread::spawn(move || {
        w1.send(
            0,
            ToDriver::Ready {
                version: PROTOCOL_VERSION,
            }
            .to_bytes(),
        )
        .unwrap();
        loop {
            match w1.recv_timeout(Duration::from_secs(10)) {
                Ok(msg) => match ToWorker::from_bytes(msg.payload) {
                    Ok(ToWorker::Job { .. }) => return,
                    Ok(ToWorker::Ping { nonce }) => {
                        let _ = w1.send(0, ToDriver::Pong { nonce }.to_bytes());
                    }
                    Ok(ToWorker::Shutdown) => return,
                    Err(_) => {}
                },
                Err(_) => return,
            }
        }
    });
    let h2 = std::thread::spawn(move || {
        serve(w2.as_ref(), &SimBackend::new());
    });
    let backend = ClusterBackend::over(
        driver_ep,
        ClusterOptions {
            quorum: Some(1),
            ..fast()
        },
    )
    .unwrap();
    wait_for(|| ready_workers(&backend) == 2, "both workers ready");

    let mut report = backend.run(&toy_scenario(71)).expect("survivor finishes");
    assert!(report.degraded);
    report.degraded = false;
    let local = SimBackend::new().run(&toy_scenario(71)).unwrap();
    assert_eq!(format!("{report:?}"), format!("{local:?}"));
    assert_eq!(backend.lost_workers(), vec![1]);

    // The mesh keeps working after the loss.
    let after = backend.run(&toy_scenario(72)).expect("post-loss job");
    assert_eq!(after.pairs, 12 * 11 / 2);

    drop(backend);
    h1.join().unwrap();
    h2.join().unwrap();
}
